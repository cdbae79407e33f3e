#include "traffic/crosscheck.hpp"

#include <algorithm>
#include <cmath>

#include "dataflow/dataflow.hpp"
#include "memsim/memsim.hpp"
#include "support/strings.hpp"
#include "traffic/layout.hpp"

namespace incore::traffic {

using support::format;

const char* to_string(Attribution a) {
  switch (a) {
    case Attribution::SymbolicStride: return "symbolic-stride";
    case Attribution::GatherScatter: return "gather-scatter";
    case Attribution::AliasResolution: return "alias-resolution";
    case Attribution::LayerConditionBoundary:
      return "layer-condition-boundary";
    case Attribution::AssociativityConflict: return "associativity-conflict";
    case Attribution::WriteAllocateModel: return "write-allocate-model";
    case Attribution::WindowCapped: return "window-capped";
  }
  return "?";
}

Crosscheck crosscheck(const asmir::Program& prog,
                      const uarch::MachineModel& mm,
                      const CrosscheckOptions& opt) {
  Crosscheck c;
  c.statics = analyze(prog, mm);
  const Result& r = c.statics;
  const dataflow::Analysis df = dataflow::analyze(prog);

  // Unknowable layouts: skip with attribution instead of simulating a
  // layout the static model never claimed to predict.
  for (const Stream& s : r.streams) {
    if (s.pattern == Pattern::Symbolic) {
      c.attributions.push_back(Attribution::SymbolicStride);
    } else if (s.pattern == Pattern::GatherScatter) {
      c.attributions.push_back(Attribution::GatherScatter);
    }
  }
  if (!c.attributions.empty() || df.accesses.empty()) {
    c.skipped = true;
    return c;
  }

  // --- synthesize the layout (shared with the ECM scaling crosscheck). ---
  const SyntheticLayout layout = synthesize_layout(
      r, df, prog, mm, opt.measure_iterations, opt.max_total_iterations);
  if (!layout.ok) {
    c.skipped = true;
    return c;
  }
  c.warmup_iterations = layout.warmup_iterations;
  c.measured_iterations = layout.measure_iterations;
  c.capped = layout.capped;
  // --- replay; the measured window's deltas are the simulated rates. ---
  const ReplayCounters d = replay(layout, mm);
  const double m = static_cast<double>(layout.measure_iterations);
  const Volumes& v = r.volumes;
  auto rate = [&](std::uint64_t n) { return static_cast<double>(n) / m; };
  c.quantities = {
      {"l1_miss", v.l1_miss, rate(d.l1_miss), true},
      {"l1_evict", v.l1_evict, rate(d.l1_evict), true},
      {"l2_hit", v.l2_hit, rate(d.l2_hit), true},
      {"l2_evict", v.l2_evict, rate(d.l2_evict), true},
      {"l3_hit", v.l3_hit, rate(d.l3_hit), true},
      {"mem_read", v.mem_read, rate(d.mem_read), true},
      {"mem_write", v.mem_write, rate(d.mem_write), true},
      {"claimed", v.claimed, rate(d.claimed), true},
  };

  bool diverged = false;
  for (Quantity& q : c.quantities) {
    const double diff = std::fabs(q.statik - q.simulated);
    const double scale = std::max(std::fabs(q.statik), std::fabs(q.simulated));
    q.within = diff <= std::max(opt.tolerance * scale, opt.floor_lines);
    if (scale > opt.floor_lines) {
      c.max_rel_error = std::max(c.max_rel_error, diff / scale);
    }
    diverged |= !q.within;
  }
  if (!diverged) return c;

  // --- attribution ---
  if (c.capped) c.attributions.push_back(Attribution::WindowCapped);
  // Cross-stream must-overlap: the static volumes double-count what the
  // synthesized disjoint layout cannot reproduce.
  bool overlap = false;
  for (std::size_t i = 0; i < r.streams.size() && !overlap; ++i) {
    for (std::size_t j = i + 1; j < r.streams.size() && !overlap; ++j) {
      for (int ai : r.streams[i].accesses) {
        for (int aj : r.streams[j].accesses) {
          if (df.alias(df.accesses[static_cast<std::size_t>(ai)],
                       df.accesses[static_cast<std::size_t>(aj)]) ==
              dataflow::Alias::MustOverlap) {
            overlap = true;
            break;
          }
        }
        if (overlap) break;
      }
    }
  }
  if (overlap) c.attributions.push_back(Attribution::AliasResolution);
  if (near_capacity_edge(r, layout, mm)) {
    c.attributions.push_back(Attribution::LayerConditionBoundary);
  }
  if (l1_set_conflict(layout, mm)) {
    c.attributions.push_back(Attribution::AssociativityConflict);
  }
  // Store-side divergence on a claim-detecting machine.
  if (memsim::preset(mm.micro()).wa == memsim::WaMechanism::AutomaticClaim) {
    bool store_side_only = true;
    bool any_store = false;
    for (const Quantity& q : c.quantities) {
      if (q.within) continue;
      const std::string_view n = q.name;
      if (n != "mem_read" && n != "mem_write" && n != "claimed") {
        store_side_only = false;
      }
    }
    for (const Stream& s : r.streams) any_store |= s.dirty_lines > 0;
    if (store_side_only && any_store) {
      c.attributions.push_back(Attribution::WriteAllocateModel);
    }
  }
  c.ok = !c.attributions.empty();
  return c;
}

std::size_t check_traffic_vs_simulation(const asmir::Program& prog,
                                        const uarch::MachineModel& mm,
                                        std::string location,
                                        verify::DiagnosticSink& sink,
                                        const CrosscheckOptions& opt) {
  const std::size_t before = sink.diagnostics().size();
  const Crosscheck c = crosscheck(prog, mm, opt);
  const std::string& loc = location;
  auto attribution_notes = [&] {
    std::vector<std::string> notes;
    for (Attribution a : c.attributions) {
      notes.push_back(format("attributed: %s", to_string(a)));
    }
    return notes;
  };
  if (c.skipped) {
    if (!c.attributions.empty()) {
      sink.report(verify::Severity::Note, "VP011", loc,
                  "traffic cross-validation skipped: the stream layout is "
                  "not statically knowable",
                  attribution_notes());
    }
    return sink.diagnostics().size() - before;
  }
  std::vector<std::string> divergent;
  for (const Quantity& q : c.quantities) {
    if (!q.within) {
      divergent.push_back(format("%s: static %.3f vs simulated %.3f",
                                 q.name, q.statik, q.simulated));
    }
  }
  if (divergent.empty()) return 0;
  if (c.ok) {
    std::vector<std::string> notes = attribution_notes();
    notes.insert(notes.end(), divergent.begin(), divergent.end());
    sink.report(verify::Severity::Note, "VP011", loc,
                format("static traffic diverges from the trace simulation "
                       "(max relative error %.1f%%), attributed",
                       100.0 * c.max_rel_error),
                std::move(notes));
  } else {
    sink.report(verify::Severity::Error, "VP011", loc,
                format("static traffic diverges from the trace simulation "
                       "(max relative error %.1f%%) without attribution",
                       100.0 * c.max_rel_error),
                divergent);
  }
  return sink.diagnostics().size() - before;
}

std::string to_text(const Crosscheck& c) {
  std::string out;
  if (c.skipped) {
    out += "cross-check: skipped (";
    for (std::size_t i = 0; i < c.attributions.size(); ++i) {
      out += format("%s%s", i ? ", " : "", to_string(c.attributions[i]));
    }
    if (c.attributions.empty()) out += "no memory accesses";
    out += ")\n";
    return out;
  }
  out += format("cross-check vs trace simulation (%lld warmup + %lld "
                "measured iterations):\n",
                c.warmup_iterations, c.measured_iterations);
  out += "  quantity    static     simulated  status\n";
  for (const Quantity& q : c.quantities) {
    out += format("  %-10s %9.3f  %9.3f   %s\n", q.name, q.statik,
                  q.simulated, q.within ? "ok" : "DIVERGED");
  }
  out += format("  max relative error %.2f%%  ->  %s\n",
                100.0 * c.max_rel_error,
                c.ok ? (c.attributions.empty() ? "agree" : "attributed")
                     : "UNATTRIBUTED DIVERGENCE");
  for (Attribution a : c.attributions) {
    out += format("  attribution: %s\n", to_string(a));
  }
  return out;
}

std::string to_json(const Crosscheck& c) {
  std::string out = "{\n";
  out += format("  \"skipped\": %s,\n", c.skipped ? "true" : "false");
  out += format("  \"ok\": %s,\n", c.ok ? "true" : "false");
  out += format("  \"warmup_iterations\": %lld,\n", c.warmup_iterations);
  out += format("  \"measured_iterations\": %lld,\n", c.measured_iterations);
  out += format("  \"max_relative_error\": %.6f,\n", c.max_rel_error);
  out += "  \"quantities\": [";
  for (std::size_t i = 0; i < c.quantities.size(); ++i) {
    const Quantity& q = c.quantities[i];
    out += format(
        "%s\n    {\"name\": \"%s\", \"static\": %.6f, \"simulated\": %.6f, "
        "\"within\": %s}",
        i ? "," : "", q.name, q.statik, q.simulated,
        q.within ? "true" : "false");
  }
  out += c.quantities.empty() ? "],\n" : "\n  ],\n";
  out += "  \"attributions\": [";
  for (std::size_t i = 0; i < c.attributions.size(); ++i) {
    out += format("%s\"%s\"", i ? ", " : "", to_string(c.attributions[i]));
  }
  out += "]\n}\n";
  return out;
}

}  // namespace incore::traffic
