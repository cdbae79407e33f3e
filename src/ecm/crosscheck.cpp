#include "ecm/crosscheck.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "dataflow/dataflow.hpp"
#include "memsim/memsim.hpp"
#include "memsim/multicore.hpp"
#include "support/strings.hpp"
#include "traffic/layout.hpp"

namespace incore::ecm {

using support::format;

namespace {

/// Store-benchmark trace ratio, memoized: the trace is a property of the
/// machine's protocol and the core count, not of the kernel, so the corpus
/// gate pays for each (machine, cores) point once.  Thread-safe (the audit
/// pass runs blocks in parallel).
double traced_store_ratio(uarch::Micro micro, int cores, int lines_per_core) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, double> memo;
  const std::pair<int, int> key{static_cast<int>(micro), cores};
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }
  const memsim::MultiCoreResult r = memsim::simulate_store_benchmark_trace(
      memsim::preset(micro), cores, lines_per_core,
      memsim::StoreKind::Standard);
  const double ratio = r.traffic.ratio();
  std::lock_guard<std::mutex> lock(mu);
  memo.emplace(key, ratio);
  return ratio;
}

std::vector<int> default_cores(int socket) {
  std::vector<int> out;
  for (int n = 1; n < socket; n *= 2) out.push_back(n);
  out.push_back(socket);
  return out;
}

}  // namespace

const char* to_string(ScalingCause c) {
  switch (c) {
    case ScalingCause::WriteAllocateEvasionMispredicted:
      return "write-allocate-evasion-mispredicted";
    case ScalingCause::SaturationPointMissed:
      return "saturation-point-missed";
    case ScalingCause::TransferOverlapMismatch:
      return "transfer-overlap-mismatch";
    case ScalingCause::LayoutUnknowable: return "layout-unknowable";
  }
  return "?";
}

ScalingCheck crosscheck_scaling(const asmir::Program& prog,
                                const uarch::MachineModel& mm,
                                const ScalingOptions& opt) {
  ScalingCheck c;
  const traffic::Result tr = traffic::analyze(prog, mm);
  const analysis::Report rep = analysis::analyze(prog, mm);
  c.h = hierarchy_for(mm);
  c.prediction = predict(rep, boundary_traffic(tr.volumes), c.h);
  c.static_mem_lines = c.prediction.mem_lines_per_iter;

  // Compute-bound blocks move nothing over the interface: the scaling law
  // degenerates to linear and there is no memory side to validate.
  if (c.prediction.mem_lines_per_iter <= 0) {
    c.skipped = true;
    return c;
  }

  const bool has_stores = tr.volumes.mem_write > 0;
  const double model_ratio = c.h.write_allocate_evaded ? 1.0 : 2.0;

  // --- scaling table ---
  const std::vector<int> cores =
      opt.cores.empty() ? default_cores(c.h.socket_cores) : opt.cores;
  for (int n : cores) {
    CorePoint p;
    p.cores = n;
    p.analytic_cycles = c.prediction.multicore_cycles(n, c.h);
    p.analytic_cl_per_cy =
        c.prediction.mem_lines_per_iter / p.analytic_cycles;
    if (has_stores) {
      p.model_store_ratio = model_ratio;
      p.trace_store_ratio =
          traced_store_ratio(mm.micro(), n, opt.store_lines_per_core);
    }
    c.points.push_back(p);
  }

  // --- check 2: the write-allocate assumption vs the protocol trace ---
  if (has_stores) {
    for (const CorePoint& p : c.points) {
      const double diff = std::fabs(p.model_store_ratio - p.trace_store_ratio);
      if (diff > opt.ratio_tolerance * p.trace_store_ratio) {
        c.causes.push_back(ScalingCause::WriteAllocateEvasionMispredicted);
        c.details.push_back(format(
            "store-traffic ratio at %d cores: model %.3f vs trace %.3f "
            "(the protocol's evasion is utilization-dependent, the "
            "hierarchy flag is not)",
            p.cores, p.model_store_ratio, p.trace_store_ratio));
        break;  // one attribution covers the whole curve
      }
    }
  }

  // --- check 3: the saturation law vs the bandwidth-concurrency curve ---
  c.analytic_saturation = c.prediction.saturation_cores(c.h);
  {
    const double rf =
        tr.volumes.mem_read / (tr.volumes.mem_read + tr.volumes.mem_write);
    const memsim::MemSystemConfig cfg = memsim::preset(mm.micro());
    const memsim::System sys(cfg);
    // The ECM abstracts the socket as one interface; with ccNUMA domains
    // the achieved-bandwidth curve staircases per domain, so the analytic
    // n_sat maps to (per-domain knee) x (domain count).
    const int per_domain = std::max(1, cfg.cores_per_domain);
    const double domain_full = sys.achieved_bw(per_domain, rf);
    int knee = per_domain;
    for (int n = 1; n <= per_domain; ++n) {
      if (sys.achieved_bw(n, rf) >= 0.95 * domain_full) {
        knee = n;
        break;
      }
    }
    const int domains = std::max(1, (cfg.cores + per_domain - 1) / per_domain);
    c.bandwidth_saturation = knee * domains;
    const int slack = std::max(
        opt.slack_cores,
        static_cast<int>(opt.slack_fraction * c.bandwidth_saturation));
    if (c.analytic_saturation <= c.h.socket_cores &&
        std::abs(c.analytic_saturation - c.bandwidth_saturation) > slack) {
      c.causes.push_back(ScalingCause::SaturationPointMissed);
      c.details.push_back(format(
          "saturation: ECM law n_sat=%d vs bandwidth-curve knee %d "
          "(kernel-specific transfer mix vs machine concurrency limit)",
          c.analytic_saturation, c.bandwidth_saturation));
    }
  }

  // --- check 1: replay the memory-boundary volume ---
  const dataflow::Analysis df = dataflow::analyze(prog);
  const traffic::SyntheticLayout layout = traffic::synthesize_layout(
      tr, df, prog, mm, opt.measure_iterations, opt.max_total_iterations);
  if (!layout.ok) {
    c.causes.push_back(ScalingCause::LayoutUnknowable);
    c.details.push_back(
        "symbolic or gather streams: no concrete layout, replay skipped");
    return c;
  }
  {
    const traffic::ReplayCounters d = traffic::replay(layout, mm);
    c.trace_mem_lines = static_cast<double>(d.mem_read + d.mem_write) /
                        static_cast<double>(layout.measure_iterations);
    c.replay_ran = true;
    c.warmup_iterations = layout.warmup_iterations;
    c.capped = layout.capped;

    const double diff = std::fabs(c.trace_mem_lines - c.static_mem_lines);
    const double scale =
        std::max(std::fabs(c.trace_mem_lines), std::fabs(c.static_mem_lines));
    if (scale > 0 && diff > opt.tolerance * scale) {
      const double rel = diff / scale;
      if (c.capped) {
        c.causes.push_back(ScalingCause::TransferOverlapMismatch);
        c.details.push_back(format(
            "memory-boundary volume: ECM charges %.3f lines/iter, replay "
            "metered %.3f (warmup truncated at %lld iterations; steady "
            "state not reached)",
            c.static_mem_lines, c.trace_mem_lines, c.warmup_iterations));
      } else if (tr.volumes.claimed > 0) {
        c.causes.push_back(ScalingCause::WriteAllocateEvasionMispredicted);
        c.details.push_back(format(
            "memory-boundary volume: ECM charges %.3f lines/iter, replay "
            "metered %.3f (claim-detector phase effects)",
            c.static_mem_lines, c.trace_mem_lines));
        c.ok = c.ok && rel <= opt.fail_tolerance;
      } else {
        c.causes.push_back(ScalingCause::TransferOverlapMismatch);
        c.details.push_back(format(
            "memory-boundary volume: ECM charges %.3f lines/iter, replay "
            "metered %.3f (boundary/victim accounting mismatch)",
            c.static_mem_lines, c.trace_mem_lines));
        c.ok = c.ok && rel <= opt.fail_tolerance;
      }
    }
  }
  return c;
}

std::size_t check_scaling_vs_simulation(const asmir::Program& prog,
                                        const uarch::MachineModel& mm,
                                        std::string location,
                                        verify::DiagnosticSink& sink,
                                        const ScalingOptions& opt) {
  const std::size_t before = sink.diagnostics().size();
  const ScalingCheck c = crosscheck_scaling(prog, mm, opt);
  if (c.skipped || !c.diverged()) return 0;
  std::vector<std::string> notes;
  for (std::size_t i = 0; i < c.causes.size(); ++i) {
    notes.push_back(format("attributed: %s — %s", to_string(c.causes[i]),
                           c.details[i].c_str()));
  }
  if (c.ok) {
    sink.report(verify::Severity::Note, "VP014", location,
                "ECM scaling diverges from the memory simulators, attributed",
                std::move(notes));
  } else {
    sink.report(verify::Severity::Error, "VP014", location,
                format("ECM scaling diverges from the memory simulators "
                       "beyond the failure threshold (static %.3f vs trace "
                       "%.3f lines/iter over the memory interface)",
                       c.static_mem_lines, c.trace_mem_lines),
                std::move(notes));
  }
  return sink.diagnostics().size() - before;
}

std::string to_text(const ScalingCheck& c) {
  std::string out;
  if (c.skipped) {
    out += "ecm cross-check: skipped (no memory traffic)\n";
    return out;
  }
  out += format("ecm scaling cross-check (%s):\n", c.h.name);
  out += "  cores  cycles/iter  mem CL/cy";
  const bool ratios = !c.points.empty() && c.points.front().model_store_ratio > 0;
  if (ratios) out += "  store-ratio model/trace";
  out += '\n';
  for (const CorePoint& p : c.points) {
    out += format("  %5d  %11.3f  %9.3f", p.cores, p.analytic_cycles,
                  p.analytic_cl_per_cy);
    if (ratios) {
      out += format("  %.3f / %.3f", p.model_store_ratio, p.trace_store_ratio);
    }
    out += '\n';
  }
  out += format("  saturation: ECM n_sat=%d, bandwidth-curve knee=%d\n",
                c.analytic_saturation, c.bandwidth_saturation);
  if (c.replay_ran) {
    out += format("  memory boundary: static %.3f vs replay %.3f lines/iter\n",
                  c.static_mem_lines, c.trace_mem_lines);
  }
  if (!c.diverged()) {
    out += "  agree\n";
  } else {
    out += c.ok ? "  diverged, attributed:\n" : "  DIVERGED (failure):\n";
    for (std::size_t i = 0; i < c.causes.size(); ++i) {
      out += format("    %s: %s\n", to_string(c.causes[i]),
                    c.details[i].c_str());
    }
  }
  return out;
}

std::string to_json(const ScalingCheck& c) {
  std::string out = "{\n";
  out += format("  \"skipped\": %s,\n", c.skipped ? "true" : "false");
  out += format("  \"ok\": %s,\n", c.ok ? "true" : "false");
  out += format("  \"analytic_saturation\": %d,\n", c.analytic_saturation);
  out += format("  \"bandwidth_saturation\": %d,\n", c.bandwidth_saturation);
  out += format("  \"static_mem_lines\": %.6f,\n", c.static_mem_lines);
  out += format("  \"trace_mem_lines\": %.6f,\n", c.trace_mem_lines);
  out += "  \"points\": [";
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    const CorePoint& p = c.points[i];
    out += format(
        "%s\n    {\"cores\": %d, \"cycles_per_iteration\": %.6f, "
        "\"mem_cl_per_cy\": %.6f, \"model_store_ratio\": %.6f, "
        "\"trace_store_ratio\": %.6f}",
        i ? "," : "", p.cores, p.analytic_cycles, p.analytic_cl_per_cy,
        p.model_store_ratio, p.trace_store_ratio);
  }
  out += c.points.empty() ? "],\n" : "\n  ],\n";
  out += "  \"causes\": [";
  for (std::size_t i = 0; i < c.causes.size(); ++i) {
    out += format("%s\"%s\"", i ? ", " : "", to_string(c.causes[i]));
  }
  out += "]\n}\n";
  return out;
}

}  // namespace incore::ecm
