#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "analysis/analyze.hpp"
#include "analysis/depgraph.hpp"
#include "analysis/portpressure.hpp"
#include "dataflow/idioms.hpp"
#include "ecm/crosscheck.hpp"
#include "exec/exec.hpp"
#include "mca/mca.hpp"
#include "traffic/crosscheck.hpp"
#include "report/json.hpp"
#include "support/strings.hpp"

namespace incore::audit {
namespace {

using analysis::OccupancyGroup;
using support::format;

/// Port-load tie tolerance reused from the balancer, and the slack the
/// internal consistency checks grant the flow solver (its feasibility test
/// allows a 1e-6-relative shortfall, see portpressure.cpp).
constexpr double kConsistencySlack = 1e-5;

std::string join_ports(const uarch::MachineModel& mm,
                       const std::vector<int>& ports) {
  std::string out;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (i) out += ",";
    out += mm.ports()[static_cast<std::size_t>(ports[i])];
  }
  return out;
}

std::string chain_mnemonics(const asmir::Program& prog,
                            const std::vector<int>& chain) {
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i) out += " -> ";
    out += prog.code[static_cast<std::size_t>(chain[i])].mnemonic;
  }
  return out;
}

Certificate make_port_certificate(const uarch::MachineModel& mm,
                                  const analysis::PortPressureResult& pp) {
  Certificate c;
  c.kind = BoundKind::PortPressure;
  c.cycles = pp.bottleneck_cycles;
  c.binding_ports = pp.binding_ports;
  c.port_load = pp.port_load;
  for (int p : pp.binding_ports)
    c.binding_port_names.push_back(mm.ports()[static_cast<std::size_t>(p)]);
  if (c.cycles <= 0.0) {
    c.provenance = "no port occupancy (empty body)";
  } else {
    c.provenance =
        format("port%s %s loaded %.2f cy/iter under the optimal assignment",
               c.binding_ports.size() == 1 ? "" : "s",
               join_ports(mm, c.binding_ports).c_str(), c.cycles);
  }
  return c;
}

Certificate make_path_certificate(const asmir::Program& prog,
                                  const analysis::DepResult& dep) {
  Certificate c;
  c.kind = BoundKind::CriticalPath;
  c.cycles = dep.loop_carried_cycles;
  c.chain = dep.lcd_chain;
  c.chain_link_cycles = dep.lcd_link_cycles;
  if (c.cycles <= 0.0 || c.chain.empty()) {
    c.provenance = "no loop-carried recurrence";
  } else {
    c.provenance = format("recurrence %s carries %.2f cy/iter",
                          chain_mnemonics(prog, c.chain).c_str(), c.cycles);
  }
  return c;
}

/// Instruction's total occupancy cycles eligible to land on port `p`.
double eligible_on_port(const std::vector<OccupancyGroup>& groups, int instr,
                        int p) {
  double cy = 0.0;
  for (const OccupancyGroup& g : groups) {
    if (g.instruction == instr && (g.port_mask >> p) & 1u) cy += g.cycles;
  }
  return cy;
}

void sort_and_trim(std::vector<InstrContribution>& contributions) {
  std::stable_sort(contributions.begin(), contributions.end(),
                   [](const InstrContribution& a, const InstrContribution& b) {
                     return a.cycles > b.cycles;
                   });
  if (contributions.size() > 6) contributions.resize(6);
}

}  // namespace

const char* to_string(Cause c) {
  switch (c) {
    case Cause::None: return "none";
    case Cause::FormDbGap: return "form-db-gap";
    case Cause::DispatchBound: return "dispatch-bound";
    case Cause::PortBindingMismatch: return "port-binding-mismatch";
    case Cause::SchedulerContention: return "scheduler-contention";
    case Cause::LatencyChain: return "latency-chain";
  }
  return "?";
}

BlockAudit audit_program(const asmir::Program& prog,
                         const uarch::MachineModel& mm, std::string location,
                         verify::DiagnosticSink& sink,
                         const AuditOptions& opt) {
  BlockAudit a;
  a.location = std::move(location);
  const int ports = static_cast<int>(mm.port_count());
  const std::size_t errors_before = sink.errors();
  const std::size_t diags_before = sink.diagnostics().size();

  std::vector<uarch::Resolved> resolved;
  std::vector<OccupancyGroup> groups;
  analysis::PortPressureResult pp;
  analysis::DepResult dep;
  analysis::Report rep;
  exec::Measurement tb;
  mca::Result mc;
  try {
    // ---- Independent certificate derivation (not via analysis::Report) --
    resolved.reserve(prog.code.size());
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
      resolved.push_back(mm.resolve(prog.code[i]));
      for (const uarch::PortUse& pu : resolved.back().port_uses) {
        groups.push_back(
            OccupancyGroup{pu.mask, pu.cycles, static_cast<int>(i)});
      }
    }
    pp = analysis::balance_ports(groups, ports);
    dep = analysis::analyze_dependencies(prog, mm);

    // ---- The three models of Fig. 3 ------------------------------------
    rep = analysis::analyze(prog, mm);
    a.incore_cycles = rep.predicted_cycles();
    a.incore_tp = rep.throughput_cycles();
    a.incore_lcd = rep.loop_carried_cycles();
    mc = mca::simulate(prog, mm);
    tb = exec::run(prog, mm);
    a.mca_cycles = mc.cycles_per_iteration;
    a.testbed_cycles = tb.cycles_per_iteration;
  } catch (const std::exception& e) {
    a.error = e.what();
    return a;
  }
  a.evaluated = true;

  a.port_certificate = make_port_certificate(mm, pp);
  a.path_certificate = make_path_certificate(prog, dep);
  a.certified_bound =
      std::max(a.port_certificate.cycles, a.path_certificate.cycles);

  const auto tol = [&](double magnitude) {
    return opt.tolerance * std::max(1.0, std::fabs(magnitude));
  };

  // ---- VP001-VP003: the prediction equals its certificates -------------
  if (std::fabs(a.incore_cycles - a.certified_bound) >
      tol(a.certified_bound)) {
    sink.report(verify::Severity::Error, "VP001", a.location,
                format("in-core prediction %.6g cy/iter differs from the max "
                       "of its bound certificates %.6g",
                       a.incore_cycles, a.certified_bound),
                {a.port_certificate.provenance, a.path_certificate.provenance});
  }
  if (std::fabs(a.port_certificate.cycles - a.incore_tp) >
      tol(a.incore_tp)) {
    sink.report(verify::Severity::Error, "VP002", a.location,
                format("port-pressure certificate %.6g cy/iter differs from "
                       "the analyzer's throughput bound %.6g",
                       a.port_certificate.cycles, a.incore_tp),
                {a.port_certificate.provenance});
  }
  if (std::fabs(a.path_certificate.cycles - a.incore_lcd) >
      tol(a.incore_lcd)) {
    sink.report(verify::Severity::Error, "VP003", a.location,
                format("critical-path certificate %.6g cy/iter differs from "
                       "the analyzer's loop-carried bound %.6g",
                       a.path_certificate.cycles, a.incore_lcd),
                {a.path_certificate.provenance});
  }
  // The LCD link provenance must account for every cycle of the bound.
  if (!a.path_certificate.chain_link_cycles.empty()) {
    double link_sum = 0.0;
    for (double w : a.path_certificate.chain_link_cycles) link_sum += w;
    if (std::fabs(link_sum - a.path_certificate.cycles) >
        tol(a.path_certificate.cycles)) {
      sink.report(verify::Severity::Error, "VP003", a.location,
                  format("LCD chain links sum to %.6g cy but the certificate "
                         "claims %.6g",
                         link_sum, a.path_certificate.cycles),
                  {a.path_certificate.provenance});
    }
  }

  // ---- VP007: fractional assignment consistency ------------------------
  {
    double total = 0.0;
    for (const OccupancyGroup& g : groups) total += g.cycles;
    const double ctol = kConsistencySlack * std::max(1.0, total);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double row = 0.0;
      for (int p = 0; p < ports; ++p)
        row += pp.assignment[g][static_cast<std::size_t>(p)];
      if (std::fabs(row - groups[g].cycles) > ctol) {
        sink.report(
            verify::Severity::Error, "VP007", a.location,
            format("occupancy group %zu of '%s' assigns %.6g cy across ports "
                   "but owes %.6g",
                   g,
                   prog.code[static_cast<std::size_t>(groups[g].instruction)]
                       .raw.c_str(),
                   row, groups[g].cycles));
      }
    }
    double max_load = 0.0;
    for (int p = 0; p < ports; ++p) {
      double col = 0.0;
      for (std::size_t g = 0; g < groups.size(); ++g)
        col += pp.assignment[g][static_cast<std::size_t>(p)];
      const double load = pp.port_load[static_cast<std::size_t>(p)];
      max_load = std::max(max_load, load);
      if (std::fabs(col - load) > ctol) {
        sink.report(verify::Severity::Error, "VP007", a.location,
                    format("port %s: assignment column sums to %.6g cy but "
                           "the reported load is %.6g",
                           mm.ports()[static_cast<std::size_t>(p)].c_str(),
                           col, load));
      }
    }
    if (std::fabs(max_load - pp.bottleneck_cycles) > ctol) {
      sink.report(verify::Severity::Error, "VP007", a.location,
                  format("bottleneck %.6g cy differs from the maximum port "
                         "load %.6g",
                         pp.bottleneck_cycles, max_load));
    }
  }

  // ---- VP008: adding a port can only lower the certified bound ---------
  if (opt.check_monotonicity && ports < 31 && !groups.empty()) {
    std::vector<OccupancyGroup> widened = groups;
    for (OccupancyGroup& g : widened) g.port_mask |= 1u << ports;
    const analysis::PortPressureResult wide =
        analysis::balance_ports(widened, ports + 1);
    if (wide.bottleneck_cycles >
        pp.bottleneck_cycles + tol(pp.bottleneck_cycles)) {
      sink.report(
          verify::Severity::Error, "VP008", a.location,
          format("what-if machine with one added universal port certifies "
                 "%.6g cy/iter, above the original %.6g",
                 wide.bottleneck_cycles, pp.bottleneck_cycles),
          {"adding an execution port strictly enlarges the feasible "
           "assignment set; the bound must not rise"});
    }
  }

  // ---- Execution floor (rename- and override-aware) --------------------
  // The testbed models silicon effects the in-core model deliberately
  // omits: move elimination cuts recurrences (the paper's V2 Gauss-Seidel
  // outlier) and measured divider throughput beats the model value (Zen 4).
  // The legitimate floor for the *measurement* is therefore re-derived
  // under those effects; MCA models neither, so it is held to the full
  // certified bound.
  const exec::PipelineConfig tcfg = exec::testbed_config(mm.micro());
  {
    analysis::DepOptions ropt;
    ropt.rename_moves = tcfg.move_elimination;
    ropt.recognize_zero_idioms = tcfg.zero_idiom_elimination;
    const analysis::DepResult rdep =
        analysis::analyze_dependencies(prog, mm, ropt);
    std::vector<OccupancyGroup> fgroups;
    bool scaled = false;
    bool eliminated = false;
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
      const asmir::Instruction& ins = prog.code[i];
      if ((tcfg.move_elimination && dataflow::is_register_move(ins)) ||
          (tcfg.zero_idiom_elimination && dataflow::is_zero_idiom(ins))) {
        eliminated = true;
        continue;
      }
      double scale = 1.0;
      if (auto it = tcfg.tput_overrides.find(ins.form());
          it != tcfg.tput_overrides.end() &&
          resolved[i].inverse_throughput > 0.0 &&
          it->second < resolved[i].inverse_throughput) {
        scale = it->second / resolved[i].inverse_throughput;
        scaled = true;
      }
      for (const uarch::PortUse& pu : resolved[i].port_uses) {
        fgroups.push_back(OccupancyGroup{pu.mask, pu.cycles * scale,
                                         static_cast<int>(i)});
      }
    }
    const analysis::PortPressureResult fpp =
        analysis::balance_ports(fgroups, ports);
    a.execution_floor =
        std::max(fpp.bottleneck_cycles, rdep.loop_carried_cycles);
    if (a.execution_floor < a.certified_bound - tol(a.certified_bound)) {
      std::string why;
      if (eliminated || rdep.loop_carried_cycles < dep.loop_carried_cycles) {
        why = "rename-stage elimination shortens the recurrence";
      }
      if (scaled) {
        if (!why.empty()) why += "; ";
        why += "measured divider throughput beats the model value";
      }
      a.floor_note = format("floor %.2f < bound %.2f: %s", a.execution_floor,
                            a.certified_bound, why.c_str());
    }
  }

  // ---- VP004/VP005: simulators can never beat their floor --------------
  const auto floor_of = [&](double floor) {
    return floor * (1.0 - opt.floor_slack);
  };
  if (a.certified_bound > 0.0 && a.mca_cycles < floor_of(a.certified_bound)) {
    sink.report(verify::Severity::Error, "VP004", a.location,
                format("MCA simulates %.6g cy/iter, below the certified "
                       "in-core lower bound %.6g",
                       a.mca_cycles, a.certified_bound),
                {a.port_certificate.provenance,
                 a.path_certificate.provenance});
  }
  if (a.execution_floor > 0.0 &&
      a.testbed_cycles < floor_of(a.execution_floor)) {
    std::vector<std::string> notes{a.port_certificate.provenance,
                                   a.path_certificate.provenance};
    if (!a.floor_note.empty()) notes.push_back(a.floor_note);
    sink.report(verify::Severity::Error, "VP005", a.location,
                format("testbed measures %.6g cy/iter, below the certified "
                       "execution floor %.6g",
                       a.testbed_cycles, a.execution_floor),
                std::move(notes));
  }

  // ---- VP006: dispatch-width bound --------------------------------------
  // The rename stage consumes strictly less than (width + largest µop
  // count) micro-ops per cycle, so cycles/iter is floored accordingly.
  {
    double max_uop = 0.0;
    for (const uarch::Resolved& r : resolved)
      max_uop = std::max(max_uop, std::max(1.0, r.uops));
    const auto check = [&](const char* model, double cycles, double uops,
                           int width) {
      if (uops <= 0.0 || width <= 0) return;
      const double floor = uops / (static_cast<double>(width) + max_uop);
      if (cycles < floor_of(floor)) {
        sink.report(verify::Severity::Error, "VP006", a.location,
                    format("%s simulates %.6g cy/iter, below the dispatch "
                           "bound %.6g (%.3g uops / width %d)",
                           model, cycles, floor, uops, width));
      }
    };
    check("mca", a.mca_cycles, mc.uops_per_iteration, mc.dispatch_width);
    check("testbed", a.testbed_cycles, tb.uops_per_iteration,
          tb.dispatch_width);
  }

  // ---- VP009/VP010: divergence attribution ------------------------------
  const auto attribute = [&](const char* model, double observed,
                             const std::vector<double>& realized, double uops,
                             int width, std::uint64_t backpressure,
                             bool is_testbed) -> std::optional<Attribution> {
    if (a.certified_bound <= 0.0) return std::nullopt;
    if (observed / a.certified_bound - 1.0 <= opt.divergence_threshold)
      return std::nullopt;
    Attribution at;
    at.model = model;
    at.observed = observed;
    at.bound = a.certified_bound;
    at.gap = observed - a.certified_bound;

    bool any_fallback = false;
    for (const uarch::Resolved& r : resolved)
      any_fallback = any_fallback || r.used_fallback;
    int sat_port = -1;
    double sat_cycles = 0.0;
    for (std::size_t p = 0; p < realized.size(); ++p) {
      if (realized[p] > sat_cycles) {
        sat_cycles = realized[p];
        sat_port = static_cast<int>(p);
      }
    }
    const double dispatch_bound =
        width > 0 ? uops / static_cast<double>(width) : 0.0;

    if (any_fallback) {
      // The certificate itself rests on mnemonic-level guesses; the gap is
      // a model-coverage problem, not a microarchitectural effect.
      at.cause = Cause::FormDbGap;
      at.summary = "the bound rests on mnemonic-fallback timings; close the "
                   "form-DB gap before trusting the divergence";
      for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (!resolved[i].used_fallback) continue;
        at.contributions.push_back(
            InstrContribution{static_cast<int>(i), prog.code[i].raw,
                              resolved[i].inverse_throughput,
                              "resolved via mnemonic fallback"});
      }
    } else if (dispatch_bound > a.certified_bound + tol(a.certified_bound) &&
               observed >= 0.9 * dispatch_bound) {
      at.cause = Cause::DispatchBound;
      at.summary = format(
          "pinned at the rename/dispatch width: %.3g uops / width %d = "
          "%.2f cy/iter, above the port and latency bounds",
          uops, width, dispatch_bound);
      for (std::size_t i = 0; i < resolved.size(); ++i) {
        const double u = std::max(1.0, resolved[i].uops);
        at.contributions.push_back(InstrContribution{
            static_cast<int>(i), prog.code[i].raw,
            u / static_cast<double>(width),
            format("%.3g uops through the width-%d rename stage", u, width)});
      }
    } else if (sat_port >= 0 && sat_cycles >= 0.85 * observed) {
      const double optimal =
          sat_port < ports ? pp.port_load[static_cast<std::size_t>(sat_port)]
                           : 0.0;
      const std::string pname =
          sat_port < ports ? mm.ports()[static_cast<std::size_t>(sat_port)]
                           : format("#%d", sat_port);
      const bool overloaded =
          sat_cycles > optimal + 0.05 * std::max(1.0, observed);
      at.cause = overloaded ? Cause::PortBindingMismatch
                            : Cause::SchedulerContention;
      at.summary =
          overloaded
              ? format("port %s realized %.2f cy/iter vs %.2f under the "
                       "optimal assignment: %s binding overloads it",
                       pname.c_str(), sat_cycles, optimal,
                       is_testbed ? "issue-time" : "dispatch-time")
              : format("port %s saturated at the optimal %.2f cy/iter, yet "
                       "the loop cannot overlap to the bound: scheduler "
                       "contention",
                       pname.c_str(), sat_cycles);
      for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const double eligible =
            eligible_on_port(groups, static_cast<int>(i), sat_port);
        if (eligible <= 0.0) continue;
        at.contributions.push_back(InstrContribution{
            static_cast<int>(i), prog.code[i].raw, eligible,
            format("%.2f cy eligible on saturated port %s", eligible,
                   pname.c_str())});
      }
    } else if (is_testbed && backpressure > 0) {
      at.cause = Cause::SchedulerContention;
      at.summary = format(
          "no port is saturated; %llu dispatch-stall cycles point at "
          "ROB/scheduler backpressure",
          static_cast<unsigned long long>(backpressure));
    } else {
      at.cause = Cause::LatencyChain;
      at.summary = format(
          "no resource is saturated: the gap follows the dependency "
          "recurrence (%s)",
          chain_mnemonics(prog, a.path_certificate.chain).c_str());
      const auto& chain = a.path_certificate.chain;
      for (std::size_t k = 0; k < chain.size(); ++k) {
        const int idx = chain[k];
        const int next = chain[(k + 1) % chain.size()];
        at.contributions.push_back(InstrContribution{
            idx, prog.code[static_cast<std::size_t>(idx)].raw,
            k < a.path_certificate.chain_link_cycles.size()
                ? a.path_certificate.chain_link_cycles[k]
                : 0.0,
            format("chain link to '%s'",
                   prog.code[static_cast<std::size_t>(next)]
                       .mnemonic.c_str())});
      }
    }
    sort_and_trim(at.contributions);
    return at;
  };

  a.mca_attribution =
      attribute("mca", a.mca_cycles, mc.port_cycles, mc.uops_per_iteration,
                mc.dispatch_width, 0, false);
  a.testbed_attribution = attribute(
      "testbed", a.testbed_cycles, tb.port_cycles, tb.uops_per_iteration,
      tb.dispatch_width, tb.backpressure_cycles, true);

  const auto note_for = [&](const char* code, const Attribution& at) {
    std::vector<std::string> notes{at.summary};
    for (const InstrContribution& c : at.contributions) {
      notes.push_back(
          format("%s: %.2f cy -- %s", c.text.c_str(), c.cycles,
                 c.detail.c_str()));
    }
    sink.report(verify::Severity::Note, code, a.location,
                format("%s %.2f cy/iter exceeds the certified bound %.2f by "
                       "%.0f%% -- attributed: %s",
                       at.model.c_str(), at.observed, at.bound,
                       100.0 * at.gap / at.bound, to_string(at.cause)),
                std::move(notes));
  };
  if (a.mca_attribution) note_for("VP009", *a.mca_attribution);
  if (a.testbed_attribution) note_for("VP010", *a.testbed_attribution);

  // ---- VP011: static traffic vs the cache trace simulation -------------
  if (opt.check_traffic) {
    traffic::check_traffic_vs_simulation(prog, mm, a.location, sink);
  }

  // ---- VP012–VP014: the full-kernel ECM composition --------------------
  if (opt.check_ecm) {
    const ecm::HierarchyParams h = ecm::hierarchy_for(mm);
    const ecm::Prediction ep = ecm::predict_block(rep, prog, mm);

    // VP012: the composition only ever *adds* transfer terms on top of the
    // in-core split, so no ECM number may undercut the certified bound.
    const double ecm_mem = ep.cycles(ecm::DataLocation::Memory);
    if (ecm_mem < a.certified_bound - tol(a.certified_bound)) {
      sink.report(verify::Severity::Error, "VP012", a.location,
                  format("ECM predicts %.6g cy/iter with memory-resident "
                         "data, below the certified in-core bound %.6g",
                         ecm_mem, a.certified_bound),
                  {a.port_certificate.provenance,
                   a.path_certificate.provenance});
    }

    // VP013: socket cycles/iteration must fall monotonically with cores
    // until saturation, then stay flat (the ECM saturation law).
    std::vector<int> ns = opt.ecm_cores;
    if (ns.empty()) {
      for (int n = 1; n < h.socket_cores; n *= 2) ns.push_back(n);
      ns.push_back(h.socket_cores);
    }
    const int n_sat = ep.t_l3mem > 0 ? ep.saturation_cores(h) : 0;
    double prev = 0.0;
    int prev_n = 0;
    for (int n : ns) {
      const double cy = ep.multicore_cycles(n, h);
      if (prev_n > 0) {
        if (cy > prev + tol(prev)) {
          sink.report(
              verify::Severity::Error, "VP013", a.location,
              format("multicore ECM is not monotone: %.6g cy/iter at %d "
                     "cores rises to %.6g at %d",
                     prev, prev_n, cy, n));
          break;
        }
        if (n_sat > 0 && prev_n >= n_sat &&
            std::fabs(cy - prev) > tol(prev)) {
          sink.report(
              verify::Severity::Error, "VP013", a.location,
              format("multicore ECM is not flat past saturation "
                     "(n_sat=%d): %.6g cy/iter at %d cores vs %.6g at %d",
                     n_sat, prev, prev_n, cy, n));
          break;
        }
      }
      prev = cy;
      prev_n = n;
    }

    // VP014: analytic scaling vs the memory simulators, attributed.
    ecm::ScalingOptions sopt;
    sopt.cores = opt.ecm_cores;
    ecm::check_scaling_vs_simulation(prog, mm, a.location, sink, sopt);
  }

  a.ok = sink.errors() == errors_before;
  for (std::size_t i = diags_before; i < sink.diagnostics().size(); ++i) {
    const verify::Diagnostic& d = sink.diagnostics()[i];
    if (d.severity != verify::Severity::Error) continue;
    if (std::find(a.failed_codes.begin(), a.failed_codes.end(), d.code) ==
        a.failed_codes.end()) {
      a.failed_codes.push_back(d.code);
    }
  }
  return a;
}

BlockAudit audit_block(const driver::Block& b, verify::DiagnosticSink& sink,
                       const AuditOptions& opt) {
  return audit_program(
      b.gen.program, *b.mm,
      format("kernel '%s' on '%s'", b.variant.label().c_str(),
             b.mm->name().c_str()),
      sink, opt);
}

std::string to_text(const BlockAudit& a) {
  std::string out;
  out += format("audit: %s\n", a.location.c_str());
  if (!a.evaluated) {
    out += format("  evaluation failed: %s\n", a.error.c_str());
    return out;
  }
  out += format("  certificate[port-pressure]  %8.2f cy/iter  (%s)\n",
                a.port_certificate.cycles,
                a.port_certificate.provenance.c_str());
  out += format("  certificate[critical-path]  %8.2f cy/iter  (%s)\n",
                a.path_certificate.cycles,
                a.path_certificate.provenance.c_str());
  out += format("  certified bound             %8.2f cy/iter\n",
                a.certified_bound);
  if (!a.floor_note.empty())
    out += format("  execution floor             %8.2f cy/iter  (%s)\n",
                  a.execution_floor, a.floor_note.c_str());
  out += format("  in-core   %8.2f cy/iter (tp %.2f, lcd %.2f)\n",
                a.incore_cycles, a.incore_tp, a.incore_lcd);
  const auto model_line = [&](const char* name, double cycles,
                              const std::optional<Attribution>& at) {
    out += format("  %-9s %8.2f cy/iter", name, cycles);
    if (at) {
      out += format("  [+%.2f cy, %s]", at->gap, to_string(at->cause));
    }
    out += "\n";
    if (at) {
      out += format("    %s\n", at->summary.c_str());
      for (const InstrContribution& c : at->contributions) {
        out += format("    %-40s %6.2f cy  %s\n", c.text.c_str(), c.cycles,
                      c.detail.c_str());
      }
    }
  };
  model_line("mca", a.mca_cycles, a.mca_attribution);
  model_line("testbed", a.testbed_cycles, a.testbed_attribution);
  out += format("  verdict: %s\n", verdict_string(a).c_str());
  return out;
}

namespace {

std::string certificate_json(const Certificate& c) {
  using report::json_escape;
  std::string out = format(
      "{\"kind\": \"%s\", \"cycles\": %.6g, \"provenance\": \"%s\"",
      c.kind == BoundKind::PortPressure ? "port-pressure" : "critical-path",
      c.cycles, json_escape(c.provenance).c_str());
  if (c.kind == BoundKind::PortPressure) {
    out += ", \"binding_ports\": [";
    for (std::size_t i = 0; i < c.binding_port_names.size(); ++i) {
      out += format("%s\"%s\"", i ? ", " : "",
                    json_escape(c.binding_port_names[i]).c_str());
    }
    out += "], \"port_load\": [";
    for (std::size_t i = 0; i < c.port_load.size(); ++i)
      out += format("%s%.6g", i ? ", " : "", c.port_load[i]);
    out += "]";
  } else {
    out += ", \"chain\": [";
    for (std::size_t i = 0; i < c.chain.size(); ++i)
      out += format("%s%d", i ? ", " : "", c.chain[i]);
    out += "], \"chain_link_cycles\": [";
    for (std::size_t i = 0; i < c.chain_link_cycles.size(); ++i)
      out += format("%s%.6g", i ? ", " : "", c.chain_link_cycles[i]);
    out += "]";
  }
  out += "}";
  return out;
}

std::string attribution_json(const Attribution& at) {
  using report::json_escape;
  std::string out = format(
      "{\"model\": \"%s\", \"observed\": %.6g, \"bound\": %.6g, "
      "\"gap\": %.6g, \"cause\": \"%s\", \"summary\": \"%s\", "
      "\"contributions\": [",
      json_escape(at.model).c_str(), at.observed, at.bound, at.gap,
      to_string(at.cause), json_escape(at.summary).c_str());
  for (std::size_t i = 0; i < at.contributions.size(); ++i) {
    const InstrContribution& c = at.contributions[i];
    out += format(
        "%s{\"instruction\": %d, \"text\": \"%s\", \"cycles\": %.6g, "
        "\"detail\": \"%s\"}",
        i ? ", " : "", c.instruction, json_escape(c.text).c_str(), c.cycles,
        json_escape(c.detail).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace

std::string to_json(const BlockAudit& a, const verify::DiagnosticSink& sink) {
  using report::json_escape;
  std::string out = "{\n";
  out += format("  \"location\": \"%s\",\n", json_escape(a.location).c_str());
  out += format("  \"evaluated\": %s,\n", a.evaluated ? "true" : "false");
  if (!a.evaluated) {
    out += format("  \"error\": \"%s\"\n}\n", json_escape(a.error).c_str());
    return out;
  }
  out += format("  \"verdict\": \"%s\",\n",
                json_escape(verdict_string(a)).c_str());
  out += format("  \"certificates\": [%s, %s],\n",
                certificate_json(a.port_certificate).c_str(),
                certificate_json(a.path_certificate).c_str());
  out += format("  \"certified_bound\": %.6g,\n", a.certified_bound);
  out += format("  \"execution_floor\": %.6g,\n", a.execution_floor);
  if (!a.floor_note.empty())
    out += format("  \"floor_note\": \"%s\",\n",
                  json_escape(a.floor_note).c_str());
  out += format(
      "  \"models\": {\"incore\": %.6g, \"mca\": %.6g, \"testbed\": %.6g},\n",
      a.incore_cycles, a.mca_cycles, a.testbed_cycles);
  out += "  \"attributions\": [";
  bool first = true;
  for (const auto* at : {&a.mca_attribution, &a.testbed_attribution}) {
    if (!*at) continue;
    out += format("%s%s", first ? "" : ", ", attribution_json(**at).c_str());
    first = false;
  }
  out += "],\n";
  // Inline the diagnostics document (already a JSON object).
  std::string diag = report::to_json(sink);
  out += "  \"lint\": " + diag;
  if (!diag.empty() && diag.back() == '\n') out.pop_back();
  out += "\n}\n";
  return out;
}

std::string verdict_string(const BlockAudit& a) {
  if (!a.evaluated) return "error";
  if (!a.ok) {
    std::string out = "fail";
    for (std::size_t i = 0; i < a.failed_codes.size(); ++i) {
      out += i ? "+" : ":";
      out += a.failed_codes[i];
    }
    return out;
  }
  std::string causes;
  for (const auto* at : {&a.mca_attribution, &a.testbed_attribution}) {
    if (!*at) continue;
    const char* slug = to_string((*at)->cause);
    if (causes.find(slug) == std::string::npos) {
      if (!causes.empty()) causes += "+";
      causes += slug;
    }
  }
  if (!causes.empty()) return "divergent:" + causes;
  return "pass";
}

}  // namespace incore::audit
