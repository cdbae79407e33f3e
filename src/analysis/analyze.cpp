#include "analysis/analyze.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace incore::analysis {

static thread_local std::uint64_t t_analyses = 0;

std::uint64_t analyses_run() { return t_analyses; }

Report analyze(const asmir::Program& prog, const uarch::MachineModel& mm,
               const DepOptions& opt) {
  ++t_analyses;
  Report rep;
  rep.mm_ = &mm;
  const int ports = static_cast<int>(mm.port_count());
  rep.port_load_.assign(ports, 0.0);

  // Collect occupancy groups from all instructions.
  std::vector<OccupancyGroup> groups;
  std::vector<uarch::Resolved> resolved;
  resolved.reserve(prog.code.size());
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    const uarch::Resolved r = mm.resolve(prog.code[i]);
    for (const uarch::PortUse& pu : r.port_uses) {
      groups.push_back(OccupancyGroup{pu.mask, pu.cycles, static_cast<int>(i)});
    }
    resolved.push_back(r);
  }

  PortPressureResult pp = balance_ports(groups, ports);
  rep.tp_ = pp.bottleneck_cycles;
  rep.port_load_ = pp.port_load;

  DepResult dep = analyze_dependencies(prog, mm, opt);
  rep.cp_ = dep.critical_path_cycles;
  rep.lcd_ = dep.loop_carried_cycles;
  rep.lcd_chain_ = dep.lcd_chain;

  rep.instructions_.resize(prog.code.size());
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    InstructionReport& ir = rep.instructions_[i];
    ir.text = prog.code[i].raw;
    ir.form = prog.code[i].form();
    ir.latency = resolved[i].latency;
    ir.inverse_throughput = resolved[i].inverse_throughput;
    ir.used_fallback = resolved[i].used_fallback;
    ir.port_pressure.assign(ports, 0.0);
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& pressure = rep.instructions_[groups[g].instruction].port_pressure;
    for (int p = 0; p < ports; ++p) pressure[p] += pp.assignment[g][p];
  }
  for (int idx : dep.lcd_chain) {
    rep.instructions_[static_cast<std::size_t>(idx)].on_lcd = true;
  }
  return rep;
}

std::string Report::to_table() const {
  using support::format;
  std::string out;
  // Header: port names.
  out += format("%-40s", "instruction");
  for (const auto& p : mm_->ports()) out += format(" %6s", p.c_str());
  out += "   LCD\n";
  bool any_fallback = false;
  for (const auto& ir : instructions_) {
    std::string text = ir.text.substr(0, 39);
    out += format("%-40s", text.c_str());
    for (double v : ir.port_pressure) {
      if (v > 1e-9) {
        out += format(" %6.2f", v);
      } else {
        out += format(" %6s", "");
      }
    }
    out += ir.on_lcd ? "     *" : "";
    if (ir.used_fallback) {
      out += ir.on_lcd ? " !" : "      !";
      any_fallback = true;
    }
    out += '\n';
  }
  if (any_fallback) {
    out += "(!) form not in the model; mnemonic-fallback estimate -- run "
           "`incore-cli lint` for details\n";
  }
  out += format("%-40s", "-- port load --");
  for (double v : port_load_) out += format(" %6.2f", v);
  out += '\n';
  out += format(
      "throughput bound: %.2f cy/iter | critical path: %.2f cy | "
      "loop-carried dep: %.2f cy/iter | prediction: %.2f cy/iter\n",
      tp_, cp_, lcd_, predicted_cycles());
  return out;
}

}  // namespace incore::analysis
