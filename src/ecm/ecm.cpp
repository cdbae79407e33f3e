#include "ecm/ecm.hpp"

#include <algorithm>
#include <cmath>

#include "support/strings.hpp"

namespace incore::ecm {

const char* to_string(DataLocation loc) {
  switch (loc) {
    case DataLocation::L1: return "L1";
    case DataLocation::L2: return "L2";
    case DataLocation::L3: return "L3";
    case DataLocation::Memory: return "MEM";
  }
  return "?";
}

HierarchyParams hierarchy_for(const uarch::MachineModel& mm) {
  const uarch::HierarchyParams& u = mm.hierarchy;
  HierarchyParams h;
  h.name = uarch::cpu_short_name(mm.micro());
  h.cy_per_cl_l1_l2 = u.cy_per_cl_l1_l2;
  h.cy_per_cl_l2_l3 = u.cy_per_cl_l2_l3;
  h.cy_per_cl_l3_mem = u.cy_per_cl_l3_mem;
  h.write_allocate_evaded = u.write_allocate_evaded;
  h.socket_cl_per_cy = u.socket_cl_per_cy;
  h.socket_cores = u.socket_cores;
  return h;
}

HierarchyParams hierarchy(uarch::Micro micro) {
  return hierarchy_for(uarch::machine(micro));
}

BoundaryTraffic boundary_traffic(const traffic::Volumes& v) {
  BoundaryTraffic t;
  // Claimed lines allocate in L1 without moving data through any boundary;
  // everything else that fills L1 crossed L1<->L2, and L1 victims cross it
  // back down (exclusive hierarchy: every fill displaces).
  t.lines_l1l2 = std::max(0.0, v.l1_miss - v.claimed) + v.l1_evict;
  // Fills served below L2 (L3 hits and memory reads) cross L2<->L3 upward;
  // L2 victims cross it downward.
  t.lines_l2l3 = v.l3_hit + v.mem_read + v.l2_evict;
  // The memory interface sees reads plus write-backs (incl. NT stores).
  t.lines_l3mem = v.mem_read + v.mem_write;
  return t;
}

double Prediction::cycles(DataLocation loc) const {
  double transfer = 0;
  switch (loc) {
    case DataLocation::L1: transfer = 0; break;
    case DataLocation::L2: transfer = t_l1l2; break;
    case DataLocation::L3: transfer = t_l1l2 + t_l2l3; break;
    case DataLocation::Memory: transfer = t_l1l2 + t_l2l3 + t_l3mem; break;
  }
  return std::max(t_ol, t_nol + transfer);
}

int Prediction::saturation_cores(const HierarchyParams& h) const {
  // Kernels that move no memory traffic never saturate the interface.
  if (t_l3mem <= 0) return 1 << 20;
  double full = cycles(DataLocation::Memory);
  // Classic ECM: n_sat = ceil(T_ECM / T_L3Mem).
  int n = static_cast<int>(std::ceil(full / t_l3mem - 1e-9));
  (void)h;
  return std::max(1, n);
}

double Prediction::multicore_cycles(int cores, const HierarchyParams& h) const {
  cores = std::max(1, cores);
  const double single = cycles(DataLocation::Memory);
  // Linear scaling with cores, capped both by the ECM saturation law and by
  // the socket bandwidth ceiling (iterations/cy at the interface limit).
  double iters_per_cy = std::min(1.0 * cores, 1.0 * saturation_cores(h)) /
                        single;
  if (mem_lines_per_iter > 0) {
    iters_per_cy = std::min(iters_per_cy,
                            h.socket_cl_per_cy / mem_lines_per_iter);
  }
  return 1.0 / iters_per_cy;
}

InCoreSplit split_in_core(const analysis::Report& rep) {
  InCoreSplit s;
  const uarch::MachineModel& mm = rep.model();
  double mem_pressure = 0;
  double other_pressure = 0;
  for (std::size_t p = 0; p < mm.ports().size(); ++p) {
    const std::string& name = mm.ports()[p];
    const bool is_mem_port =
        support::starts_with(name, "LD") || support::starts_with(name, "ST") ||
        support::starts_with(name, "AGU") || support::starts_with(name, "FST") ||
        name == "P2" || name == "P3" || name == "P4" || name == "P7" ||
        name == "P8" || name == "P9" || name == "P11";
    double load = rep.port_load()[p];
    if (is_mem_port) {
      mem_pressure = std::max(mem_pressure, load);
    } else {
      other_pressure = std::max(other_pressure, load);
    }
  }
  s.t_nol = mem_pressure;
  s.t_ol = std::max(other_pressure, rep.loop_carried_cycles());
  return s;
}

Prediction predict(const analysis::Report& rep, const BoundaryTraffic& t,
                   const HierarchyParams& h) {
  Prediction p;
  InCoreSplit split = split_in_core(rep);
  p.t_ol = split.t_ol;
  p.t_nol = split.t_nol;
  p.t_l1l2 = t.lines_l1l2 * h.cy_per_cl_l1_l2;
  p.t_l2l3 = t.lines_l2l3 * h.cy_per_cl_l2_l3;
  p.t_l3mem = t.lines_l3mem * h.cy_per_cl_l3_mem;
  p.mem_lines_per_iter = t.lines_l3mem;
  return p;
}

static thread_local std::uint64_t t_compositions = 0;

std::uint64_t compositions_run() { return t_compositions; }

Prediction predict_block(const analysis::Report& rep,
                         const asmir::Program& prog,
                         const uarch::MachineModel& mm) {
  ++t_compositions;
  const traffic::Result tr = traffic::analyze(prog, mm);
  return predict(rep, boundary_traffic(tr.volumes), hierarchy_for(mm));
}

Prediction predict_kernel(const kernels::Variant& v) {
  const kernels::GeneratedKernel g = kernels::generate(v);
  const uarch::MachineModel& mm = uarch::machine(v.target);
  return predict_block(analysis::analyze(g.program, mm), g.program, mm);
}

}  // namespace incore::ecm
