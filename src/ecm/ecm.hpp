#pragma once
// Execution-Cache-Memory (ECM) model on top of the in-core model.
//
// The paper's conclusion names this as the next step: "apply our in-core
// model to a node-wide performance model such as the Execution-Cache-Memory
// (ECM) model".  This module implements that composition (Stengel et al.,
// ICS'15 formulation):
//
//   T_ECM = max(T_OL, T_nOL + T_L1L2 + T_L2L3 + T_L3Mem)
//
// where, per loop iteration,
//   T_OL    = in-core cycles that overlap with data transfers (arithmetic
//             port pressure, recurrences),
//   T_nOL   = non-overlapping in-core cycles (L1 load/store port pressure),
//   T_XY    = cache-line transfer cycles between adjacent memory levels.
//
// The transfer terms are keyed on the static traffic engine (src/traffic/):
// per-boundary line volumes with layer conditions, write-allocate evasion
// and non-temporal stores resolved, against the machine's MDF-described
// hierarchy (uarch::HierarchyParams, the `hierarchy` directive).
//
// Multicore scaling follows the ECM saturation law: performance scales
// linearly with cores until the memory-transfer term saturates the
// interface, at n_sat = ceil(T_ECM(Mem) / T_L3Mem).  crosscheck.hpp
// validates that law against the dynamic memory simulator.

#include "analysis/analyze.hpp"
#include "kernels/kernels.hpp"
#include "traffic/traffic.hpp"
#include "uarch/model.hpp"

namespace incore::ecm {

/// Where the working set lives (the innermost level that misses).
enum class DataLocation { L1, L2, L3, Memory };

[[nodiscard]] const char* to_string(DataLocation loc);

/// Per-machine memory-hierarchy parameters, in cycles per 64 B cache line
/// per adjacent-level transfer (single core).  Since PR 7 this is a view of
/// uarch::HierarchyParams (the MDF `hierarchy` directive) plus the paper
/// short name; what-if .mdf edits flow straight into ECM predictions.
struct HierarchyParams {
  const char* name = "?";
  double cy_per_cl_l1_l2 = 1.0;
  double cy_per_cl_l2_l3 = 2.0;
  double cy_per_cl_l3_mem = 5.0;
  /// Write-allocate lines are charged on every level unless the machine
  /// evades them (Grace's automatic claim).
  bool write_allocate_evaded = false;
  /// Socket-level memory bandwidth cap, in cache lines per cycle, for the
  /// saturation law.
  double socket_cl_per_cy = 8.0;
  /// Cores on the socket: the upper end of the N-core prediction axis.
  int socket_cores = 1;
};

/// Hierarchy parameters of a paper-trio member's built-in model.
[[nodiscard]] HierarchyParams hierarchy(uarch::Micro micro);

/// Hierarchy parameters of an arbitrary model (.mdf-loaded or what-if):
/// the model's own `hierarchy` directive, named after its family tag.
[[nodiscard]] HierarchyParams hierarchy_for(const uarch::MachineModel& mm);

/// Per-boundary line volumes for the ECM transfer terms, in cache lines
/// per iteration crossing each adjacent-level boundary (both directions:
/// fills toward the core plus victim write-backs away from it, matching
/// the exclusive victim hierarchy the trace simulator meters).
struct BoundaryTraffic {
  double lines_l1l2 = 0;   // L1<->L2 boundary crossings
  double lines_l2l3 = 0;   // L2<->L3 boundary crossings
  double lines_l3mem = 0;  // memory-interface crossings
};

/// Maps the traffic engine's per-level volumes onto boundary crossings:
///   L1<->L2: fills into L1 (minus claimed lines, which move no data) plus
///            L1 victims;
///   L2<->L3: fills served by L3 or memory plus L2 victims;
///   L3<->Mem: memory reads plus write-backs/NT stores.
[[nodiscard]] BoundaryTraffic boundary_traffic(const traffic::Volumes& v);

struct Prediction {
  double t_ol = 0;      // overlapping in-core cycles / iteration
  double t_nol = 0;     // non-overlapping (L1 access) cycles / iteration
  double t_l1l2 = 0;
  double t_l2l3 = 0;
  double t_l3mem = 0;
  double mem_lines_per_iter = 0;  // cache lines over the memory interface

  /// Single-core cycles per iteration with data in `loc`.
  [[nodiscard]] double cycles(DataLocation loc) const;
  /// Saturation core count for memory-resident data.
  [[nodiscard]] int saturation_cores(const HierarchyParams& h) const;
  /// Multi-core cycles/iteration (inverse-throughput) for memory-resident
  /// data with `cores` active.
  [[nodiscard]] double multicore_cycles(int cores,
                                        const HierarchyParams& h) const;
};

/// Composes the in-core report with per-boundary traffic (layer
/// conditions and write-allocate evasion already folded into `t`).
[[nodiscard]] Prediction predict(const analysis::Report& rep,
                                 const BoundaryTraffic& t,
                                 const HierarchyParams& h);

/// Convenience: full pipeline for a kernel variant on its built-in model.
[[nodiscard]] Prediction predict_kernel(const kernels::Variant& v);

/// Full pipeline for an already-analyzed block against an explicit model
/// (the driver's EcmPredictor path; works for .mdf-loaded machines).
[[nodiscard]] Prediction predict_block(const analysis::Report& rep,
                                       const asmir::Program& prog,
                                       const uarch::MachineModel& mm);

/// Compositions predict_block() has built on the calling thread so far.
[[nodiscard]] std::uint64_t compositions_run();

/// T_nOL / T_OL split of an in-core report: the maximum pressure on
/// load/store ports vs. the maximum of recurrence and remaining port
/// pressure.
struct InCoreSplit {
  double t_nol = 0;
  double t_ol = 0;
};
[[nodiscard]] InCoreSplit split_in_core(const analysis::Report& rep);

}  // namespace incore::ecm
