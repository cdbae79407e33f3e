#pragma once
// Synthetic address layouts and their trace-simulator replay.
//
// Both cross-validation engines — the traffic crosscheck (VP011,
// crosscheck.hpp) and the ECM scaling crosscheck (src/ecm/crosscheck.hpp)
// — need to turn the statically reconstructed streams into concrete
// addresses the cache simulator can walk: disjoint multi-MiB regions per
// stream, staggered by a non-power-of-two line count so the streams land
// on decorrelated cache sets.  This helper owns that synthesis, the
// warmup sizing (enough iterations to fill 1.5x the combined cache
// capacity, bounded by a hard cap so huge-L3 machines stay tractable; see
// docs/traffic.md for why residency, not stream span, bounds it) and the
// one replay loop both engines meter.  A block gets one layout and one
// warmup whatever window is measured, so the shorter VP014 window is a
// prefix of VP011's and the replay serves it from VP011's run.  The
// disjoint regions also tell the replay which lines no access has touched
// yet, so it can skip their probes.

#include <cstdint>
#include <vector>

#include "asmir/ir.hpp"
#include "dataflow/dataflow.hpp"
#include "traffic/traffic.hpp"
#include "uarch/model.hpp"

namespace incore::traffic {

/// Hard cap on warmup + measured iterations of a replay, shared by VP011
/// and VP014 (keeps huge-L3 machines bounded).  Regions are sized for
/// this many iterations, so a layout does not depend on its window.
inline constexpr long long kMaxReplayIterations = 1ll << 23;

/// One per-iteration memory operation, pre-resolved for a replay loop:
/// at iteration i it touches bytes [lo + i*stride, lo + i*stride + width).
struct LayoutOp {
  long long lo = 0;      // synthesized region base + effective displacement
  long long width = 1;   // bytes
  long long stride = 0;  // per-iteration advance
  int stream = 0;        // index into Result::streams (its region)
  bool is_load = false;
  bool is_store = false;
  bool nontemporal = false;

  bool operator==(const LayoutOp&) const = default;
};

struct SyntheticLayout {
  /// False when any stream is Symbolic or GatherScatter (or the program
  /// has no memory accesses): no concrete layout exists and `ops` is empty.
  bool ok = false;
  std::vector<LayoutOp> ops;  // program order
  long long warmup_iterations = 0;
  long long measure_iterations = 0;
  /// True when the warmup was truncated by `max_total_iterations`.
  bool capped = false;
  /// All-band footprint in bytes per iteration (drives layer-condition
  /// boundary attribution).
  double agg_sweep_bytes = 0;
};

/// Synthesizes a concrete layout for the streams of `r` (which must come
/// from analyze(prog, mm) with `df` = dataflow::analyze(prog)).  Each
/// stream's region holds max(warmup + measure, max_total_iterations)
/// iterations, so only `measure_iterations` and, when the cap truncates
/// it, the warmup depend on the window.
[[nodiscard]] SyntheticLayout synthesize_layout(
    const Result& r, const dataflow::Analysis& df, const asmir::Program& prog,
    const uarch::MachineModel& mm, long long measure_iterations,
    long long max_total_iterations);

/// Reuse distance near a capacity edge: true when a non-leading band of
/// `r` reuses lines across a footprint within 0.7-1.4x of L1, L1+L2 or
/// L1+L2+L3.  The serving level can flip either way there, and the replay
/// settles in a state that depends on its history.
[[nodiscard]] bool near_capacity_edge(const Result& r,
                                      const SyntheticLayout& layout,
                                      const uarch::MachineModel& mm);

/// Associativity conflict: true when the concurrently-live lines of one
/// layout iteration alias one L1 set beyond its ways.  The layer condition
/// reasons about capacity as if L1 were fully associative; here (e.g.
/// stencil rows a power-of-two apart) intra-line reuse thrashes between L1
/// and L2.  The band offsets causing this come from the code, not the
/// synthesized bases, so the verdict transfers to any real layout with the
/// same geometry.
[[nodiscard]] bool l1_set_conflict(const SyntheticLayout& layout,
                                   const uarch::MachineModel& mm);

/// Hierarchy events the crosschecks compare, counted over a replay's
/// measured window.
struct ReplayCounters {
  std::uint64_t l1_miss = 0, l1_evict = 0, l2_hit = 0, l2_evict = 0,
                l3_hit = 0;
  std::uint64_t mem_read = 0, mem_write = 0, claimed = 0;

  bool operator==(const ReplayCounters&) const = default;
};

/// Replays `layout.warmup_iterations` then `layout.measure_iterations`
/// iterations of `layout.ops` through a fresh
/// memsim::CacheHierarchy::for_model(mm) and returns the counters at the
/// end of the measured window minus those at its start.  There is no
/// drain: the window's counts are the steady-state rates.  `layout` must
/// be ok.
///
/// Every touched line of every access is counted, but only the lines
/// whose outcome is not already known are probed.  A line outside the
/// range its stream has touched so far is resident nowhere, since each
/// stream has a region of its own: it is passed to the hierarchy as cold,
/// which counts a miss at each level and fills without probing.  The
/// hierarchy answers a re-access of its L1 set's most recently used line
/// by counting the hit.  Both are exact (docs/traffic.md).  Throws
/// std::logic_error if two streams' regions share a line.
///
/// The calling thread keeps its last replay: the key (ops, warmup, cache
/// geometry, machine) and the window's counters at every power-of-two
/// point of the measured window and at its end.  A call with an equal key
/// whose window is one of those points returns the recorded counters
/// without simulating -- the same numbers, since the window is a prefix
/// of the recorded run.  One entry per thread: it never grows.
[[nodiscard]] ReplayCounters replay(const SyntheticLayout& layout,
                                    const uarch::MachineModel& mm);

/// Iterations the calling thread's replays have simulated so far; a
/// window served from the kept replay adds none.
[[nodiscard]] std::uint64_t simulated_replay_iterations();

/// Simulator calls the calling thread's replays have made so far, and
/// how many of them skipped the probes: marked cold (a line no access had
/// touched) or answered by the hierarchy's most-recently-used rule.
struct ReplayWork {
  std::uint64_t line_accesses = 0;
  std::uint64_t cold = 0;
  std::uint64_t mru = 0;
};
[[nodiscard]] ReplayWork replay_work();

}  // namespace incore::traffic
