#pragma once
// Cycle-level out-of-order pipeline simulator.
//
// This engine serves two roles:
//  * configured with realistic policies (dynamic port selection at issue,
//    move elimination, zero-idiom elimination, taken-branch fetch bubble,
//    per-form hardware throughput overrides) it is the *execution testbed*
//    that substitutes for the paper's measurements on real Grace / Sapphire
//    Rapids / Genoa silicon;
//  * configured with LLVM-MCA-like policies (static resource binding chosen
//    at dispatch, no rename eliminations, no branch modeling, transformed
//    scheduling tables) it reproduces the comparator model of the paper.
//
// The simulated microarchitecture state per cycle: fetch/decode bandwidth,
// rename/dispatch bandwidth into a finite ROB and scheduler window, greedy
// oldest-first issue onto ports with multi-cycle occupancy (non-pipelined
// units), a load/store queue, and in-order retirement.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "asmir/ir.hpp"
#include "uarch/model.hpp"

namespace incore::exec {

struct PipelineConfig {
  /// Iterations to simulate after warmup; cycles/iter is averaged over these.
  int iterations = 200;
  int warmup_iterations = 50;

  /// Renamer optimizations (real cores have them; LLVM-MCA's default models
  /// historically did not).
  bool move_elimination = true;
  bool zero_idiom_elimination = true;

  /// Port for each micro-op chosen dynamically at issue (testbed) or bound
  /// statically at dispatch by cumulative-use counters (LLVM-MCA style).
  bool dynamic_port_selection = true;

  /// Fetch-redirect penalty paid once per taken loop-back branch, in cycles.
  /// Zero disables branch modeling entirely (LLVM-MCA assumes a fully
  /// unrolled instruction stream).
  double taken_branch_bubble = 1.0;

  /// Hardware-measured reciprocal throughput per instruction form where the
  /// silicon beats the documented/model value (e.g. Zen 4's scalar divider).
  std::unordered_map<std::string, double> tput_overrides;
  /// Hardware-measured latency overrides.
  std::unordered_map<std::string, double> latency_overrides;

  /// Scheduling-table transform (used by the MCA configuration): scale and
  /// bias applied to FP/vector latencies, and an extra micro-op inflation
  /// factor for vector instructions.
  double fp_latency_scale = 1.0;
  double fp_latency_add = 0.0;
  double load_latency_add = 0.0;

  /// Real pipelines issue the store-address micro-op (and the post-index
  /// write-back) without waiting for the store data; LLVM-MCA's model gates
  /// the whole instruction on all operands.
  bool store_address_split = true;

  /// Folded load+compute instructions issue their load micro-op ahead of
  /// the compute's register inputs (LLVM models this via ReadAdvance, so
  /// the MCA configuration keeps it too).
  bool split_folded_loads = true;

  /// Restrict every FP/vector micro-op to at most this many alternative
  /// ports (0 = unlimited).  Models LLVM's coarse resource groups for
  /// microarchitectures it describes generically (Neoverse V2).
  int fp_port_limit = 0;

  /// Like fp_port_limit but for the micro-ops of load/store instructions
  /// (generic models describe fewer LD/ST pipes than V2's three).
  int mem_port_limit = 0;

  /// Override the rename/dispatch width (0 = use the machine's).  LLVM
  /// scheduling models advertise an IssueWidth that is often narrower than
  /// the real rename stage.
  int dispatch_width_override = 0;

  /// Record per-instruction pipeline events for the first N iterations
  /// (0 = off).  Enables the timeline view.
  int timeline_iterations = 0;

  /// Honor late accumulator forwarding of FMA-class instructions (the
  /// dependent accumulate can start before its accumulator input is ready).
  /// Off by default to match the paper's measurement calibration.
  bool model_accumulator_forwarding = false;
};

/// One dynamic instruction's trip through the pipeline.
struct TimelineEvent {
  int iteration = 0;
  int index = 0;          // position within the loop body
  double dispatch = 0;
  double issue = 0;
  double complete = 0;
  double retire = 0;
};

struct PipelineResult {
  double cycles_per_iteration = 0.0;
  std::uint64_t total_cycles = 0;
  int measured_iterations = 0;
  /// Port busy fraction during the measured window (indexed like the model).
  std::vector<double> port_utilization;
  /// Dispatch stalls due to a full ROB / scheduler (cycles).
  std::uint64_t backpressure_cycles = 0;
  /// Per-port busy cycles per measured iteration (absolute counterpart of
  /// `port_utilization`; the realized port histogram the audit diffs).
  std::vector<double> port_cycles;
  /// Issue statistics for one loop body under this configuration: rename
  /// micro-ops per iteration (rename-eliminated instructions still consume
  /// rename bandwidth), the dispatch width in effect, and how many body
  /// instructions the renamer eliminated.
  double uops_per_iteration = 0.0;
  int dispatch_width = 0;
  int eliminated_moves = 0;
  int eliminated_zero_idioms = 0;
  /// Recorded when PipelineConfig::timeline_iterations > 0.
  std::vector<TimelineEvent> timeline;
  /// Cycles actually stepped.  Below total_cycles + 1 when the periodic
  /// jump skipped whole periods; it is not part of the measurement.
  std::uint64_t simulated_cycles = 0;
};

/// Renders recorded events as an llvm-mca-style ASCII timeline:
/// D = dispatch, E = executing, R = retired.
[[nodiscard]] std::string render_timeline(
    const std::vector<TimelineEvent>& events, const asmir::Program& prog);

/// Simulate `prog` as an infinite loop on the machine `mm`: warm-up plus
/// measured iterations, cycle by cycle, until the last one retires (or the
/// simulator's cap of 30 M cycles).  Once the pipeline state provably
/// repeats, whole periods are skipped; every field but simulated_cycles is
/// the same as stepping through them (docs/methodology.md).
/// Throws support::UnknownInstruction if the model lacks a required form.
[[nodiscard]] PipelineResult simulate_loop(const asmir::Program& prog,
                                           const uarch::MachineModel& mm,
                                           const PipelineConfig& cfg);

namespace detail {
/// The engine behind simulate_loop; `periodic_jump = false` steps every
/// cycle, the reference the jump is tested against.
[[nodiscard]] PipelineResult simulate_loop(const asmir::Program& prog,
                                           const uarch::MachineModel& mm,
                                           const PipelineConfig& cfg,
                                           bool periodic_jump);
}  // namespace detail

}  // namespace incore::exec
