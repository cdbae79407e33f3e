#pragma once
// Memory-side cross-validation of the ECM composition.
//
// The analytic side (ecm.hpp) predicts full-kernel N-core scaling from
// three ingredients: per-boundary line volumes (the static traffic
// engine), the per-line transfer costs of the MDF `hierarchy` directive,
// and the saturation law n_sat = ceil(T_ECM / T_L3Mem).  Each ingredient
// has an independent dynamic counterpart in src/memsim/, and this
// component checks all three:
//
//   1. the memory-boundary volume the ECM charges (mem_lines_per_iter) is
//      replayed against the cache trace simulator over a synthesized
//      layout (traffic::synthesize_layout, shared with the VP011 check);
//   2. the write-allocate assumption baked into the hierarchy parameters
//      (`wa_evasion`) is compared against the multi-core store-benchmark
//      trace (memsim::simulate_store_benchmark_trace), whose per-request
//      protocol decisions make evasion utilization- and core-count-
//      dependent (SpecI2M) where the static model keeps it constant;
//   3. the analytic saturation point is compared against the machine's
//      bandwidth-concurrency curve (memsim::System::achieved_bw).
//
// Divergences beyond tolerance are *attributed* to a memory-side cause —
// write-allocate-evasion mispredicted, saturation point missed, transfer
// overlap mismatch — and only an unattributed or gross divergence fails
// the check (the VP014 audit invariant and the corpus ctest gate).

#include <string>
#include <vector>

#include "asmir/ir.hpp"
#include "ecm/ecm.hpp"
#include "traffic/layout.hpp"
#include "uarch/model.hpp"
#include "verify/diagnostics.hpp"

namespace incore::ecm {

/// Memory-side causes a scaling divergence can be attributed to.
enum class ScalingCause : std::uint8_t {
  /// The constant `wa_evasion` flag disagrees with the traced store
  /// protocol at some core count (e.g. SpecI2M converting RFOs only near
  /// interface saturation, or the claim detector's per-page warmup).
  WriteAllocateEvasionMispredicted,
  /// n_sat from the ECM law and the bandwidth-concurrency curve disagree.
  SaturationPointMissed,
  /// The memory-boundary volume the composition charges does not match
  /// the trace-simulator replay (overlap/victim accounting).
  TransferOverlapMismatch,
  /// Symbolic or gather streams: no concrete layout, replay skipped.
  LayoutUnknowable,
};

[[nodiscard]] const char* to_string(ScalingCause c);

struct ScalingOptions {
  /// Core counts to tabulate; empty = powers of two up to the socket,
  /// socket included.
  std::vector<int> cores;
  /// Relative tolerance on the replayed memory-volume comparison.
  double tolerance = 0.10;
  /// Beyond this relative error the divergence is a failure even when a
  /// cause pattern matches (a model bug, not a modeling limit).
  double fail_tolerance = 0.5;
  /// Relative tolerance on the store-traffic-ratio comparison.
  double ratio_tolerance = 0.10;
  /// Saturation agreement: |n_ecm - n_bw| <= max(slack_cores,
  /// slack_fraction * n_bw) counts as agreement.
  int slack_cores = 2;
  double slack_fraction = 0.5;
  /// Replay window (smaller than VP011's: the ECM check meters one
  /// boundary, not eight).  With VP011's cap the layout and warmup are
  /// VP011's, and the replay serves this window from VP011's run.
  long long measure_iterations = 2048;
  long long max_total_iterations = traffic::kMaxReplayIterations;
  /// Store-benchmark depth per core for the protocol trace.
  int store_lines_per_core = 4096;
};

/// One row of the scaling table.
struct CorePoint {
  int cores = 1;
  double analytic_cycles = 0;      // multicore_cycles(cores)
  double analytic_cl_per_cy = 0;   // implied memory-interface line rate
  double trace_store_ratio = 0;    // simulated store-traffic ratio
  double model_store_ratio = 0;    // ratio implied by `wa_evasion`
};

struct ScalingCheck {
  HierarchyParams h;
  Prediction prediction;
  /// True when the kernel moves no memory traffic: nothing to validate.
  bool skipped = false;
  std::vector<CorePoint> points;
  int analytic_saturation = 0;   // n_sat from the ECM law
  int bandwidth_saturation = 0;  // knee of the achieved-bandwidth curve
  double static_mem_lines = 0;   // what the composition charges
  double trace_mem_lines = 0;    // trace-simulator replay measurement
  bool replay_ran = false;
  long long warmup_iterations = 0;  // replay warmup before the window
  bool capped = false;  // max_total_iterations truncated the warmup
  /// Attributed divergences, with human-readable details (parallel).
  std::vector<ScalingCause> causes;
  std::vector<std::string> details;
  /// False only for unattributed or gross divergence.
  bool ok = true;

  [[nodiscard]] bool diverged() const { return !causes.empty(); }
};

/// Runs the full memory-side cross-validation of `prog` on `mm`.
[[nodiscard]] ScalingCheck crosscheck_scaling(const asmir::Program& prog,
                                              const uarch::MachineModel& mm,
                                              const ScalingOptions& opt = {});

/// Audit-style entry point: runs crosscheck_scaling() and reports VP014
/// through the sink under `location` — an error for an unattributed or
/// gross divergence, a note when every divergence carries a cause.
/// Returns the number of diagnostics emitted.
std::size_t check_scaling_vs_simulation(const asmir::Program& prog,
                                        const uarch::MachineModel& mm,
                                        std::string location,
                                        verify::DiagnosticSink& sink,
                                        const ScalingOptions& opt = {});

/// Human-readable scaling table plus the three comparisons.
[[nodiscard]] std::string to_text(const ScalingCheck& c);

/// JSON document (points, saturation, causes).
[[nodiscard]] std::string to_json(const ScalingCheck& c);

}  // namespace incore::ecm
