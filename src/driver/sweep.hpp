#pragma once
// The matrix sweep engine: evaluates kernel variants × predictors with
// content-hash deduplication, per-(hash, model) memoization and a bounded
// worker pool — the paper's Fig. 3 / Table 4 workflow made first-class.
//
// Pipeline:
//   1. codegen (serial, cheap): every variant is rendered and hashed;
//   2. dedup: variants collapse to unique (machine, assembly) blocks —
//      the 416-cell matrix holds only a few hundred unique blocks, so
//      every model evaluates each unique block exactly once;
//   3. evaluation (parallel): unique-block × predictor tasks fan out over
//      a support::ThreadPool; each task writes its own result slot, so
//      output is byte-identical for any --jobs value;
//   4. assembly: matrix-ordered rows referencing the memoized predictions.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "driver/predictor.hpp"
#include "report/report.hpp"
#include "uarch/registry.hpp"

namespace incore::server {
class ServiceCore;  // the staged prediction pipeline (server/core.hpp)
}  // namespace incore::server

namespace incore::driver {

/// Optional prediction-audit hook: called once per *unique* block after the
/// predictor evaluations, under the same slot-disciplined worker pool, and
/// returns the block's audit verdict ("pass", "divergent:<cause>", ...).
/// The driver stays audit-agnostic: the CLI installs audit::audit_block
/// here, so src/driver/ does not depend on src/audit/.  Must be thread-safe.
using AuditHook = std::function<std::string(const Block&)>;

/// Optional traffic hook, same contract as AuditHook: called once per
/// unique block and returns a compact per-iteration traffic summary for
/// the `traffic_lines` column.  The driver stays traffic-agnostic: the CLI
/// installs the static traffic engine here.  Must be thread-safe.
using TrafficHook = std::function<std::string(const Block&)>;

struct SweepOptions {
  /// Worker threads for predictor evaluation; <= 1 runs inline.
  int jobs = 1;
  /// When set, every unique block is audited and the reports gain an
  /// `audit_verdict` column (absent otherwise, keeping default output
  /// byte-identical).
  AuditHook audit;
  /// When set, the reports gain a `traffic_lines` column (absent
  /// otherwise, keeping default output byte-identical).
  TrafficHook traffic;
  /// Models to run; empty means all three (OSACA, MCA, testbed).
  std::vector<Model> models;
  /// N-core ECM axis: for each entry k an `ecm-n<k>` predictor (full-kernel
  /// socket inverse throughput with k cores active) is appended after the
  /// models, so the reports gain one scaling-curve column per core count.
  /// Empty (the default) adds nothing and keeps output byte-identical.
  std::vector<int> cores;
  // Matrix filters; an empty filter keeps every value of that axis.
  std::vector<kernels::Kernel> kernels;
  /// Machines to sweep; empty means the built-in paper trio.  A ref may
  /// point at a built-in model, a .mdf-loaded model or a registered
  /// what-if clone; its family tag (model->micro()) selects the codegen
  /// personality, so at most one machine per family is allowed in a
  /// single sweep (ModelError otherwise).
  std::vector<uarch::MachineRef> machines;
  std::vector<kernels::Compiler> compilers;
  std::vector<kernels::OptLevel> opt_levels;
};

/// The paper's test matrix restricted by the options' filters, in
/// deterministic (paper) order.
[[nodiscard]] std::vector<kernels::Variant> filter_matrix(
    const SweepOptions& opt);

/// One matrix cell: its variant, the unique block it deduplicated to, and
/// one prediction per requested model (order of SweepResult::model_ids).
struct SweepRow {
  kernels::Variant variant{};
  std::size_t block_index = 0;  // into SweepResult::blocks
  std::vector<Prediction> predictions;
};

struct SweepStats {
  std::size_t cells = 0;              // matrix cells (variants swept)
  std::size_t unique_blocks = 0;      // distinct (machine, assembly)
  std::size_t unique_assemblies = 0;  // distinct assembly text
  std::size_t evaluations = 0;        // predictor calls actually made
  std::size_t dedup_hits = 0;         // cell×model results served from memo
  std::size_t failed = 0;             // evaluations with !ok
  int jobs = 1;
  /// Total wall time of the evaluation phase.  Never serialized.
  std::int64_t wall_time_ns = 0;
};

struct SweepResult {
  std::vector<std::string> model_ids;  // predictor order
  std::vector<Block> blocks;           // unique blocks, first-seen order
  std::vector<SweepRow> rows;          // matrix order
  SweepStats stats;
  /// Per unique block (parallel to `blocks`); empty when no audit hook ran.
  std::vector<std::string> audit_verdicts;
  /// Per unique block (parallel to `blocks`); empty when no traffic hook
  /// ran.
  std::vector<std::string> traffic_lines;

  /// The row's prediction for a model id; nullptr when absent.
  [[nodiscard]] const Prediction* find(const SweepRow& row,
                                       std::string_view model_id) const;
};

/// Maps a variant's family tag to the machine model its blocks are built
/// against.  The default (an empty function) uses the built-in models;
/// sweep(SweepOptions) substitutes .mdf-loaded or what-if models here.
using MachineResolver =
    std::function<const uarch::MachineModel&(uarch::Micro)>;

/// The matrix collapsed to unique (machine, assembly) blocks: every cell
/// is generated and hashed, and the first cell of each hash keeps its
/// block.  The one dedup behind the sweep and every corpus gate.
struct BlockSet {
  std::vector<Block> blocks;            // unique blocks, first-seen order
  std::vector<std::size_t> cell_block;  // per matrix cell: into `blocks`
  std::size_t unique_assemblies = 0;    // distinct assembly texts
};

/// Dedups `matrix`, binding each cell to `machines(v.target)` (the
/// built-in model when `machines` is empty).
[[nodiscard]] BlockSet dedup_blocks(const std::vector<kernels::Variant>& matrix,
                                    const MachineResolver& machines = {});

/// Core entry point: evaluates `matrix` against `predictors` (non-owning;
/// must outlive the call) by submitting every unique block to the staged
/// service pipeline (server::ServiceCore) and draining the handles in
/// first-seen block order — the batch sweep is "submit all cells, drain"
/// over the same core the incore-server daemon runs.  `service` selects the
/// pipeline: nullptr (the default, and the batch CLI path) spins up a
/// private core with `jobs` evaluate/finalize workers and tears it down on
/// return; a daemon passes its long-lived core so concurrent sweeps share
/// its memo and coalescer.  Slot discipline keeps the result byte-identical
/// for any jobs value or core configuration.
[[nodiscard]] SweepResult sweep(const std::vector<kernels::Variant>& matrix,
                                const std::vector<const Predictor*>& predictors,
                                int jobs = 1,
                                const MachineResolver& machines = {},
                                const AuditHook& audit = {},
                                const TrafficHook& traffic = {},
                                server::ServiceCore* service = nullptr);

/// Convenience: builds the filtered matrix and the standard model
/// predictors from the options.
[[nodiscard]] SweepResult sweep(const SweepOptions& opt,
                                server::ServiceCore* service = nullptr);

// ---------------------------------------------------------------- reporting

/// Matrix CSV: one line per cell with the variant axes, the dedup hash,
/// elements/iteration and one cycles/iteration column per model (empty on
/// evaluation failure).  Deterministic: independent of stats.jobs.
[[nodiscard]] std::string to_csv(const SweepResult& r);

/// JSON document: stats, model list and per-cell predictions with the
/// per-bound breakdown.  Deterministic: wall times are excluded.
[[nodiscard]] std::string to_json(const SweepResult& r);

/// Scaling-curve digest of a sweep that ran with a cores axis: one line per
/// unique block with cycles/iteration at each ecm-n<k> core count and the
/// saturation point (marked in the curve; "-" when the kernel never
/// saturates the interface).  Empty string when no ecm-n<k> model ran.
[[nodiscard]] std::string scaling_summary(const SweepResult& r);

struct ModelErrorStats {
  std::string model;
  report::RpeSummary rpe;
  std::vector<double> rpes;  // per contributing row, matrix order
};

/// Relative prediction error of every non-reference model against
/// `reference` (RPE = (ref - pred) / ref), over rows where both
/// evaluations succeeded.  Empty when the reference model was not swept.
[[nodiscard]] std::vector<ModelErrorStats> error_stats(
    const SweepResult& r, std::string_view reference = "testbed");

}  // namespace incore::driver
