#pragma once
// The unified predictor driver: one interface over the repository's three
// "run a model on a block" back ends — the OSACA-style static analyzer
// (analysis::analyze), the LLVM-MCA-style comparator (mca::simulate) and
// the execution testbed (exec::run) — plus the ECM composition for
// node-level studies.
//
// A Predictor turns each back end into "Block in, Prediction out", which is
// what the sweep engine (sweep.hpp) batches, deduplicates and parallelizes.
//
// Thread-safety contract: predict() is const and called concurrently from
// the sweep worker pool.  Adapters must only read the (immutable) block and
// machine model; per-call state stays on the stack or in a BlockScope.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyze.hpp"
#include "asmir/ir.hpp"
#include "ecm/ecm.hpp"
#include "exec/pipeline.hpp"
#include "kernels/kernels.hpp"
#include "uarch/model.hpp"

namespace incore::driver {

/// The evaluation unit: one generated kernel variant bound to its target
/// machine model, with its dedup identity precomputed.
struct Block {
  kernels::Variant variant{};
  kernels::GeneratedKernel gen;
  const uarch::MachineModel* mm = nullptr;
  /// Dedup key: hex FNV-1a of (machine name, assembly text).  Two matrix
  /// cells with equal hash get identical predictions from every model.
  std::string hash;
  /// Machine-independent assembly-content hash (the paper's "unique
  /// assembly representations" count).
  std::string text_hash;
};

/// Builds a Block (generate + hash) for a variant.  The machine model is
/// taken from the global registry.
[[nodiscard]] Block make_block(const kernels::Variant& v);

/// Same, but binds the block to an explicitly supplied machine model
/// (an .mdf-loaded model or what-if clone) instead of the registry's
/// built-in for v.target.  The model must outlive the block.
[[nodiscard]] Block make_block(const kernels::Variant& v,
                               const uarch::MachineModel& mm);

/// Builds a Block around externally supplied assembly (CLI / what-if paths
/// that analyze user text rather than generated kernels).  The variant is
/// synthetic; elements_per_iteration defaults to 1.
[[nodiscard]] Block make_block(std::string assembly_text,
                               const uarch::MachineModel& mm);

/// What the models of one block share: the default-options in-core report
/// and the ECM composition on it, each computed on first use.  While open,
/// a scope serves the predict() calls its thread makes on `block` itself;
/// elsewhere predictors compute afresh.  The service's evaluate stage opens
/// one per job.  Opening and closing are inline because the service core
/// sits below this library.
class BlockScope {
 public:
  explicit BlockScope(const Block& block)
      : block_(block), outer_(current()) {
    current() = this;
  }
  ~BlockScope() { current() = outer_; }
  BlockScope(const BlockScope&) = delete;
  BlockScope& operator=(const BlockScope&) = delete;

  /// The calling thread's innermost scope when it was opened on `b`.
  [[nodiscard]] static const BlockScope* find(const Block& b) {
    const BlockScope* s = current();
    return s != nullptr && &s->block_ == &b ? s : nullptr;
  }

  /// analysis::analyze with default options; a failure throws, unkept.
  [[nodiscard]] const analysis::Report& report() const;
  /// ecm::predict_block over report().
  [[nodiscard]] const ecm::Prediction& composition() const;

 private:
  static const BlockScope*& current() {
    static thread_local const BlockScope* scope = nullptr;
    return scope;
  }
  const Block& block_;
  const BlockScope* outer_;
  // Filled on first use by the opening thread alone.
  mutable std::optional<analysis::Report> report_;
  mutable std::optional<ecm::Prediction> composition_;
};

/// What a prediction's number means.  InCore covers the three program-level
/// models (L1-resident lower bound / simulation / measurement); the ECM
/// scopes extend the number to the full memory hierarchy, single- or
/// N-core.  Only ECM scopes serialize the scope/cores fields, keeping the
/// default (in-core) sweep output byte-identical to earlier releases.
enum class PredictionScope : std::uint8_t {
  InCore,         // cycles with data in L1 (or as simulated/measured)
  SingleCoreEcm,  // full-hierarchy single-core ECM composition
  MultiCoreEcm,   // socket-aggregate inverse throughput at `cores`
};

[[nodiscard]] const char* to_string(PredictionScope s);

/// One model's verdict on one block.
struct Prediction {
  std::string model;      // predictor id ("osaca", "mca", "testbed", ...)
  bool ok = false;
  std::string error;      // set when !ok (e.g. unknown instruction form)
  double cycles_per_iteration = 0.0;

  /// Scope of the number above; ECM predictors also record the active core
  /// count and the saturation point of the scaling curve (0 = the kernel
  /// moves no memory traffic and never saturates).
  PredictionScope scope = PredictionScope::InCore;
  int cores = 1;
  int saturation_cores = 0;

  // Per-bound breakdown.  Populated by the in-core predictor; zero for the
  // simulators (they produce a single number).
  double throughput_cycles = 0.0;
  double loop_carried_cycles = 0.0;
  double critical_path_cycles = 0.0;

  /// Wall time of the predictor call.  Never serialized (it would break the
  /// jobs-independence of sweep output); aggregate timing lives in
  /// SweepStats.
  std::int64_t wall_time_ns = 0;
};

class Predictor {
 public:
  virtual ~Predictor() = default;
  /// Stable identifier used in CSV/JSON column names and memo keys.
  [[nodiscard]] virtual const std::string& id() const = 0;
  /// Evaluates one block.  Must be thread-safe; must not throw (failures
  /// are reported through Prediction::ok / error).
  [[nodiscard]] virtual Prediction predict(const Block& b) const = 0;
};

/// OSACA-style static lower bound (analysis::analyze).
class InCorePredictor final : public Predictor {
 public:
  explicit InCorePredictor(std::string id = "osaca",
                           analysis::DepOptions dep_options = {});
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] Prediction predict(const Block& b) const override;

 private:
  std::string id_;
  analysis::DepOptions dep_;
};

/// LLVM-MCA-style comparator (mca::simulate).
class McaPredictor final : public Predictor {
 public:
  explicit McaPredictor(std::string id = "mca");
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] Prediction predict(const Block& b) const override;

 private:
  std::string id_;
};

/// Execution-testbed "measurement" (exec::run).  An optional config factory
/// substitutes modified silicon (the testbed-feature ablations).
class TestbedPredictor final : public Predictor {
 public:
  using ConfigFn = std::function<exec::PipelineConfig(uarch::Micro)>;
  explicit TestbedPredictor(std::string id = "testbed",
                            ConfigFn config = nullptr);
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] Prediction predict(const Block& b) const override;

 private:
  std::string id_;
  ConfigFn config_;
};

/// ECM composition (in-core + memory hierarchy).  Predicts single-core
/// cycles with data resident in `loc`, or — with a core count — socket
/// inverse-throughput cycles along the N-core scaling curve.  The transfer
/// terms come from the static traffic engine against the block's own
/// machine model, so .mdf `hierarchy` what-ifs flow through.
class EcmPredictor final : public Predictor {
 public:
  explicit EcmPredictor(ecm::DataLocation loc, std::string id = "");
  /// Full-socket saturated cycles/iteration (memory-resident data).
  [[nodiscard]] static EcmPredictor node_throughput(std::string id =
                                                        "ecm-node");
  /// Socket-aggregate cycles/iteration with `cores` active ("ecm-n<k>").
  [[nodiscard]] static EcmPredictor multicore(int cores, std::string id = "");
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] Prediction predict(const Block& b) const override;

 private:
  EcmPredictor(ecm::DataLocation loc, int cores, std::string id);
  std::string id_;
  ecm::DataLocation loc_ = ecm::DataLocation::Memory;
  /// 0 = single-core; -1 = whole socket; >0 = explicit core count.
  int cores_ = 0;
};

// ---------------------------------------------------------------------------
// Model registry: the three program-level models of the paper's Fig. 3.
// ---------------------------------------------------------------------------

enum class Model : std::uint8_t { InCore, Mca, Testbed };

[[nodiscard]] const char* to_string(Model m);
/// Accepts the canonical ids plus common aliases ("osaca", "incore",
/// "analysis"; "mca", "llvm-mca"; "testbed", "exec", "measured").
[[nodiscard]] bool model_from_name(std::string_view name, Model& out);
/// Paper order: OSACA bound, MCA comparator, testbed measurement.
[[nodiscard]] const std::vector<Model>& all_models();

[[nodiscard]] std::unique_ptr<Predictor> make_predictor(Model m);

/// One-shot convenience over a specific predictor and raw assembly text.
[[nodiscard]] Prediction predict_assembly(const Predictor& p,
                                          const std::string& text,
                                          const uarch::MachineModel& mm);

}  // namespace incore::driver
