// Tests for the driver layer: the predictor adapters against the raw back
// ends, the per-block scope their evaluations share, the sweep engine's
// dedup/memoization accounting, byte-identical output regardless of the
// worker count, and the name registries the CLI parses with.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/ecm.hpp"
#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "mca/mca.hpp"
#include "report/json.hpp"
#include "server/core.hpp"
#include "support/error.hpp"
#include "uarch/mdf.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"

using namespace incore;

namespace {

kernels::Variant triad_spr() {
  return kernels::Variant{kernels::Kernel::StreamTriad, kernels::Compiler::Gcc,
                          kernels::OptLevel::O3, uarch::Micro::GoldenCove};
}

/// Counts predict() calls — asserts the sweep's memoization contract:
/// every unique block is evaluated exactly once per model.
class CountingPredictor final : public driver::Predictor {
 public:
  explicit CountingPredictor(std::string id) : id_(std::move(id)) {}
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] driver::Prediction predict(
      const driver::Block& b) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    driver::Prediction p;
    p.model = id_;
    p.ok = true;
    p.cycles_per_iteration = static_cast<double>(b.gen.assembly.size());
    return p;
  }
  mutable std::atomic<int> calls{0};

 private:
  std::string id_;
};

}  // namespace

// ------------------------------------------------------------------ adapters

TEST(Predictor, InCoreMatchesDirectAnalysis) {
  driver::Block b = driver::make_block(triad_spr());
  auto rep = analysis::analyze(b.gen.program, *b.mm);
  driver::Prediction p = driver::InCorePredictor().predict(b);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.model, "osaca");
  EXPECT_DOUBLE_EQ(p.cycles_per_iteration, rep.predicted_cycles());
  EXPECT_DOUBLE_EQ(p.throughput_cycles, rep.throughput_cycles());
  EXPECT_DOUBLE_EQ(p.loop_carried_cycles, rep.loop_carried_cycles());
  EXPECT_DOUBLE_EQ(p.critical_path_cycles, rep.critical_path_cycles());
}

TEST(Predictor, McaMatchesDirectSimulation) {
  driver::Block b = driver::make_block(triad_spr());
  auto res = mca::simulate(b.gen.program, *b.mm);
  driver::Prediction p = driver::McaPredictor().predict(b);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.model, "mca");
  EXPECT_DOUBLE_EQ(p.cycles_per_iteration, res.cycles_per_iteration);
}

TEST(Predictor, TestbedMatchesDirectRun) {
  driver::Block b = driver::make_block(triad_spr());
  auto meas = exec::run(b.gen.program, *b.mm);
  driver::Prediction p = driver::TestbedPredictor().predict(b);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.model, "testbed");
  EXPECT_DOUBLE_EQ(p.cycles_per_iteration, meas.cycles_per_iteration);
}

TEST(Predictor, FailureIsReportedNotThrown) {
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  driver::Prediction p = driver::predict_assembly(
      driver::InCorePredictor(), "movsd ((((, %xmm0\n", mm);
  EXPECT_FALSE(p.ok);
  EXPECT_FALSE(p.error.empty());
  EXPECT_EQ(p.model, "osaca");
}

TEST(Predictor, EcmNodeThroughputProducesCycles) {
  driver::Block b = driver::make_block(triad_spr());
  driver::Prediction p =
      driver::EcmPredictor::node_throughput().predict(b);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_GT(p.cycles_per_iteration, 0.0);
}

TEST(Predictor, PredictAssemblyAgreesWithBlockPath) {
  driver::Block b = driver::make_block(triad_spr());
  const driver::InCorePredictor osaca;
  driver::Prediction via_text =
      driver::predict_assembly(osaca, b.gen.assembly, *b.mm);
  driver::Prediction via_block = osaca.predict(b);
  ASSERT_TRUE(via_text.ok);
  EXPECT_DOUBLE_EQ(via_text.cycles_per_iteration,
                   via_block.cycles_per_iteration);
}

// --------------------------------------------------------------------- dedup

TEST(Sweep, EveryUniqueBlockEvaluatedExactlyOncePerModel) {
  const auto matrix = kernels::test_matrix();
  CountingPredictor a("a"), bp("b");
  driver::SweepResult res = driver::sweep(matrix, {&a, &bp}, 4);

  EXPECT_EQ(res.stats.cells, matrix.size());
  EXPECT_LT(res.stats.unique_blocks, res.stats.cells);
  EXPECT_LE(res.stats.unique_assemblies, res.stats.unique_blocks);
  // The memoization contract: one call per (unique block, model).
  EXPECT_EQ(static_cast<std::size_t>(a.calls.load()),
            res.stats.unique_blocks);
  EXPECT_EQ(static_cast<std::size_t>(bp.calls.load()),
            res.stats.unique_blocks);
  EXPECT_EQ(res.stats.evaluations, res.stats.unique_blocks * 2);
  EXPECT_EQ(res.stats.dedup_hits,
            (res.stats.cells - res.stats.unique_blocks) * 2);
  EXPECT_EQ(res.stats.failed, 0u);
  EXPECT_EQ(res.rows.size(), matrix.size());
}

TEST(Sweep, DedupBlocksIsTheSweepsDedup) {
  // The corpus gates and tests enumerate blocks through dedup_blocks; it
  // must hand out exactly the sweep's unique blocks, in first-seen matrix
  // order.
  const auto matrix = kernels::test_matrix();
  const driver::BlockSet set = driver::dedup_blocks(matrix);
  CountingPredictor a("a");
  const driver::SweepResult res = driver::sweep(matrix, {&a});
  ASSERT_EQ(set.blocks.size(), res.stats.unique_blocks);
  EXPECT_EQ(set.blocks.size(), 249u);
  EXPECT_EQ(set.unique_assemblies, res.stats.unique_assemblies);
  ASSERT_EQ(set.cell_block.size(), matrix.size());
  std::size_t next = 0;
  for (std::size_t c = 0; c < matrix.size(); ++c) {
    EXPECT_EQ(set.cell_block[c], res.rows[c].block_index);
    // A cell either opens the next block or maps onto an earlier one.
    if (set.cell_block[c] == next) {
      EXPECT_EQ(set.blocks[next].variant.label(), matrix[c].label());
      EXPECT_EQ(set.blocks[next].hash, res.blocks[next].hash);
      ++next;
    } else {
      EXPECT_LT(set.cell_block[c], next);
    }
  }
  EXPECT_EQ(next, set.blocks.size());
}

TEST(Sweep, RowsReferenceTheirMemoizedBlock) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add, kernels::Kernel::Copy};
  CountingPredictor a("a");
  driver::SweepResult res =
      driver::sweep(driver::filter_matrix(opt), {&a}, 2);
  for (const driver::SweepRow& row : res.rows) {
    ASSERT_EQ(row.predictions.size(), 1u);
    const driver::Block& b = res.blocks[row.block_index];
    EXPECT_EQ(b.variant.target, row.variant.target);
    // The counting predictor encodes the block identity in its result, so a
    // misrouted memo slot shows up as a mismatched size.
    EXPECT_DOUBLE_EQ(row.predictions[0].cycles_per_iteration,
                     static_cast<double>(b.gen.assembly.size()));
  }
}

TEST(Sweep, BlocksOnDifferentMachinesNeverShareAHash) {
  const auto matrix = kernels::test_matrix();
  CountingPredictor a("a");
  driver::SweepResult res = driver::sweep(matrix, {&a}, 0);
  for (const driver::SweepRow& row : res.rows) {
    EXPECT_EQ(res.blocks[row.block_index].variant.target, row.variant.target);
  }
}

// A failing finalize hook must not let sweep() unwind while jobs on an
// *external* (daemon-owned) service core are still in flight: those jobs
// hold raw pointers into sweep's call frame (predictors, machine models),
// so the sweep has to drain every handle before it throws — and leave the
// core healthy for later clients.
TEST(Sweep, ExternalServiceDrainsAllJobsBeforeThrowing) {
  server::ServiceCore core;
  CountingPredictor a("a");
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::StreamTriad};
  opt.compilers = {kernels::Compiler::Gcc};
  opt.opt_levels = {kernels::OptLevel::O3};
  const std::vector<kernels::Variant> matrix = driver::filter_matrix(opt);
  ASSERT_GT(matrix.size(), 1u);
  const driver::AuditHook bad_audit =
      [](const driver::Block&) -> std::string {
    throw support::ModelError("audit exploded");
  };
  EXPECT_THROW((void)driver::sweep(matrix, {&a}, 2, {}, bad_audit, {}, &core),
               support::ModelError);
  const server::ServiceStats st = core.stats();
  EXPECT_EQ(st.completed, st.submitted);  // nothing left in flight
  // The core survives the failed sweep: a fresh evaluation still works.
  driver::Block b = driver::make_block(triad_spr());
  server::JobRequest req;
  req.block = b;
  req.parsed = true;
  req.predictors = {&a};
  EXPECT_TRUE(core.submit(std::move(req))->wait().ok);
}

// --------------------------------------------------------------- determinism

TEST(Sweep, OutputIsIndependentOfJobCount) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add, kernels::Kernel::SumReduction};
  opt.jobs = 1;
  driver::SweepResult serial = driver::sweep(opt);
  opt.jobs = 8;
  driver::SweepResult parallel = driver::sweep(opt);

  EXPECT_EQ(driver::to_csv(serial), driver::to_csv(parallel));
  EXPECT_EQ(driver::to_json(serial), driver::to_json(parallel));
  EXPECT_EQ(serial.stats.evaluations, parallel.stats.evaluations);
  EXPECT_EQ(serial.stats.dedup_hits, parallel.stats.dedup_hits);
}

TEST(Sweep, CsvHasOneColumnPerModelAndOneRowPerCell) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add};
  opt.models = {driver::Model::InCore, driver::Model::Testbed};
  driver::SweepResult res = driver::sweep(opt);
  std::string csv = driver::to_csv(res);
  ASSERT_FALSE(csv.empty());
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1 + res.rows.size());  // header + cells
  EXPECT_NE(csv.find("osaca_cy"), std::string::npos);
  EXPECT_NE(csv.find("testbed_cy"), std::string::npos);
  EXPECT_EQ(csv.find("mca_cy"), std::string::npos);
}

TEST(Sweep, ErrorStatsComparesAgainstTestbed) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add, kernels::Kernel::Copy};
  driver::SweepResult res = driver::sweep(opt);
  auto stats = driver::error_stats(res);
  ASSERT_EQ(stats.size(), 2u);  // osaca and mca vs the testbed
  for (const driver::ModelErrorStats& s : stats) {
    EXPECT_EQ(s.rpes.size(), res.rows.size());
    EXPECT_NE(s.model, "testbed");
  }
}

TEST(Sweep, FindLooksUpByModelId) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add};
  opt.models = {driver::Model::InCore};
  driver::SweepResult res = driver::sweep(opt);
  ASSERT_FALSE(res.rows.empty());
  EXPECT_NE(res.find(res.rows.front(), "osaca"), nullptr);
  EXPECT_EQ(res.find(res.rows.front(), "does-not-exist"), nullptr);
}

// ---------------------------------------------------------------- registries

TEST(Registry, MicroFromNameAcceptsAliases) {
  uarch::Micro m = uarch::Micro::GoldenCove;
  EXPECT_TRUE(uarch::micro_from_name("gcs", m));
  EXPECT_EQ(m, uarch::Micro::NeoverseV2);
  EXPECT_TRUE(uarch::micro_from_name("Grace", m));
  EXPECT_EQ(m, uarch::Micro::NeoverseV2);
  EXPECT_TRUE(uarch::micro_from_name("SPR", m));
  EXPECT_EQ(m, uarch::Micro::GoldenCove);
  EXPECT_TRUE(uarch::micro_from_name("sapphire-rapids", m));
  EXPECT_EQ(m, uarch::Micro::GoldenCove);
  EXPECT_TRUE(uarch::micro_from_name("genoa", m));
  EXPECT_EQ(m, uarch::Micro::Zen4);
  EXPECT_TRUE(uarch::micro_from_name("zen4", m));
  EXPECT_EQ(m, uarch::Micro::Zen4);
}

TEST(Registry, MicroFromNameRejectsUnknownAndLeavesOutputAlone) {
  uarch::Micro m = uarch::Micro::Zen4;
  EXPECT_FALSE(uarch::micro_from_name("m7g", m));
  EXPECT_EQ(m, uarch::Micro::Zen4);
  EXPECT_NE(uarch::machine_names_help(), nullptr);
}

TEST(Registry, ModelFromNameAcceptsAliases) {
  driver::Model m{};
  EXPECT_TRUE(driver::model_from_name("osaca", m));
  EXPECT_EQ(m, driver::Model::InCore);
  EXPECT_TRUE(driver::model_from_name("llvm-mca", m));
  EXPECT_EQ(m, driver::Model::Mca);
  EXPECT_TRUE(driver::model_from_name("measured", m));
  EXPECT_EQ(m, driver::Model::Testbed);
  EXPECT_FALSE(driver::model_from_name("crystal-ball", m));
  for (driver::Model mm : driver::all_models()) {
    driver::Model back{};
    EXPECT_TRUE(driver::model_from_name(driver::to_string(mm), back));
    EXPECT_EQ(back, mm);
  }
}

// -------------------------------------------------------- result serializers

TEST(ReportJson, McaResultSerializes) {
  driver::Block b = driver::make_block(triad_spr());
  auto res = mca::simulate(b.gen.program, *b.mm);
  std::string json = report::to_json(res, *b.mm);
  EXPECT_NE(json.find("\"model\": \"mca\""), std::string::npos);
  EXPECT_NE(json.find("\"resource_pressure\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles_per_iteration\""), std::string::npos);
}

TEST(ReportJson, MeasurementSerializes) {
  driver::Block b = driver::make_block(triad_spr());
  auto meas = exec::run(b.gen.program, *b.mm);
  std::string json = report::to_json(meas, *b.mm);
  EXPECT_NE(json.find("\"model\": \"testbed\""), std::string::npos);
  EXPECT_NE(json.find("\"port_utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"backpressure_cycles\""), std::string::npos);
}

// ------------------------------------------------- machine-ref based sweeps

TEST(Sweep, MachineFilterRestrictsTheMatrixByFamily) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add};
  opt.models = {driver::Model::InCore};
  opt.machines = {uarch::machine_ref(uarch::Micro::NeoverseV2)};
  driver::SweepResult res = driver::sweep(opt);
  ASSERT_FALSE(res.rows.empty());
  for (const driver::SweepRow& row : res.rows) {
    EXPECT_EQ(row.variant.target, uarch::Micro::NeoverseV2);
  }
}

TEST(Sweep, LoadedModelSweepsByteIdenticalToBuiltin) {
  // The tentpole acceptance criterion, in-process: an exported+reloaded
  // model must reproduce the built-in sweep output byte for byte.
  const uarch::MachineModel loaded = uarch::load_machine_string(
      uarch::save_machine_string(uarch::machine(uarch::Micro::Zen4)));

  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add, kernels::Kernel::SumReduction};
  opt.machines = {uarch::machine_ref(uarch::Micro::Zen4)};
  const driver::SweepResult builtin = driver::sweep(opt);

  opt.machines = {uarch::MachineRef{"zen4-loaded", &loaded}};
  const driver::SweepResult reloaded = driver::sweep(opt);

  EXPECT_EQ(driver::to_csv(builtin), driver::to_csv(reloaded));
  EXPECT_EQ(driver::to_json(builtin), driver::to_json(reloaded));
}

TEST(Sweep, TwoMachinesOfTheSameFamilyAreRejected) {
  const uarch::MachineModel clone = uarch::machine(uarch::Micro::Zen4);
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add};
  opt.machines = {uarch::machine_ref(uarch::Micro::Zen4),
                  uarch::MachineRef{"genoa-clone", &clone}};
  EXPECT_THROW((void)driver::sweep(opt), support::ModelError);
}

TEST(MakeBlock, ExplicitModelOverridesTheRegistryDefault) {
  const uarch::MachineModel loaded = uarch::load_machine_string(
      uarch::save_machine_string(uarch::machine(uarch::Micro::GoldenCove)));
  const driver::Block a = driver::make_block(triad_spr());
  const driver::Block b = driver::make_block(triad_spr(), loaded);
  EXPECT_EQ(b.mm, &loaded);
  // Same model name + same assembly -> same dedup hash: reloaded models
  // keep the built-in identity.
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.text_hash, b.text_hash);
}

// ------------------------------------------------------------- cores axis

TEST(Sweep, CoresAxisAppendsMulticorePredictors) {
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::StreamTriad};
  opt.machines = {uarch::machine_ref(uarch::Micro::GoldenCove)};
  opt.models = {driver::Model::InCore};
  opt.cores = {1, 4, 52};
  driver::SweepResult res = driver::sweep(opt);
  ASSERT_FALSE(res.rows.empty());
  for (const driver::SweepRow& row : res.rows) {
    const driver::Prediction* base = res.find(row, "osaca");
    const driver::Prediction* n1 = res.find(row, "ecm-n1");
    const driver::Prediction* n4 = res.find(row, "ecm-n4");
    const driver::Prediction* n52 = res.find(row, "ecm-n52");
    ASSERT_NE(base, nullptr);
    ASSERT_NE(n1, nullptr);
    ASSERT_NE(n4, nullptr);
    ASSERT_NE(n52, nullptr);
    EXPECT_EQ(base->scope, driver::PredictionScope::InCore);
    EXPECT_EQ(n4->scope, driver::PredictionScope::MultiCoreEcm);
    EXPECT_EQ(n4->cores, 4);
    // One memory-bound kernel: more cores never hurt, and the single-core
    // multicore point sits at or above the in-core bound.
    EXPECT_LE(n4->cycles_per_iteration, n1->cycles_per_iteration + 1e-9);
    EXPECT_LE(n52->cycles_per_iteration, n4->cycles_per_iteration + 1e-9);
    EXPECT_GE(n1->cycles_per_iteration, base->cycles_per_iteration - 1e-9);
    EXPECT_GT(n1->saturation_cores, 1);
    EXPECT_LE(n1->saturation_cores, 52);
  }
  EXPECT_NE(driver::to_csv(res).find("ecm-n52_cy"), std::string::npos);
  EXPECT_NE(driver::to_json(res).find("\"saturation_cores\""),
            std::string::npos);
  EXPECT_NE(driver::scaling_summary(res).find("n_sat"), std::string::npos);
}

TEST(Sweep, DefaultOutputUnchangedByCoresMachinery) {
  // The cores axis is strictly additive: without it the sweep output must
  // stay byte-identical to the pre-multicore driver (no scope/cores fields,
  // no ecm-n columns, empty scaling summary).
  driver::SweepOptions opt;
  opt.kernels = {kernels::Kernel::Add};
  opt.machines = {uarch::machine_ref(uarch::Micro::Zen4)};
  driver::SweepResult res = driver::sweep(opt);
  const std::string csv = driver::to_csv(res);
  const std::string json = driver::to_json(res);
  EXPECT_EQ(csv.find("ecm-n"), std::string::npos);
  EXPECT_EQ(json.find("\"scope\""), std::string::npos);
  EXPECT_EQ(json.find("\"saturation_cores\""), std::string::npos);
  EXPECT_TRUE(driver::scaling_summary(res).empty());
  for (const driver::SweepRow& row : res.rows) {
    for (const driver::Prediction& p : row.predictions) {
      EXPECT_EQ(p.scope, driver::PredictionScope::InCore);
      EXPECT_EQ(p.cores, 1);
    }
  }
}

TEST(Predictor, MulticoreEcmAdapterMatchesEcmLibrary) {
  driver::Block b = driver::make_block(triad_spr());
  const auto ep = ecm::predict_block(
      analysis::analyze(b.gen.program, *b.mm), b.gen.program, *b.mm);
  const auto h = ecm::hierarchy_for(*b.mm);
  driver::EcmPredictor four = driver::EcmPredictor::multicore(4);
  driver::Prediction p = four.predict(b);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.model, "ecm-n4");
  EXPECT_EQ(p.cores, 4);
  EXPECT_NEAR(p.cycles_per_iteration, ep.multicore_cycles(4, h), 1e-12);
  EXPECT_EQ(p.saturation_cores, std::min(ep.saturation_cores(h),
                                         h.socket_cores));
}

// --------------------------------------------------------------- BlockScope

namespace {

/// Reports the calling thread's analysis and composition counters.  First
/// and last in a job's predictor list, it brackets what the predictors in
/// between computed on the evaluate thread.
class CounterProbe final : public driver::Predictor {
 public:
  explicit CounterProbe(std::string id) : id_(std::move(id)) {}
  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] driver::Prediction predict(
      const driver::Block&) const override {
    driver::Prediction p;
    p.model = id_;
    p.ok = true;
    p.cycles_per_iteration = static_cast<double>(analysis::analyses_run());
    p.throughput_cycles = static_cast<double>(ecm::compositions_run());
    return p;
  }

 private:
  std::string id_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every serialized field of a prediction, compared bit for bit.
void expect_identical(const driver::Prediction& got,
                      const driver::Prediction& want) {
  EXPECT_EQ(got.model, want.model);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.error, want.error);
  EXPECT_TRUE(same_bits(got.cycles_per_iteration, want.cycles_per_iteration))
      << got.model << ": " << got.cycles_per_iteration << " vs "
      << want.cycles_per_iteration;
  EXPECT_EQ(got.scope, want.scope);
  EXPECT_EQ(got.cores, want.cores);
  EXPECT_EQ(got.saturation_cores, want.saturation_cores);
  EXPECT_TRUE(same_bits(got.throughput_cycles, want.throughput_cycles));
  EXPECT_TRUE(same_bits(got.loop_carried_cycles, want.loop_carried_cycles));
  EXPECT_TRUE(same_bits(got.critical_path_cycles, want.critical_path_cycles));
}

}  // namespace

TEST(BlockScope, CoresAxisComputesOncePerBlock) {
  const driver::Block b = driver::make_block(triad_spr());
  const driver::InCorePredictor osaca;
  std::vector<driver::EcmPredictor> axis;
  for (int n : {1, 2, 4, 8}) axis.push_back(driver::EcmPredictor::multicore(n));
  const CounterProbe before("probe-before");
  const CounterProbe after("probe-after");
  std::vector<const driver::Predictor*> preds = {&before, &osaca};
  for (const driver::EcmPredictor& e : axis) preds.push_back(&e);
  preds.push_back(&after);

  server::ServiceConfig cfg;
  cfg.evaluate_workers = 1;
  server::ServiceCore core(cfg);
  server::JobRequest req;
  req.block = b;
  req.parsed = true;
  req.predictors = preds;
  const server::JobResult res = core.submit(std::move(req))->wait();
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.predictions.size(), preds.size());
  for (const driver::Prediction& p : res.predictions) {
    ASSERT_TRUE(p.ok) << p.model << ": " << p.error;
  }
  const driver::Prediction& p0 = res.predictions.front();
  const driver::Prediction& p1 = res.predictions.back();
  EXPECT_EQ(p1.cycles_per_iteration - p0.cycles_per_iteration, 1.0)
      << "in-core analyses for one job";
  EXPECT_EQ(p1.throughput_cycles - p0.throughput_cycles, 1.0)
      << "ECM compositions for one job";

  // Outside a scope every call computes afresh.
  const std::uint64_t a0 = analysis::analyses_run();
  const std::uint64_t c0 = ecm::compositions_run();
  (void)osaca.predict(b);
  for (const driver::EcmPredictor& e : axis) (void)e.predict(b);
  EXPECT_EQ(analysis::analyses_run() - a0, 5u);
  EXPECT_EQ(ecm::compositions_run() - c0, 4u);
}

TEST(BlockScope, ServesOnlyItsBlockAndTheDefaultOptions) {
  const driver::Block b = driver::make_block(triad_spr());
  const driver::Block copy = b;
  analysis::DepOptions renamed;
  renamed.rename_moves = true;
  ASSERT_FALSE(renamed == analysis::DepOptions{});
  const driver::InCorePredictor osaca;
  const driver::InCorePredictor rename_aware("osaca-rename", renamed);

  const driver::BlockScope scope(b);
  const std::uint64_t a0 = analysis::analyses_run();
  (void)osaca.predict(b);
  (void)osaca.predict(b);
  EXPECT_EQ(analysis::analyses_run() - a0, 1u);
  (void)rename_aware.predict(b);  // other options: its own analysis
  (void)osaca.predict(copy);      // another Block object: not this scope
  EXPECT_EQ(analysis::analyses_run() - a0, 3u);
  EXPECT_EQ(driver::BlockScope::find(copy), nullptr);
}

TEST(BlockScope, FailedAnalysisIsReportedByEveryPredictor) {
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  const driver::Block b =
      driver::make_block("frobnicate %rax, %rbx\naddq $1, %rax\n", mm);
  const driver::InCorePredictor osaca;
  const driver::EcmPredictor two = driver::EcmPredictor::multicore(2);
  const driver::Prediction want_osaca = osaca.predict(b);
  const driver::Prediction want_two = two.predict(b);
  ASSERT_FALSE(want_osaca.ok);
  ASSERT_FALSE(want_two.ok);

  const driver::BlockScope scope(b);
  expect_identical(osaca.predict(b), want_osaca);
  expect_identical(two.predict(b), want_two);
}

TEST(BlockScope, SharedPredictionsEqualStandaloneCalls) {
  std::vector<std::unique_ptr<driver::Predictor>> owned;
  owned.push_back(std::make_unique<driver::InCorePredictor>());
  analysis::DepOptions renamed;
  renamed.rename_moves = true;
  owned.push_back(
      std::make_unique<driver::InCorePredictor>("osaca-rename", renamed));
  for (auto loc : {ecm::DataLocation::L1, ecm::DataLocation::L2,
                   ecm::DataLocation::L3, ecm::DataLocation::Memory}) {
    owned.push_back(std::make_unique<driver::EcmPredictor>(loc));
  }
  owned.push_back(std::make_unique<driver::EcmPredictor>(
      driver::EcmPredictor::node_throughput()));
  for (int n : {1, 2, 4, 8}) {
    owned.push_back(std::make_unique<driver::EcmPredictor>(
        driver::EcmPredictor::multicore(n)));
  }
  std::vector<const driver::Predictor*> preds;
  for (const auto& p : owned) preds.push_back(p.get());

  driver::SweepOptions opt;
  opt.compilers = {kernels::Compiler::Gcc};
  opt.opt_levels = {kernels::OptLevel::O1, kernels::OptLevel::O3};
  const std::vector<kernels::Variant> matrix = driver::filter_matrix(opt);
  ASSERT_FALSE(matrix.empty());
  // Standalone calls on this thread, outside any scope, one per block.
  const driver::BlockSet set = driver::dedup_blocks(matrix);
  std::vector<std::vector<driver::Prediction>> want(set.blocks.size());
  for (std::size_t i = 0; i < set.blocks.size(); ++i) {
    ASSERT_EQ(driver::BlockScope::find(set.blocks[i]), nullptr);
    for (const driver::Predictor* p : preds) {
      want[i].push_back(p->predict(set.blocks[i]));
    }
  }
  for (int jobs : {1, 4}) {
    const driver::SweepResult r = driver::sweep(matrix, preds, jobs);
    ASSERT_EQ(r.rows.size(), matrix.size());
    for (const driver::SweepRow& row : r.rows) {
      ASSERT_EQ(r.blocks[row.block_index].hash,
                set.blocks[row.block_index].hash);
      for (std::size_t m = 0; m < preds.size(); ++m) {
        expect_identical(row.predictions[m], want[row.block_index][m]);
      }
    }
  }
}
