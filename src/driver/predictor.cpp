#include "driver/predictor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <utility>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "mca/mca.hpp"
#include "support/annotations.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace incore::driver {

namespace {

/// Runs `fn` (which fills in the model-specific fields), stamping the id,
/// the ok/error status and the wall time.
template <typename Fn>
Prediction timed_predict(const std::string& id, Fn&& fn) {
  Prediction p;
  p.model = id;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    fn(p);
    p.ok = true;
  } catch (const std::exception& e) {
    p.ok = false;
    p.error = e.what();
    p.cycles_per_iteration = 0.0;
  }
  p.wall_time_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return p;
}

}  // namespace

const char* to_string(PredictionScope s) {
  switch (s) {
    case PredictionScope::InCore: return "in-core";
    case PredictionScope::SingleCoreEcm: return "single-core-ecm";
    case PredictionScope::MultiCoreEcm: return "multi-core-ecm";
  }
  return "?";
}

Block make_block(const kernels::Variant& v) {
  return make_block(v, uarch::machine(v.target));
}

Block make_block(const kernels::Variant& v, const uarch::MachineModel& mm) {
  Block b;
  b.variant = v;
  b.gen = kernels::generate(v);
  b.mm = &mm;
  b.text_hash = support::text_key(b.gen.assembly);
  b.hash = support::block_key(b.mm->name(), b.gen.assembly);
  return b;
}

Block make_block(std::string assembly_text, const uarch::MachineModel& mm) {
  Block b;
  b.gen.assembly = std::move(assembly_text);
  b.gen.program = asmir::parse(b.gen.assembly, mm.isa());
  b.gen.elements_per_iteration = 1;
  b.mm = &mm;
  b.text_hash = support::text_key(b.gen.assembly);
  b.hash = support::block_key(mm.name(), b.gen.assembly);
  return b;
}

// ------------------------------------------------------------------ in-core

InCorePredictor::InCorePredictor(std::string id,
                                 analysis::DepOptions dep_options)
    : id_(std::move(id)), dep_(dep_options) {}

Prediction InCorePredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    const analysis::Report rep = analysis::analyze(b.gen.program, *b.mm, dep_);
    p.cycles_per_iteration = rep.predicted_cycles();
    p.throughput_cycles = rep.throughput_cycles();
    p.loop_carried_cycles = rep.loop_carried_cycles();
    p.critical_path_cycles = rep.critical_path_cycles();
  });
}

// ---------------------------------------------------------------------- mca

McaPredictor::McaPredictor(std::string id) : id_(std::move(id)) {}

Prediction McaPredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    p.cycles_per_iteration = mca::simulate(b.gen.program, *b.mm)
                                 .cycles_per_iteration;
  });
}

// ------------------------------------------------------------------ testbed

TestbedPredictor::TestbedPredictor(std::string id, ConfigFn config)
    : id_(std::move(id)), config_(std::move(config)) {}

Prediction TestbedPredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    const exec::Measurement m =
        config_ ? exec::run(b.gen.program, *b.mm, config_(b.mm->micro()))
                : exec::run(b.gen.program, *b.mm);
    p.cycles_per_iteration = m.cycles_per_iteration;
  });
}

// ---------------------------------------------------------------------- ecm

EcmPredictor::EcmPredictor(ecm::DataLocation loc, std::string id)
    : EcmPredictor(loc, 0,
                   id.empty() ? std::string("ecm-") + ecm::to_string(loc)
                              : std::move(id)) {}

EcmPredictor::EcmPredictor(ecm::DataLocation loc, int cores, std::string id)
    : id_(std::move(id)), loc_(loc), cores_(cores) {}

EcmPredictor EcmPredictor::node_throughput(std::string id) {
  return EcmPredictor(ecm::DataLocation::Memory, -1, std::move(id));
}

EcmPredictor EcmPredictor::multicore(int cores, std::string id) {
  return EcmPredictor(ecm::DataLocation::Memory, std::max(1, cores),
                      id.empty() ? support::format("ecm-n%d", cores)
                                 : std::move(id));
}

namespace {

/// Memoizes the ECM composition per block.  A cores-axis sweep
/// instantiates one EcmPredictor per sampled core count, but the
/// underlying analysis (in-core split + traffic engine + claim replay)
/// depends only on the block, so N core points share one evaluation.
/// The block hash covers (machine name, assembly); the composition also
/// depends on the hierarchy constants, which a loaded what-if model can
/// edit without renaming, so they join the key.
///
/// The guard relationship is machine-checked (support/annotations.hpp).
/// The mutex is a leaf of the lock hierarchy: it may be acquired while a
/// service Job's mutex is held (the evaluate stage calls predict()), and
/// acquires nothing itself.
struct EcmMemo {
  support::Mutex mu;
  std::map<std::string, ecm::Prediction> entries INCORE_GUARDED_BY(mu);
};

EcmMemo& ecm_memo() {
  static EcmMemo memo;
  return memo;
}

ecm::Prediction memoized_ecm(const Block& b, const analysis::Report& rep) {
  EcmMemo& memo = ecm_memo();
  const uarch::HierarchyParams& h = b.mm->hierarchy;
  // One hash definition everywhere (support::block_key): reuse the sweep's
  // dedup key when the block carries it, re-derive it through the same
  // helper when the block was built without one (raw predict() calls).
  const std::string block_hash =
      b.hash.empty() ? support::block_key(b.mm->name(), b.gen.assembly)
                     : b.hash;
  const std::string key =
      block_hash + support::format("|%.17g|%.17g|%.17g|%.17g|%d|%d",
                               h.cy_per_cl_l1_l2, h.cy_per_cl_l2_l3,
                               h.cy_per_cl_l3_mem, h.socket_cl_per_cy,
                               h.socket_cores,
                               h.write_allocate_evaded ? 1 : 0);
  {
    const support::LockGuard lock(memo.mu);
    auto it = memo.entries.find(key);
    if (it != memo.entries.end()) return it->second;
  }
  const ecm::Prediction ep = ecm::predict_block(rep, b.gen.program, *b.mm);
  const support::LockGuard lock(memo.mu);
  return memo.entries.emplace(key, ep).first->second;
}

}  // namespace

Prediction EcmPredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    const analysis::Report rep = analysis::analyze(b.gen.program, *b.mm);
    const ecm::HierarchyParams h = ecm::hierarchy_for(*b.mm);
    const ecm::Prediction ep = memoized_ecm(b, rep);
    p.saturation_cores =
        ep.t_l3mem > 0 ? std::min(ep.saturation_cores(h), h.socket_cores) : 0;
    if (cores_ != 0) {
      const int n = cores_ < 0 ? h.socket_cores : cores_;
      p.scope = PredictionScope::MultiCoreEcm;
      p.cores = n;
      p.cycles_per_iteration = ep.multicore_cycles(n, h);
    } else {
      p.scope = PredictionScope::SingleCoreEcm;
      p.cores = 1;
      p.cycles_per_iteration = ep.cycles(loc_);
    }
  });
}

// ----------------------------------------------------------------- registry

const char* to_string(Model m) {
  switch (m) {
    case Model::InCore: return "osaca";
    case Model::Mca: return "mca";
    case Model::Testbed: return "testbed";
  }
  return "?";
}

bool model_from_name(std::string_view name, Model& out) {
  if (name == "osaca" || name == "incore" || name == "analysis") {
    out = Model::InCore;
  } else if (name == "mca" || name == "llvm-mca") {
    out = Model::Mca;
  } else if (name == "testbed" || name == "exec" || name == "measured") {
    out = Model::Testbed;
  } else {
    return false;
  }
  return true;
}

const std::vector<Model>& all_models() {
  static const std::vector<Model> models = {Model::InCore, Model::Mca,
                                            Model::Testbed};
  return models;
}

std::unique_ptr<Predictor> make_predictor(Model m) {
  switch (m) {
    case Model::InCore: return std::make_unique<InCorePredictor>();
    case Model::Mca: return std::make_unique<McaPredictor>();
    case Model::Testbed: return std::make_unique<TestbedPredictor>();
  }
  return nullptr;
}

Prediction predict_program(const asmir::Program& prog,
                           const uarch::MachineModel& mm, Model m) {
  Block b;
  b.gen.program = prog;
  b.gen.elements_per_iteration = 1;
  b.mm = &mm;
  return make_predictor(m)->predict(b);
}

Prediction predict_assembly(const Predictor& p, const std::string& text,
                            const uarch::MachineModel& mm) {
  try {
    return p.predict(make_block(text, mm));
  } catch (const std::exception& e) {
    Prediction bad;
    bad.model = p.id();
    bad.ok = false;
    bad.error = e.what();
    return bad;
  }
}

}  // namespace incore::driver
