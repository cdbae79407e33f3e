#include "driver/predictor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "mca/mca.hpp"
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

// -------------------------------------------------------------- BlockScope

const analysis::Report& BlockScope::report() const {
  if (!report_) {
    report_.emplace(analysis::analyze(block_.gen.program, *block_.mm));
  }
  return *report_;
}

const ecm::Prediction& BlockScope::composition() const {
  if (!composition_) {
    composition_.emplace(
        ecm::predict_block(report(), block_.gen.program, *block_.mm));
  }
  return *composition_;
}

// ------------------------------------------------------------------ in-core

InCorePredictor::InCorePredictor(std::string id,
                                 analysis::DepOptions dep_options)
    : id_(std::move(id)), dep_(dep_options) {}

Prediction InCorePredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    const BlockScope* scope =
        dep_ == analysis::DepOptions{} ? BlockScope::find(b) : nullptr;
    std::optional<analysis::Report> own;
    const analysis::Report& rep =
        scope != nullptr
            ? scope->report()
            : own.emplace(analysis::analyze(b.gen.program, *b.mm, dep_));
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

Prediction EcmPredictor::predict(const Block& b) const {
  return timed_predict(id_, [&](Prediction& p) {
    const BlockScope* scope = BlockScope::find(b);
    const ecm::Prediction ep =
        scope != nullptr ? scope->composition() : BlockScope(b).composition();
    const ecm::HierarchyParams h = ecm::hierarchy_for(*b.mm);
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
