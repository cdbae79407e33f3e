#include "driver/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "report/json.hpp"
#include "server/core.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"

#include <sstream>

namespace incore::driver {

using support::format;

namespace {

template <typename T>
bool keeps(const std::vector<T>& filter, T value) {
  return filter.empty() ||
         std::find(filter.begin(), filter.end(), value) != filter.end();
}

}  // namespace

std::vector<kernels::Variant> filter_matrix(const SweepOptions& opt) {
  std::vector<kernels::Variant> out;
  for (const kernels::Variant& v : kernels::test_matrix()) {
    if (!keeps(opt.kernels, v.kernel)) continue;
    if (!opt.machines.empty()) {
      bool hit = false;
      for (const uarch::MachineRef& m : opt.machines) {
        hit |= m.model != nullptr && m.model->micro() == v.target;
      }
      if (!hit) continue;
    }
    if (!keeps(opt.compilers, v.compiler)) continue;
    if (!keeps(opt.opt_levels, v.opt)) continue;
    out.push_back(v);
  }
  return out;
}

const Prediction* SweepResult::find(const SweepRow& row,
                                    std::string_view model_id) const {
  for (std::size_t m = 0; m < model_ids.size(); ++m) {
    if (model_ids[m] == model_id) return &row.predictions[m];
  }
  return nullptr;
}

BlockSet dedup_blocks(const std::vector<kernels::Variant>& matrix,
                      const MachineResolver& machines) {
  BlockSet set;
  std::unordered_map<std::string, std::size_t> block_of_hash;
  std::unordered_set<std::string> assemblies;
  set.cell_block.reserve(matrix.size());
  for (const kernels::Variant& v : matrix) {
    Block b = machines ? make_block(v, machines(v.target)) : make_block(v);
    assemblies.insert(b.text_hash);
    auto [it, inserted] = block_of_hash.emplace(b.hash, set.blocks.size());
    if (inserted) set.blocks.push_back(std::move(b));
    set.cell_block.push_back(it->second);
  }
  set.unique_assemblies = assemblies.size();
  return set;
}

SweepResult sweep(const std::vector<kernels::Variant>& matrix,
                  const std::vector<const Predictor*>& predictors, int jobs,
                  const MachineResolver& machines, const AuditHook& audit,
                  const TrafficHook& traffic, server::ServiceCore* service) {
  SweepResult r;
  r.model_ids.reserve(predictors.size());
  for (const Predictor* p : predictors) r.model_ids.push_back(p->id());

  // Phase 1+2 (serial): codegen, hash, dedup.  Codegen is microseconds per
  // block; the predictors are where the time goes.
  BlockSet set = dedup_blocks(matrix, machines);
  r.blocks = std::move(set.blocks);
  const std::vector<std::size_t>& cell_block = set.cell_block;

  // Phase 3 (pipelined): one service job per unique block — the pipeline
  // runs the predictors in the evaluate stage and the audit/traffic hooks
  // in the finalize stage, so block k+1 can be evaluating while block k is
  // still being audited.  Results land in a pre-sized slot table indexed by
  // block*P + predictor; slot discipline keeps the output byte-identical
  // for any jobs value.
  const std::size_t P = predictors.size();
  std::vector<Prediction> memo(r.blocks.size() * P);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::unique_ptr<server::ServiceCore> owned_core;
    if (service == nullptr) {
      // Batch mode: a private pipeline sized like the old flat worker pool
      // (the evaluators and the finalize hooks are where the time goes),
      // torn down on return.  A daemon passes its long-lived core instead.
      server::ServiceConfig cfg;
      cfg.evaluate_workers = std::max(1, jobs);
      cfg.finalize_workers = std::max(1, jobs);
      cfg.queue_capacity = std::max<std::size_t>(r.blocks.size() + 1, 16);
      owned_core = std::make_unique<server::ServiceCore>(cfg);
      service = owned_core.get();
    }
    std::vector<server::JobHandle> handles;
    handles.reserve(r.blocks.size());
    for (const Block& b : r.blocks) {
      server::JobRequest req;
      req.block = b;
      req.parsed = true;  // codegen output arrives parsed
      req.predictors = predictors;
      req.audit = audit;
      req.traffic = traffic;
      handles.push_back(service->submit(std::move(req)));
    }
    if (audit) r.audit_verdicts.assign(r.blocks.size(), std::string());
    if (traffic) r.traffic_lines.assign(r.blocks.size(), std::string());
    // Wait on *every* handle before surfacing a failure.  On an external
    // daemon core the jobs still in flight hold raw pointers to this
    // call's predictors and machine models; throwing at the first bad
    // result would unwind and free them while pipeline workers are still
    // dereferencing them (and caching the garbage in the shared memo).
    std::size_t first_failed = handles.size();
    std::string first_error;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const server::JobResult res = handles[i]->wait();
      if (!res.ok) {
        // Pipeline-level failure (a hook threw, or the service stopped).
        // Predictor failures are *not* job failures; they arrive per
        // Prediction below, exactly as before.
        if (first_failed == handles.size()) {
          first_failed = i;
          first_error = res.error;
        }
        continue;
      }
      for (std::size_t m = 0; m < P; ++m) memo[i * P + m] = res.predictions[m];
      if (audit) r.audit_verdicts[i] = res.audit_verdict;
      if (traffic) r.traffic_lines[i] = res.traffic_line;
    }
    if (first_failed != handles.size()) {
      throw support::ModelError("sweep: block " + r.blocks[first_failed].hash +
                                ": " + first_error);
    }
  }
  r.stats.wall_time_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  // Phase 4 (serial): matrix-ordered rows referencing the memoized results.
  r.rows.reserve(matrix.size());
  for (std::size_t c = 0; c < matrix.size(); ++c) {
    SweepRow row;
    row.variant = matrix[c];
    row.block_index = cell_block[c];
    row.predictions.assign(memo.begin() + static_cast<std::ptrdiff_t>(
                                              row.block_index * P),
                           memo.begin() + static_cast<std::ptrdiff_t>(
                                              (row.block_index + 1) * P));
    r.rows.push_back(std::move(row));
  }

  r.stats.cells = matrix.size();
  r.stats.unique_blocks = r.blocks.size();
  r.stats.unique_assemblies = set.unique_assemblies;
  r.stats.evaluations = memo.size();
  r.stats.dedup_hits = (matrix.size() - r.blocks.size()) * P;
  r.stats.jobs = std::max(1, jobs);
  for (const Prediction& p : memo) {
    if (!p.ok) ++r.stats.failed;
  }
  return r;
}

SweepResult sweep(const SweepOptions& opt, server::ServiceCore* service) {
  const std::vector<Model>& models =
      opt.models.empty() ? all_models() : opt.models;
  std::vector<std::unique_ptr<Predictor>> owned;
  std::vector<const Predictor*> predictors;
  owned.reserve(models.size() + opt.cores.size());
  for (Model m : models) {
    owned.push_back(make_predictor(m));
    predictors.push_back(owned.back().get());
  }
  // The N-core ECM axis rides after the models: one scaling-curve column
  // per requested core count.
  for (int n : opt.cores) {
    owned.push_back(std::make_unique<EcmPredictor>(EcmPredictor::multicore(n)));
    predictors.push_back(owned.back().get());
  }
  // Substitute the selected machines for the built-in models.  The codegen
  // personality is keyed by the family tag, so two machines of the same
  // family in one sweep would be ambiguous.
  std::unordered_map<uarch::Micro, const uarch::MachineModel*> by_family;
  for (const uarch::MachineRef& m : opt.machines) {
    if (m.model == nullptr) continue;
    auto [it, inserted] = by_family.emplace(m.model->micro(), m.model);
    if (!inserted && it->second != m.model) {
      throw support::ModelError(
          "sweep: machines '" + std::string(it->second->name()) + "' and '" +
          m.model->name() + "' both map to codegen family " +
          uarch::cpu_short_name(m.model->micro()));
    }
  }
  MachineResolver resolver;
  if (!by_family.empty()) {
    resolver = [by_family](uarch::Micro micro) -> const uarch::MachineModel& {
      auto it = by_family.find(micro);
      return it != by_family.end() ? *it->second : uarch::machine(micro);
    };
  }
  return sweep(filter_matrix(opt), predictors, opt.jobs, resolver, opt.audit,
               opt.traffic, service);
}

// ------------------------------------------------------------------- output

std::string to_csv(const SweepResult& r) {
  std::ostringstream os;
  support::CsvWriter csv(os);
  std::vector<std::string> header = {"variant", "kernel",  "compiler",
                                     "opt",     "machine", "block_hash",
                                     "elements_per_iter"};
  for (const std::string& id : r.model_ids) header.push_back(id + "_cy");
  const bool audited = !r.audit_verdicts.empty();
  if (audited) header.push_back("audit_verdict");
  const bool trafficked = !r.traffic_lines.empty();
  if (trafficked) header.push_back("traffic_lines");
  csv.header(header);
  for (const SweepRow& row : r.rows) {
    const Block& b = r.blocks[row.block_index];
    std::vector<std::string> fields = {
        row.variant.label(),
        kernels::to_string(row.variant.kernel),
        kernels::to_string(row.variant.compiler),
        kernels::to_string(row.variant.opt),
        uarch::cpu_short_name(row.variant.target),
        b.hash,
        format("%d", b.gen.elements_per_iteration)};
    for (const Prediction& p : row.predictions) {
      fields.push_back(p.ok ? format("%.4f", p.cycles_per_iteration)
                            : std::string());
    }
    if (audited) fields.push_back(r.audit_verdicts[row.block_index]);
    if (trafficked) fields.push_back(r.traffic_lines[row.block_index]);
    csv.row(fields);
  }
  return os.str();
}

std::string to_json(const SweepResult& r) {
  std::string out = "{\n";
  out += "  \"models\": [";
  for (std::size_t m = 0; m < r.model_ids.size(); ++m) {
    out += format("%s\"%s\"", m ? ", " : "", r.model_ids[m].c_str());
  }
  out += "],\n";
  out += format(
      "  \"stats\": {\"cells\": %zu, \"unique_blocks\": %zu, "
      "\"unique_assemblies\": %zu, \"evaluations\": %zu, \"dedup_hits\": "
      "%zu, \"failed\": %zu},\n",
      r.stats.cells, r.stats.unique_blocks, r.stats.unique_assemblies,
      r.stats.evaluations, r.stats.dedup_hits, r.stats.failed);
  out += "  \"cells\": [\n";
  for (std::size_t c = 0; c < r.rows.size(); ++c) {
    const SweepRow& row = r.rows[c];
    const Block& b = r.blocks[row.block_index];
    out += format(
        "    {\"variant\": \"%s\", \"kernel\": \"%s\", \"compiler\": \"%s\", "
        "\"opt\": \"%s\", \"machine\": \"%s\", \"block_hash\": \"%s\", "
        "\"elements_per_iter\": %d, \"predictions\": {",
        row.variant.label().c_str(), kernels::to_string(row.variant.kernel),
        kernels::to_string(row.variant.compiler),
        kernels::to_string(row.variant.opt),
        uarch::cpu_short_name(row.variant.target), b.hash.c_str(),
        b.gen.elements_per_iteration);
    if (!r.audit_verdicts.empty()) {
      // Splice the verdict ahead of the predictions object (the line above
      // ends with `"predictions": {`).
      const std::string tail = "\"predictions\": {";
      out.insert(out.size() - tail.size(),
                 format("\"audit_verdict\": \"%s\", ",
                        report::json_escape(
                            r.audit_verdicts[row.block_index]).c_str()));
    }
    if (!r.traffic_lines.empty()) {
      const std::string tail = "\"predictions\": {";
      out.insert(out.size() - tail.size(),
                 format("\"traffic_lines\": \"%s\", ",
                        report::json_escape(
                            r.traffic_lines[row.block_index]).c_str()));
    }
    for (std::size_t m = 0; m < row.predictions.size(); ++m) {
      const Prediction& p = row.predictions[m];
      out += m ? ", " : "";
      if (p.ok) {
        out += format("\"%s\": {\"ok\": true, \"cycles_per_iteration\": %.6g",
                      p.model.c_str(), p.cycles_per_iteration);
        if (p.scope != PredictionScope::InCore) {
          out += format(
              ", \"scope\": \"%s\", \"cores\": %d, \"saturation_cores\": %d",
              to_string(p.scope), p.cores, p.saturation_cores);
        }
        if (p.throughput_cycles > 0 || p.loop_carried_cycles > 0 ||
            p.critical_path_cycles > 0) {
          out += format(
              ", \"throughput_cycles\": %.6g, \"loop_carried_cycles\": %.6g, "
              "\"critical_path_cycles\": %.6g",
              p.throughput_cycles, p.loop_carried_cycles,
              p.critical_path_cycles);
        }
        out += "}";
      } else {
        out += format("\"%s\": {\"ok\": false, \"error\": \"%s\"}",
                      p.model.c_str(),
                      report::json_escape(p.error).c_str());
      }
    }
    out += "}}";
    out += c + 1 < r.rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string scaling_summary(const SweepResult& r) {
  // Columns of the scaling curve: the ecm-n<k> predictors, in sweep order.
  std::vector<std::size_t> cols;
  for (std::size_t m = 0; m < r.model_ids.size(); ++m) {
    if (support::starts_with(r.model_ids[m], "ecm-n")) cols.push_back(m);
  }
  if (cols.empty()) return {};
  std::string out = "scaling curves (socket cycles/iteration vs cores):\n";
  std::unordered_set<std::size_t> seen;
  for (const SweepRow& row : r.rows) {
    if (!seen.insert(row.block_index).second) continue;  // one line per block
    out += format("  %-28s", row.variant.label().c_str());
    int n_sat = 0;
    bool saturated_marked = false;
    for (std::size_t m : cols) {
      const Prediction& p = row.predictions[m];
      if (!p.ok) {
        out += format("  %s:!", r.model_ids[m].c_str() + 4);
        continue;
      }
      n_sat = p.saturation_cores;
      const bool sat = n_sat > 0 && p.cores >= n_sat;
      out += format("  n%d:%.3f%s", p.cores, p.cycles_per_iteration,
                    sat && !saturated_marked ? "*" : "");
      saturated_marked = saturated_marked || sat;
    }
    out += n_sat > 0 ? format("  n_sat=%d\n", n_sat)
                     : std::string("  n_sat=-\n");
  }
  return out;
}

std::vector<ModelErrorStats> error_stats(const SweepResult& r,
                                         std::string_view reference) {
  std::size_t ref = r.model_ids.size();
  for (std::size_t m = 0; m < r.model_ids.size(); ++m) {
    if (r.model_ids[m] == reference) ref = m;
  }
  std::vector<ModelErrorStats> out;
  if (ref == r.model_ids.size()) return out;
  for (std::size_t m = 0; m < r.model_ids.size(); ++m) {
    if (m == ref) continue;
    ModelErrorStats s;
    s.model = r.model_ids[m];
    for (const SweepRow& row : r.rows) {
      const Prediction& p = row.predictions[m];
      const Prediction& q = row.predictions[ref];
      if (!p.ok || !q.ok || q.cycles_per_iteration == 0) continue;
      s.rpes.push_back((q.cycles_per_iteration - p.cycles_per_iteration) /
                       q.cycles_per_iteration);
    }
    s.rpe = report::summarize_rpe(s.rpes);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace incore::driver
