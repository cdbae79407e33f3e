#include "server/protocol.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "driver/sweep.hpp"
#include "report/json.hpp"
#include "server/sweep_args.hpp"
#include "support/strings.hpp"
#include "uarch/registry.hpp"

namespace incore::server {

using support::format;

// ---------------------------------------------------------------- framing

namespace {

constexpr std::string_view kMagic = "INCORE ";

}  // namespace

std::string encode_frame(const std::string& body) {
  std::string out;
  out.reserve(body.size() + 24);
  out += kMagic;
  out += format("%zu", body.size());
  out += '\n';
  out += body;
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  if (failed_) return;
  buf_.append(data, n);
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) {
      // An unterminated header can only grow so large before it is
      // provably not a frame header.
      if (buf_.size() > kMagic.size() + 24) {
        failed_ = true;
        error_ = "malformed frame header (no newline)";
      }
      return;
    }
    const std::string_view header(buf_.data(), nl);
    if (header.substr(0, kMagic.size()) != kMagic) {
      failed_ = true;
      error_ = "malformed frame header (expected 'INCORE <length>')";
      return;
    }
    const std::string_view len_text = header.substr(kMagic.size());
    if (len_text.empty() ||
        len_text.find_first_not_of("0123456789") != std::string_view::npos) {
      failed_ = true;
      error_ = "malformed frame length '" + std::string(len_text) + "'";
      return;
    }
    const unsigned long long len = std::strtoull(
        std::string(len_text).c_str(), nullptr, 10);
    if (len > kMaxFrameBytes) {
      failed_ = true;
      error_ = format("frame of %llu bytes exceeds the %zu byte limit", len,
                      kMaxFrameBytes);
      return;
    }
    if (buf_.size() - nl - 1 < len) return;  // body still incomplete
    ready_.push_back(buf_.substr(nl + 1, len));
    buf_.erase(0, nl + 1 + len);
  }
}

bool FrameReader::take(std::string& body) {
  if (ready_.empty()) return false;
  body = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return true;
}

// ----------------------------------------------------------------- replies

std::string error_reply(const std::string& message) {
  return "{\"ok\": false, \"error\": \"" + report::json_escape(message) +
         "\"}\n";
}

namespace {

/// One model's verdict, in the sweep JSON dialect.
std::string prediction_json(const driver::Prediction& p) {
  if (!p.ok) {
    return format("{\"ok\": false, \"error\": \"%s\"}",
                  report::json_escape(p.error).c_str());
  }
  std::string out = format("{\"ok\": true, \"cycles_per_iteration\": %.6g",
                           p.cycles_per_iteration);
  if (p.scope != driver::PredictionScope::InCore) {
    out += format(", \"scope\": \"%s\", \"cores\": %d, "
                  "\"saturation_cores\": %d",
                  to_string(p.scope), p.cores, p.saturation_cores);
  }
  if (p.throughput_cycles > 0 || p.loop_carried_cycles > 0 ||
      p.critical_path_cycles > 0) {
    out += format(", \"throughput_cycles\": %.6g, \"loop_carried_cycles\": "
                  "%.6g, \"critical_path_cycles\": %.6g",
                  p.throughput_cycles, p.loop_carried_cycles,
                  p.critical_path_cycles);
  }
  return out + "}";
}

std::string stage_ns_json(const JobResult& res) {
  std::string out = "{";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out += format("%s\"%s\": %lld", s ? ", " : "",
                  to_string(static_cast<Stage>(s)),
                  static_cast<long long>(res.stage_ns[s]));
  }
  return out + "}";
}

/// Shared result envelope of the per-block commands.
std::string block_reply_prefix(const std::string& kind,
                               const uarch::MachineModel& mm,
                               const driver::Block& block,
                               const JobResult& res) {
  return format("{\"ok\": true, \"kind\": \"%s\", \"machine\": \"%s\", "
                "\"block_hash\": \"%s\", \"instructions\": %zu, "
                "\"defuse_edges\": %zu, \"coalesced\": %s, ",
                kind.c_str(), std::string(mm.name()).c_str(),
                block.hash.c_str(), res.instructions, res.defuse_edges,
                res.coalesced ? "true" : "false");
}

}  // namespace

// ------------------------------------------------------------ ServerContext

ServerContext::ServerContext(ServiceConfig cfg) : core_(cfg) {
  for (driver::Model m : driver::all_models()) {
    owned_.push_back(driver::make_predictor(m));
    models_.push_back(owned_.back().get());
  }
  for (auto loc : {ecm::DataLocation::L1, ecm::DataLocation::L2,
                   ecm::DataLocation::L3, ecm::DataLocation::Memory}) {
    owned_.push_back(std::make_unique<driver::EcmPredictor>(loc));
    ecm_.push_back(owned_.back().get());
  }
}

ServerContext::~ServerContext() = default;

std::uint64_t ServerContext::requests() const {
  const support::LockGuard lock(mu_);
  return requests_;
}

std::uint64_t ServerContext::errors() const {
  const support::LockGuard lock(mu_);
  return errors_;
}

std::string ServerContext::handle(const std::string& body, bool& shutdown) {
  {
    const support::LockGuard lock(mu_);
    ++requests_;
  }
  std::string reply;
  try {
    const std::size_t nl = body.find('\n');
    const std::string head =
        std::string(support::trim(nl == std::string::npos
                                      ? std::string_view(body)
                                      : std::string_view(body).substr(0, nl)));
    const std::string payload = nl == std::string::npos
                                    ? std::string()
                                    : body.substr(nl + 1);
    const std::size_t sp = head.find(' ');
    const std::string cmd = head.substr(0, sp);
    const std::string args =
        sp == std::string::npos
            ? std::string()
            : std::string(support::trim(head.substr(sp + 1)));
    if (cmd == "ping") {
      reply = "{\"ok\": true, \"kind\": \"pong\"}\n";
    } else if (cmd == "stats") {
      reply = handle_stats();
    } else if (cmd == "shutdown") {
      shutdown = true;
      reply = "{\"ok\": true, \"kind\": \"shutdown\"}\n";
    } else if (cmd == "sweep") {
      reply = handle_sweep(args);
    } else if (cmd == "analyze" || cmd == "audit" || cmd == "traffic" ||
               cmd == "ecm") {
      reply = handle_block_command(cmd, args, payload);
    } else if (cmd.empty()) {
      reply = error_reply("empty request");
    } else {
      reply = error_reply("unknown command '" + cmd +
                          "' (known: ping analyze audit traffic ecm sweep "
                          "stats shutdown)");
    }
  } catch (const std::exception& e) {
    reply = error_reply(e.what());
  }
  if (reply.rfind("{\"ok\": false", 0) == 0) {
    const support::LockGuard lock(mu_);
    ++errors_;
  }
  return reply;
}

std::string ServerContext::handle_block_command(const std::string& cmd,
                                                const std::string& args,
                                                const std::string& payload) {
  if (args.empty()) {
    return error_reply(cmd + ": expected a machine name (or .mdf path)");
  }
  uarch::MachineRef ref;
  if (!uarch::try_resolve_machine(args, ref)) {
    return error_reply(cmd + ": unknown machine '" + args + "' (known: " +
                       uarch::machine_names_help() + ")");
  }
  if (support::trim(payload).empty()) {
    return error_reply(cmd + ": empty assembly payload");
  }
  const uarch::MachineModel& mm = *ref.model;
  std::vector<const driver::Predictor*> predictors;
  BlockHook audit_hook;
  BlockHook traffic_hook;
  if (cmd == "analyze") {
    predictors = models_;
  } else if (cmd == "ecm") {
    predictors = ecm_;
  } else if (cmd == "audit") {
    audit_hook = audit_verdict;
  } else {
    traffic_hook = traffic_line;
  }
  const JobHandle job = core_.submit(ServiceCore::text_request(
      payload, mm, std::move(predictors), std::move(audit_hook),
      std::move(traffic_hook)));
  const JobResult res = job->wait();
  if (!res.ok) return error_reply(cmd + ": " + res.error);

  std::string out = block_reply_prefix(cmd, mm, job->block(), res);
  if (cmd == "audit") {
    out += format("\"verdict\": \"%s\", ",
                  report::json_escape(res.audit_verdict).c_str());
  } else if (cmd == "traffic") {
    out += format("\"traffic\": \"%s\", ",
                  report::json_escape(res.traffic_line).c_str());
  } else {
    out += "\"predictions\": {";
    const std::vector<const driver::Predictor*>& ps =
        cmd == "ecm" ? ecm_ : models_;
    for (std::size_t m = 0; m < res.predictions.size(); ++m) {
      out += format("%s\"%s\": %s", m ? ", " : "", ps[m]->id().c_str(),
                    prediction_json(res.predictions[m]).c_str());
    }
    out += "}, ";
  }
  out += "\"stage_ns\": " + stage_ns_json(res) + "}\n";
  return out;
}

std::string ServerContext::handle_sweep(const std::string& args) {
  std::vector<std::string> tokens;
  for (std::string_view part : support::split(args, ' ')) {
    const std::string t(support::trim(part));
    if (!t.empty()) tokens.push_back(t);
  }
  // The CLI's grammar; --jobs stays CLI-only (this core was sized when the
  // daemon started).
  const SweepArgs parsed = parse_sweep_args(tokens);
  if (!parsed.error.empty()) {
    return error_reply(parsed.error.starts_with("sweep: ")
                           ? parsed.error
                           : "sweep: " + parsed.error);
  }
  // The daemon's core does the work: concurrent sweeps share its memo, so
  // a repeated sweep is almost entirely memo hits.
  const driver::SweepResult r = driver::sweep(parsed.options, &core_);
  if (r.rows.empty()) {
    return error_reply("sweep: the filters leave an empty matrix");
  }
  if (parsed.format == SweepFormat::Csv) {
    return format("{\"ok\": true, \"kind\": \"sweep\", \"csv\": \"%s\"}\n",
                  report::json_escape(driver::to_csv(r)).c_str());
  }
  std::string out = "{\"ok\": true, \"kind\": \"sweep\", \"result\": ";
  out += driver::to_json(r);
  out += "}\n";
  return out;
}

std::string ServerContext::handle_stats() {
  const ServiceStats st = core_.stats();
  std::string out = format(
      "{\"ok\": true, \"kind\": \"stats\", \"requests\": %llu, "
      "\"errors\": %llu, \"service\": {\"submitted\": %llu, "
      "\"completed\": %llu, \"failed\": %llu, \"coalesced\": %llu, "
      "\"memo_hits\": %llu, \"memo_size\": %zu, \"memo_evicted\": %llu, "
      "\"saturation_stage\": \"%s\", \"stages\": [",
      static_cast<unsigned long long>(requests()),
      static_cast<unsigned long long>(errors()),
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(st.coalesced),
      static_cast<unsigned long long>(st.memo_hits), st.memo_size,
      static_cast<unsigned long long>(st.memo_evicted),
      to_string(st.saturation_stage));
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const StageStats& g = st.stages[s];
    out += format(
        "%s{\"stage\": \"%s\", \"count\": %llu, \"in_flight\": %zu, "
        "\"queue_depth\": %zu, \"max_queue_depth\": %zu, \"p50_ns\": %lld, "
        "\"p99_ns\": %lld, \"total_ns\": %lld, \"max_ns\": %lld}",
        s ? ", " : "", g.stage.c_str(),
        static_cast<unsigned long long>(g.count), g.in_flight, g.queue_depth,
        g.max_queue_depth, static_cast<long long>(g.p50_ns),
        static_cast<long long>(g.p99_ns), static_cast<long long>(g.total_ns),
        static_cast<long long>(g.max_ns));
  }
  out += "]}}\n";
  return out;
}

}  // namespace incore::server
