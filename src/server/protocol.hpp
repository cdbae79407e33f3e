#pragma once
// The incore-server wire protocol: length-prefixed line-oriented frames
// carrying one request (or one JSON reply) each.
//
// Framing (both directions):
//
//     INCORE <n>\n        n = body length in bytes, decimal
//     <n bytes of body>
//
// A request body is text: the first line is the command and its arguments,
// every following line is the payload (assembly text for the per-block
// commands).  Replies are always a single JSON object with an "ok" field;
// errors are {"ok": false, "error": "..."} — a malformed request gets a
// diagnostic reply, never a dropped connection.
//
// Commands:
//     ping                           liveness probe -> {"ok":true,...}
//     analyze <machine>  + payload   predictions from every program-level
//                                    model, dataflow digest, stage times
//     audit <machine>    + payload   VP audit verdict for the block
//     traffic <machine>  + payload   static traffic summary + lint verdict
//     ecm <machine>      + payload   ECM cycles at L1/L2/L3/Mem and the
//                                    saturation point
//     sweep [flags]                  batch matrix sweep through the shared
//                                    core; flags: the CLI's sweep grammar
//                                    (sweep_args.hpp) minus --jobs
//     stats                          service pipeline statistics
//     shutdown                       stop the server after replying
//
// This layer is socket-free (ServerContext::handle maps a request body to
// a reply body; Frame{Writer,Reader} are pure string codecs), so the whole
// protocol is unit-testable without a listener; server.hpp adds AF_UNIX
// transport on top.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/predictor.hpp"
#include "server/core.hpp"
#include "support/annotations.hpp"

namespace incore::server {

/// Maximum accepted request body; a frame announcing more is a protocol
/// error (kept well above any sweep reply, small enough to bound a
/// malicious header).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Renders `body` as one wire frame.
[[nodiscard]] std::string encode_frame(const std::string& body);

/// Incremental frame decoder: feed() raw bytes as they arrive, take()
/// complete bodies as they become available.  Framing violations (bad
/// magic, non-numeric or oversized length) latch an error — the connection
/// is beyond recovery at that point, since byte boundaries are lost.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  /// Pops the next complete body into `body`; false when none is ready.
  bool take(std::string& body);
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::string buf_;
  std::vector<std::string> ready_;
  bool failed_ = false;
  std::string error_;
};

/// The daemon's shared state: one ServiceCore (pipeline + memo +
/// coalescer) plus the predictor registry, dispatching request bodies to
/// reply bodies.  handle() is thread-safe — connections run concurrently
/// and meet inside the core.
class ServerContext {
 public:
  explicit ServerContext(ServiceConfig cfg = {});
  ~ServerContext();

  ServerContext(const ServerContext&) = delete;
  ServerContext& operator=(const ServerContext&) = delete;

  /// Maps one request body to one JSON reply body.  Sets `shutdown` when
  /// the request asked the server to stop.
  [[nodiscard]] std::string handle(const std::string& body, bool& shutdown);

  [[nodiscard]] ServiceCore& core() { return core_; }
  /// Requests handled so far / requests answered with an error.
  [[nodiscard]] std::uint64_t requests() const INCORE_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t errors() const INCORE_EXCLUDES(mu_);

 private:
  std::string handle_block_command(const std::string& cmd,
                                   const std::string& args,
                                   const std::string& payload);
  std::string handle_sweep(const std::string& args);
  std::string handle_stats();

  ServiceCore core_;
  /// The program-level models, in paper order (osaca, mca, testbed), plus
  /// the four ECM data-location predictors — built once, shared by every
  /// request so the core's memo applies across connections.
  std::vector<std::unique_ptr<driver::Predictor>> owned_;
  std::vector<const driver::Predictor*> models_;  // osaca, mca, testbed
  std::vector<const driver::Predictor*> ecm_;     // L1, L2, L3, Memory

  mutable support::Mutex mu_;  // leaf lock: guards the two counters only
  std::uint64_t requests_ INCORE_GUARDED_BY(mu_) = 0;
  std::uint64_t errors_ INCORE_GUARDED_BY(mu_) = 0;
};

/// {"ok": false, "error": <escaped message>}
[[nodiscard]] std::string error_reply(const std::string& message);

}  // namespace incore::server
