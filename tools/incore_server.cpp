// incore-server — the prediction service as a standalone daemon.
//
//   incore-server --socket <path> [--workers N] [--queue N] [--memo N]
//
// Listens on a local (AF_UNIX) socket and answers framed requests
// (analyze / audit / traffic / ecm / sweep / stats) through the staged
// service pipeline — the same core the batch `incore-cli sweep` runs, kept
// warm: repeated blocks hit the prediction memo, identical concurrent
// requests coalesce.  A client `shutdown` request stops it.  Protocol and
// examples: docs/server.md; `incore-cli client` is the matching client.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/server.hpp"
#include "server/sweep_args.hpp"
#include "support/error.hpp"

using namespace incore;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: incore-server --socket <path> [--workers N] "
               "[--queue N] [--memo N]\n"
               "  --workers N   evaluate/finalize stage workers (default 2)\n"
               "  --queue N     per-stage queue capacity (default 256)\n"
               "  --memo N      prediction-memo LRU capacity, 0 = unbounded "
               "(default 65536)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServeArgs args =
      server::parse_serve_args({argv + 1, argv + argc}, "incore-server");
  if (args.unknown_flag) return usage();
  if (!args.error.empty()) {
    std::fprintf(stderr, "%s\n", args.error.c_str());
    return args.options.socket_path.empty() && !args.error.starts_with(
                                                   "incore-server: --")
               ? usage()
               : 2;
  }
  server::ServerOptions opt = std::move(args.options);
  const std::string path = opt.socket_path;
  try {
    server::Server srv(std::move(opt));
    std::string error;
    if (!srv.start(error)) {
      std::fprintf(stderr, "incore-server: %s\n", error.c_str());
      return 1;
    }
    // Readiness line, flushed: launcher scripts block on it.
    std::printf("incore-server: listening on %s\n", path.c_str());
    std::fflush(stdout);
    srv.wait();
    srv.stop();
    std::printf("incore-server: stopped (%llu requests, %llu errors)\n",
                static_cast<unsigned long long>(srv.context().requests()),
                static_cast<unsigned long long>(srv.context().errors()));
  } catch (const support::Error& e) {
    std::fprintf(stderr, "incore-server: %s\n", e.what());
    return 1;
  }
  return 0;
}
