#pragma once
// The four benchmark workloads (matrix, memory, gates, daemon), driven
// through incore's public entry points.  Each workload separates set-up
// from its timed region, checks every output it produces, and counts one
// operation per predictor evaluation (matrix, memory), gate check (gates)
// or request (daemon).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Fixed amount of timed work instead of a time bound: passes for
  /// matrix and gates, requests for daemon (memory always runs one pass).
  long long units = 0;
  /// Directory holding digests.txt and blocks.tsv.
  std::string golden_dir;
  /// Directory for the daemon's socket (short, relative paths keep it
  /// under the AF_UNIX path limit).
  std::string socket_dir = ".";
  /// Stop after set-up (used to repeat set-up in fresh processes).
  bool setup_only = false;
};

/// One timed pass: a full matrix sweep (matrix, memory), one stratified
/// gate sample (gates) or the whole request stream (daemon).
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::size_t blocks = 0;
  std::size_t ops = 0;
};

struct Outcome {
  double setup_s = 0;
  std::vector<Pass> passes;
  std::vector<double> latencies_ms;  // daemon: one round trip per request
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double timed_wall_s = 0;  // sum of pass wall times
  /// Workload sizes and concurrency (cells, unique_blocks, requests,
  /// workers, clients) for the run metadata.
  std::map<std::string, double> sizes;
  /// Per-layer metrics the workload reads from the program's own
  /// statistics (server.*, driver.*, equiv.*), already normalised.
  std::map<std::string, double> layers;
  /// Divisor that turns timed-region span and counter totals into the
  /// per-layer unit: passes, or thousands of requests for daemon.
  double layer_divisor = 1;
  /// First span id of the timed region (spans before it are set-up).
  int first_timed_span = 0;
  std::map<std::string, double> setup_counters;
};

/// Runs `opt.workload`; `t_entry_ns` is the process entry time (set-up is
/// measured from it).  Throws std::runtime_error on a bad option or a
/// missing golden file.
[[nodiscard]] Outcome run_workload(const Options& opt, std::int64_t t_entry_ns);

/// The gates sample of `pass` for `seed`, one variant label per line.
[[nodiscard]] std::vector<std::string> gates_sample(std::uint64_t seed,
                                                    int pass);

/// The first `n` requests of the daemon's sequence for `seed`, as
/// "<command> <machine> <block hash>".
[[nodiscard]] std::vector<std::string> daemon_requests(std::uint64_t seed,
                                                       std::size_t n);

/// Writes digests.txt and blocks.tsv for the current program into `dir`.
void write_golden(const std::string& dir);

/// Every per-layer metric name the traced run reports.
[[nodiscard]] const std::vector<std::string>& layer_metric_names();

}  // namespace perfbench
