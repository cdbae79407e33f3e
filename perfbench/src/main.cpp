// incore-perfbench: one process of the seeded benchmark.
//
//   incore-perfbench --workload matrix|memory|gates|daemon --seed N
//                    --seconds S --golden DIR [--units N] [--setup-only]
//                    [--trace-out PREFIX] [--socket-dir DIR]
//   incore-perfbench --gates-sample --seed N [--pass K]
//   incore-perfbench --daemon-requests --seed N [--count N]
//   incore-perfbench --write-golden DIR
//
// A run prints human-readable lines, then one line
// "PERFBENCH {...}" with the process's measurements; perfbench/run.py
// turns one or more of these into the benchmark's metrics.  With
// --trace-out the layer calls are recorded as spans, written as
// PREFIX.trace.json (Chrome trace events) and PREFIX.spans.txt (self time
// per span name), and the per-layer metrics join the PERFBENCH line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

using perfbench::Outcome;

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: incore-perfbench --workload W --seed N --seconds S "
               "--golden DIR [--units N] [--setup-only] [--trace-out PREFIX] "
               "[--socket-dir DIR]\n"
               "       incore-perfbench --gates-sample --seed N [--pass K]\n"
               "       incore-perfbench --daemon-requests --seed N "
               "[--count N]\n"
               "       incore-perfbench --write-golden DIR\n");
  return 2;
}

/// Per-layer metrics: span self times and counters of the timed region
/// divided by the workload's unit, plus set-up spans and counters as they
/// are, plus what the workload read from the program's own statistics.
std::map<std::string, double> layer_metrics(const perfbench::Tracer& t,
                                            const Outcome& out) {
  std::map<std::string, double> span_s;
  const auto setup = t.self_times(0, out.first_timed_span);
  for (const auto& [name, lt] : t.self_times(out.first_timed_span)) {
    span_s[name + "_s"] = lt.self_s / out.layer_divisor;
  }
  for (const auto& [name, lt] : setup) span_s[name + "_s"] += lt.self_s;
  const std::map<std::string, double> ctr = t.counters();
  std::map<std::string, double> result;
  for (const std::string& name : perfbench::layer_metric_names()) {
    double v = 0;
    if (out.layers.count(name)) {
      v = out.layers.at(name);
    } else if (span_s.count(name)) {
      v = span_s.at(name);
    } else if (ctr.count(name)) {
      const double setup =
          out.setup_counters.count(name) ? out.setup_counters.at(name) : 0.0;
      v = setup + (ctr.at(name) - setup) / out.layer_divisor;
    }
    result[name] = v;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_entry = perfbench::now_ns();
  perfbench::Options opt;
  std::string trace_out;
  std::string write_golden;
  bool list_gates = false;
  bool list_requests = false;
  int pass = 0;
  std::size_t count = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--gates-sample") {
      list_gates = true;
    } else if (a == "--daemon-requests") {
      list_requests = true;
    } else if ((v = value()) == nullptr) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--units") {
      opt.units = std::strtoll(v, nullptr, 10);
    } else if (a == "--golden") {
      opt.golden_dir = v;
    } else if (a == "--socket-dir") {
      opt.socket_dir = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--write-golden") {
      write_golden = v;
    } else if (a == "--pass") {
      pass = std::atoi(v);
    } else if (a == "--count") {
      count = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else {
      return usage();
    }
  }

  try {
    if (!write_golden.empty()) {
      perfbench::write_golden(write_golden);
      return 0;
    }
    if (list_gates) {
      for (const std::string& l : perfbench::gates_sample(opt.seed, pass)) {
        std::printf("%s\n", l.c_str());
      }
      return 0;
    }
    if (list_requests) {
      for (const std::string& l :
           perfbench::daemon_requests(opt.seed, count)) {
        std::printf("%s\n", l.c_str());
      }
      return 0;
    }
    if (opt.workload.empty() || opt.golden_dir.empty()) return usage();

    perfbench::Tracer tracer;
    if (!trace_out.empty()) perfbench::Tracer::set_active(&tracer);
    const Outcome out = perfbench::run_workload(opt, t_entry);
    perfbench::Tracer::set_active(nullptr);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::string json = "{\"workload\": \"" + opt.workload + "\"";
    json += ", \"seed\": " + std::to_string(opt.seed);
    json += ", \"setup_s\": " + num(out.setup_s);
    json += ", \"peak_rss_mb\": " + num(rss_mb);
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"timed_wall_s\": " + num(out.timed_wall_s);
    json += ", \"lat_samples\": " + std::to_string(out.latencies_ms.size());
    json += ", \"lat_p50_ms\": " + num(percentile(out.latencies_ms, 0.50));
    json += ", \"lat_p99_ms\": " + num(percentile(out.latencies_ms, 0.99));
    json += ", \"passes\": [";
    for (std::size_t p = 0; p < out.passes.size(); ++p) {
      const perfbench::Pass& ps = out.passes[p];
      json += (p ? ", " : "") + std::string("{\"wall_s\": ") + num(ps.wall_s) +
              ", \"cpu_s\": " + num(ps.cpu_s) +
              ", \"blocks\": " + std::to_string(ps.blocks) +
              ", \"ops\": " + std::to_string(ps.ops) + "}";
    }
    json += "], \"meta\": {\"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"compiler\": \"" PERFBENCH_COMPILER
            "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
    for (const auto& [k, v] : out.sizes) json += ", \"" + k + "\": " + num(v);
    json += "}";

    if (!trace_out.empty()) {
      std::ofstream(trace_out + ".trace.json") << tracer.chrome_json();
      std::ofstream table(trace_out + ".spans.txt");
      char line[160];
      std::snprintf(line, sizeof line, "%-24s %10s %12s %12s\n", "span",
                    "count", "total_s", "self_s");
      table << line;
      for (const auto& [name, lt] : tracer.self_times()) {
        std::snprintf(line, sizeof line, "%-24s %10zu %12.6f %12.6f\n",
                      name.c_str(), lt.count, lt.total_s, lt.self_s);
        table << line;
      }
      json += ", \"layers\": {";
      bool first = true;
      for (const auto& [name, v] : layer_metrics(tracer, out)) {
        json += (first ? "\"" : ", \"") + name + "\": " + num(v);
        first = false;
      }
      json += "}";
    }
    json += "}";

    std::printf("%s seed %llu: %zu passes, %zu/%zu operations failed, "
                "set-up %.3f s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                out.passes.size(), out.failed, out.attempted, out.setup_s);
    std::printf("PERFBENCH %s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "incore-perfbench: %s\n", e.what());
    return 1;
  }
}
