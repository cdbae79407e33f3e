#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "asmir/parser.hpp"
#include "audit/audit.hpp"
#include "dataflow/dataflow.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/crosscheck.hpp"
#include "equiv/equiv.hpp"
#include "kernels/kernels.hpp"
#include "server/core.hpp"
#include "server/server.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "trace.hpp"
#include "traffic/crosscheck.hpp"
#include "traffic/traffic.hpp"
#include "uarch/model.hpp"
#include "verify/diagnostics.hpp"

namespace perfbench {

namespace {

using namespace incore;

// ------------------------------------------------------------ randomness

/// splitmix64: the benchmark's only source of randomness, so a seed gives
/// the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Independent streams per purpose, so adding draws to one workload never
/// shifts another's inputs.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  Rng mix(seed ^ (purpose * 0xd1b54a32d192ed03ull));
  return Rng(mix.next());
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

// ---------------------------------------------------------------- timing

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// ---------------------------------------------------------------- golden

struct Golden {
  std::map<std::string, std::string> digests;  // workload -> hex digest
  /// block hash -> "%.6g" cycles of osaca, mca, testbed
  std::unordered_map<std::string, std::array<std::string, 3>> blocks;
};

Golden read_golden(const std::string& dir) {
  Golden g;
  std::ifstream d(dir + "/digests.txt");
  if (!d) throw std::runtime_error("missing golden file " + dir + "/digests.txt");
  std::string name;
  std::string hex;
  while (d >> name >> hex) g.digests[name] = hex;
  std::ifstream b(dir + "/blocks.tsv");
  if (!b) throw std::runtime_error("missing golden file " + dir + "/blocks.tsv");
  std::string hash;
  std::array<std::string, 3> cy;
  while (b >> hash >> cy[0] >> cy[1] >> cy[2]) g.blocks[hash] = cy;
  return g;
}

/// Order-independent digest of a sweep's CSV: FNV-1a over its sorted lines.
std::string csv_digest(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& l : lines) joined += l + "\n";
  return support::hex64(support::fnv1a64(joined));
}

// ------------------------------------------------------- traced adapters

/// A predictor that opens a span named after the layer its inner
/// predictor calls into, then delegates: outputs are the inner
/// predictor's, so traced and untraced sweeps produce the same CSV.
class SpanPredictor final : public driver::Predictor {
 public:
  SpanPredictor(std::unique_ptr<driver::Predictor> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}
  [[nodiscard]] const std::string& id() const override { return inner_->id(); }
  [[nodiscard]] driver::Prediction predict(const driver::Block& b) const override {
    const Scope s(span_, b.hash);
    return inner_->predict(b);
  }

 private:
  std::unique_ptr<driver::Predictor> inner_;
  const char* span_;
};

struct PredictorSet {
  std::vector<std::unique_ptr<driver::Predictor>> owned;
  std::vector<const driver::Predictor*> ptrs;
  void add(std::unique_ptr<driver::Predictor> p, const char* span) {
    owned.push_back(std::make_unique<SpanPredictor>(std::move(p), span));
    ptrs.push_back(owned.back().get());
  }
};

/// The CLI's `sweep --traffic` hook, wrapped in a span.
std::string traffic_hook(const driver::Block& b) {
  const Scope s("traffic.analyze", b.hash);
  count("traffic.analyze_calls", 1);
  const traffic::Result r = traffic::analyze(b.gen.program, *b.mm);
  return support::format("%.3fr+%.3fw%s", r.volumes.mem_read,
                         r.volumes.mem_write, r.exact ? "" : "+");
}

/// Calls the layers nested inside the driver and the server (codegen,
/// parse, dataflow) directly on the blocks a timed pass used, so the
/// traced run can attribute their cost.  Runs outside the timed region.
void probe_block(const std::string& text, const uarch::MachineModel& mm,
                 const std::string& id) {
  asmir::Program prog;
  {
    const Scope s("asmir.parse", id);
    prog = asmir::parse(text, mm.isa());
  }
  count("asmir.instructions", static_cast<double>(prog.size()));
  const Scope s("dataflow.analyze", id);
  const dataflow::Analysis df = dataflow::analyze(prog);
  (void)df;
}

void touch_registry() {
  for (uarch::Micro m : {uarch::Micro::NeoverseV2, uarch::Micro::GoldenCove,
                         uarch::Micro::Zen4}) {
    (void)uarch::machine(m);
  }
}

/// Every unique block of the matrix, in paper order, codegen spanned.
std::vector<driver::Block> corpus_blocks(std::vector<driver::Block>* cells) {
  std::vector<driver::Block> unique;
  std::set<std::string> seen;
  for (const kernels::Variant& v : kernels::test_matrix()) {
    driver::Block b;
    {
      const Scope s("kernels.generate", v.label());
      b = driver::make_block(v);
    }
    count("kernels.blocks", 1);
    if (seen.insert(b.hash).second) unique.push_back(b);
    if (cells != nullptr) cells->push_back(std::move(b));
  }
  return unique;
}

bool time_left(const Options& opt, std::int64_t t0, std::size_t done) {
  if (opt.units > 0) return static_cast<long long>(done) < opt.units;
  return done == 0 || seconds_between(t0, now_ns()) < opt.seconds;
}

// ------------------------------------------------------- matrix / memory

Outcome run_sweep_workload(const Options& opt, bool memory, std::int64_t t_entry) {
  Outcome out;
  const Golden golden = read_golden(opt.golden_dir);
  const std::string want = golden.digests.count(opt.workload)
                               ? golden.digests.at(opt.workload)
                               : std::string("(none)");
  touch_registry();
  std::vector<kernels::Variant> matrix = kernels::test_matrix();
  // memory keeps the paper order: its evaluate and finalize stages replay
  // two blocks at once, and which heavy replays overlap follows the order,
  // so a seeded order set peak RSS anywhere from 90 to 145 MiB.
  if (!memory) {
    Rng rng = stream(opt.seed, 1);
    shuffle(matrix, rng);
  }
  PredictorSet preds;
  preds.add(driver::make_predictor(driver::Model::InCore), "analysis.analyze");
  if (memory) {
    for (int n : {1, 2, 4, 8}) {
      preds.add(std::make_unique<driver::EcmPredictor>(
                    driver::EcmPredictor::multicore(n)),
                "ecm.predict");
    }
  } else {
    preds.add(driver::make_predictor(driver::Model::Mca), "mca.simulate");
    preds.add(driver::make_predictor(driver::Model::Testbed), "exec.run");
  }
  const driver::TrafficHook hook =
      memory ? driver::TrafficHook(traffic_hook) : driver::TrafficHook();
  out.sizes["cells"] = static_cast<double>(matrix.size());
  out.sizes["workers"] = 1;
  out.sizes["clients"] = 0;
  out.setup_s = seconds_between(t_entry, now_ns());
  if (opt.setup_only) return out;
  if (Tracer* t = Tracer::active()) {
    out.setup_counters = t->counters();
    out.first_timed_span = static_cast<int>(t->spans().size());
  }

  // One memory pass per process: the driver's ECM memo is process-wide,
  // so a second pass would time memo lookups instead of the work.
  Options o = opt;
  if (memory) o.units = 1;
  std::map<std::string, double> stage_s;
  const std::int64_t t0 = now_ns();
  while (time_left(o, t0, out.passes.size())) {
    const std::size_t pass = out.passes.size();
    const double c0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    driver::SweepResult r;
    server::ServiceStats st;
    {
      const RootScope s("driver.sweep", support::format("pass%zu", pass));
      // The pipeline driver::sweep builds for jobs = 1, made here so its
      // stage statistics can be read; it lives for the pass, as the
      // private one would.
      server::ServiceConfig cfg;
      cfg.evaluate_workers = 1;
      cfg.finalize_workers = 1;
      cfg.queue_capacity = matrix.size() + 1;
      server::ServiceCore core(cfg);
      r = driver::sweep(matrix, preds.ptrs, 1, {}, {}, hook, &core);
      core.shutdown();
      st = core.stats();
    }
    const std::int64_t w1 = now_ns();
    const double c1 = cpu_seconds();
    for (const server::StageStats& ss : st.stages) {
      stage_s["server." + ss.stage + ".busy_s"] += static_cast<double>(ss.total_ns) * 1e-9;
      stage_s["server.max_queue_depth"] = std::max(stage_s["server.max_queue_depth"],
                                                   static_cast<double>(ss.max_queue_depth));
    }
    count("driver.evaluations", static_cast<double>(r.stats.evaluations));
    count("driver.dedup_hits", static_cast<double>(r.stats.dedup_hits));

    const std::string got = csv_digest(driver::to_csv(r));
    std::size_t failed = r.stats.failed;
    if (got != want) {
      std::fprintf(stderr, "%s pass %zu: digest %s, golden %s\n",
                   opt.workload.c_str(), pass, got.c_str(), want.c_str());
      failed = r.stats.evaluations;
    }
    out.attempted += r.stats.evaluations;
    out.failed += failed;
    out.passes.push_back({seconds_between(w0, w1), c1 - c0, r.stats.unique_blocks,
                          r.stats.evaluations});
    out.timed_wall_s += seconds_between(w0, w1);
    out.sizes["unique_blocks"] = static_cast<double>(r.stats.unique_blocks);

    if (Tracer::active() != nullptr) {
      const RootScope s("probe", support::format("pass%zu", pass));
      for (const kernels::Variant& v : matrix) {
        const Scope g("kernels.generate", v.label());
        (void)kernels::generate(v);
        count("kernels.blocks", 1);
      }
      for (const driver::Block& b : r.blocks) probe_block(b.gen.assembly, *b.mm, b.hash);
    }
  }
  out.layer_divisor = static_cast<double>(out.passes.size());
  for (const auto& [name, v] : stage_s) {
    out.layers[name] = name == "server.max_queue_depth" ? v : v / out.layer_divisor;
  }
  return out;
}

// ----------------------------------------------------------------- gates

constexpr uarch::Micro kMachines[] = {uarch::Micro::NeoverseV2,
                                      uarch::Micro::GoldenCove,
                                      uarch::Micro::Zen4};

/// The gate sample of one pass: for every kernel x machine, the seed's
/// gates stream shuffles the four optimization levels and the machine's
/// compilers take distinct ones, so each kernel x machine x compiler
/// stratum gives one cell (104 of them); pass k continues the stream.
/// Gate cost varies up to threefold across the cells of a kernel x machine,
/// mostly with the level (the scalar replays of the 3-D stencils cost
/// most).  Spreading the levels keeps the pass's cost within a few percent
/// across seeds: over 3,000 seeds drawn on measured per-cell costs, the
/// interquartile spread of blocks_per_s is 5 %, against 7 % for
/// independent levels and 17 % for one cell per kernel x machine.
std::vector<kernels::Variant> draw_gates(std::uint64_t seed, int pass) {
  Rng rng = stream(seed, 2);
  std::vector<kernels::Variant> sample;
  for (int p = 0; p <= pass; ++p) {
    sample.clear();
    for (kernels::Kernel k : kernels::all_kernels()) {
      for (uarch::Micro m : kMachines) {
        std::vector<kernels::OptLevel> levels = {kernels::OptLevel::O1, kernels::OptLevel::O2,
                                                 kernels::OptLevel::O3, kernels::OptLevel::Ofast};
        shuffle(levels, rng);
        const std::vector<kernels::Compiler> compilers = kernels::compilers_for(m);
        for (std::size_t i = 0; i < compilers.size(); ++i) {
          sample.push_back({k, compilers[i], levels[i], m});
        }
      }
    }
  }
  return sample;
}

/// The gates' warm-up cell, checked once before the timed region.  The
/// first cross-check of a process leaves its replay buffers on the heap at
/// the size that block needed, and later blocks reuse them, so without a
/// fixed first block peak RSS would be set by whichever 3-D stencil the
/// seed put first (50 or 76 MiB for the same code).  The 27-point stencil
/// has the corpus's largest replay footprint.
const kernels::Variant kGatesWarmup{kernels::Kernel::Jacobi3D27pt, kernels::Compiler::Gcc,
                                    kernels::OptLevel::O3, uarch::Micro::Zen4};

/// Runs the four gate checks on `b`; returns how many failed.
std::size_t check_gates(const driver::Block& b, equiv::Engine& engine) {
  std::size_t failed = 0;
  auto check = [&](const char* name, auto&& fn) {
    bool ok = false;
    try {
      const Scope s(name, b.hash);
      ok = fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s on %s: %s\n", name, b.variant.label().c_str(), e.what());
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "gates: %s failed on %s\n", name, b.variant.label().c_str());
    }
  };
  const RootScope s("gates.block", b.hash);
  check("audit.audit_block", [&] {
    verify::DiagnosticSink sink;
    const audit::BlockAudit a = audit::audit_block(b, sink);
    return a.evaluated && a.ok;
  });
  check("traffic.crosscheck", [&] {
    const traffic::Crosscheck c = traffic::crosscheck(b.gen.program, *b.mm);
    count("traffic.replay_iterations",
          static_cast<double>(c.warmup_iterations + c.measured_iterations));
    return c.ok;
  });
  check("ecm.crosscheck", [&] { return ecm::crosscheck_scaling(b.gen.program, *b.mm).ok; });
  check("equiv.check", [&] {
    const std::string twice = equiv::unroll_text(b.gen.assembly, 2);
    return engine.check_text(b.gen.assembly, twice, b.mm->isa())
        .accepted(/*strict_fp=*/false);
  });
  return failed;
}

constexpr std::size_t kChecksPerBlock = 4;

Outcome run_gates(const Options& opt, std::int64_t t_entry) {
  Outcome out;
  touch_registry();
  std::vector<driver::Block> cells;
  (void)corpus_blocks(&cells);
  std::map<std::string, const driver::Block*> by_label;
  for (const driver::Block& b : cells) by_label[b.variant.label()] = &b;
  out.sizes["cells"] = static_cast<double>(draw_gates(opt.seed, 0).size());
  out.sizes["workers"] = 1;
  out.sizes["clients"] = 0;
  out.setup_s = seconds_between(t_entry, now_ns());
  if (opt.setup_only) return out;

  // Untimed and untraced, like the daemon's warm-up deck; its checks
  // still count as operations.
  Tracer* const tracer = Tracer::active();
  Tracer::set_active(nullptr);
  {
    equiv::Engine engine;
    out.failed += check_gates(*by_label.at(kGatesWarmup.label()), engine);
    out.attempted += kChecksPerBlock;
  }
  Tracer::set_active(tracer);
  if (tracer != nullptr) {
    out.setup_counters = tracer->counters();
    out.first_timed_span = static_cast<int>(tracer->spans().size());
  }

  double memo_hits = 0;
  double memo_misses = 0;
  const std::int64_t t0 = now_ns();
  while (time_left(opt, t0, out.passes.size())) {
    const int pass = static_cast<int>(out.passes.size());
    std::vector<const driver::Block*> sample;
    for (const kernels::Variant& v : draw_gates(opt.seed, pass)) {
      sample.push_back(by_label.at(v.label()));
    }
    equiv::Engine engine;
    std::size_t failed = 0;
    const double c0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    for (const driver::Block* b : sample) failed += check_gates(*b, engine);
    const Pass ps{seconds_between(w0, now_ns()), cpu_seconds() - c0, sample.size(),
                  sample.size() * kChecksPerBlock};
    std::set<std::string> unique;
    for (const driver::Block* b : sample) unique.insert(b->hash);
    out.sizes["unique_blocks"] = static_cast<double>(unique.size());
    out.passes.push_back(ps);
    out.timed_wall_s += ps.wall_s;
    out.attempted += ps.ops;
    out.failed += failed;
    memo_hits += static_cast<double>(engine.memo_hits());
    memo_misses += static_cast<double>(engine.memo_misses());
    if (Tracer::active() != nullptr) {
      const RootScope s("probe", support::format("pass%d", pass));
      for (const driver::Block* b : sample) probe_block(b->gen.assembly, *b->mm, b->hash);
    }
  }
  out.layer_divisor = static_cast<double>(out.passes.size());
  out.layers["equiv.memo_hits"] = memo_hits / out.layer_divisor;
  out.layers["equiv.memo_misses"] = memo_misses / out.layer_divisor;
  return out;
}

// ---------------------------------------------------------------- daemon

constexpr int kClients = 2;
constexpr int kEvaluateWorkers = 2;
/// Below the working set (249 blocks x up to 4 predictors), so the LRU
/// evicts and cold evaluations stay on the request path.
constexpr std::size_t kMemoCapacity = 256;
constexpr std::size_t kMinRequests = 1000;

enum class Kind : std::uint8_t { Analyze, Ecm, Traffic };

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Analyze: return "analyze";
    case Kind::Ecm: return "ecm";
    case Kind::Traffic: return "traffic";
  }
  return "?";
}

using Request = std::pair<Kind, std::size_t>;  // kind, block index

/// Requests per deck.  A run sends whole decks only.
constexpr std::size_t kDeck = 1000;

/// Deck `k` of the seed's request sequence.  Its composition is fixed: the
/// Zipf(s = 1) distribution over the unique blocks (ranked in first-seen
/// matrix order) quantized at kDeck stratified quantiles, with kinds
/// assigned by position in a 7:2:1 (analyze:ecm:traffic) pattern; the seed
/// shuffles the deck.  Per-request cost spans three orders of magnitude
/// across blocks and kinds, so freely drawn requests would let the seed,
/// not the program, set the throughput.
std::vector<Request> deck(std::uint64_t seed, std::size_t k, std::size_t blocks) {
  std::vector<double> cdf;
  double sum = 0;
  for (std::size_t r = 1; r <= blocks; ++r) {
    sum += 1.0 / static_cast<double>(r);
    cdf.push_back(sum);
  }
  std::vector<Request> out;
  for (std::size_t i = 0; i < kDeck; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(kDeck) * sum;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t slot = i % 10;
    const Kind kind = slot < 7 ? Kind::Analyze : slot < 9 ? Kind::Ecm : Kind::Traffic;
    out.emplace_back(kind, std::min(rank, blocks - 1));
  }
  Rng rng = stream(seed, 100 + k);
  shuffle(out, rng);
  return out;
}

/// The value of `"key": <number>` after `from` in a reply, as text.
std::string json_number_after(const std::string& reply, const std::string& key,
                              std::size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = reply.find(pat, from);
  if (at == std::string::npos) return {};
  const std::size_t b = at + pat.size();
  const std::size_t e = reply.find_first_of(",}", b);
  return reply.substr(b, e - b);
}

struct Reply {
  bool ok = false;
  bool coalesced = false;
  std::int64_t stage_ns = 0;
};

/// Checks one reply: `"ok": true`, the expected block, and for analyze the
/// golden predictions of that block.
Reply check_reply(const std::string& reply, Kind kind, const driver::Block& b,
                  const Golden& golden) {
  Reply r;
  r.coalesced = reply.find("\"coalesced\": true") != std::string::npos;
  for (const char* st : {"parse", "dataflow", "evaluate", "finalize"}) {
    const std::size_t at = reply.find("\"stage_ns\"");
    const std::string v = at == std::string::npos ? "" : json_number_after(reply, st, at);
    if (!v.empty()) r.stage_ns += std::strtoll(v.c_str(), nullptr, 10);
  }
  if (reply.rfind("{\"ok\": true", 0) != 0) return r;
  if (reply.find("\"block_hash\": \"" + b.hash + "\"") == std::string::npos) return r;
  if (kind == Kind::Analyze) {
    auto it = golden.blocks.find(b.hash);
    if (it == golden.blocks.end()) return r;
    const char* models[] = {"osaca", "mca", "testbed"};
    for (int m = 0; m < 3; ++m) {
      const std::size_t at = reply.find(std::string("\"") + models[m] + "\": {\"ok\": true");
      if (at == std::string::npos) return r;
      if (json_number_after(reply, "cycles_per_iteration", at) != it->second[m]) return r;
    }
  }
  r.ok = true;
  return r;
}

Outcome run_daemon(const Options& opt, std::int64_t t_entry) {
  Outcome out;
  const Golden golden = read_golden(opt.golden_dir);
  touch_registry();
  const std::vector<driver::Block> blocks = corpus_blocks(nullptr);
  std::vector<std::string> headers;
  for (const driver::Block& b : blocks) {
    headers.push_back(std::string(" ") + uarch::cpu_short_name(b.mm->micro()) + "\n");
  }
  server::ServerOptions so;
  so.socket_path = support::format("%s/perfbench-%d.sock", opt.socket_dir.c_str(),
                                   static_cast<int>(getpid()));
  so.service.evaluate_workers = kEvaluateWorkers;
  so.service.memo_capacity = kMemoCapacity;
  server::Server srv(so);
  std::string err;
  if (!srv.start(err)) throw std::runtime_error("daemon: " + err);
  out.sizes["cells"] = static_cast<double>(kernels::test_matrix().size());
  out.sizes["unique_blocks"] = static_cast<double>(blocks.size());
  out.sizes["workers"] = kEvaluateWorkers;
  out.sizes["clients"] = kClients;
  out.sizes["memo_capacity"] = static_cast<double>(kMemoCapacity);
  out.setup_s = seconds_between(t_entry, now_ns());
  if (opt.setup_only) {
    srv.stop();
    return out;
  }

  struct ClientLog {
    std::vector<double> rtt_ms;
    std::vector<std::size_t> block;
    std::size_t failed = 0;
    std::size_t slots = 0;  // predictor evaluations asked of the memo
    double outside_ms = 0;  // round trip minus time inside the stages
  };
  std::vector<ClientLog> logs(kClients);
  std::size_t warmup_failed = 0;

  // Clients claim the next request of the shared sequence.  Deck 0 warms
  // the memos untimed, as a long-lived daemon's are; the timed region then
  // runs whole decks until the time is up and kMinRequests were sent.
  std::mutex seq_mu;
  std::vector<Request> seq;
  std::size_t next = 0;
  bool closed = false;
  bool timed = false;
  std::int64_t t0 = 0;
  auto claim = [&](std::size_t& n) -> bool {
    const std::lock_guard lock(seq_mu);
    if (!closed && next % kDeck == 0) {
      const std::size_t sent = next - (timed ? kDeck : 0);
      if (!timed) {
        closed = next >= kDeck;
      } else if (opt.units > 0) {
        closed = sent >= static_cast<std::size_t>(opt.units);
      } else {
        closed = sent >= kMinRequests && seconds_between(t0, now_ns()) >= opt.seconds;
      }
      if (!closed) {
        const std::vector<Request> d = deck(opt.seed, next / kDeck, blocks.size());
        seq.insert(seq.end(), d.begin(), d.end());
      }
    }
    if (closed) return false;
    n = next++;
    return true;
  };
  auto client = [&](int c) {
    ClientLog scratch;
    ClientLog& log = timed ? logs[static_cast<std::size_t>(c)] : scratch;
    for (std::size_t n = 0; claim(n);) {
      Request req;
      {
        const std::lock_guard lock(seq_mu);
        req = seq[n];
      }
      const auto [kind, bi] = req;
      const driver::Block& b = blocks[bi];
      const std::string body = to_string(kind) + headers[bi] + b.gen.assembly;
      const std::int64_t r0 = now_ns();
      std::string reply;
      try {
        const Scope s("server.request", support::format("r%zu", n));
        reply = server::request(so.socket_path, body);
      } catch (const std::exception& e) {
        reply = e.what();
      }
      const double rtt = seconds_between(r0, now_ns()) * 1e3;
      const Reply r = check_reply(reply, kind, b, golden);
      log.rtt_ms.push_back(rtt);
      log.block.push_back(bi);
      if (!r.ok) {
        ++log.failed;
        std::fprintf(stderr, "daemon: bad %s reply for %s: %.200s\n",
                     to_string(kind), b.variant.label().c_str(), reply.c_str());
      }
      if (!r.coalesced) log.slots += kind == Kind::Analyze ? 3 : kind == Kind::Ecm ? 4 : 0;
      log.outside_ms += rtt - static_cast<double>(r.stage_ns) * 1e-6;
    }
    if (!timed) {
      const std::lock_guard lock(seq_mu);
      warmup_failed += log.failed;
    }
  };
  auto serve = [&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  };
  serve();  // warm-up deck
  out.sizes["warmup_requests"] = static_cast<double>(kDeck);

  // Transport baseline for the traced split of time outside the stages.
  double ping_ms = 0;
  const bool traced = Tracer::active() != nullptr;
  if (traced) {
    std::vector<double> pings;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t p0 = now_ns();
      (void)server::request(so.socket_path, "ping");
      pings.push_back(seconds_between(p0, now_ns()) * 1e3);
    }
    std::nth_element(pings.begin(), pings.begin() + 100, pings.end());
    ping_ms = pings[100];
    out.setup_counters = Tracer::active()->counters();
    out.first_timed_span = static_cast<int>(Tracer::active()->spans().size());
  }

  const server::ServiceStats st0 = srv.context().core().stats();
  closed = false;
  timed = true;
  t0 = now_ns();
  const double c0 = cpu_seconds();
  serve();
  const double wall = seconds_between(t0, now_ns());
  const double cpu = cpu_seconds() - c0;
  const server::ServiceStats st = srv.context().core().stats();
  srv.stop();

  std::size_t requests = 0;
  std::size_t slots = 0;
  double outside_ms = 0;
  for (const ClientLog& log : logs) {
    requests += log.rtt_ms.size();
    out.failed += log.failed;
    slots += log.slots;
    outside_ms += log.outside_ms;
    out.latencies_ms.insert(out.latencies_ms.end(), log.rtt_ms.begin(),
                            log.rtt_ms.end());
  }
  out.attempted = requests + kDeck;
  out.failed += warmup_failed;
  out.timed_wall_s = wall;
  const double per_k = 1000.0 / static_cast<double>(std::max<std::size_t>(requests, 1));
  out.passes.push_back({wall, cpu * per_k, requests, requests});
  out.sizes["requests"] = static_cast<double>(requests);

  out.layer_divisor = static_cast<double>(requests) / 1000.0;
  for (std::size_t i = 0; i < st.stages.size(); ++i) {
    const server::StageStats& s = st.stages[i];
    out.layers["server." + s.stage + ".busy_s"] =
        static_cast<double>(s.total_ns - st0.stages[i].total_ns) * 1e-9 * per_k;
    out.layers["server.max_queue_depth"] =
        std::max(out.layers["server.max_queue_depth"],
                 static_cast<double>(s.max_queue_depth));
  }
  const double transport_ms = std::min(outside_ms, ping_ms * static_cast<double>(requests));
  out.layers["server.transport_s"] = transport_ms * 1e-3 * per_k;
  out.layers["server.queue_wait_s"] = (outside_ms - transport_ms) * 1e-3 * per_k;
  out.layers["server.memo_hit_ratio"] =
      slots > 0 ? static_cast<double>(st.memo_hits - st0.memo_hits) / static_cast<double>(slots)
                : 0;
  out.layers["server.memo_evicted"] =
      static_cast<double>(st.memo_evicted - st0.memo_evicted) * per_k;
  out.layers["server.coalesced"] = static_cast<double>(st.coalesced - st0.coalesced) * per_k;

  if (traced) {
    const RootScope s("probe", "requests");
    for (const ClientLog& log : logs) {
      for (std::size_t bi : log.block) {
        probe_block(blocks[bi].gen.assembly, *blocks[bi].mm, blocks[bi].hash);
      }
    }
  }
  return out;
}

}  // namespace

Outcome run_workload(const Options& opt, std::int64_t t_entry_ns) {
  if (opt.workload == "matrix") return run_sweep_workload(opt, false, t_entry_ns);
  if (opt.workload == "memory") return run_sweep_workload(opt, true, t_entry_ns);
  if (opt.workload == "gates") return run_gates(opt, t_entry_ns);
  if (opt.workload == "daemon") return run_daemon(opt, t_entry_ns);
  throw std::runtime_error("unknown workload '" + opt.workload +
                           "' (known: matrix memory gates daemon)");
}

std::vector<std::string> gates_sample(std::uint64_t seed, int pass) {
  std::vector<std::string> out;
  for (const kernels::Variant& v : draw_gates(seed, pass)) out.push_back(v.label());
  return out;
}

std::vector<std::string> daemon_requests(std::uint64_t seed, std::size_t n) {
  const std::vector<driver::Block> blocks = corpus_blocks(nullptr);
  std::vector<std::string> out;
  for (std::size_t k = 0; out.size() < n; ++k) {
    for (const auto& [kind, bi] : deck(seed, k, blocks.size())) {
      if (out.size() == n) break;
      out.push_back(std::string(to_string(kind)) + " " +
                    uarch::cpu_short_name(blocks[bi].mm->micro()) + " " +
                    blocks[bi].hash);
    }
  }
  return out;
}

void write_golden(const std::string& dir) {
  std::vector<kernels::Variant> matrix = kernels::test_matrix();
  const driver::SweepResult m = driver::sweep(driver::SweepOptions{});
  PredictorSet mem;
  mem.add(driver::make_predictor(driver::Model::InCore), "analysis.analyze");
  for (int n : {1, 2, 4, 8}) {
    mem.add(std::make_unique<driver::EcmPredictor>(driver::EcmPredictor::multicore(n)),
            "ecm.predict");
  }
  const driver::SweepResult r = driver::sweep(matrix, mem.ptrs, 1, {}, {}, traffic_hook);
  std::ofstream d(dir + "/digests.txt");
  d << "matrix " << csv_digest(driver::to_csv(m)) << "\n";
  d << "memory " << csv_digest(driver::to_csv(r)) << "\n";
  std::map<std::string, std::string> lines;
  for (const driver::SweepRow& row : m.rows) {
    const driver::Block& b = m.blocks[row.block_index];
    std::string line = b.hash;
    for (const driver::Prediction& p : row.predictions) {
      line += support::format("\t%.6g", p.cycles_per_iteration);
    }
    lines[b.hash] = line;
  }
  std::ofstream b(dir + "/blocks.tsv");
  for (const auto& [hash, line] : lines) b << line << "\n";
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "kernels.generate_s",     "kernels.blocks",
      "asmir.parse_s",          "asmir.instructions",
      "dataflow.analyze_s",     "analysis.analyze_s",
      "mca.simulate_s",         "exec.run_s",
      "traffic.analyze_s",      "traffic.analyze_calls",
      "ecm.predict_s",          "traffic.crosscheck_s",
      "ecm.crosscheck_s",       "traffic.replay_iterations",
      "audit.audit_block_s",    "equiv.check_s",
      "equiv.memo_hits",        "equiv.memo_misses",
      "driver.sweep_s",         "driver.evaluations",
      "driver.dedup_hits",      "server.parse.busy_s",
      "server.dataflow.busy_s", "server.evaluate.busy_s",
      "server.finalize.busy_s", "server.queue_wait_s",
      "server.transport_s",     "server.memo_hit_ratio",
      "server.memo_evicted",    "server.coalesced",
      "server.max_queue_depth",
  };
  return names;
}

}  // namespace perfbench
