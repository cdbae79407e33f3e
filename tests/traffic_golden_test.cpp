// Golden pins of the traffic engine on the corpus: the static engine's
// full output, and the replay counters its cross-check compares it with.
// Every field of traffic::Result -- stream classification, per-iteration
// line rates, bands with their reuse levels and gaps, and the per-level
// volumes -- is rendered with hexfloat doubles and hashed per unique
// (machine, assembly) block.  The hashes in golden/traffic_results.tsv are
// bit-exact: any change of any rate in the last ulp fails the test.
//
// On mismatch a test writes the current hashes to
// traffic_results.actual.tsv (replay_counters.actual.tsv) in its working
// directory; if the change is intentional, copy that file over the golden
// and say why in the commit.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/dataflow.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/crosscheck.hpp"
#include "kernels/kernels.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "traffic/crosscheck.hpp"
#include "traffic/layout.hpp"
#include "traffic/traffic.hpp"

using namespace incore;
using support::format;

namespace {

std::string hexfloat(double d) { return format("%a", d); }

/// Every field of the result, one token per value, doubles as hexfloat.
std::string dump(const traffic::Result& r) {
  std::string out;
  for (const traffic::Stream& s : r.streams) {
    out += format("stream %s %s %u %u %d %d %d %s %d %lld\n",
                  traffic::to_string(s.kind), traffic::to_string(s.pattern),
                  s.base_root, s.index_root, s.base_epoch, s.index_epoch,
                  s.scale,
                  s.stride_bytes ? format("%lld", *s.stride_bytes).c_str()
                                 : "none",
                  s.width_bits, s.span_bytes);
    out += " accesses";
    for (int a : s.accesses) out += format(" %d", a);
    out += format("\n rates %s %s %s %s %s\n",
                  hexfloat(s.lines_per_iter).c_str(),
                  hexfloat(s.load_first_lines).c_str(),
                  hexfloat(s.store_first_lines).c_str(),
                  hexfloat(s.dirty_lines).c_str(),
                  hexfloat(s.nt_store_line_ops).c_str());
    for (const traffic::Band& b : s.bands) {
      out += format(" band %lld %lld %s %d %d %s %s\n", b.lo, b.hi,
                    hexfloat(b.lines_per_iter).c_str(), b.has_store ? 1 : 0,
                    b.leading ? 1 : 0, hexfloat(b.gap_iterations).c_str(),
                    traffic::to_string(b.reuse));
    }
  }
  const traffic::Volumes& v = r.volumes;
  for (double d : {v.l1_miss, v.l1_evict, v.l2_hit, v.l2_evict, v.l3_hit,
                   v.mem_read, v.mem_write, v.claimed}) {
    out += hexfloat(d) + " ";
  }
  out += format("\nexact %d unbounded %d hw_streams %d\n", r.exact ? 1 : 0,
                r.unbounded_streams, r.hw_stream_count);
  return out;
}

std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string label;
  std::string hash;
  while (in >> label >> hash) golden[label] = hash;
  return golden;
}

TEST(TrafficGolden, CorpusResultsAreBitIdentical) {
  const std::map<std::string, std::string> golden =
      read_golden(INCORE_TRAFFIC_GOLDEN);
  ASSERT_FALSE(golden.empty()) << "missing golden " << INCORE_TRAFFIC_GOLDEN;

  std::ostringstream actual;
  std::size_t blocks = 0;
  std::size_t mismatches = 0;
  for (const driver::Block& b :
       driver::dedup_blocks(kernels::test_matrix()).blocks) {
    const kernels::Variant& v = b.variant;
    ++blocks;
    const std::string text = dump(traffic::analyze(b.gen.program, *b.mm));
    const std::string hash = support::hex64(support::fnv1a64(text));
    actual << v.label() << '\t' << hash << '\n';
    const auto it = golden.find(v.label());
    if (it == golden.end() || it->second != hash) {
      ++mismatches;
      ADD_FAILURE() << v.label() << ": traffic result hash " << hash
                    << " differs from the golden\n"
                    << text;
    }
  }
  EXPECT_EQ(blocks, golden.size());
  if (mismatches > 0 || blocks != golden.size()) {
    std::ofstream("traffic_results.actual.tsv") << actual.str();
  }
}

/// The counters of the VP011 window and of the VP014 window, replayed on
/// the machine's real cache geometry, with the layout facts that decide
/// them.
std::string dump_replays(const asmir::Program& prog,
                         const uarch::MachineModel& mm) {
  const traffic::Result r = traffic::analyze(prog, mm);
  const dataflow::Analysis df = dataflow::analyze(prog);
  std::string out;
  for (const long long window :
       {traffic::CrosscheckOptions{}.measure_iterations,
        ecm::ScalingOptions{}.measure_iterations}) {
    const traffic::SyntheticLayout layout = traffic::synthesize_layout(
        r, df, prog, mm, window, traffic::kMaxReplayIterations);
    if (!layout.ok) return out + "no layout\n";
    const traffic::ReplayCounters d = traffic::replay(layout, mm);
    out += format("window %lld warmup %lld capped %d:", window,
                  layout.warmup_iterations, layout.capped ? 1 : 0);
    for (const std::uint64_t n : {d.l1_miss, d.l1_evict, d.l2_hit, d.l2_evict,
                                  d.l3_hit, d.mem_read, d.mem_write,
                                  d.claimed}) {
      out += format(" %llu", static_cast<unsigned long long>(n));
    }
    out += '\n';
  }
  return out;
}

// Golden pin of the replay the corpus gates meter: every counter of each
// block's VP011 window and of its VP014 window, on the machine's own
// caches, hashed per unique block into golden/replay_counters.tsv.  A
// change of the cache simulator or of the replay loop that moves any
// counter by one fails here.  Blocks are spread over four threads, each
// replaying a block's two windows in turn (the second is served from the
// first's run, as in the gates).
TEST(TrafficGolden, ReplayCountersAreBitIdentical) {
  const std::map<std::string, std::string> golden =
      read_golden(INCORE_REPLAY_GOLDEN);
  ASSERT_FALSE(golden.empty()) << "missing golden " << INCORE_REPLAY_GOLDEN;

  const std::vector<driver::Block> blocks =
      driver::dedup_blocks(kernels::test_matrix()).blocks;
  std::vector<std::string> texts(blocks.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < blocks.size(); i = next++) {
        texts[i] = dump_replays(blocks[i].gen.program, *blocks[i].mm);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::ostringstream actual;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::string label = blocks[i].variant.label();
    const std::string hash = support::hex64(support::fnv1a64(texts[i]));
    actual << label << '\t' << hash << '\n';
    const auto it = golden.find(label);
    if (it == golden.end() || it->second != hash) {
      ++mismatches;
      ADD_FAILURE() << label << ": replay counter hash " << hash
                    << " differs from the golden\n"
                    << texts[i];
    }
  }
  EXPECT_EQ(blocks.size(), golden.size());
  if (mismatches > 0 || blocks.size() != golden.size()) {
    std::ofstream("replay_counters.actual.tsv") << actual.str();
  }
}

}  // namespace
