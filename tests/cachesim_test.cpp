// Tests for the trace-driven cache hierarchy: LRU/set mechanics, exclusive
// fill/evict cascading, claim detection, and cross-validation against the
// analytic traffic model.

#include <gtest/gtest.h>

#include <set>

#include "memsim/cachesim.hpp"
#include "probing_hierarchy.hpp"
#include "support/rng.hpp"

using namespace incore;
using memsim::CacheConfig;
using memsim::CacheHierarchy;
using memsim::CacheLevel;
using memsim::ClaimDetector;
using memsim::StoreKind;
using memsim::WaMechanism;
using uarch::Micro;

TEST(CacheLevel, HitAfterInsert) {
  CacheLevel c(CacheConfig{1024, 4, 64});
  EXPECT_FALSE(c.probe(7, false));
  c.insert(7, false, nullptr);
  EXPECT_TRUE(c.probe(7, false));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheLevel, LruEvictsOldest) {
  // 4 ways, 4 sets (1 KiB / 64 B / 4 ways); fill one set past capacity.
  CacheLevel c(CacheConfig{1024, 4, 64});
  const std::uint64_t set_stride = c.sets();
  for (int i = 0; i < 4; ++i)
    c.insert(static_cast<std::uint64_t>(i) * set_stride, false, nullptr);
  // Touch line 0 so line 1*stride becomes LRU.
  EXPECT_TRUE(c.probe(0, false));
  CacheLevel::Evicted ev;
  c.insert(4 * set_stride, false, &ev);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, 1 * set_stride);
}

TEST(CacheLevel, DirtyBitTracked) {
  CacheLevel c(CacheConfig{1024, 4, 64});
  c.insert(3, true, nullptr);
  bool dirty = false;
  EXPECT_TRUE(c.take(3, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(c.take(3, &dirty));  // already gone
}

TEST(CacheLevel, TakeReturnsDirtyBitAndRemovesTheLine) {
  CacheLevel c(CacheConfig{1024, 4, 64});
  c.insert(5, true, nullptr);
  c.insert(9, false, nullptr);
  bool dirty = false;
  EXPECT_TRUE(c.take(5, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_TRUE(c.take(9, &dirty));
  EXPECT_FALSE(dirty);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_FALSE(c.take(5, &dirty));  // gone: one miss, nothing else
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.drain().empty());
}

// An entry packs its tag above the dirty and valid bits: tags past 2^32
// (a 64-bit byte address has 58 line bits) come back whole through an
// eviction and a drain, and a dirty bit never reads as a tag bit.
TEST(CacheLevel, PackedEntriesKeepWideTagsAndFlagsApart) {
  CacheLevel c(CacheConfig{1024, 4, 64});  // 4 sets
  const std::uint64_t sets = c.sets();
  const std::uint64_t tags[] = {1ull << 32, (1ull << 32) + 1,
                                (1ull << 56) + 7, (1ull << 58) / 4 - 1};
  auto line = [&](std::uint64_t tag) { return tag * sets + 3; };
  for (std::size_t i = 0; i < 4; ++i) {
    c.insert(line(tags[i]), i % 2 == 0, nullptr);
  }
  for (const std::uint64_t tag : tags) {
    EXPECT_TRUE(c.probe(line(tag), false)) << tag;
    // Neighbours in the bits a wrong shift would fold together miss.
    EXPECT_FALSE(c.probe(line(tag * 2), false)) << tag;
    EXPECT_FALSE(c.probe(line(tag ^ 2), false)) << tag;
  }
  // The probes refreshed tags[0] first, so it is the LRU victim.
  CacheLevel::Evicted ev;
  c.insert(line(5), false, &ev);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.line_addr, line(tags[0]));
  std::set<std::pair<std::uint64_t, bool>> drained;
  for (const CacheLevel::Evicted& e : c.drain()) {
    EXPECT_TRUE(e.valid);
    drained.insert({e.line_addr, e.dirty});
  }
  const std::set<std::pair<std::uint64_t, bool>> expected = {
      {line(tags[1]), false}, {line(tags[2]), true}, {line(tags[3]), false},
      {line(5), false}};
  EXPECT_EQ(drained, expected);
}

// SPR's L3 share has 2,205 sets, not a power of two.  Victims leave one
// set in the order of their last touch, whatever the other sets do, and a
// taken line's way is refilled before anything is evicted.
TEST(CacheLevel, LruVictimOrderOnNonPowerOfTwoSets) {
  const uarch::CacheParams& p = uarch::machine(Micro::GoldenCove).cache;
  CacheLevel c(CacheConfig{static_cast<std::size_t>(p.l3_bytes), p.l3_ways,
                           p.line_bytes});
  ASSERT_EQ(c.sets(), 2205u);
  const std::uint64_t sets = c.sets();
  const std::uint64_t set = 2204;
  const auto ways = static_cast<std::uint64_t>(c.ways());
  auto line = [&](std::uint64_t k) { return set + k * sets; };
  for (std::uint64_t k = 0; k < ways; ++k) {
    c.insert(line(k), k % 3 == 0, nullptr);
  }
  // Touch every line again in a scrambled order (7 is coprime to 15), with
  // traffic in the neighbouring sets in between.
  std::vector<std::uint64_t> order;
  for (std::uint64_t k = 0; k < ways; ++k) {
    order.push_back((7 * k + 4) % ways);
    EXPECT_TRUE(c.probe(line(order.back()), false));
    c.insert(set - 1 + (k + 1) * sets, false, nullptr);
    c.insert((k + 1) * sets, false, nullptr);
  }
  bool dirty = false;
  EXPECT_TRUE(c.take(line(order[3]), &dirty));
  CacheLevel::Evicted ev;
  c.insert(line(ways), false, &ev);
  EXPECT_FALSE(ev.valid);  // refilled the taken way
  for (std::uint64_t k = 0; k < ways; ++k) {
    if (k == 3) continue;
    c.insert(line(ways + 1 + k), false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, line(order[k])) << "victim " << k;
    EXPECT_EQ(ev.dirty, order[k] % 3 == 0) << "victim " << k;
  }
}

TEST(CacheLevel, DrainReturnsAllValidLines) {
  CacheLevel c(CacheConfig{1024, 4, 64});
  c.insert(1, true, nullptr);
  c.insert(2, false, nullptr);
  auto drained = c.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_FALSE(c.probe(1, false));
}

TEST(ClaimDetector, WarmupThenClaims) {
  ClaimDetector d(2);
  EXPECT_FALSE(d.should_claim(100));  // run 0
  EXPECT_FALSE(d.should_claim(101));  // run 1
  EXPECT_TRUE(d.should_claim(102));   // run 2 >= warmup
  EXPECT_TRUE(d.should_claim(103));
}

TEST(ClaimDetector, NonSequentialResets) {
  ClaimDetector d(2);
  (void)d.should_claim(100);
  (void)d.should_claim(101);
  EXPECT_TRUE(d.should_claim(102));
  EXPECT_FALSE(d.should_claim(500));  // stream break
  EXPECT_FALSE(d.should_claim(501));
  EXPECT_TRUE(d.should_claim(502));
}

TEST(ClaimDetector, PageBoundaryResets) {
  ClaimDetector d(2);
  // Lines 62, 63 warm up; line 64 starts a new 4 KiB page -> reset.
  (void)d.should_claim(62);
  (void)d.should_claim(63);
  EXPECT_FALSE(d.should_claim(64));
}

TEST(CacheHierarchy, SmallWorkingSetStaysInL1) {
  auto h = CacheHierarchy::for_model(uarch::machine(Micro::Zen4));
  for (int rep = 0; rep < 4; ++rep) {
    for (std::uint64_t a = 0; a < 16 * 1024; a += 64) h.load(a);
  }
  // First sweep misses; the remaining three hit in L1.
  EXPECT_EQ(h.memory().lines_read, 16u * 1024 / 64);
  h.drain();
  EXPECT_EQ(h.memory().lines_written, 0u);  // loads never dirty lines
}

TEST(CacheHierarchy, ExclusiveFillPromotesFromL2) {
  auto h = CacheHierarchy::for_model(uarch::machine(Micro::Zen4));
  // Stream larger than L1 (32 KiB) but well within L2 (1 MiB).
  const std::uint64_t kBytes = 256 * 1024;
  for (std::uint64_t a = 0; a < kBytes; a += 64) h.load(a);
  std::uint64_t first_pass_reads = h.memory().lines_read;
  for (std::uint64_t a = 0; a < kBytes; a += 64) h.load(a);
  // Second pass is served from L2 (promotions), not memory.
  EXPECT_EQ(h.memory().lines_read, first_pass_reads);
}

TEST(CacheHierarchy, StoreStreamGenoaPaysWriteAllocate) {
  auto h = CacheHierarchy::for_model(uarch::machine(Micro::Zen4));
  double ratio = h.store_stream_ratio(1 << 20, 8 * 1024 * 1024,
                                      StoreKind::Standard);
  EXPECT_NEAR(ratio, 2.0, 0.02);
}

TEST(CacheHierarchy, StoreStreamGraceClaims) {
  auto h = CacheHierarchy::for_model(uarch::machine(Micro::NeoverseV2));
  double ratio = h.store_stream_ratio(1 << 20, 8 * 1024 * 1024,
                                      StoreKind::Standard);
  // Analytic model: 1 + warmup/page = 1 + 2/64.
  EXPECT_NEAR(ratio, 1.0 + 2.0 / 64.0, 0.02);
}

TEST(CacheHierarchy, NonTemporalBypassesEverywhere) {
  for (Micro m : uarch::all_micros()) {
    auto h = CacheHierarchy::for_model(uarch::machine(m));
    double ratio = h.store_stream_ratio(1 << 20, 4 * 1024 * 1024,
                                        StoreKind::NonTemporal);
    EXPECT_NEAR(ratio, 1.0, 1e-9);
    EXPECT_EQ(h.memory().lines_read, 0u);
  }
}

TEST(CacheHierarchy, TraceMatchesAnalyticModelSingleCore) {
  // Cross-validation: the trace-level ratio equals the analytic model's
  // single-core prediction on Grace and Genoa (SPR's SpecI2M is bandwidth-
  // gated and analytic-only; a single core below threshold behaves like
  // "no evasion", which the trace model reproduces too).
  struct Case { Micro m; };
  for (Micro m : {Micro::NeoverseV2, Micro::Zen4, Micro::GoldenCove}) {
    auto h = CacheHierarchy::for_model(uarch::machine(m));
    double trace = h.store_stream_ratio(0, 16 * 1024 * 1024,
                                        StoreKind::Standard);
    memsim::System sys(memsim::preset(m));
    double analytic =
        sys.run_store_benchmark(1, 16.0 * 1024 * 1024, StoreKind::Standard)
            .ratio();
    EXPECT_NEAR(trace, analytic, 0.05) << uarch::cpu_short_name(m);
  }
}

TEST(CacheHierarchy, TrafficConservation) {
  auto h = CacheHierarchy::for_model(uarch::machine(Micro::GoldenCove));
  const std::uint64_t kLines = 4096;
  for (std::uint64_t i = 0; i < kLines; ++i)
    h.store(i * 64, StoreKind::Standard);
  h.drain();
  // Every stored line eventually reaches memory exactly once.
  EXPECT_EQ(h.memory().lines_written, kLines);
  EXPECT_EQ(h.stored_lines(), kLines);
}

// The hierarchy answers a re-access of its L1 set's most recently used
// line without a probe, and an access the caller marks cold with a miss
// at each level.  Random load, store and non-temporal traffic with heavy
// reuse over tiny caches (a 3-set L1, 5-set L3), drained now and then,
// must leave every counter -- L1 hits included -- where
// test::ProbingHierarchy, which probes every level on every access,
// leaves it; and both rules must fire.
TEST(CacheHierarchy, SkipRulesMatchProbingReference) {
  const CacheConfig l1{3 * 2 * 64, 2, 64};
  const CacheConfig l2{4 * 4 * 64, 4, 64};
  const CacheConfig l3{5 * 4 * 64, 4, 64};
  support::Rng rng(0xc0ffeeull);
  for (const WaMechanism wa : {WaMechanism::None, WaMechanism::AutomaticClaim}) {
    CacheHierarchy h(l1, l2, l3, wa);
    test::ProbingHierarchy ref(l1, l2, l3, wa, 2);
    std::set<std::uint64_t> touched;
    std::uint64_t cold = 0;
    std::uint64_t line = 100;
    for (int step = 0; step < 200000; ++step) {
      if (step % 50000 == 49999) {
        h.drain();
        ref.drain();
        touched.clear();  // a drained line is resident nowhere
      }
      // Mostly the same or the next line, sometimes a jump: long runs of
      // MRU re-hits, sequential store runs the claim detector takes, and
      // reuse at every level.
      const std::uint64_t r = rng.below(16);
      if (r >= 12) line = 100 + rng.below(r == 15 ? 4000 : 60);
      if (r >= 8 && r < 12) ++line;
      const std::uint64_t addr = line * 64 + rng.below(64);
      const std::uint64_t kind = rng.below(8);
      if (kind == 7) {
        h.store(addr, StoreKind::NonTemporal);
        ref.store(addr, StoreKind::NonTemporal);
        continue;
      }
      const bool is_cold = touched.insert(line).second;
      cold += is_cold ? 1 : 0;
      if (kind < 4) {
        h.load_line(line, is_cold);
        ref.load(addr);
      } else {
        h.store_line(line, StoreKind::Standard, is_cold);
        ref.store(addr, StoreKind::Standard);
      }
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(h.level(i).stats().hits, ref.level(i).stats().hits) << i;
      EXPECT_EQ(h.level(i).stats().misses, ref.level(i).stats().misses) << i;
      EXPECT_EQ(h.level(i).stats().evictions, ref.level(i).stats().evictions)
          << i;
    }
    EXPECT_EQ(h.memory().lines_read, ref.memory().lines_read);
    EXPECT_EQ(h.memory().lines_written, ref.memory().lines_written);
    EXPECT_EQ(h.stored_lines(), ref.stored_lines());
    EXPECT_EQ(h.claimed_lines(), ref.claimed_lines());
    EXPECT_GT(h.mru_hits(), 20000u);
    EXPECT_GT(cold, 2000u);
    if (wa == WaMechanism::AutomaticClaim) {
      EXPECT_GT(h.claimed_lines(), 0u);
    }
  }
}

// ------------------------------------------------------- multi-core trace

#include "memsim/multicore.hpp"

TEST(MultiCoreTrace, MatchesAnalyticAcrossCoreCounts) {
  for (Micro m : uarch::all_micros()) {
    auto cfg = memsim::preset(m);
    memsim::System analytic(cfg);
    for (int cores : {1, 4, 8, 13, 26}) {
      if (cores > cfg.cores) continue;
      for (auto kind : {StoreKind::Standard, StoreKind::NonTemporal}) {
        auto trace = memsim::simulate_store_benchmark_trace(cfg, cores,
                                                            20000, kind);
        double bytes = trace.traffic.bytes_stored;
        auto closed = analytic.run_store_benchmark(cores, bytes, kind);
        EXPECT_NEAR(trace.traffic.ratio(), closed.ratio(), 0.01)
            << uarch::cpu_short_name(m) << " cores=" << cores;
      }
    }
  }
}

TEST(MultiCoreTrace, SprConversionRealizedExactly) {
  auto cfg = memsim::preset(Micro::GoldenCove);
  auto trace = memsim::simulate_store_benchmark_trace(
      cfg, 13, 50000, StoreKind::Standard);
  memsim::System analytic(cfg);
  auto dr = analytic.solve_domain(13, StoreKind::Standard);
  EXPECT_NEAR(trace.conversion, dr.conversion, 1e-3);
  EXPECT_GT(trace.conversion, 0.2);  // near the 25% cap at full domain
}

TEST(MultiCoreTrace, TrafficConservationManyCores) {
  auto cfg = memsim::preset(Micro::Zen4);
  auto t = memsim::simulate_store_benchmark_trace(cfg, 32, 10000,
                                                  StoreKind::Standard);
  EXPECT_DOUBLE_EQ(t.traffic.bytes_written_mem, t.traffic.bytes_stored);
  EXPECT_DOUBLE_EQ(t.traffic.bytes_read_mem, t.traffic.bytes_stored);
}

TEST(MultiCoreTrace, ZeroCores) {
  auto cfg = memsim::preset(Micro::Zen4);
  auto t = memsim::simulate_store_benchmark_trace(cfg, 0, 1000,
                                                  StoreKind::Standard);
  EXPECT_EQ(t.traffic.bytes_stored, 0.0);
}
