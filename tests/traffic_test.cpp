// Static memory-traffic engine tests: golden stream-extraction fixtures on
// all three parser frontends (AArch64, x86 AT&T, x86 Intel), analytic
// volume checks against hand-derived rates, a differential test of the
// closed-form line rates against a brute-force replay oracle on generated
// loop bodies, the VT lint family, and the trace-simulator
// cross-validation -- including the explicitly attributed corpus
// exceptions (the SPR jacobi-3d layer-condition boundary, the Genoa
// jacobi-3d-27pt associativity conflict), the symbolic-stride skip path
// and the warmup cap -- a differential test of the replay warmup sizing
// on generated loop bodies, and the exactness of VP014 reading its window
// from VP011's replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asmir/parser.hpp"
#include "dataflow/dataflow.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/crosscheck.hpp"
#include "kernels/kernels.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "traffic/crosscheck.hpp"
#include "traffic/layout.hpp"
#include "traffic/lints.hpp"
#include "traffic/traffic.hpp"
#include "uarch/model.hpp"
#include "verify/diagnostics.hpp"

#include "probing_hierarchy.hpp"
#include "random_bodies.hpp"

using namespace incore;
using asmir::Isa;
using traffic::Pattern;
using traffic::StreamKind;

namespace {

// Analyses keep pointers into the program; park parsed programs in stable
// storage so fixtures stay valid (same idiom as dataflow_test).
asmir::Program& keep(asmir::Program p) {
  static std::deque<asmir::Program> store;
  store.push_back(std::move(p));
  return store.back();
}

traffic::Result analyze(const char* text, Isa isa, const uarch::MachineModel& mm) {
  return traffic::analyze(keep(asmir::parse(text, isa)), mm);
}

/// Matrix block whose label matches exactly (e.g.
/// "jacobi-3d-27pt-gcc-O1-Genoa").
driver::Block block_labeled(const std::string& label) {
  for (const kernels::Variant& v : kernels::test_matrix()) {
    if (v.label() == label) return driver::make_block(v);
  }
  ADD_FAILURE() << "no matrix variant labeled " << label;
  return driver::make_block(kernels::test_matrix().front());
}

// ------------------------------------------------------------------ golden
// fixture 1: Gauss-Seidel-like sweep, AArch64.  One base register carries
// loads at +-8 and the store at 0: a single read-modify-write stream with
// one merged band, 1/8 line per iteration, every line dirtied.

constexpr const char* kGaussSeidelA64 = R"(
  ldr d0, [x1, #-8]
  ldr d1, [x1, #8]
  fadd d2, d0, d1
  fmul d2, d2, d31
  str d2, [x1]
  add x1, x1, #8
)";

TEST(TrafficStreams, GaussSeidelAArch64) {
  const auto& mm = uarch::machine(uarch::Micro::NeoverseV2);
  const traffic::Result r = analyze(kGaussSeidelA64, Isa::AArch64, mm);
  ASSERT_EQ(r.streams.size(), 1u);
  const traffic::Stream& s = r.streams[0];
  EXPECT_EQ(s.kind, StreamKind::ReadModifyWrite);
  EXPECT_EQ(s.pattern, Pattern::UnitStride);
  ASSERT_TRUE(s.stride_bytes.has_value());
  EXPECT_EQ(*s.stride_bytes, 8);
  EXPECT_EQ(s.accesses.size(), 3u);
  ASSERT_EQ(s.bands.size(), 1u);
  EXPECT_TRUE(s.bands[0].leading);
  EXPECT_NEAR(s.lines_per_iter, 1.0 / 8.0, 1e-9);
  // The first touch of every line is the +8 load, so nothing store-first;
  // every line is eventually dirtied by the store.
  EXPECT_NEAR(s.store_first_lines, 0.0, 1e-9);
  EXPECT_NEAR(s.dirty_lines, 1.0 / 8.0, 1e-9);
  EXPECT_TRUE(r.exact);
  // Volumes: one stream streaming through all levels, written back once.
  EXPECT_NEAR(r.volumes.l1_miss, 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(r.volumes.mem_read, 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(r.volumes.mem_write, 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(r.volumes.l2_hit, 0.0, 1e-9);
}

// ------------------------------------------------------------------ golden
// fixture 2: triad-like kernel, x86 AT&T syntax, indexed addressing.
// Three streams (two loads, one store) at stride 32, each half a line per
// iteration.

constexpr const char* kTriadAtt = R"(
  vmovupd (%rbx,%rcx,8), %ymm0
  vmovupd (%rdx,%rcx,8), %ymm2
  vaddpd %ymm2, %ymm0, %ymm0
  vmovupd %ymm0, (%rax,%rcx,8)
  addq $4, %rcx
)";

TEST(TrafficStreams, TriadX86Att) {
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  const traffic::Result r = analyze(kTriadAtt, Isa::X86_64, mm);
  ASSERT_EQ(r.streams.size(), 3u);
  int loads = 0;
  int stores = 0;
  for (const traffic::Stream& s : r.streams) {
    EXPECT_EQ(s.pattern, Pattern::UnitStride);
    ASSERT_TRUE(s.stride_bytes.has_value());
    EXPECT_EQ(*s.stride_bytes, 32);
    EXPECT_EQ(s.width_bits, 256);
    EXPECT_NEAR(s.lines_per_iter, 0.5, 1e-9);
    loads += s.kind == StreamKind::Load;
    stores += s.kind == StreamKind::Store;
  }
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(stores, 1);
  EXPECT_NEAR(r.volumes.l1_miss, 1.5, 1e-9);
  EXPECT_NEAR(r.volumes.mem_read, 1.5, 1e-9);  // write-allocate included
  EXPECT_NEAR(r.volumes.mem_write, 0.5, 1e-9);
  // ECM handoff: every boundary moves the full read+write volume here
  // (no layer condition holds for a streaming triad).
  const ecm::BoundaryTraffic t = ecm::boundary_traffic(r.volumes);
  EXPECT_NEAR(t.lines_l3mem, 2.0, 1e-9);  // 1.5 read + 0.5 write
  EXPECT_GE(t.lines_l2l3, t.lines_l3mem - 1e-9);
  EXPECT_GE(t.lines_l1l2, 1.5 - 1e-9);
}

// ------------------------------------------------------------------ golden
// fixture 3: pointer chase, x86 Intel syntax.  The base register is
// redefined from its own load: the stride is symbolic and the stream's
// traffic unbounded (VT008).

constexpr const char* kChaseIntel = R"(
  mov rax, qword ptr [rax]
  add rbx, 1
)";

TEST(TrafficStreams, PointerChaseX86Intel) {
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  const traffic::Result r = analyze(kChaseIntel, Isa::X86_64, mm);
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.streams[0].kind, StreamKind::Load);
  EXPECT_EQ(r.streams[0].pattern, Pattern::Symbolic);
  EXPECT_FALSE(r.streams[0].stride_bytes.has_value());
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.unbounded_streams, 1);

  verify::DiagnosticSink sink;
  traffic::lint_traffic(keep(asmir::parse(kChaseIntel, Isa::X86_64)), mm,
                        "chase", sink);
  bool vt008 = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    vt008 |= d.code == "VT008";
  }
  EXPECT_TRUE(vt008);
}

// ------------------------------------------------------- differential test
// Reference oracle for the closed-form line rates, by brute force and
// without any iteration cap: replay 3 x margin iterations of a stream's
// byte footprint through a map of lines and classify the lines first
// touched in the middle third; decide contiguity by sorting the byte
// intervals of a window long enough to show an interior hole.

struct OracleMember {
  long long lo = 0;
  long long width = 1;
  bool is_load = false;
  bool is_store = false;
  bool nontemporal = false;
};

struct OracleRates {
  double lines = 0;
  double load_first = 0;
  double store_first = 0;
  double dirty = 0;
  double nt_line_ops = 0;
};

constexpr long long kLine = 64;

long long floor_div(long long a, long long b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// A whole number of line-coverage periods beyond the footprint's span.
long long replay_margin(long long span, long long stride) {
  const long long as = std::llabs(stride);
  const long long period = kLine / std::gcd(as, kLine);
  return (span / as + 1 + period + 8 + period - 1) / period * period;
}

OracleRates replay_rates(const std::vector<OracleMember>& members,
                         long long stride, long long margin) {
  struct LineState {
    bool store_first = false;
    bool dirty = false;
    bool in_window = false;
  };
  std::unordered_map<long long, LineState> lines;
  long long new_lines = 0;
  long long store_first = 0;
  long long dirty = 0;
  long long nt_ops = 0;
  for (long long i = 0; i < 3 * margin; ++i) {
    const bool in_window = i >= margin && i < 2 * margin;
    for (const OracleMember& m : members) {
      const long long lo = m.lo + i * stride;
      const long long l0 = floor_div(lo, kLine);
      const long long l1 = floor_div(lo + m.width - 1, kLine);
      if (m.nontemporal) {
        if (in_window) nt_ops += l1 - l0 + 1;
        continue;
      }
      for (long long l = l0; l <= l1; ++l) {
        auto [it, fresh] = lines.try_emplace(l);
        LineState& st = it->second;
        if (fresh) {
          st.store_first = m.is_store && !m.is_load;
          st.in_window = in_window;
          if (in_window) {
            ++new_lines;
            if (st.store_first) ++store_first;
          }
        }
        if (m.is_store && !st.dirty) {
          st.dirty = true;
          if (st.in_window) ++dirty;
        }
      }
    }
  }
  const double denom = static_cast<double>(margin);
  OracleRates r;
  r.lines = static_cast<double>(new_lines) / denom;
  r.store_first = static_cast<double>(store_first) / denom;
  r.load_first = r.lines - r.store_first;
  r.dirty = static_cast<double>(dirty) / denom;
  r.nt_line_ops = static_cast<double>(nt_ops) / denom;
  return r;
}

bool covers_contiguously(const std::vector<OracleMember>& members,
                         long long stride, long long span) {
  const long long as = std::llabs(stride);
  const long long iters = 2 * (span / as + 1) + 16;
  std::vector<std::pair<long long, long long>> ivals;
  ivals.reserve(static_cast<std::size_t>(iters) * members.size());
  for (long long i = 0; i < iters; ++i) {
    for (const OracleMember& m : members) {
      const long long lo = m.lo + i * stride;
      ivals.emplace_back(lo, lo + m.width);
    }
  }
  std::sort(ivals.begin(), ivals.end());
  // Interior holes only: the ends of the window are ragged by construction.
  const long long guard = span + as;
  const long long lo_guard = ivals.front().first + guard;
  const long long hi_guard = ivals.back().second - guard;
  long long cursor = ivals.front().first;
  for (const auto& [lo, hi] : ivals) {
    if (lo > cursor && cursor >= lo_guard && lo <= hi_guard) return false;
    cursor = std::max(cursor, hi);
  }
  return true;
}

std::vector<OracleMember> oracle_members(const traffic::Stream& s,
                                         const dataflow::Analysis& df) {
  std::vector<OracleMember> members;
  for (int ai : s.accesses) {
    const dataflow::MemAccess& a = df.accesses[static_cast<std::size_t>(ai)];
    OracleMember m;
    m.lo = a.effective_displacement();
    m.width = std::max(a.width_bits / 8, 1);
    m.is_load = a.is_load;
    m.is_store = a.is_store;
    m.nontemporal =
        a.is_store && traffic::is_nontemporal_store(
                          df.prog->code[static_cast<std::size_t>(a.instr)]
                              .mnemonic,
                          df.prog->isa);
    members.push_back(m);
  }
  return members;
}

TEST(TrafficDifferential, ClosedFormMatchesReplayOracle) {
  support::Rng rng(0x7aff1cull);
  int streams = 0;
  int strided = 0;
  int multi_band = 0;
  int huge_span = 0;
  for (int body = 0; body < 320; ++body) {
    const std::string text = test::random_body(rng, body < 3);
    SCOPED_TRACE(text);
    const asmir::Program prog = asmir::parse(text, Isa::X86_64);
    const dataflow::Analysis df = dataflow::analyze(prog);
    for (const traffic::Stream& s : traffic::extract_streams(df)) {
      ASSERT_TRUE(s.stride_bytes.has_value());
      const long long stride = *s.stride_bytes;
      ASSERT_NE(stride, 0);
      const std::vector<OracleMember> members = oracle_members(s, df);
      const OracleRates want =
          replay_rates(members, stride, replay_margin(s.span_bytes, stride));
      EXPECT_EQ(s.lines_per_iter, want.lines);
      EXPECT_EQ(s.load_first_lines, want.load_first);
      EXPECT_EQ(s.store_first_lines, want.store_first);
      EXPECT_EQ(s.dirty_lines, want.dirty);
      EXPECT_EQ(s.nt_store_line_ops, want.nt_line_ops);
      for (const traffic::Band& b : s.bands) {
        if (b.leading) {
          EXPECT_EQ(b.lines_per_iter, want.lines);
          continue;
        }
        std::vector<OracleMember> band;
        for (const OracleMember& m : members) {
          if (m.lo >= b.lo && m.lo < b.hi) band.push_back(m);
        }
        EXPECT_EQ(b.lines_per_iter,
                  replay_rates(band, stride, replay_margin(b.hi - b.lo, stride))
                      .lines)
            << "band [" << b.lo << ", " << b.hi << ")";
      }
      EXPECT_EQ(s.pattern, covers_contiguously(members, stride, s.span_bytes)
                               ? Pattern::UnitStride
                               : Pattern::Strided);
      ++streams;
      strided += s.pattern == Pattern::Strided;
      multi_band += s.bands.size() > 1;
      huge_span += s.span_bytes > (8ll << 20);
    }
  }
  EXPECT_GE(streams, 300);
  EXPECT_GE(strided, 100);
  EXPECT_GE(streams - strided, 100);
  EXPECT_GE(multi_band, 100);
  EXPECT_EQ(huge_span, 3);
}

// ---------------------------------------------------------------- lints

TEST(TrafficLints, NonTemporalStoreDetection) {
  EXPECT_TRUE(traffic::is_nontemporal_store("movntdq", Isa::X86_64));
  EXPECT_TRUE(traffic::is_nontemporal_store("vmovntpd", Isa::X86_64));
  EXPECT_TRUE(traffic::is_nontemporal_store("stnp", Isa::AArch64));
  EXPECT_TRUE(traffic::is_nontemporal_store("stnt1w", Isa::AArch64));
  EXPECT_FALSE(traffic::is_nontemporal_store("vmovupd", Isa::X86_64));
  EXPECT_FALSE(traffic::is_nontemporal_store("str", Isa::AArch64));
}

// Corpus property: wherever VT004 (redundant reload) fires, the dataflow
// must actually prove a MustOverlap load-load pair -- the lint never rests
// on may-alias guesses.
TEST(TrafficLints, CorpusVt004SitesAreMustAliasPairs) {
  for (const driver::Block& b :
       driver::dedup_blocks(kernels::test_matrix()).blocks) {
    verify::DiagnosticSink sink;
    traffic::lint_traffic(b.gen.program, *b.mm, b.variant.label(), sink);
    bool vt004 = false;
    for (const verify::Diagnostic& d : sink.diagnostics()) {
      vt004 |= d.code == "VT004";
    }
    if (!vt004) continue;
    const dataflow::Analysis df = dataflow::analyze(b.gen.program);
    bool must_pair = false;
    for (std::size_t i = 0; i < df.accesses.size(); ++i) {
      for (std::size_t j = i + 1; j < df.accesses.size(); ++j) {
        if (df.accesses[i].is_load && df.accesses[j].is_load &&
            df.alias(df.accesses[i], df.accesses[j]) ==
                dataflow::Alias::MustOverlap) {
          must_pair = true;
        }
      }
    }
    EXPECT_TRUE(must_pair) << b.variant.label();
  }
}

// ------------------------------------------------------------ crosscheck

TEST(TrafficCrosscheck, StreamTriadAgreesExactly) {
  const driver::Block b = block_labeled("stream-triad-gcc-O3-GCS");
  const traffic::Crosscheck c = traffic::crosscheck(b.gen.program, *b.mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.attributions.empty());
  for (const traffic::Quantity& q : c.quantities) {
    EXPECT_TRUE(q.within) << q.name;
  }
  EXPECT_LE(c.max_rel_error, 0.05);
}

// Write-back belongs to the residency in which a store touched the line.
// The leading band (+4000000) only loads; its lines leave the hierarchy
// clean.  The [0, 16) band re-reads them from memory ~500k iterations
// later and the store at +8 dirties them: one write-back per line, not two.
constexpr const char* kFarBandRmwAtt = R"(
.L2:
  vmovsd (%rax), %xmm0
  vmovsd 4000000(%rax), %xmm1
  vaddsd %xmm1, %xmm0, %xmm0
  vmovsd %xmm0, 8(%rax)
  addq $8, %rax
  cmpq %rdx, %rax
  jne .L2
)";

TEST(TrafficCrosscheck, FarBandWriteBackCountedOnce) {
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  const asmir::Program& prog = keep(asmir::parse(kFarBandRmwAtt, Isa::X86_64));
  const traffic::Result r = traffic::analyze(prog, mm);
  ASSERT_EQ(r.streams.size(), 1u);
  ASSERT_EQ(r.streams[0].bands.size(), 2u);
  EXPECT_EQ(r.streams[0].bands[1].reuse, traffic::ReuseLevel::Memory);
  EXPECT_EQ(r.streams[0].dirty_lines, 0.0);
  EXPECT_EQ(r.volumes.mem_read, 0.25);
  EXPECT_EQ(r.volumes.mem_write, 0.125);

  const traffic::Crosscheck c = traffic::crosscheck(prog, mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.attributions.empty());
  for (const traffic::Quantity& q : c.quantities) {
    EXPECT_TRUE(q.within) << q.name;
  }
}

// Pinned corpus exception: SVE codegen advances bases by `incb` -- a
// scalable stride.  The dataflow pass resolves SVE element-count
// increments (incd = += VL/64 under the fixed 128-bit model) to constant
// advances, so these streams are unit-stride with a concrete +16B/iter
// and the crosscheck runs the full trace comparison and agrees -- the
// block is no longer a symbolic-stride skip.
TEST(TrafficCrosscheck, SveElementCountStridesResolveAndAgree) {
  const driver::Block b = block_labeled("stream-triad-gcc-Ofast-GCS");
  const traffic::Crosscheck c = traffic::crosscheck(b.gen.program, *b.mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.attributions.empty());
}

// A genuinely unknowable layout -- a pointer chase redefines the base from
// its own load -- must still skip with the symbolic-stride attribution
// rather than fabricate a layout.
TEST(TrafficCrosscheck, SymbolicStrideSkipsAttributed) {
  const auto& mm = uarch::machine(uarch::Micro::NeoverseV2);
  const traffic::Crosscheck c =
      traffic::crosscheck(keep(asmir::parse("ldr x1, [x1]\n", Isa::AArch64)),
                          mm);
  EXPECT_TRUE(c.skipped);
  EXPECT_TRUE(c.ok);
  ASSERT_FALSE(c.attributions.empty());
  bool symbolic = false;
  for (traffic::Attribution a : c.attributions) {
    symbolic |= a == traffic::Attribution::SymbolicStride;
  }
  EXPECT_TRUE(symbolic);
}

// Pinned corpus exception: jacobi-3d on Sapphire Rapids puts the row-reuse
// footprint right at the 48 KiB L1 edge; the exclusive-hierarchy simulator
// settles in a metastable mixed state there.  Divergence is expected and
// must carry the layer-condition-boundary attribution.
TEST(TrafficCrosscheck, SprJacobi3dBoundaryAttributed) {
  const driver::Block b = block_labeled("jacobi-3d-11pt-clang-O2-SPR");
  const traffic::Crosscheck c = traffic::crosscheck(b.gen.program, *b.mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.ok) << "divergence must be attributed";
  bool boundary = false;
  for (traffic::Attribution a : c.attributions) {
    boundary |= a == traffic::Attribution::LayerConditionBoundary;
  }
  EXPECT_TRUE(boundary);
}

// Pinned corpus exception: jacobi-3d-27pt rows sit 8 KiB apart, so on
// Zen4 (32 KiB, 8-way, 64-set L1) every row aliases one set and the ~10
// live lines thrash: the fully-associative layer condition undercounts L1
// misses.  The crosscheck must attribute this as an associativity
// conflict.
TEST(TrafficCrosscheck, GenoaJacobi27ptAssociativityConflictAttributed) {
  const driver::Block b = block_labeled("jacobi-3d-27pt-gcc-O1-Genoa");
  const traffic::Crosscheck c = traffic::crosscheck(b.gen.program, *b.mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.ok) << "divergence must be attributed";
  bool conflict = false;
  for (traffic::Attribution a : c.attributions) {
    conflict |= a == traffic::Attribution::AssociativityConflict;
  }
  EXPECT_TRUE(conflict);
}

// VP011 surfaces through the sink as a note when attributed, never as an
// unattributed error, for the pinned blocks above.
TEST(TrafficCrosscheck, Vp011NotesNotErrorsOnPinnedBlocks) {
  for (const char* label :
       {"jacobi-3d-11pt-clang-O2-SPR", "jacobi-3d-27pt-gcc-O1-Genoa"}) {
    const driver::Block b = block_labeled(label);
    verify::DiagnosticSink sink;
    traffic::check_traffic_vs_simulation(b.gen.program, *b.mm, label, sink);
    EXPECT_EQ(sink.errors(), 0u) << label;
    bool vp011 = false;
    for (const verify::Diagnostic& d : sink.diagnostics()) {
      vp011 |= d.code == "VP011";
    }
    EXPECT_TRUE(vp011) << label;
  }
}

// ---------------------------------------------------------------- replay

/// `micro`'s model with its caches shrunk to 7, 61 and 251 sets (about
/// 4 / 32 / 256 KiB): the capacity-fill term of the warmup stays small, so
/// a stream's span in iterations is large next to it.  The prime set
/// counts spread every generated stride evenly over the sets, as the
/// residency argument assumes of a cache.
uarch::MachineModel shrunk(uarch::Micro micro) {
  uarch::MachineModel mm = uarch::machine(micro);
  uarch::CacheParams& c = mm.cache;
  c.l1_bytes = 7ll * c.line_bytes * c.l1_ways;
  c.l2_bytes = 61ll * c.line_bytes * c.l2_ways;
  c.l3_bytes = 251ll * c.line_bytes * c.l3_ways;
  return mm;
}

/// Largest difference between two windows' counters.
std::uint64_t max_counter_gap(const traffic::ReplayCounters& a,
                              const traffic::ReplayCounters& b) {
  std::uint64_t gap = 0;
  for (auto field : {&traffic::ReplayCounters::l1_miss,
                     &traffic::ReplayCounters::l1_evict,
                     &traffic::ReplayCounters::l2_hit,
                     &traffic::ReplayCounters::l2_evict,
                     &traffic::ReplayCounters::l3_hit,
                     &traffic::ReplayCounters::mem_read,
                     &traffic::ReplayCounters::mem_write,
                     &traffic::ReplayCounters::claimed}) {
    const std::uint64_t x = a.*field;
    const std::uint64_t y = b.*field;
    gap = std::max(gap, x > y ? x - y : y - x);
  }
  return gap;
}

// The replay warmup is sized by residency, not by stream span
// (docs/traffic.md): the span/|stride| term the sizing used to add on top
// of the capacity fill must not change what the measured window meters.
//
// Both runs replay one layout, sized for the longer run.  The fill-only
// run is shifted forward by the span term, so both measured windows walk
// the same addresses and the span-term run has only seen that many more
// iterations of history.  (Unshifted, the windows sit span bytes apart
// and differ by a few write-backs wherever a window edge cuts a set's
// eviction phase, which is not a warmup effect.)  The argument claims
// nothing where the crosscheck attributes a divergence to geometry -- a
// band reuse at a capacity edge or an L1 set conflict -- so those bodies
// are counted and left out.
//
// On every other body the windows are counter-for-counter identical.  The
// argument also assumes each set fills within the warmup; on these tiny
// caches a set can fall a line short, so at most 1 % of the windows may
// differ, by no more than 0.1 % of the window (the crosscheck's floor is
// 2 %).
TEST(TrafficReplay, SpanTermChangesNoWindowCounter) {
  const uarch::MachineModel models[] = {shrunk(uarch::Micro::NeoverseV2),
                                        shrunk(uarch::Micro::GoldenCove),
                                        shrunk(uarch::Micro::Zen4)};
  support::Rng rng(0x5ba9ull);
  int bodies = 0;
  int geometry = 0;
  int windows = 0;
  int long_windows = 0;
  int differing = 0;
  int span_dominant = 0;
  int claiming = 0;
  while (bodies < 300) {
    const std::string text = test::random_body(rng, bodies < 3);
    SCOPED_TRACE(text);
    const uarch::MachineModel& mm = models[(bodies + geometry) % 3];
    const asmir::Program& prog = keep(asmir::parse(text, Isa::X86_64));
    const dataflow::Analysis df = dataflow::analyze(prog);
    const traffic::Result r = traffic::analyze(prog, mm);
    long long span_iters = 0;
    for (const traffic::Stream& s : r.streams) {
      span_iters = std::max(span_iters,
                            s.span_bytes / std::llabs(*s.stride_bytes));
    }
    // The 32,768-iteration VP011 window on every 8th body, the 2,048
    // VP014 window on all: the same comparison, at a bounded test time.
    const long long window = bodies % 8 == 0 ? 32768 : 2048;
    traffic::SyntheticLayout span_run = traffic::synthesize_layout(
        r, df, prog, mm, window + span_iters, 1ll << 40);
    ASSERT_TRUE(span_run.ok);
    ASSERT_FALSE(span_run.capped);
    if (traffic::near_capacity_edge(r, span_run, mm) ||
        traffic::l1_set_conflict(span_run, mm)) {
      ++geometry;
      continue;
    }
    ++bodies;
    span_run.measure_iterations = window;
    traffic::SyntheticLayout fill_run = span_run;
    for (traffic::LayoutOp& op : fill_run.ops) op.lo += span_iters * op.stride;
    span_run.warmup_iterations += span_iters;
    const traffic::ReplayCounters fill = traffic::replay(fill_run, mm);
    const traffic::ReplayCounters span = traffic::replay(span_run, mm);
    ++windows;
    long_windows += window == 32768;
    span_dominant += span_iters > fill_run.warmup_iterations;
    claiming += fill.claimed > 0;
    if (fill == span) continue;
    ++differing;
    EXPECT_LE(max_counter_gap(fill, span),
              static_cast<std::uint64_t>(window / 1000))
        << "window " << window;
  }
  EXPECT_LE(differing, windows / 100);
  EXPECT_GE(long_windows, 35);
  EXPECT_GE(span_dominant, 8);
  EXPECT_GE(claiming, 3);
  EXPECT_GE(geometry, 30);
}

// VP011's cap: a 1-byte-stride stream on Genoa needs 1.5 x 13 MiB of
// warmup iterations, past 1 << 23 in total.  The pure stream still agrees.
constexpr const char* kByteStreamAtt = R"(
.L3:
  movzbl (%rax), %ecx
  addq $1, %rax
  cmpq %rdx, %rax
  jne .L3
)";

TEST(TrafficCrosscheck, ByteStrideOnGenoaCapsWarmup) {
  const auto& mm = uarch::machine(uarch::Micro::Zen4);
  const traffic::CrosscheckOptions opt;
  const traffic::Crosscheck c =
      traffic::crosscheck(keep(asmir::parse(kByteStreamAtt, Isa::X86_64)), mm);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(c.warmup_iterations + c.measured_iterations,
            opt.max_total_iterations);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.attributions.empty());
}

// A load band 64 KiB ahead of a stride-8 stream is reused 8192
// iterations later from L2.  A cap that leaves a 2048-iteration warmup
// never reaches that reuse: the window meters the trailing band as memory
// reads, and the divergence is attributed to the cap.
constexpr const char* kL2BandGapAtt = R"(
.L4:
  vmovsd (%rax), %xmm0
  vaddsd 65536(%rax), %xmm0, %xmm0
  addq $8, %rax
  cmpq %rdx, %rax
  jne .L4
)";

TEST(TrafficCrosscheck, TruncatedWarmupDivergenceAttributedToCap) {
  const auto& mm = uarch::machine(uarch::Micro::Zen4);
  traffic::CrosscheckOptions opt;
  opt.measure_iterations = 2048;
  opt.max_total_iterations = 4096;
  const traffic::Crosscheck c = traffic::crosscheck(
      keep(asmir::parse(kL2BandGapAtt, Isa::X86_64)), mm, opt);
  EXPECT_FALSE(c.skipped);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(c.warmup_iterations, 2048);
  EXPECT_TRUE(c.ok);
  EXPECT_GT(c.max_rel_error, opt.tolerance);
  ASSERT_FALSE(c.attributions.empty());
  EXPECT_EQ(c.attributions.front(), traffic::Attribution::WindowCapped);
}

// ------------------------------------------------- one replay per block
// VP014 measures a 2,048-iteration window after the same layout and
// warmup as VP011's 32,768-iteration replay, and the replay serves it from
// the run it keeps per thread.  Sharing must be exact: every field of both
// results equals the one computed cold, doubles bit for bit.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same(const traffic::Crosscheck& a, const traffic::Crosscheck& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.warmup_iterations, b.warmup_iterations);
  EXPECT_EQ(a.measured_iterations, b.measured_iterations);
  EXPECT_EQ(bits(a.max_rel_error), bits(b.max_rel_error));
  EXPECT_EQ(a.attributions, b.attributions);
  ASSERT_EQ(a.quantities.size(), b.quantities.size());
  for (std::size_t i = 0; i < a.quantities.size(); ++i) {
    const traffic::Quantity& x = a.quantities[i];
    const traffic::Quantity& y = b.quantities[i];
    EXPECT_STREQ(x.name, y.name);
    EXPECT_EQ(bits(x.statik), bits(y.statik)) << x.name;
    EXPECT_EQ(bits(x.simulated), bits(y.simulated)) << x.name;
    EXPECT_EQ(x.within, y.within) << x.name;
  }
}

void expect_same(const ecm::ScalingCheck& a, const ecm::ScalingCheck& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.replay_ran, b.replay_ran);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.warmup_iterations, b.warmup_iterations);
  EXPECT_EQ(bits(a.static_mem_lines), bits(b.static_mem_lines));
  EXPECT_EQ(bits(a.trace_mem_lines), bits(b.trace_mem_lines));
  EXPECT_EQ(a.analytic_saturation, b.analytic_saturation);
  EXPECT_EQ(a.bandwidth_saturation, b.bandwidth_saturation);
  EXPECT_EQ(a.causes, b.causes);
  EXPECT_EQ(a.details, b.details);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const ecm::CorePoint& x = a.points[i];
    const ecm::CorePoint& y = b.points[i];
    EXPECT_EQ(x.cores, y.cores);
    EXPECT_EQ(bits(x.analytic_cycles), bits(y.analytic_cycles));
    EXPECT_EQ(bits(x.analytic_cl_per_cy), bits(y.analytic_cl_per_cy));
    EXPECT_EQ(bits(x.trace_store_ratio), bits(y.trace_store_ratio));
    EXPECT_EQ(bits(x.model_store_ratio), bits(y.model_store_ratio));
  }
}

/// Both checks on one block, in the given order, with the replay
/// iterations the calling thread simulated for each.
struct GatePair {
  traffic::Crosscheck vp011;
  ecm::ScalingCheck vp014;
  std::uint64_t vp011_iterations = 0;
  std::uint64_t vp014_iterations = 0;
};

GatePair run_gates(const asmir::Program& prog, const uarch::MachineModel& mm,
                   bool vp011_first) {
  GatePair out;
  auto vp011 = [&] {
    const std::uint64_t before = traffic::simulated_replay_iterations();
    out.vp011 = traffic::crosscheck(prog, mm);
    out.vp011_iterations = traffic::simulated_replay_iterations() - before;
  };
  auto vp014 = [&] {
    const std::uint64_t before = traffic::simulated_replay_iterations();
    out.vp014 = ecm::crosscheck_scaling(prog, mm);
    out.vp014_iterations = traffic::simulated_replay_iterations() - before;
  };
  if (vp011_first) {
    vp011();
    vp014();
  } else {
    vp014();
    vp011();
  }
  return out;
}

/// A store stream that writes each 64-byte line once, in order: Grace's
/// claim detector claims its lines after the warmup.
constexpr const char* kClaimingStoreA64 = R"(
  str q0, [x0]
  add x0, x0, #64
)";

TEST(TrafficReplay, MemoizedWindowEqualsColdReplay) {
  struct Case {
    std::string label;
    const asmir::Program* prog;
    const uarch::MachineModel* mm;
  };
  std::vector<Case> cases;
  std::deque<kernels::GeneratedKernel> generated;
  for (kernels::Kernel k : kernels::all_kernels()) {
    for (uarch::Micro m : uarch::all_micros()) {
      const kernels::Variant v{k, kernels::compilers_for(m).front(),
                               kernels::OptLevel::O3, m};
      generated.push_back(kernels::generate(v));
      cases.push_back({v.label(), &generated.back().program, &uarch::machine(m)});
    }
  }
  const std::size_t claiming = cases.size();
  cases.push_back({"claiming-store-GCS",
                   &keep(asmir::parse(kClaimingStoreA64, Isa::AArch64)),
                   &uarch::machine(uarch::Micro::NeoverseV2)});
  const std::size_t byte_stride = cases.size();
  cases.push_back({"byte-stride-Genoa",
                   &keep(asmir::parse(kByteStreamAtt, Isa::X86_64)),
                   &uarch::machine(uarch::Micro::Zen4)});

  int served = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.label);
    // Each order on a thread of its own, so each starts with no kept
    // replay: VP014 after VP011 on one, VP014 cold then VP011 on the other.
    GatePair shared;
    GatePair cold;
    std::thread a([&] { shared = run_gates(*c.prog, *c.mm, true); });
    std::thread b([&] { cold = run_gates(*c.prog, *c.mm, false); });
    a.join();
    b.join();
    expect_same(shared.vp014, cold.vp014);
    expect_same(shared.vp011, cold.vp011);
    if (shared.vp011.skipped || !shared.vp014.replay_ran) continue;
    const long long vp011_total = shared.vp011.warmup_iterations +
                                  shared.vp011.measured_iterations;
    const long long vp014_total = shared.vp014.warmup_iterations + 2048;
    EXPECT_EQ(shared.vp011_iterations, vp011_total);
    EXPECT_EQ(cold.vp014_iterations, vp014_total);
    EXPECT_EQ(cold.vp011_iterations, vp011_total);
    if (shared.vp014.warmup_iterations == shared.vp011.warmup_iterations) {
      EXPECT_EQ(shared.vp014_iterations, 0u);  // served, not simulated
      ++served;
    } else {
      EXPECT_EQ(shared.vp014_iterations, vp014_total);
    }
    if (i == claiming) {
      const traffic::Quantity& claimed = shared.vp011.quantities.back();
      ASSERT_STREQ(claimed.name, "claimed");
      EXPECT_GT(claimed.simulated, 0);
      EXPECT_EQ(shared.vp014_iterations, 0u);
    }
    if (i == byte_stride) {
      // The capped warmup leaves room for the window, so the two checks
      // warm up differently and VP014 simulates its own run.
      EXPECT_TRUE(shared.vp011.capped);
      EXPECT_TRUE(shared.vp014.capped);
    }
  }
  EXPECT_GE(served, 30);
}

// The kept replay is per thread: four threads running both checks on
// different blocks at once get the serial results.  Cheap on purpose (the
// shrunk caches keep each replay short) so it also runs under TSan.
TEST(TrafficReplay, MemoKeptPerThreadUnderConcurrency) {
  const uarch::MachineModel models[] = {shrunk(uarch::Micro::NeoverseV2),
                                        shrunk(uarch::Micro::GoldenCove),
                                        shrunk(uarch::Micro::Zen4)};
  const kernels::Kernel kinds[] = {
      kernels::Kernel::StreamTriad, kernels::Kernel::Copy,
      kernels::Kernel::Jacobi2D5pt, kernels::Kernel::Update,
      kernels::Kernel::SchoenauerTriad, kernels::Kernel::Init,
      kernels::Kernel::Jacobi3D7pt, kernels::Kernel::SumReduction};
  std::vector<kernels::GeneratedKernel> blocks;
  std::vector<const uarch::MachineModel*> block_models;
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    const uarch::MachineModel& mm = models[i % 3];
    blocks.push_back(kernels::generate(
        {kinds[i], kernels::compilers_for(mm.micro()).front(),
         kernels::OptLevel::O3, mm.micro()}));
    block_models.push_back(&mm);
  }
  std::vector<GatePair> serial;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    serial.push_back(run_gates(blocks[i].program, *block_models[i], true));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<GatePair> parallel(blocks.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < blocks.size(); i += kThreads) {
        parallel[i] = run_gates(blocks[i].program, *block_models[i], true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int served = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    SCOPED_TRACE(std::string(kernels::to_string(kinds[i])));
    expect_same(serial[i].vp011, parallel[i].vp011);
    expect_same(serial[i].vp014, parallel[i].vp014);
    served += parallel[i].vp014.replay_ran && parallel[i].vp014_iterations == 0;
  }
  EXPECT_GE(served, 4);
}

// ------------------------------------------------------ skip rules
// traffic::replay steps each op's line instead of dividing its address,
// marks a line outside its stream's touched range cold, and its hierarchy
// answers a re-access of an L1 set's most recently used line without a
// probe.  The plain loop below replays the same layout without any of
// that: each address divided into its line, one load/store call per
// touched line, through test::ProbingHierarchy, which issues every
// probe.  What the two sides share is the memsim::CacheLevel code, which
// the cachesim tests cover.  The counters must agree at every window the
// replay keeps.

traffic::ReplayCounters minus(const traffic::ReplayCounters& a,
                              const traffic::ReplayCounters& b) {
  return {a.l1_miss - b.l1_miss,     a.l1_evict - b.l1_evict,
          a.l2_hit - b.l2_hit,       a.l2_evict - b.l2_evict,
          a.l3_hit - b.l3_hit,       a.mem_read - b.mem_read,
          a.mem_write - b.mem_write, a.claimed - b.claimed};
}

struct PlainReplay {
  /// (window, counters over it) at every window traffic::replay keeps:
  /// the powers of two below the measured window, then the window.
  std::vector<std::pair<long long, traffic::ReplayCounters>> windows;
  std::uint64_t calls = 0;  // load/store calls
};

PlainReplay plain_replay(const traffic::SyntheticLayout& layout,
                         const uarch::MachineModel& mm) {
  test::ProbingHierarchy h = test::ProbingHierarchy::for_model(mm);
  auto counters = [&]() -> traffic::ReplayCounters {
    return {h.level(0).stats().misses, h.level(0).stats().evictions,
            h.level(1).stats().hits,   h.level(1).stats().evictions,
            h.level(2).stats().hits,   h.memory().lines_read,
            h.memory().lines_written,  h.claimed_lines()};
  };
  const long long line = mm.cache.line_bytes;
  const long long measure = layout.measure_iterations;
  PlainReplay out;
  traffic::ReplayCounters begin;
  for (long long i = 0;; ++i) {
    const long long w = i - layout.warmup_iterations;
    if (w == 0) begin = counters();
    const bool kept = w == measure ||
                      (w > 0 && w < measure &&
                       std::has_single_bit(static_cast<std::uint64_t>(w)));
    if (kept) out.windows.push_back({w, minus(counters(), begin)});
    if (w == measure) return out;
    for (const traffic::LayoutOp& op : layout.ops) {
      const long long lo = op.lo + i * op.stride;
      for (long long l = floor_div(lo, line);
           l <= floor_div(lo + op.width - 1, line); ++l) {
        const auto addr = static_cast<std::uint64_t>(l * line);
        if (op.nontemporal) {
          h.store(addr, memsim::StoreKind::NonTemporal);
          ++out.calls;
          continue;
        }
        if (op.is_load) h.load(addr);
        if (op.is_store) h.store(addr, memsim::StoreKind::Standard);
        out.calls += (op.is_load ? 1 : 0) + (op.is_store ? 1 : 0);
      }
    }
  }
}

/// Compares traffic::replay with the plain loop at every kept window: the
/// measured one simulated, the shorter ones served from the kept run.
/// Returns the replay's work.
traffic::ReplayWork expect_replay_matches_plain(
    traffic::SyntheticLayout layout, const uarch::MachineModel& mm) {
  const PlainReplay plain = plain_replay(layout, mm);
  const traffic::ReplayWork before = traffic::replay_work();
  std::uint64_t simulated = traffic::simulated_replay_iterations();
  EXPECT_TRUE(traffic::replay(layout, mm) == plain.windows.back().second)
      << "window " << layout.measure_iterations;
  traffic::ReplayWork work = traffic::replay_work();
  work.line_accesses -= before.line_accesses;
  work.cold -= before.cold;
  work.mru -= before.mru;
  // A layout equal to the previous one (another compiler's identical
  // code) is served from the kept run and does no work.
  if (traffic::simulated_replay_iterations() != simulated) {
    EXPECT_EQ(work.line_accesses, plain.calls);
  }
  simulated = traffic::simulated_replay_iterations();
  for (const auto& [window, counters] : plain.windows) {
    layout.measure_iterations = window;
    EXPECT_TRUE(traffic::replay(layout, mm) == counters) << "window " << window;
  }
  EXPECT_EQ(traffic::simulated_replay_iterations(), simulated);
  return work;
}

/// The layout the gates replay, with a `window`-iteration measurement.
traffic::SyntheticLayout gate_layout(const asmir::Program& prog,
                                     const uarch::MachineModel& mm,
                                     long long window) {
  return traffic::synthesize_layout(traffic::analyze(prog, mm),
                                    dataflow::analyze(prog), prog, mm, window,
                                    traffic::kMaxReplayIterations);
}

constexpr const char* kNegativeStrideAtt = R"(
  vmovsd (%rax), %xmm0
  vaddsd 8(%rax), %xmm0, %xmm0
  vmovsd %xmm0, (%rbx)
  subq $8, %rax
  subq $8, %rbx
)";
constexpr const char* kStrideZeroAtt = R"(
  vmovsd (%rdi), %xmm0
  vaddsd %xmm1, %xmm0, %xmm0
  vmovsd %xmm0, (%rdi)
  vmovsd (%rax), %xmm2
  addq $8, %rax
)";
constexpr const char* kNonTemporalAtt = R"(
  vmovupd (%rbx), %ymm1
  vmovntpd %ymm1, (%rax)
  addq $32, %rax
  addq $32, %rbx
)";
constexpr const char* kRmwAtt = R"(
  addq %r8, (%rax)
  addq $8, %rax
)";
constexpr const char* kLineSpanningAtt = R"(
  vmovupd 60(%rax), %ymm0
  addq $64, %rax
)";

TEST(TrafficReplay, SkipRulesMatchPlainLoop) {
  const uarch::MachineModel models[] = {shrunk(uarch::Micro::NeoverseV2),
                                        shrunk(uarch::Micro::GoldenCove),
                                        shrunk(uarch::Micro::Zen4)};
  auto model_for = [&](uarch::Micro m) -> const uarch::MachineModel& {
    for (const uarch::MachineModel& mm : models) {
      if (mm.micro() == m) return mm;
    }
    return models[0];
  };
  // VP011's 32,768-iteration window on every 8th block, VP014's 2,048 on
  // the rest: the same comparison at a bounded test time.
  traffic::ReplayWork corpus;
  int layouts = 0;
  for (const driver::Block& b :
       driver::dedup_blocks(kernels::test_matrix()).blocks) {
    SCOPED_TRACE(b.variant.label());
    const uarch::MachineModel& mm = model_for(b.mm->micro());
    const traffic::SyntheticLayout layout = gate_layout(
        b.gen.program, mm, layouts % 8 == 0 ? 32768 : 2048);
    if (!layout.ok) continue;
    ++layouts;
    const traffic::ReplayWork w = expect_replay_matches_plain(layout, mm);
    corpus.line_accesses += w.line_accesses;
    corpus.cold += w.cold;
    corpus.mru += w.mru;
  }
  EXPECT_GE(layouts, 200);
  // Both rules answer a share of the corpus's accesses.
  EXPECT_GT(corpus.cold, corpus.line_accesses / 100);
  EXPECT_GT(corpus.mru, corpus.line_accesses / 4);

  support::Rng rng(0x5c1full);
  for (int body = 0; body < 60; ++body) {
    const std::string text = test::random_body(rng, false);
    SCOPED_TRACE(text);
    const uarch::MachineModel& mm = models[body % 3];
    const traffic::SyntheticLayout layout =
        gate_layout(keep(asmir::parse(text, Isa::X86_64)), mm, 2048);
    ASSERT_TRUE(layout.ok);
    (void)expect_replay_matches_plain(layout, mm);
  }

  for (const char* text : {kNegativeStrideAtt, kStrideZeroAtt,
                           kNonTemporalAtt, kRmwAtt, kLineSpanningAtt}) {
    SCOPED_TRACE(text);
    const asmir::Program& prog = keep(asmir::parse(text, Isa::X86_64));
    for (const uarch::MachineModel& mm : models) {
      const traffic::SyntheticLayout layout = gate_layout(prog, mm, 32768);
      ASSERT_TRUE(layout.ok);
      (void)expect_replay_matches_plain(layout, mm);
    }
  }
  // On the machines' own caches: Grace's claims, and the byte stream whose
  // warm-up the cap truncates on Genoa.
  const auto& gcs = uarch::machine(uarch::Micro::NeoverseV2);
  const traffic::ReplayWork claiming = expect_replay_matches_plain(
      gate_layout(keep(asmir::parse(kClaimingStoreA64, Isa::AArch64)), gcs,
                  32768),
      gcs);
  EXPECT_GT(claiming.cold, 0u);
  const auto& genoa = uarch::machine(uarch::Micro::Zen4);
  const traffic::SyntheticLayout bytes =
      gate_layout(keep(asmir::parse(kByteStreamAtt, Isa::X86_64)), genoa,
                  32768);
  EXPECT_TRUE(bytes.capped);
  (void)expect_replay_matches_plain(bytes, genoa);
}

// The cold rule needs every stream in a region of its own: a layout
// whose streams share a line is refused, not replayed.
TEST(TrafficReplay, OverlappingStreamRegionsAreRejected) {
  const uarch::MachineModel mm = shrunk(uarch::Micro::Zen4);
  traffic::SyntheticLayout layout =
      gate_layout(keep(asmir::parse(kRmwAtt, Isa::X86_64)), mm, 2048);
  ASSERT_TRUE(layout.ok);
  ASSERT_EQ(layout.ops.size(), 1u);
  traffic::LayoutOp other = layout.ops.front();
  other.stream = 1;
  other.lo += 4096;  // inside the first stream's walk
  layout.ops.push_back(other);
  EXPECT_THROW((void)traffic::replay(layout, mm), std::logic_error);
}

TEST(TrafficCodes, VtFamilyRegistered) {
  std::set<std::string> codes;
  for (const verify::CodeInfo& c : verify::all_codes()) codes.insert(c.code);
  for (const char* code : {"VT001", "VT002", "VT003", "VT004", "VT005",
                           "VT006", "VT007", "VT008", "VP011"}) {
    EXPECT_TRUE(codes.count(code)) << code;
  }
}

}  // namespace
