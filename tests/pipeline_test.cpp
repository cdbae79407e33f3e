// White-box tests for the pipeline engine: resource backpressure, queue
// limits, front-end width, retirement order effects, and the config knobs
// the MCA configuration relies on.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "asmir/parser.hpp"
#include "driver/sweep.hpp"
#include "exec/exec.hpp"
#include "exec/pipeline.hpp"
#include "kernels/kernels.hpp"
#include "mca/mca.hpp"
#include "random_bodies.hpp"
#include "uarch/model.hpp"

using namespace incore;
using exec::PipelineConfig;
using exec::simulate_loop;
using uarch::Micro;

namespace {

asmir::Program parse(const char* text, const uarch::MachineModel& mm) {
  return asmir::parse(text, mm.isa());
}

PipelineConfig plain() {
  PipelineConfig cfg;
  cfg.taken_branch_bubble = 0.0;
  return cfg;
}

}  // namespace

TEST(Pipeline, EmptyProgram) {
  asmir::Program p;
  p.isa = asmir::Isa::X86_64;
  auto r = simulate_loop(p, uarch::machine(Micro::GoldenCove), plain());
  EXPECT_EQ(r.cycles_per_iteration, 0.0);
}

TEST(Pipeline, SingleAddThroughputLimited) {
  const auto& mm = uarch::machine(Micro::Zen4);
  // 8 independent adds: 4 ALUs -> 2 cy/iter.
  auto p = parse(
      "addq $1, %rax\naddq $1, %rbx\naddq $1, %rcx\naddq $1, %rdx\n"
      "addq $1, %rsi\naddq $1, %r8\naddq $1, %r10\naddq $1, %r11\n",
      mm);
  auto r = simulate_loop(p, mm, plain());
  EXPECT_NEAR(r.cycles_per_iteration, 2.0, 0.1);
}

TEST(Pipeline, FrontEndWidthLimits) {
  const auto& mm = uarch::machine(Micro::GoldenCove);  // decode 6/cy
  // 12 nops: retire/rename-bound at 12/6 = 2 cy/iter even with free ports.
  std::string body;
  for (int i = 0; i < 12; ++i) body += "nop\n";
  auto p = asmir::parse(body, mm.isa());
  auto r = simulate_loop(p, mm, plain());
  EXPECT_NEAR(r.cycles_per_iteration, 2.0, 0.2);
}

TEST(Pipeline, DispatchWidthOverrideThrottles) {
  const auto& mm = uarch::machine(Micro::GoldenCove);
  std::string body;
  for (int i = 0; i < 12; ++i) body += "nop\n";
  auto p = asmir::parse(body, mm.isa());
  auto cfg = plain();
  cfg.dispatch_width_override = 3;
  auto r = simulate_loop(p, mm, cfg);
  EXPECT_NEAR(r.cycles_per_iteration, 4.0, 0.3);
}

TEST(Pipeline, LatencyChainBound) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  auto p = parse("fmul d0, d0, d1\n", mm);
  auto r = simulate_loop(p, mm, plain());
  EXPECT_NEAR(r.cycles_per_iteration, 3.0, 0.1);  // fmul latency
}

TEST(Pipeline, NonPipelinedDividerSerializes) {
  const auto& mm = uarch::machine(Micro::GoldenCove);
  auto p = parse(
      "vdivpd %zmm1, %zmm2, %zmm3\n"
      "vdivpd %zmm4, %zmm5, %zmm6\n",
      mm);
  auto r = simulate_loop(p, mm, plain());
  EXPECT_NEAR(r.cycles_per_iteration, 32.0, 1.0);  // 2 x inv 16
}

TEST(Pipeline, BackpressureReportedWithTinyRob) {
  const auto& mm = uarch::machine(Micro::GoldenCove);
  // A long divider chain with many independent adds behind it: a small ROB
  // stalls dispatch.
  auto p = parse(
      "vdivsd %xmm1, %xmm0, %xmm0\n"
      "addq $1, %rax\naddq $1, %rbx\naddq $1, %rcx\naddq $1, %rdx\n"
      "addq $1, %rsi\naddq $1, %r8\naddq $1, %r10\naddq $1, %r11\n",
      mm);
  // Copy the model and shrink the ROB through a local mutable instance.
  uarch::MachineModel small = mm;
  small.resources().rob_size = 8;
  auto r = simulate_loop(p, small, plain());
  EXPECT_GT(r.backpressure_cycles, 0u);
  auto r_big = simulate_loop(p, mm, plain());
  EXPECT_LT(r_big.cycles_per_iteration, r.cycles_per_iteration + 1e-9);
}

TEST(Pipeline, LoadQueueLimitThrottles) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  std::string body;
  for (int i = 0; i < 6; ++i)
    body += "ldr q" + std::to_string(i) + ", [x1, #" + std::to_string(16 * i) +
            "]\n";
  auto p = asmir::parse(body, mm.isa());
  uarch::MachineModel small = mm;
  small.resources().load_queue = 2;
  auto fast = simulate_loop(p, mm, plain());
  auto slow = simulate_loop(p, small, plain());
  EXPECT_GT(slow.cycles_per_iteration, fast.cycles_per_iteration);
}

TEST(Pipeline, StaticBindingNoWorseThanHalfOptimal) {
  // Static binding can lose to dynamic selection but must stay in the same
  // ballpark on a balanced mix.
  const auto& mm = uarch::machine(Micro::Zen4);
  auto p = parse(
      "vaddpd %ymm1, %ymm2, %ymm0\n"
      "vmulpd %ymm3, %ymm4, %ymm5\n"
      "vaddpd %ymm6, %ymm7, %ymm8\n"
      "vmulpd %ymm9, %ymm10, %ymm11\n",
      mm);
  auto cfg = plain();
  auto dyn = simulate_loop(p, mm, cfg);
  cfg.dynamic_port_selection = false;
  auto stat = simulate_loop(p, mm, cfg);
  EXPECT_GE(stat.cycles_per_iteration, dyn.cycles_per_iteration - 1e-9);
  EXPECT_LE(stat.cycles_per_iteration, 2.0 * dyn.cycles_per_iteration);
}

TEST(Pipeline, FpPortLimitReducesThroughput) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  auto p = parse(
      "fadd v0.2d, v10.2d, v11.2d\n"
      "fadd v1.2d, v12.2d, v13.2d\n"
      "fadd v2.2d, v14.2d, v15.2d\n"
      "fadd v3.2d, v16.2d, v17.2d\n",
      mm);
  auto cfg = plain();
  auto full = simulate_loop(p, mm, cfg);   // 4 V-ports: 1 cy/iter
  cfg.fp_port_limit = 2;
  auto limited = simulate_loop(p, mm, cfg);  // 2 ports: 2 cy/iter
  EXPECT_NEAR(full.cycles_per_iteration, 1.0, 0.1);
  EXPECT_NEAR(limited.cycles_per_iteration, 2.0, 0.1);
}

TEST(Pipeline, MemPortLimitReducesLoadThroughput) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  std::string body;
  for (int i = 0; i < 6; ++i)
    body += "ldr q" + std::to_string(i) + ", [x1, #" + std::to_string(16 * i) +
            "]\n";
  auto p = asmir::parse(body, mm.isa());
  auto cfg = plain();
  auto full = simulate_loop(p, mm, cfg);  // 3 load pipes: 2 cy/iter
  cfg.mem_port_limit = 2;
  auto limited = simulate_loop(p, mm, cfg);  // 2 pipes: 3 cy/iter
  EXPECT_NEAR(full.cycles_per_iteration, 2.0, 0.1);
  EXPECT_NEAR(limited.cycles_per_iteration, 3.0, 0.15);
}

TEST(Pipeline, TputOverrideSpeedsUpForm) {
  const auto& mm = uarch::machine(Micro::Zen4);
  auto p = parse("vdivsd %xmm1, %xmm2, %xmm3\n", mm);
  auto cfg = plain();
  auto model = simulate_loop(p, mm, cfg);
  EXPECT_NEAR(model.cycles_per_iteration, 6.5, 0.2);
  cfg.tput_overrides["vdivsd v128,v128,v128"] = 5.0;
  auto silicon = simulate_loop(p, mm, cfg);
  EXPECT_NEAR(silicon.cycles_per_iteration, 5.0, 0.2);
}

TEST(Pipeline, LatencyOverrideChangesChain) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  auto p = parse("fmul d0, d0, d1\n", mm);
  auto cfg = plain();
  cfg.latency_overrides["fmul v64,v64,v64"] = 5.0;
  auto r = simulate_loop(p, mm, cfg);
  EXPECT_NEAR(r.cycles_per_iteration, 5.0, 0.1);
}

TEST(Pipeline, PortUtilizationSumsSensibly) {
  const auto& mm = uarch::machine(Micro::GoldenCove);
  auto p = parse("vaddpd %zmm1, %zmm2, %zmm0\n", mm);
  auto r = simulate_loop(p, mm, plain());
  double total = 0;
  for (double u : r.port_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
    total += u;
  }
  // One micro-op per iteration at ~0.5 cy/iter: aggregate utilization ~2.
  EXPECT_NEAR(total, 2.0, 0.4);
}

// --------------------------------------------------------------- timeline

TEST(Timeline, EventsRecordedAndOrdered) {
  const auto& mm = uarch::machine(Micro::NeoverseV2);
  auto p = parse("fmla v2.2d, v0.2d, v3.2d\nsubs x6, x6, #1\nb.ne .L1\n", mm);
  auto cfg = plain();
  cfg.timeline_iterations = 2;
  auto r = simulate_loop(p, mm, cfg);
  ASSERT_EQ(r.timeline.size(), 6u);  // 2 iterations x 3 instructions
  for (const auto& e : r.timeline) {
    EXPECT_LE(e.dispatch, e.issue);
    EXPECT_LE(e.issue, e.complete);
    EXPECT_LE(e.complete, e.retire + 1e-9);
  }
  // Retirement is in order.
  for (std::size_t i = 1; i < r.timeline.size(); ++i)
    EXPECT_LE(r.timeline[i - 1].retire, r.timeline[i].retire);
}

TEST(Timeline, RenderingContainsMarkers) {
  const auto& mm = uarch::machine(Micro::Zen4);
  auto p = parse("vaddpd %ymm1, %ymm2, %ymm0\n", mm);
  auto cfg = plain();
  cfg.timeline_iterations = 1;
  auto r = simulate_loop(p, mm, cfg);
  std::string t = exec::render_timeline(r.timeline, p);
  EXPECT_NE(t.find('D'), std::string::npos);
  EXPECT_NE(t.find('R'), std::string::npos);
  EXPECT_NE(t.find("vaddpd"), std::string::npos);
}

TEST(Timeline, OffByDefault) {
  const auto& mm = uarch::machine(Micro::Zen4);
  auto p = parse("vaddpd %ymm1, %ymm2, %ymm0\n", mm);
  auto r = simulate_loop(p, mm, plain());
  EXPECT_TRUE(r.timeline.empty());
}

// ------------------------------------------------------------ periodic jump

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

// Every field but simulated_cycles, bit for bit.
bool same_result(const exec::PipelineResult& a, const exec::PipelineResult& b) {
  if (a.timeline.size() != b.timeline.size()) return false;
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    const auto& x = a.timeline[i];
    const auto& y = b.timeline[i];
    if (x.iteration != y.iteration || x.index != y.index ||
        !same_bits(x.dispatch, y.dispatch) || !same_bits(x.issue, y.issue) ||
        !same_bits(x.complete, y.complete) || !same_bits(x.retire, y.retire))
      return false;
  }
  return same_bits(a.cycles_per_iteration, b.cycles_per_iteration) &&
         a.total_cycles == b.total_cycles &&
         a.measured_iterations == b.measured_iterations &&
         same_bits(a.port_utilization, b.port_utilization) &&
         a.backpressure_cycles == b.backpressure_cycles &&
         same_bits(a.port_cycles, b.port_cycles) &&
         same_bits(a.uops_per_iteration, b.uops_per_iteration) &&
         a.dispatch_width == b.dispatch_width &&
         a.eliminated_moves == b.eliminated_moves &&
         a.eliminated_zero_idioms == b.eliminated_zero_idioms;
}

struct JumpTally {
  int runs = 0;
  int jumped = 0;
  std::uint64_t stepped = 0;
  std::uint64_t full = 0;
};

// Runs `prog` with and without the jump; returns whether the jump fired.
bool check_jump(const asmir::Program& prog, const uarch::MachineModel& mm,
                const PipelineConfig& cfg, const std::string& label,
                JumpTally& tally) {
  const auto full = exec::detail::simulate_loop(prog, mm, cfg, false);
  const auto fast = exec::detail::simulate_loop(prog, mm, cfg, true);
  EXPECT_TRUE(same_result(full, fast)) << label;
  EXPECT_EQ(full.simulated_cycles,
            full.total_cycles + (full.total_cycles < 30'000'000ULL ? 1 : 0))
      << label;
  EXPECT_LE(fast.simulated_cycles, full.simulated_cycles) << label;
  ++tally.runs;
  tally.stepped += fast.simulated_cycles;
  tally.full += full.simulated_cycles;
  const bool jumped = fast.simulated_cycles < full.simulated_cycles;
  tally.jumped += jumped;
  return jumped;
}

PipelineConfig mca_config(uarch::Micro micro) {
  PipelineConfig cfg = mca::sched_model_config(micro);
  cfg.iterations = 100;  // mca::simulate's default
  return cfg;
}

}  // namespace

TEST(Pipeline, JumpEqualsFullSimulation) {
  // Corpus: every unique block under the testbed and the MCA configuration.
  const driver::BlockSet set = driver::dedup_blocks(kernels::test_matrix());
  JumpTally corpus;
  for (const driver::Block& b : set.blocks) {
    const asmir::Program& prog = b.gen.program;
    const std::string label = b.mm->name() + " " + b.gen.assembly;
    check_jump(prog, *b.mm, exec::testbed_config(b.mm->micro()), label, corpus);
    check_jump(prog, *b.mm, mca_config(b.mm->micro()), label, corpus);
  }
  EXPECT_EQ(corpus.runs, 498);
  // 434 of 498 at this writing.  The rest keep a front end that runs ahead
  // of a scheduler window that is not full, so the youngest entries are
  // examined as they arrive and neither the whole state nor the back end
  // alone recurs (docs/methodology.md).
  EXPECT_GE(corpus.jumped * 100, corpus.runs * 85);
  std::printf("corpus: jump fired on %d of %d runs; %llu of %llu cycles stepped\n",
              corpus.jumped, corpus.runs,
              static_cast<unsigned long long>(corpus.stepped),
              static_cast<unsigned long long>(corpus.full));

  // Generated bodies: mixed strides, store forwarding, RMW and
  // non-temporal stores on both x86 machines and configurations.
  JumpTally random;
  support::Rng rng(27);
  for (int i = 0; i < 320; ++i) {
    const auto micro = i % 2 ? Micro::GoldenCove : Micro::Zen4;
    const auto& mm = uarch::machine(micro);
    const std::string body = test::random_body(rng, false);
    const auto prog = asmir::parse(body, mm.isa());
    check_jump(prog, mm,
               i % 4 < 2 ? exec::testbed_config(micro) : mca_config(micro),
               body, random);
  }
  EXPECT_GT(random.jumped, 0);

  // The instruction microbenchmark loops (measure_inverse_throughput and
  // measure_latency), with the timeline recorded for the first iterations.
  JumpTally bench;
  const std::pair<Micro, const char*> templates[] = {
      {Micro::NeoverseV2, "fadd v{d}.2d, v{s}.2d, v28.2d"},
      {Micro::NeoverseV2, "fmla v{d}.2d, v{s}.2d, v28.2d"},
      {Micro::NeoverseV2, "fdiv d{d}, d{s}, d28"},
      {Micro::NeoverseV2, "ld1d {z{d}.d}, p0/z, [x1, z30.d, lsl #3]"},
      {Micro::GoldenCove, "vaddpd %zmm28, %zmm{s}, %zmm{d}"},
      {Micro::GoldenCove, "vdivpd %zmm28, %zmm{s}, %zmm{d}"},
      {Micro::GoldenCove, "vfmadd231sd %xmm28, %xmm29, %xmm{d}"},
      {Micro::Zen4, "vmulpd %ymm28, %ymm{s}, %ymm{d}"},
      {Micro::Zen4, "vdivsd %xmm28, %xmm{s}, %xmm{d}"},
      {Micro::Zen4, "vgatherdpd (%rax,%xmm30,8), %ymm{d}{%k1}"},
  };
  for (const auto& [micro, tmpl] : templates) {
    const auto& mm = uarch::machine(micro);
    const std::string close = mm.isa() == asmir::Isa::AArch64
                                  ? "subs x9, x9, #1\nb.ne .Loop\n"
                                  : "subq $1, %r9\njne .Loop\n";
    std::string tput;
    for (int i = 0; i < 24; ++i) tput += exec::instantiate_template(tmpl, i, i) + "\n";
    std::string lat;
    for (int i = 0; i < 8; ++i)
      lat += exec::instantiate_template(tmpl, (i + 1) % 8, i) + "\n";
    PipelineConfig cfg = exec::testbed_config(micro);
    cfg.timeline_iterations = 3;
    for (const std::string& body : {tput + close, lat + close})
      check_jump(asmir::parse(body, mm.isa()), mm, cfg, body, bench);
  }
  EXPECT_GT(bench.jumped, 0);
}

TEST(Pipeline, JumpFallsBackWithoutARepeatCertificate) {
  JumpTally tally;
  const auto& mm = uarch::machine(Micro::GoldenCove);
  // Front-end bound (taken-branch bubble): the state repeats every
  // iteration.
  const auto prog =
      parse("vaddpd %zmm1, %zmm2, %zmm0\naddq $8, %rax\njne .L1\n", mm);
  auto cfg = exec::testbed_config(Micro::GoldenCove);
  ASSERT_TRUE(check_jump(prog, mm, cfg, "periodic", tally));
  // A latency that is not a multiple of 2^-10: shifted times would round,
  // so no state is certified and every cycle is stepped.
  cfg.latency_overrides["vaddpd v512,v512,v512"] = 4.1;
  EXPECT_FALSE(check_jump(prog, mm, cfg, "inexact latency", tally));
  // Too short a run for a period to fit before the end comes into view.
  cfg = exec::testbed_config(Micro::GoldenCove);
  cfg.warmup_iterations = 0;
  cfg.iterations = 2;
  EXPECT_FALSE(check_jump(prog, mm, cfg, "two iterations", tally));
  // The front end runs ahead of a throughput-bound back end and the ROB
  // never fills within the run: no state recurs.
  const auto ahead = parse("vaddpd %zmm1, %zmm2, %zmm0\naddq $8, %rax\n", mm);
  EXPECT_FALSE(check_jump(ahead, mm, plain(), "front end ahead", tally));
}
