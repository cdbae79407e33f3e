// Tests for the execution testbed (simulated silicon): single-instruction
// microbenchmarks must reproduce the machine-model values, and full-kernel
// measurements must dominate the analyzer's lower bound.

#include <gtest/gtest.h>

#include <ostream>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "uarch/model.hpp"

using namespace incore;
using uarch::Micro;
using uarch::machine;

namespace {

asmir::Program parse(const char* text, const uarch::MachineModel& mm) {
  return asmir::parse(text, mm.isa());
}

}  // namespace

TEST(ExecMicrobench, V2VectorAddThroughput) {
  // Table III: 4 instructions/cy (8 DP elem/cy).
  double inv = exec::measure_inverse_throughput(
      "fadd v{d}.2d, v{s}.2d, v28.2d", machine(Micro::NeoverseV2));
  EXPECT_NEAR(inv, 0.25, 0.05);
}

TEST(ExecMicrobench, V2VectorAddLatency) {
  double lat = exec::measure_latency("fadd v{d}.2d, v{s}.2d, v28.2d",
                                     machine(Micro::NeoverseV2));
  EXPECT_NEAR(lat, 2.0, 0.1);
}

TEST(ExecMicrobench, V2FmaLatency) {
  double lat = exec::measure_latency("fmla v{d}.2d, v{s}.2d, v28.2d",
                                     machine(Micro::NeoverseV2));
  EXPECT_NEAR(lat, 4.0, 0.1);
}

TEST(ExecMicrobench, GoldenCoveZmmFmaThroughput) {
  // 2/cy -> 16 DP elem/cy.
  double inv = exec::measure_inverse_throughput(
      "vfmadd231pd %zmm28, %zmm29, %zmm{d}", machine(Micro::GoldenCove));
  EXPECT_NEAR(inv, 0.5, 0.1);
}

TEST(ExecMicrobench, GoldenCoveDividerSerializes) {
  double inv = exec::measure_inverse_throughput(
      "vdivpd %zmm28, %zmm29, %zmm{d}", machine(Micro::GoldenCove), 8);
  EXPECT_NEAR(inv, 16.0, 1.0);
}

TEST(ExecMicrobench, Zen4ScalarDivideBeatsModel) {
  // The model says 6.5 cy; the simulated silicon (early-exit divider)
  // delivers ~5 cy -- the paper's pi-kernel discrepancy.
  const auto& mm = machine(Micro::Zen4);
  double inv = exec::measure_inverse_throughput(
      "vdivsd %xmm28, %xmm29, %xmm{d}", mm, 8);
  EXPECT_NEAR(inv, 5.0, 0.5);
  EXPECT_LT(inv, 6.0);
}

TEST(ExecMicrobench, Zen4YmmAddLatency) {
  double lat = exec::measure_latency("vaddpd %ymm28, %ymm{s}, %ymm{d}",
                                     machine(Micro::Zen4));
  EXPECT_NEAR(lat, 3.0, 0.1);
}

TEST(Exec, MoveEliminationOnV2) {
  // fmadd -> fmov chain: the analyzer (OSACA view) counts 4 + 2 = 6 cy/iter;
  // the V2 testbed eliminates the move: ~4 cy/iter.
  const auto& mm = machine(Micro::NeoverseV2);
  auto prog = parse(
      "fmadd d0, d1, d2, d3\n"
      "fmov d3, d0\n"
      "subs x9, x9, #1\n"
      "b.ne .L\n",
      mm);
  auto rep = analysis::analyze(prog, mm);
  EXPECT_NEAR(rep.loop_carried_cycles(), 6.0, 1e-9);
  auto meas = exec::run(prog, mm);
  EXPECT_LT(meas.cycles_per_iteration, rep.predicted_cycles());
  EXPECT_NEAR(meas.cycles_per_iteration, 4.0, 0.5);
}

TEST(Exec, NoMoveEliminationOnGoldenCove) {
  const auto& mm = machine(Micro::GoldenCove);
  auto prog = parse(
      "vfmadd231sd %xmm1, %xmm2, %xmm0\n"
      "vmovapd %xmm0, %xmm3\n"
      "vaddsd %xmm3, %xmm4, %xmm0\n"
      "subq $1, %r9\n"
      "jne .L\n",
      mm);
  auto rep = analysis::analyze(prog, mm);
  auto meas = exec::run(prog, mm);
  // Chain fully honored: measurement at or above the model LCD.
  EXPECT_GE(meas.cycles_per_iteration, rep.loop_carried_cycles() - 0.2);
}

struct DominationCase {
  Micro micro;
  const char* kernel;
  const char* text;
};

// Names a case "<CPU>_<kernel>" (e.g. "SPR_triad"), so the ctest name taken
// from it is the same in every build; gtest's default printout would embed
// the address of `text`.
void PrintTo(const DominationCase& c, std::ostream* os) {
  *os << uarch::cpu_short_name(c.micro) << '_' << c.kernel;
}

class KernelDomination : public ::testing::TestWithParam<DominationCase> {};

TEST_P(KernelDomination, MeasurementDominatesLowerBound) {
  const DominationCase& c = GetParam();
  const auto& mm = machine(c.micro);
  asmir::Program prog = asmir::parse(c.text, mm.isa());
  auto rep = analysis::analyze(prog, mm);
  auto meas = exec::run(prog, mm);
  // The analyzer is a lower bound (modulo the documented move-elimination
  // exception, which these kernels avoid).
  EXPECT_GE(meas.cycles_per_iteration, rep.predicted_cycles() - 0.05)
      << "kernel:\n" << c.text;
}

static const char* kV2Triad =
    "ldr q0, [x1], #16\n"
    "ldr q1, [x2], #16\n"
    "ldr q2, [x3], #16\n"
    "fmla v0.2d, v1.2d, v2.2d\n"
    "str q0, [x4], #16\n"
    "subs x9, x9, #2\n"
    "b.ne .L\n";

static const char* kSprTriad =
    "vmovupd (%rax,%rcx), %zmm0\n"
    "vmovupd (%rbx,%rcx), %zmm1\n"
    "vfmadd231pd (%rdx,%rcx), %zmm1, %zmm0\n"
    "vmovupd %zmm0, (%rsi,%rcx)\n"
    "addq $64, %rcx\n"
    "cmpq %rdi, %rcx\n"
    "jne .L\n";

static const char* kZen4Sum =
    "vaddpd (%rax,%rcx), %ymm0, %ymm0\n"
    "vaddpd 32(%rax,%rcx), %ymm1, %ymm1\n"
    "addq $64, %rcx\n"
    "cmpq %rdi, %rcx\n"
    "jne .L\n";

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelDomination,
    ::testing::Values(DominationCase{Micro::NeoverseV2, "triad", kV2Triad},
                      DominationCase{Micro::GoldenCove, "triad", kSprTriad},
                      DominationCase{Micro::Zen4, "sum", kZen4Sum}));

TEST(Exec, BranchBubbleCostsCyclesOnTinyLoops) {
  const auto& mm = machine(Micro::GoldenCove);
  auto prog = parse(
      "vaddpd %zmm1, %zmm2, %zmm0\n"
      "subq $1, %r9\n"
      "jne .L\n",
      mm);
  auto cfg = exec::testbed_config(Micro::GoldenCove);
  cfg.taken_branch_bubble = 2.0;  // fetch-bound regime
  auto with_bubble = exec::run(prog, mm, cfg);
  cfg.taken_branch_bubble = 0.0;
  auto without = exec::run(prog, mm, cfg);
  EXPECT_GT(with_bubble.cycles_per_iteration,
            without.cycles_per_iteration + 0.5);
}

TEST(Exec, ZeroIdiomBreaksChainInTestbed) {
  const auto& mm = machine(Micro::Zen4);
  auto prog = parse(
      "vxorpd %ymm0, %ymm0, %ymm0\n"
      "vfmadd231pd %ymm1, %ymm2, %ymm0\n"
      "subq $1, %r9\n"
      "jne .L\n",
      mm);
  auto meas = exec::run(prog, mm);
  // Without idiom recognition this would serialize at >= 4 cy/iter.
  EXPECT_LT(meas.cycles_per_iteration, 3.0);
}

TEST(Exec, PortUtilizationReported) {
  const auto& mm = machine(Micro::NeoverseV2);
  auto prog = parse(
      "fadd v0.2d, v1.2d, v2.2d\n"
      "subs x9, x9, #1\n"
      "b.ne .L\n",
      mm);
  auto meas = exec::run(prog, mm);
  ASSERT_EQ(meas.port_utilization.size(), mm.port_count());
  double total = 0.0;
  for (double u : meas.port_utilization) total += u;
  EXPECT_GT(total, 0.0);
}

TEST(Exec, EmptyProgramIsZero) {
  asmir::Program empty;
  empty.isa = asmir::Isa::AArch64;
  auto meas = exec::run(empty, machine(Micro::NeoverseV2));
  EXPECT_EQ(meas.cycles_per_iteration, 0.0);
}

TEST(Exec, LatencyBoundChainMeasuresLatency) {
  const auto& mm = machine(Micro::GoldenCove);
  auto prog = parse(
      "vaddsd %xmm1, %xmm0, %xmm0\n"
      "subq $1, %r9\n"
      "jne .L\n",
      mm);
  auto meas = exec::run(prog, mm);
  // Serial scalar add chain: 2 cy/iter (plus small front-end effects).
  EXPECT_NEAR(meas.cycles_per_iteration, 2.0, 0.3);
}

TEST(Exec, AccumulatorForwardingSpeedsUpFmaChain) {
  const auto& mm = machine(Micro::NeoverseV2);
  auto prog = asmir::parse(
      "fmla v0.2d, v1.2d, v2.2d\nsubs x9, x9, #1\nb.ne .L\n", mm.isa());
  auto cfg = exec::testbed_config(Micro::NeoverseV2);
  cfg.taken_branch_bubble = 0.0;
  auto plain = exec::run(prog, mm, cfg);
  EXPECT_NEAR(plain.cycles_per_iteration, 4.0, 0.1);
  cfg.model_accumulator_forwarding = true;
  auto fwd = exec::run(prog, mm, cfg);
  EXPECT_NEAR(fwd.cycles_per_iteration, 2.0, 0.1);
}

TEST(ExecMicrobench, GatherSerializationMatchesTableIII) {
  // V2: 1/4 cache line per cycle -> a 2-element z gather every 8 cycles.
  const auto& v2 = machine(Micro::NeoverseV2);
  double inv = exec::measure_inverse_throughput(
      "ld1d {z{d}.d}, p0/z, [x1, z30.d, lsl #3]", v2, 6);
  EXPECT_NEAR(inv, 8.0, 0.5);
  // SPR: 1/3 CL/cy -> an 8-element zmm gather every 24 cycles.
  const auto& glc = machine(Micro::GoldenCove);
  double inv_glc = exec::measure_inverse_throughput(
      "vgatherdpd (%rax,%ymm30,8), %zmm{d}{%k1}", glc, 6);
  EXPECT_NEAR(inv_glc, 24.0, 1.0);
}
