// Tests for the Execution-Cache-Memory composition (the paper's stated
// future work): in-core split, transfer terms, data-location monotonicity,
// write-allocate handling and the saturation law, plus the VP014 replay of
// the memory-boundary volume and its warmup cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "asmir/parser.hpp"
#include "ecm/crosscheck.hpp"
#include "ecm/ecm.hpp"
#include "kernels/kernels.hpp"
#include "memsim/memsim.hpp"
#include "power/power.hpp"
#include "traffic/crosscheck.hpp"
#include "uarch/model.hpp"

using namespace incore;
using ecm::DataLocation;
using kernels::Compiler;
using kernels::Kernel;
using kernels::OptLevel;
using uarch::Micro;

namespace {

kernels::Variant triad(Micro m) {
  return {Kernel::SchoenauerTriad, kernels::compilers_for(m).front(),
          OptLevel::O3, m};
}

}  // namespace

TEST(EcmHierarchy, PresetsExistForAllMachines) {
  for (Micro m : uarch::all_micros()) {
    auto h = ecm::hierarchy(m);
    EXPECT_GT(h.cy_per_cl_l1_l2, 0.0);
    EXPECT_GT(h.cy_per_cl_l2_l3, 0.0);
    // Canonical ECM: the per-line memory term reflects the *saturated*
    // socket bandwidth and is therefore small per core.
    EXPECT_GT(h.cy_per_cl_l3_mem, 0.0);
    EXPECT_NEAR(h.socket_cl_per_cy * h.cy_per_cl_l3_mem, 1.0, 1e-9);
  }
}

TEST(EcmHierarchy, OnlyGraceEvadesWriteAllocates) {
  EXPECT_TRUE(ecm::hierarchy(Micro::NeoverseV2).write_allocate_evaded);
  EXPECT_FALSE(ecm::hierarchy(Micro::GoldenCove).write_allocate_evaded);
  EXPECT_FALSE(ecm::hierarchy(Micro::Zen4).write_allocate_evaded);
}

TEST(EcmPrediction, MonotoneInDataLocation) {
  for (Micro m : uarch::all_micros()) {
    auto p = ecm::predict_kernel(triad(m));
    double l1 = p.cycles(DataLocation::L1);
    double l2 = p.cycles(DataLocation::L2);
    double l3 = p.cycles(DataLocation::L3);
    double mem = p.cycles(DataLocation::Memory);
    EXPECT_LE(l1, l2);
    EXPECT_LE(l2, l3);
    EXPECT_LE(l3, mem);
    EXPECT_GT(mem, 0.0);
  }
}

TEST(EcmPrediction, L1EqualsInCoreBound) {
  // With data in L1 the ECM prediction is the in-core model itself.
  auto v = triad(Micro::Zen4);
  auto g = kernels::generate(v);
  auto rep = analysis::analyze(g.program, uarch::machine(v.target));
  auto p = ecm::predict_kernel(v);
  EXPECT_NEAR(p.cycles(DataLocation::L1),
              std::max(p.t_ol, p.t_nol), 1e-9);
  EXPECT_LE(p.cycles(DataLocation::L1), rep.predicted_cycles() + 1e-6);
}

TEST(EcmPrediction, WriteAllocateChargesExtraLines) {
  // INIT is a pure store stream: one stored line per 8 doubles.  Genoa
  // write-allocates each line before overwriting it (2 lines / 8 elements).
  // Grace's automatic claim would evade the allocate, but the traffic
  // engine replays the trace simulator's detector, which claims only
  // full-line sequential store runs -- the 128-bit store touches every
  // line four times, each repeat resets the sequential run, so nothing is
  // claimed and Grace pays the write-allocate too (see docs/multicore.md).
  kernels::Variant zn{Kernel::Init, Compiler::Gcc, OptLevel::O3, Micro::Zen4};
  kernels::Variant nv{Kernel::Init, Compiler::Gcc, OptLevel::O3,
                      Micro::NeoverseV2};
  auto genoa = ecm::predict_kernel(zn);
  auto grace = ecm::predict_kernel(nv);
  auto gn = kernels::generate(zn);
  auto gg = kernels::generate(nv);
  double genoa_lines = genoa.mem_lines_per_iter / gn.elements_per_iteration;
  double grace_lines = grace.mem_lines_per_iter / gg.elements_per_iteration;
  EXPECT_NEAR(genoa_lines, 2.0 / 8.0, 1e-9);  // store + write-allocate
  EXPECT_NEAR(grace_lines, 2.0 / 8.0, 1e-9);  // claim never fires
}

TEST(EcmPrediction, SaturationCoresReasonable) {
  for (Micro m : uarch::all_micros()) {
    auto p = ecm::predict_kernel(triad(m));
    int n = p.saturation_cores(ecm::hierarchy(m));
    EXPECT_GE(n, 2);   // streaming triads never saturate with one core
    EXPECT_LE(n, 64);  // ...and well within a socket
  }
}

TEST(EcmPrediction, MulticoreScalesThenSaturates) {
  auto v = triad(Micro::GoldenCove);
  auto p = ecm::predict_kernel(v);
  auto h = ecm::hierarchy(Micro::GoldenCove);
  double t1 = p.multicore_cycles(1, h);
  double t2 = p.multicore_cycles(2, h);
  double t_many = p.multicore_cycles(52, h);
  EXPECT_NEAR(t2, t1 / 2.0, 1e-9);  // linear regime
  EXPECT_LT(t_many, t2);
  // Beyond saturation, more cores do not help.
  EXPECT_NEAR(p.multicore_cycles(52, h), p.multicore_cycles(40, h), 1e-9);
}

TEST(EcmSplit, MemPortsSeparatedFromCompute) {
  // A load-only kernel has T_nOL > 0 and tiny T_OL.
  auto v = kernels::Variant{Kernel::SumReduction, Compiler::OneApi,
                            OptLevel::O3, Micro::GoldenCove};
  auto g = kernels::generate(v);
  auto rep = analysis::analyze(g.program, uarch::machine(v.target));
  auto split = ecm::split_in_core(rep);
  EXPECT_GT(split.t_nol, 0.0);
  EXPECT_GT(split.t_ol, 0.0);  // adds + loop control
}

TEST(EcmNames, LocationStrings) {
  EXPECT_STREQ(ecm::to_string(DataLocation::L1), "L1");
  EXPECT_STREQ(ecm::to_string(DataLocation::Memory), "MEM");
}

TEST(EcmPrediction, ComputeOnlyKernelsScaleLinearly) {
  // pi moves no data: no saturation, linear scaling with cores.
  kernels::Variant v{Kernel::Pi, Compiler::Gcc, OptLevel::O2,
                     Micro::NeoverseV2};
  auto p = ecm::predict_kernel(v);
  auto h = ecm::hierarchy(Micro::NeoverseV2);
  EXPECT_GT(p.saturation_cores(h), 72);
  double t1 = p.multicore_cycles(1, h);
  double t72 = p.multicore_cycles(72, h);
  EXPECT_NEAR(t72, t1 / 72.0, 1e-9);
}

TEST(EcmHierarchy, LiteralsPinnedToMemsimDerivation) {
  // The hierarchy literals in uarch::default_hierarchy_params are the
  // one-time evaluation of 64 B * base frequency over the saturated socket
  // bandwidth (streaming read fraction 2/3, all cores active).  Re-derive
  // them live from the memsim preset and the power model so a change to
  // either side fails here instead of silently drifting apart.
  for (Micro m : uarch::all_micros()) {
    const memsim::MemSystemConfig cfg = memsim::preset(m);
    const double bw =
        memsim::System(cfg).achieved_bw(cfg.cores, 2.0 / 3.0);  // GB/s
    const double ghz = power::chip(m).base_ghz;
    const auto h = ecm::hierarchy(m);
    EXPECT_NEAR(h.cy_per_cl_l3_mem, 64.0 * ghz / bw, 1e-12);
    EXPECT_NEAR(h.socket_cl_per_cy, bw / (64.0 * ghz), 1e-12);
    EXPECT_EQ(h.socket_cores, cfg.cores);
  }
}

TEST(EcmScaling, MonotoneAndFlatPastSaturation) {
  // Property: for every machine the multicore curve is non-increasing in
  // the core count and exactly flat once the saturation point is reached.
  for (Micro m : uarch::all_micros()) {
    auto p = ecm::predict_kernel(triad(m));
    auto h = ecm::hierarchy(m);
    const int n_sat = p.saturation_cores(h);
    double prev = p.multicore_cycles(1, h);
    for (int n = 2; n <= h.socket_cores; ++n) {
      const double cy = p.multicore_cycles(n, h);
      EXPECT_LE(cy, prev * (1.0 + 1e-12)) << to_string(m) << " n=" << n;
      if (n > n_sat) {
        EXPECT_NEAR(cy, prev, 1e-12) << to_string(m) << " n=" << n;
      }
      prev = cy;
    }
  }
}

namespace {

struct ScalingGolden {
  Micro micro;
  Kernel kernel;
  int n_sat;
  double c1, c2, c4, c_sat;  // cycles/iter at 1, 2, 4 and n_sat cores
};

}  // namespace

TEST(EcmScaling, GoldenCurvesOneKernelPerFamily) {
  // Golden scaling fixtures: STREAM triad, one kernel per machine family.
  // The curve halves per doubling in the linear regime and lands on the
  // bandwidth ceiling at n_sat; the socket point equals the n_sat point.
  const ScalingGolden golden[] = {
      {Micro::NeoverseV2, Kernel::StreamTriad, 13, 5.6328488552970013,
       2.8164244276485007, 1.4082122138242503, 0.46618315399183607},
      {Micro::GoldenCove, Kernel::StreamTriad, 13, 23.876221557975978,
       11.938110778987989, 5.9690553894939944, 1.8762214983713357},
      {Micro::Zen4, Kernel::StreamTriad, 11, 9.4066924718583262,
       4.7033462359291631, 2.3516731179645816, 0.90669241225368125},
  };
  for (const ScalingGolden& g : golden) {
    kernels::Variant v{g.kernel, kernels::compilers_for(g.micro).front(),
                       OptLevel::O3, g.micro};
    auto p = ecm::predict_kernel(v);
    auto h = ecm::hierarchy(g.micro);
    EXPECT_EQ(p.saturation_cores(h), g.n_sat) << to_string(g.micro);
    EXPECT_NEAR(p.multicore_cycles(1, h), g.c1, 1e-9) << to_string(g.micro);
    EXPECT_NEAR(p.multicore_cycles(2, h), g.c2, 1e-9) << to_string(g.micro);
    EXPECT_NEAR(p.multicore_cycles(4, h), g.c4, 1e-9) << to_string(g.micro);
    EXPECT_NEAR(p.multicore_cycles(g.n_sat, h), g.c_sat, 1e-9)
        << to_string(g.micro);
    EXPECT_NEAR(p.multicore_cycles(h.socket_cores, h), g.c_sat, 1e-9)
        << to_string(g.micro);
  }
}

// ------------------------------------------------------- VP014 replay

TEST(EcmCrosscheck, StreamTriadReplayMatchesStaticVolume) {
  const ecm::ScalingOptions opt;
  for (Micro m : uarch::all_micros()) {
    const kernels::Variant v{Kernel::StreamTriad,
                             kernels::compilers_for(m).front(), OptLevel::O3,
                             m};
    const kernels::GeneratedKernel g = kernels::generate(v);
    const ecm::ScalingCheck c =
        ecm::crosscheck_scaling(g.program, uarch::machine(m), opt);
    EXPECT_FALSE(c.skipped) << to_string(m);
    EXPECT_TRUE(c.replay_ran) << to_string(m);
    EXPECT_FALSE(c.capped) << to_string(m);
    const double scale =
        std::max(std::fabs(c.trace_mem_lines), std::fabs(c.static_mem_lines));
    EXPECT_GT(scale, 0) << to_string(m);
    EXPECT_LE(std::fabs(c.trace_mem_lines - c.static_mem_lines),
              opt.tolerance * scale)
        << to_string(m);
  }
}

// VP011 and VP014 size their warmup with the same rule and the same cap;
// they differ only in the measured window, so an uncapped block warms up
// for the same number of iterations in both.
TEST(EcmCrosscheck, UncappedWarmupMatchesTrafficCrosscheck) {
  const kernels::GeneratedKernel g = kernels::generate(triad(Micro::Zen4));
  const uarch::MachineModel& mm = uarch::machine(Micro::Zen4);
  const ecm::ScalingCheck e = ecm::crosscheck_scaling(g.program, mm);
  const traffic::Crosscheck t = traffic::crosscheck(g.program, mm);
  ASSERT_TRUE(e.replay_ran);
  ASSERT_FALSE(t.skipped);
  EXPECT_FALSE(e.capped);
  EXPECT_FALSE(t.capped);
  EXPECT_GT(e.warmup_iterations, 1024);
  EXPECT_EQ(e.warmup_iterations, t.warmup_iterations);
}

// The Genoa sum reduction reads one 8-byte stream, so the 1.5 x 13 MiB
// fill needs 2,563,072 warmup iterations, under the cap VP014 shares with
// VP011: it warms up exactly as long as VP011, and the replayed volume
// agrees.
TEST(EcmCrosscheck, GenoaSumO1WarmupMatchesTrafficAndAgrees) {
  const kernels::GeneratedKernel g = kernels::generate(
      {Kernel::SumReduction, Compiler::Gcc, OptLevel::O1, Micro::Zen4});
  const uarch::MachineModel& mm = uarch::machine(Micro::Zen4);
  const ecm::ScalingCheck c = ecm::crosscheck_scaling(g.program, mm);
  const traffic::Crosscheck t = traffic::crosscheck(g.program, mm);
  EXPECT_TRUE(c.replay_ran);
  EXPECT_FALSE(c.capped);
  EXPECT_EQ(c.warmup_iterations, 2563072);
  EXPECT_EQ(c.warmup_iterations, t.warmup_iterations);
  EXPECT_DOUBLE_EQ(c.trace_mem_lines, c.static_mem_lines);
  EXPECT_TRUE(c.ok);
  for (ecm::ScalingCause cause : c.causes) {
    EXPECT_NE(cause, ecm::ScalingCause::TransferOverlapMismatch);
  }
}

// VP014's cap, as VP011's (TrafficCrosscheck.ByteStrideOnGenoaCapsWarmup):
// a 1-byte-stride stream on Genoa needs 1.5 x 13 MiB of warmup
// iterations, past 1 << 23 in total.  The pure stream still agrees.
TEST(EcmCrosscheck, ByteStrideOnGenoaCapsWarmup) {
  const asmir::Program prog = asmir::parse(R"(
.L3:
  movzbl (%rax), %ecx
  addq $1, %rax
  cmpq %rdx, %rax
  jne .L3
)",
                                           asmir::Isa::X86_64);
  const ecm::ScalingOptions opt;
  const ecm::ScalingCheck c =
      ecm::crosscheck_scaling(prog, uarch::machine(Micro::Zen4), opt);
  EXPECT_TRUE(c.replay_ran);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(opt.max_total_iterations, 1ll << 23);
  EXPECT_EQ(c.warmup_iterations,
            opt.max_total_iterations - opt.measure_iterations);
  EXPECT_DOUBLE_EQ(c.trace_mem_lines, c.static_mem_lines);
  EXPECT_TRUE(c.ok);
  for (ecm::ScalingCause cause : c.causes) {
    EXPECT_NE(cause, ecm::ScalingCause::TransferOverlapMismatch);
  }
}

// A load band 64 KiB ahead of a stride-8 stream is reused 8192
// iterations later from L2.  A cap that leaves a 2048-iteration warmup never reaches
// that reuse: the replay meters the trailing band as memory reads, and the
// divergence is attributed to the truncated warmup, not failed.
TEST(EcmCrosscheck, TruncatedWarmupDivergenceAttributed) {
  const asmir::Program prog = asmir::parse(R"(
.L4:
  vmovsd (%rax), %xmm0
  vaddsd 65536(%rax), %xmm0, %xmm0
  addq $8, %rax
  cmpq %rdx, %rax
  jne .L4
)",
                                           asmir::Isa::X86_64);
  ecm::ScalingOptions opt;
  opt.max_total_iterations = 4096;
  const ecm::ScalingCheck c =
      ecm::crosscheck_scaling(prog, uarch::machine(Micro::Zen4), opt);
  EXPECT_TRUE(c.replay_ran);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(c.warmup_iterations, 2048);
  EXPECT_GT(c.trace_mem_lines, c.static_mem_lines);
  EXPECT_TRUE(c.ok);
  bool truncated = false;
  for (std::size_t i = 0; i < c.causes.size(); ++i) {
    truncated |= c.causes[i] == ecm::ScalingCause::TransferOverlapMismatch &&
                 c.details[i].find("warmup truncated") != std::string::npos;
  }
  EXPECT_TRUE(truncated);
}
