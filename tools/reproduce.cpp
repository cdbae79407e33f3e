// `incore-cli reproduce`: the paper's artifacts (Tables I-III, Figs. 1-4),
// the design-choice ablations and the extension studies, one render
// function each.  Every renderer prints its artifact to stdout; with no
// argument `reproduce` prints them all in paper order, which is the text
// checked in as tests/golden/paper.txt.
//
// "Measured" values come from this repository's simulators (the hardware
// substitute; see DESIGN.md).  EXPERIMENTS.md sets them beside the paper's.

#include "reproduce.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/depgraph.hpp"
#include "analysis/portpressure.hpp"
#include "asmir/parser.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/ecm.hpp"
#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "memsim/memsim.hpp"
#include "power/power.hpp"
#include "power/thermal.hpp"
#include "report/report.hpp"
#include "roofline/roofline.hpp"
#include "server/sweep_args.hpp"
#include "support/csv.hpp"
#include "support/ks.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"

namespace incore::reproduce {
namespace {

using memsim::StoreKind;
using power::IsaClass;
using support::format;

/// The -O3 build of a kernel by the machine's preferred compiler.
kernels::Variant preferred_o3(kernels::Kernel k, uarch::Micro m) {
  return {k, kernels::compilers_for(m).front(), kernels::OptLevel::O3, m};
}

// Table I: node-level comparison of the three machines.
//
// Static specification data (core counts, cache sizes, memory, TDP) is part
// of the machine description; the derived rows are produced by the models:
//   * theoretical / achievable DP peak  <- power model (sustained clocks)
//     with the FMA kernel efficiency measured on the execution testbed;
//   * theoretical / measured memory bandwidth <- memory-system model.
namespace table1 {

struct StaticSpec {
  const char* frequency;
  const char* cache;
  const char* memory;
  const char* numa;
};

StaticSpec spec(uarch::Micro m) {
  switch (m) {
    case uarch::Micro::NeoverseV2:
      return {"3.4 / 3.4 GHz", "64 KB / 1 MB / 114 MB", "240 GB LPDDR5X", "1"};
    case uarch::Micro::GoldenCove:
      return {"3.8 / 2.0 GHz", "48 KB / 2 MB / 105 MB", "512 GB DDR5",
              "4 (SNC)"};
    case uarch::Micro::Zen4:
      return {"3.7 / 2.55 GHz", "32 KB / 1 MB / 1152 MB", "384 GB DDR5", "1"};
  }
  return {};
}

/// FMA-kernel efficiency on the simulated silicon: how much of the port-
/// limited FMA rate a real unrolled loop sustains (front end, loop control).
double fma_kernel_efficiency(uarch::Micro m) {
  const char* tmpl = nullptr;
  double ideal_inv = 0;
  switch (m) {
    case uarch::Micro::NeoverseV2:
      tmpl = "fmla v{d}.2d, v{s}.2d, v28.2d";
      ideal_inv = 0.25;
      break;
    case uarch::Micro::GoldenCove:
      tmpl = "vfmadd231pd %zmm28, %zmm29, %zmm{d}";
      ideal_inv = 0.5;
      break;
    case uarch::Micro::Zen4:
      tmpl = "vfmadd231pd %ymm28, %ymm29, %ymm{d}";
      ideal_inv = 0.5;
      break;
  }
  return ideal_inv /
         exec::measure_inverse_throughput(tmpl, uarch::machine(m), 24);
}

void render() {
  std::printf("Table I: node-level comparison (model-derived rows marked *)\n\n");
  report::Table t({"", "GCS", "SPR", "Genoa"});

  auto row = [&t](const char* name, auto getter) {
    std::vector<std::string> r{name};
    for (uarch::Micro m : uarch::all_micros()) r.push_back(getter(m));
    t.add_row(r);
  };

  row("Cores", [](uarch::Micro m) {
    return std::to_string(power::chip(m).cores);
  });
  row("Frequency (max/base)", [](uarch::Micro m) {
    return std::string(spec(m).frequency);
  });
  row("*Theor. DP peak", [](uarch::Micro m) {
    return format("%.2f Tflop/s", power::peak_flops(m).theoretical_tflops);
  });
  row("*Achiev. DP peak", [](uarch::Micro m) {
    double eff = fma_kernel_efficiency(m);
    return format("%.2f Tflop/s",
                  power::peak_flops(m).achievable_tflops * eff);
  });
  row("TDP", [](uarch::Micro m) {
    return format("%.0f W", power::chip(m).tdp_w);
  });
  row("Cache (L1/L2/L3)", [](uarch::Micro m) {
    return std::string(spec(m).cache);
  });
  row("Main memory", [](uarch::Micro m) {
    return std::string(spec(m).memory);
  });
  row("ccNUMA domains", [](uarch::Micro m) {
    return std::string(spec(m).numa);
  });
  row("*Mem BW theor.", [](uarch::Micro m) {
    return format("%.0f GB/s", memsim::preset(m).theoretical_bw_gbs);
  });
  row("*Mem BW measured", [](uarch::Micro m) {
    memsim::System sys(memsim::preset(m));
    return format("%.0f GB/s", sys.achieved_bw(sys.config().cores, 2.0 / 3.0));
  });
  row("*BW efficiency", [](uarch::Micro m) {
    memsim::System sys(memsim::preset(m));
    double eff = sys.achieved_bw(sys.config().cores, 2.0 / 3.0) /
                 sys.config().theoretical_bw_gbs;
    return format("%.0f%%", 100.0 * eff);
  });

  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nPaper reference: peaks 3.92/6.32/8.52 theor., 3.82/3.49/5.10 achiev. "
      "Tflop/s;\nbandwidth 546/307/461 theor., 467/273/360 GB/s measured "
      "(86%%/89%%/78%%).\n");
}

}  // namespace table1

// Table II: in-core features and port-model summary.
//
// Everything is read off the machine models, then the load/store widths are
// *verified* by issuing synthetic micro-op mixes through the execution
// testbed (the number of loads/stores the simulated core sustains per cycle
// must match the declared pipe counts).
namespace table2 {

int int_units(const uarch::MachineModel& mm) {
  switch (mm.micro()) {
    case uarch::Micro::NeoverseV2:
      return mm.count_ports_matching("I") + mm.count_ports_matching("M");
    case uarch::Micro::GoldenCove:
      return 5;  // P0, P1, P5, P6, P10
    case uarch::Micro::Zen4:
      return mm.count_ports_matching("ALU");
  }
  return 0;
}

int fp_units(const uarch::MachineModel& mm) {
  switch (mm.micro()) {
    case uarch::Micro::NeoverseV2: return mm.count_ports_matching("V");
    case uarch::Micro::GoldenCove: return 3;  // P0, P1, P5
    case uarch::Micro::Zen4: return mm.count_ports_matching("FP");
  }
  return 0;
}

/// Measured loads per cycle at the widest vector width (testbed check).
double measured_loads_per_cycle(const uarch::MachineModel& mm) {
  const char* tmpl = nullptr;
  switch (mm.micro()) {
    case uarch::Micro::NeoverseV2: tmpl = "ldr q{d}, [x1, #{s}]"; break;
    case uarch::Micro::GoldenCove: tmpl = "vmovupd {s}(%rax), %zmm{d}"; break;
    case uarch::Micro::Zen4: tmpl = "vmovupd {s}(%rax), %ymm{d}"; break;
  }
  return 1.0 / exec::measure_inverse_throughput(tmpl, mm, 12);
}

double measured_stores_per_cycle(const uarch::MachineModel& mm) {
  const char* tmpl = nullptr;
  switch (mm.micro()) {
    case uarch::Micro::NeoverseV2: tmpl = "str q30, [x1, #{d}]"; break;
    case uarch::Micro::GoldenCove: tmpl = "vmovupd %ymm30, {d}(%rax)"; break;
    case uarch::Micro::Zen4: tmpl = "vmovupd %ymm30, {d}(%rax)"; break;
  }
  return 1.0 / exec::measure_inverse_throughput(tmpl, mm, 12);
}

void render() {
  std::printf("Table II: in-core features (model + testbed verification)\n\n");
  report::Table t({"", "GCS (Neoverse V2)", "SPR (Golden Cove)",
                   "Genoa (Zen 4)"});
  auto row = [&t](const char* name, auto getter) {
    std::vector<std::string> r{name};
    for (uarch::Micro m : uarch::all_micros())
      r.push_back(getter(uarch::machine(m)));
    t.add_row(r);
  };

  row("Number of ports", [](const uarch::MachineModel& mm) {
    return std::to_string(mm.port_count());
  });
  row("SIMD width", [](const uarch::MachineModel& mm) {
    return format("%d B", mm.simd_width_bits / 8);
  });
  row("Int units", [](const uarch::MachineModel& mm) {
    return std::to_string(int_units(mm));
  });
  row("FP vector units", [](const uarch::MachineModel& mm) {
    return std::to_string(fp_units(mm));
  });
  row("Loads/cy (decl.)", [](const uarch::MachineModel& mm) {
    int width = mm.micro() == uarch::Micro::NeoverseV2 ? 128
                : mm.micro() == uarch::Micro::GoldenCove ? 512 : 256;
    return format("%d x %d B", mm.loads_per_cycle, width / 8);
  });
  row("Loads/cy (testbed)", [](const uarch::MachineModel& mm) {
    return format("%.2f", measured_loads_per_cycle(mm));
  });
  row("Stores/cy (decl.)", [](const uarch::MachineModel& mm) {
    int width = mm.micro() == uarch::Micro::NeoverseV2 ? 128 : 256;
    return format("%d x %d B", mm.stores_per_cycle, width / 8);
  });
  row("Stores/cy (testbed)", [](const uarch::MachineModel& mm) {
    return format("%.2f", measured_stores_per_cycle(mm));
  });

  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nPaper reference: ports 17/12/13, SIMD 16/64/32 B, int units 6/5/4,\n"
      "FP units 4/3/4, loads 3x16B / 2x64B / 2x32B, stores 2x16B / 2x32B / "
      "1x32B.\n");
}

}  // namespace table2

// Table III: throughput and latency of important double-precision
// instructions, measured with the instruction-microbenchmark harness on the
// execution testbed (the ibench / OoO-bench substitute).
//
// Throughput is reported in DP elements per cycle (the best across vector
// widths, like the paper); gather throughput in cache lines per cycle under
// the worst-case assumption of one line per element.  Latency in cycles.
namespace table3 {

struct Bench {
  const char* tmpl;       // instruction template ({d}/{s} registers)
  double elems;           // DP elements produced per instruction
  bool latency_chain_ok;  // template usable for the serial-chain measurement
};

/// The per-machine instantiation of one Table III row.
struct Row {
  const char* name;
  Bench gcs, spr, genoa;
  bool gather = false;  // report cache lines per cycle instead of elements
};

const Row kRows[] = {
    {"gather [CL/cy]",
     {"ld1d {z{d}.d}, p0/z, [x1, z30.d, lsl #3]", 2, false},
     {"vgatherdpd (%rax,%ymm30,8), %zmm{d}{%k1}", 8, false},
     {"vgatherdpd (%rax,%xmm30,8), %ymm{d}{%k1}", 4, false},
     /*gather=*/true},
    {"VEC ADD",
     {"fadd v{d}.2d, v{s}.2d, v28.2d", 2, true},
     {"vaddpd %zmm28, %zmm{s}, %zmm{d}", 8, true},
     {"vaddpd %ymm28, %ymm{s}, %ymm{d}", 4, true}},
    {"VEC MUL",
     {"fmul v{d}.2d, v{s}.2d, v28.2d", 2, true},
     {"vmulpd %zmm28, %zmm{s}, %zmm{d}", 8, true},
     {"vmulpd %ymm28, %ymm{s}, %ymm{d}", 4, true}},
    {"VEC FMA",
     {"fmla v{d}.2d, v{s}.2d, v28.2d", 2, true},
     {"vfmadd231pd %zmm28, %zmm{s}, %zmm{d}", 8, true},
     {"vfmadd231pd %ymm28, %ymm{s}, %ymm{d}", 4, true}},
    // Divider chains serialize on the (non-pipelined) unit whose reciprocal
    // throughput exceeds the result latency on SPR; use the dependency
    // latency from the model, as a latency-extraction microbenchmark would.
    {"VEC FP Div",
     {"fdiv v{d}.2d, v{s}.2d, v28.2d", 2, true},
     {"vdivpd %zmm28, %zmm{s}, %zmm{d}", 8, false},
     {"vdivpd %ymm28, %ymm{s}, %ymm{d}", 4, true}},
    {"Scalar ADD",
     {"fadd d{d}, d{s}, d28", 1, true},
     {"vaddsd %xmm28, %xmm{s}, %xmm{d}", 1, true},
     {"vaddsd %xmm28, %xmm{s}, %xmm{d}", 1, true}},
    {"Scalar MUL",
     {"fmul d{d}, d{s}, d28", 1, true},
     {"vmulsd %xmm28, %xmm{s}, %xmm{d}", 1, true},
     {"vmulsd %xmm28, %xmm{s}, %xmm{d}", 1, true}},
    {"Scalar FMA",
     {"fmadd d{d}, d{s}, d28, d29", 1, true},
     {"vfmadd231sd %xmm28, %xmm29, %xmm{d}", 1, false},
     {"vfmadd231sd %xmm28, %xmm29, %xmm{d}", 1, false}},
    {"Scalar Div",
     {"fdiv d{d}, d{s}, d28", 1, true},
     {"vdivsd %xmm28, %xmm{s}, %xmm{d}", 1, true},
     {"vdivsd %xmm28, %xmm{s}, %xmm{d}", 1, true}},
};

const Bench& bench_for(const Row& r, uarch::Micro m) {
  switch (m) {
    case uarch::Micro::NeoverseV2: return r.gcs;
    case uarch::Micro::GoldenCove: return r.spr;
    case uarch::Micro::Zen4: return r.genoa;
  }
  return r.gcs;
}

/// FMA-style templates overwrite an accumulator: the serial-chain trick does
/// not apply; report the destination latency from the machine model instead.
double table_latency(const Bench& b, const uarch::MachineModel& mm) {
  if (b.latency_chain_ok) {
    return exec::measure_latency(b.tmpl, mm);
  }
  asmir::Program p =
      asmir::parse(exec::instantiate_template(b.tmpl, 0, 0), mm.isa());
  return mm.resolve(p.code.at(0)).latency;
}

/// One decimal, or two where one would round the value (SPR's scalar
/// divide at 0.25 elem/cy must not read as Genoa's 0.2).
std::string throughput_cell(double tput) {
  const bool one_decimal =
      std::fabs(10 * tput - std::round(10 * tput)) < 1e-6;
  return format(one_decimal ? "%.1f" : "%.2f", tput);
}

void render() {
  std::printf(
      "Table III: DP instruction throughput and latency (testbed "
      "microbenchmarks)\n\n");
  report::Table t({"Instruction", "GCS tput", "SPR tput", "Genoa tput",
                   "GCS lat", "SPR lat", "Genoa lat"});
  for (const Row& r : kRows) {
    std::vector<std::string> cells{r.name};
    for (uarch::Micro m : uarch::all_micros()) {
      const Bench& b = bench_for(r, m);
      double inv =
          exec::measure_inverse_throughput(b.tmpl, uarch::machine(m), 24);
      // Gather: one cache line per element, worst case.
      cells.push_back(r.gather ? format("%.2f", b.elems / inv)
                               : throughput_cell(b.elems / inv));
    }
    for (uarch::Micro m : uarch::all_micros()) {
      const Bench& b = bench_for(r, m);
      cells.push_back(format("%.0f", table_latency(b, uarch::machine(m))));
    }
    t.add_row(cells);
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nPaper reference (tput elem/cy | lat cy):\n"
      "  gather 1/4, 1/3, 1/8 CL/cy | 9, 20, 13\n"
      "  VEC ADD 8/16/8 | 2/2/3     VEC MUL 8/16/8 | 3/4/3\n"
      "  VEC FMA 8/16/8 | 4/4/4     VEC Div 0.4/0.5/0.8 | 5/14/13\n"
      "  Scalar ADD 4/2/2 | 2/2/3   MUL 4/2/2 | 3/4/3\n"
      "  FMA 4/2/2 | 4/5/4          Div 0.4/0.25/0.2 | 12/14/13\n");
}

}  // namespace table3

// Fig. 1: the core block diagram / port model.  The paper shows the
// Neoverse V2 pipeline; this renders the issue-port layout of all three
// modeled cores directly from the machine models, with the functional-unit
// class each port executes.
namespace fig1 {

const char* port_class(uarch::Micro m, const std::string& port) {
  using support::starts_with;
  switch (m) {
    case uarch::Micro::NeoverseV2:
      if (starts_with(port, "B")) return "branch";
      if (starts_with(port, "I")) return "int ALU (single-cycle)";
      if (starts_with(port, "M")) return "int ALU (multi-cycle, MUL/DIV/pred)";
      if (starts_with(port, "LD")) return "load (128 b)";
      if (starts_with(port, "ST")) return "store data (128 b)";
      if (starts_with(port, "V")) return "FP/ASIMD/SVE (128 b)";
      break;
    case uarch::Micro::GoldenCove:
      if (port == "P0" || port == "P1" || port == "P5")
        return "int ALU + FP/vector (512 b fused on P0)";
      if (port == "P6" || port == "P10") return "int ALU / branch";
      if (port == "P2" || port == "P3") return "load (512 b)";
      if (port == "P11") return "load (<=256 b)";
      if (port == "P4" || port == "P9") return "store data (256 b)";
      if (port == "P7" || port == "P8") return "store address";
      break;
    case uarch::Micro::Zen4:
      if (starts_with(port, "ALU")) return "int ALU / branch";
      if (starts_with(port, "AGU"))
        return port == "AGU2" ? "store address" : "load (256 b)";
      if (port == "FP0" || port == "FP1") return "FP MUL/FMA (256 b)";
      if (port == "FP2" || port == "FP3") return "FP ADD (256 b)";
      if (starts_with(port, "FST")) return "FP store data";
      break;
  }
  return "?";
}

void render() {
  std::printf("Fig. 1: issue-port layout of the modeled cores\n");
  for (uarch::Micro m : uarch::all_micros()) {
    const auto& mm = uarch::machine(m);
    const auto& res = mm.resources();
    std::printf(
        "\n%s (%s) -- %zu ports, decode %d/cy, rename %d uops/cy, "
        "ROB %d, scheduler %d, LQ %d, SQ %d\n",
        uarch::to_string(m), uarch::cpu_short_name(m), mm.port_count(),
        res.decode_width, res.rename_width, res.rob_size, res.scheduler_size,
        res.load_queue, res.store_queue);
    std::printf("  %s\n", std::string(72, '-').c_str());
    for (const std::string& port : mm.ports()) {
      std::printf("  | %-5s | %-60s |\n", port.c_str(), port_class(m, port));
    }
    std::printf("  %s\n", std::string(72, '-').c_str());
  }
  std::printf(
      "\nPaper reference (Table II summary): 17 / 12 / 13 ports; 6 / 5 / 4 "
      "integer units;\n4 / 3 / 4 FP vector units; SIMD 16 / 64 / 32 B.\n");
}

}  // namespace fig1

// Fig. 2: sustained CPU clock frequency for arithmetic-heavy code vs.
// number of active cores, per ISA extension, on all three chips.  One
// series per (chip, ISA class), a thermal transient, and a CSV block for
// re-plotting.
namespace fig2 {

void render() {
  std::printf("Fig. 2: sustained frequency vs. active cores (GHz)\n\n");

  for (uarch::Micro m : uarch::all_micros()) {
    const auto& c = power::chip(m);
    std::printf("%s (TDP %.0f W, turbo %.1f GHz)\n", c.name, c.tdp_w,
                c.turbo_ghz);
    for (IsaClass isa : power::isa_classes_for(m)) {
      std::printf("  %-8s", power::to_string(isa));
      for (int n = 1; n <= c.cores; n = n < 4 ? n + 1 : n + c.cores / 12) {
        std::printf(" %4.2f", power::sustained_frequency(m, isa, n));
      }
      double full = power::sustained_frequency(m, isa, c.cores);
      std::printf("  | full socket %.2f GHz (%.0f%% of turbo)\n", full,
                  100.0 * full / c.turbo_ghz);
    }
    std::printf("\n");
  }

  // Transient view (the paper tracked clocks over minutes of runtime):
  // boost phase, then throttle to the sustained plateau.
  std::printf("Transient (SPR, AVX-512, full socket; GHz sampled every 60 s):\n  ");
  auto trace = power::simulate_thermal_trace(uarch::Micro::GoldenCove,
                                             IsaClass::Avx512, 52, 600.0);
  for (std::size_t i = 0; i < trace.size(); i += 600) {
    std::printf(" %4.2f", trace[i].frequency_ghz);
  }
  std::printf("  -> sustained %.2f GHz\n\n",
              power::sustained_from_trace(trace));

  std::printf("CSV (cores, chip, isa, ghz):\n");
  support::CsvWriter csv(std::cout);
  csv.header({"cores", "chip", "isa", "ghz"});
  for (uarch::Micro m : uarch::all_micros()) {
    const auto& c = power::chip(m);
    for (IsaClass isa : power::isa_classes_for(m)) {
      for (int n = 1; n <= c.cores; ++n) {
        csv.row({std::to_string(n), c.name, power::to_string(isa),
                 format("%.3f", power::sustained_frequency(m, isa, n))});
      }
    }
  }

  std::printf(
      "\nPaper reference: SPR AVX-512 drops to 2.0 GHz (53%% of turbo), "
      "SSE/AVX hold 3.0 GHz (78%%);\nGenoa falls to ~3.1 GHz (84%%) for all "
      "ISAs; GCS pinned at 3.4 GHz throughout.\n");
}

}  // namespace fig2

// Fig. 3: histograms of the relative prediction error (RPE) of the
// OSACA-style in-core model and the LLVM-MCA-style comparator over the full
// validation matrix (13 kernels x 4 optimization levels x the compilers
// available per machine = 416 test blocks).
//
//   RPE = (measured - predicted) / measured
//
// Bars right of the zero line are predictions *faster* than the
// measurement -- desired for a lower-bound model.  The leftmost bucket
// collects predictions off by more than a factor of two (RPE <= -1).
//
// The "measurement" is the execution-testbed simulation of each block on
// its target machine (the hardware substitute; see DESIGN.md).  Per-cell
// cycles are `incore-cli sweep --csv`.
namespace fig3 {

struct Sample {
  kernels::Variant variant;
  std::size_t block;  // into res.blocks / res.audit_verdicts
  double measured;
  double osaca;
  double mca;
};

double rpe(double measured, double predicted) {
  return (measured - predicted) / measured;
}

void render() {
  // The whole matrix through the sweep driver: dedup collapses the 416
  // cells to the unique blocks, the worker pool fans the three models out,
  // and the rows come back in deterministic matrix order.  The audit hook
  // attributes every block's model divergence alongside the predictions.
  driver::SweepOptions opt;
  opt.jobs = support::ThreadPool::default_jobs();
  opt.audit = server::audit_verdict;
  const driver::SweepResult res = driver::sweep(opt);
  std::vector<Sample> samples;
  samples.reserve(res.rows.size());
  for (const driver::SweepRow& row : res.rows) {
    samples.push_back(Sample{
        row.variant, row.block_index,
        res.find(row, "testbed")->cycles_per_iteration,
        res.find(row, "osaca")->cycles_per_iteration,
        res.find(row, "mca")->cycles_per_iteration});
  }

  std::printf("Fig. 3: relative prediction error over %zu test blocks "
              "(%zu unique assembly representations)\n\n",
              samples.size(), res.stats.unique_assemblies);

  // Per-model histograms (10% buckets like the paper), per machine and
  // total, plus the summary statistics quoted in the text.
  std::vector<double> osaca_rpes, mca_rpes;
  for (const char* model : {"OSACA", "LLVM-MCA"}) {
    const bool osaca = std::string(model) == "OSACA";
    support::Histogram all(-1.0, 1.0, 20);
    std::map<uarch::Micro, std::vector<double>> per_arch;
    std::vector<double>& rpes = osaca ? osaca_rpes : mca_rpes;
    for (const Sample& s : samples) {
      double r = rpe(s.measured, osaca ? s.osaca : s.mca);
      all.add(r);
      per_arch[s.variant.target].push_back(r);
      rpes.push_back(r);
    }
    std::fputs(
        report::render_rpe_histogram(all, format("%s model, all machines",
                                                 model))
            .c_str(),
        stdout);
    auto sum = report::summarize_rpe(rpes);
    std::printf(
        "  right of zero: %.0f%% | within +10%%: %.0f%% | within +20%%: "
        "%.0f%% | off by >2x: %d\n",
        100 * sum.fraction_right, 100 * sum.fraction_in10,
        100 * sum.fraction_in20, sum.off_by_2x);
    for (auto& [micro, vec] : per_arch) {
      auto s = report::summarize_rpe(vec);
      std::printf(
          "  %-6s avg under-prediction RPE %.0f%% | avg |RPE| %.0f%% "
          "(n=%zu)\n",
          uarch::cpu_short_name(micro), 100 * s.mean_under_rpe,
          100 * s.mean_abs_rpe, vec.size());
    }
    std::printf("\n");
  }

  // Are the two RPE distributions statistically distinct?  (The paper
  // argues this visually from the histograms; we attach a KS test.)
  auto ks = support::ks_test(osaca_rpes, mca_rpes);
  std::printf(
      "Kolmogorov-Smirnov OSACA vs LLVM-MCA RPE: D = %.3f, p = %.2e "
      "(distributions %s)\n\n",
      ks.statistic, ks.p_value,
      ks.p_value < 0.01 ? "clearly distinct" : "not distinguishable");

  // The paper's headline outliers, called out explicitly, each tagged with
  // the audit's attributed divergence cause for its unique block.
  std::printf("Outliers (prediction slower than measurement by > 5%%):\n");
  for (const Sample& s : samples) {
    double r = rpe(s.measured, s.osaca);
    if (r < -0.05) {
      std::printf("  OSACA %-46s pred %.2f vs meas %.2f (RPE %+.2f)  "
                  "[audit: %s]\n",
                  s.variant.label().c_str(), s.osaca, s.measured, r,
                  res.audit_verdicts[s.block].c_str());
    }
  }

  // Why the simulators exceed the in-core lower bound, per attributed
  // cause over the unique blocks (the audit's VP009/VP010 classification).
  std::map<std::string, std::size_t> causes;
  for (const std::string& v : res.audit_verdicts) {
    if (v.starts_with("divergent:")) {
      // A verdict can carry several '+'-joined causes; count each.
      const std::string tail = v.substr(std::string("divergent:").size());
      for (std::string_view part : support::split(tail, '+')) {
        ++causes[std::string(part)];
      }
    } else {
      ++causes[v];
    }
  }
  std::printf("\nDivergence attribution over %zu unique blocks "
              "(simulator above the certified bound by > 5%%):\n",
              res.audit_verdicts.size());
  for (const auto& [cause, n] : causes) {
    std::printf("  %-22s %3zu blocks\n", cause.c_str(), n);
  }

  std::printf(
      "\nPaper reference: OSACA 96%% right of zero, 37%%/44%% within "
      "+10/+20%%, 1 block off by >2x;\nLLVM-MCA predicts 75%% of blocks "
      "slower than measured, 14 off by >2x.\nAverage under-prediction RPE "
      "(OSACA): GC 24%%, V2 30%%, Zen4 18%%; |RPE| OSACA 30/26/18 vs "
      "LLVM-MCA 35/52/16.\n");
}

}  // namespace fig3

// Fig. 4: ratio of actual memory traffic to stored data volume vs. number
// of active cores for the store-only benchmark (40 GB working set), with
// standard and non-temporal stores.
//
//   ratio 1.0 = perfect write-allocate evasion, 2.0 = full WA traffic.
namespace fig4 {

constexpr double kWorkingSet = 40e9;  // 40 GB, as in the paper

void ascii_curve(const memsim::System& sys, StoreKind kind,
                 const char* label) {
  std::printf("  %-22s", label);
  const int cores = sys.config().cores;
  for (int n = 1; n <= cores; n = n < 4 ? n + 1 : n + (cores + 11) / 12) {
    std::printf(" %4.2f", sys.run_store_benchmark(n, kWorkingSet, kind).ratio());
  }
  double full = sys.run_store_benchmark(cores, kWorkingSet, kind).ratio();
  std::printf("  | full socket %.2f\n", full);
}

void render() {
  std::printf(
      "Fig. 4: memory traffic / stored volume vs. cores "
      "(store-only, 40 GB)\n\n");
  for (uarch::Micro m : uarch::all_micros()) {
    memsim::System sys(memsim::preset(m));
    std::printf("%s (%s)\n", sys.config().name,
                sys.config().wa == memsim::WaMechanism::AutomaticClaim
                    ? "automatic cache-line claim"
                : sys.config().wa == memsim::WaMechanism::SpecI2M
                    ? "SpecI2M, utilization-gated"
                    : "no automatic WA evasion");
    ascii_curve(sys, StoreKind::Standard, "standard stores");
    ascii_curve(sys, StoreKind::NonTemporal, "NT stores");
    std::printf("\n");
  }

  std::printf("CSV (chip, kind, cores, ratio):\n");
  support::CsvWriter csv(std::cout);
  csv.header({"chip", "kind", "cores", "ratio"});
  for (uarch::Micro m : uarch::all_micros()) {
    memsim::System sys(memsim::preset(m));
    for (auto kind : {StoreKind::Standard, StoreKind::NonTemporal}) {
      for (int n = 1; n <= sys.config().cores; ++n) {
        csv.row({sys.config().name,
                 kind == StoreKind::Standard ? "standard" : "nt",
                 std::to_string(n),
                 format("%.4f",
                        sys.run_store_benchmark(n, kWorkingSet, kind).ratio())});
      }
    }
  }

  std::printf(
      "\nPaper reference: GCS flat at ~1.0 (both kinds); SPR standard stores "
      "start at 2.0 and drop by <= 25%% only once a large part of a 13-core "
      "NUMA domain is busy, SPR NT stores plateau at ~1.1; Genoa standard "
      "flat 2.0, Genoa NT flat 1.0.\n");
}

}  // namespace fig4

// Ablation: optimal (max-flow) port balancing vs. the naive equal-split
// heuristic, across the full kernel matrix.  DESIGN.md calls out the exact
// min-max balancer as a design choice over OSACA's heuristic; this
// quantifies how often and by how much the naive assignment overstates the
// throughput bound.
namespace ablation_port_balancer {

void render() {
  std::printf("Ablation: optimal vs. naive port-pressure balancing\n\n");
  int total = 0;
  int naive_worse = 0;
  double worst_ratio = 1.0;
  std::string worst_label;
  double sum_ratio = 0.0;

  for (const kernels::Variant& v : kernels::test_matrix()) {
    auto gen = kernels::generate(v);
    const auto& mm = uarch::machine(v.target);
    std::vector<analysis::OccupancyGroup> groups;
    for (std::size_t i = 0; i < gen.program.code.size(); ++i) {
      const uarch::Resolved r = mm.resolve(gen.program.code[i]);
      for (const uarch::PortUse& pu : r.port_uses)
        groups.push_back(analysis::OccupancyGroup{pu.mask, pu.cycles,
                                                  static_cast<int>(i)});
    }
    const int ports = static_cast<int>(mm.port_count());
    auto opt = analysis::balance_ports(groups, ports);
    auto naive = analysis::balance_ports_naive(groups, ports);
    ++total;
    double ratio = opt.bottleneck_cycles > 0
                       ? naive.bottleneck_cycles / opt.bottleneck_cycles
                       : 1.0;
    sum_ratio += ratio;
    if (ratio > 1.001) ++naive_worse;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_label = v.label();
    }
  }

  std::printf("blocks analyzed:             %d\n", total);
  std::printf("naive bound looser:          %d (%.0f%%)\n", naive_worse,
              100.0 * naive_worse / total);
  std::printf("mean naive/optimal ratio:    %.3f\n", sum_ratio / total);
  std::printf("worst case:                  %.2fx on %s\n", worst_ratio,
              worst_label.c_str());
  std::printf(
      "\nInterpretation: a looser naive bound weakens the lower-bound "
      "guarantee the\nin-core model is built to provide.\n");
}

}  // namespace ablation_port_balancer

// Ablation: which testbed (simulated silicon) features move the Fig. 3
// distribution, and by how much: rename-stage move elimination, zero-idiom
// elimination, the taken-branch fetch bubble, dynamic port selection and
// the store-address split.  Each feature is disabled in turn and the mean
// measured cycles/element change across the kernel matrix reported -- how
// much of the "measurement" each microarchitectural mechanism explains.
namespace ablation_testbed_features {

using ConfigFor = std::function<exec::PipelineConfig(uarch::Micro)>;

/// Mean measured cycles/element over the matrix for one testbed
/// configuration, via the sweep driver: duplicate blocks simulate once and
/// the unique ones fan out over the worker pool.
double mean_cycles(const ConfigFor& config_for) {
  const driver::TestbedPredictor testbed("testbed", config_for);
  const driver::SweepResult res =
      driver::sweep(kernels::test_matrix(), {&testbed},
                    support::ThreadPool::default_jobs());
  double sum = 0.0;
  for (const driver::SweepRow& row : res.rows) {
    const driver::Block& b = res.blocks[row.block_index];
    sum += row.predictions.front().cycles_per_iteration /
           b.gen.elements_per_iteration;
  }
  return sum / static_cast<double>(res.rows.size());
}

/// The default testbed configuration with one feature switched off.
ConfigFor without(void (*disable)(exec::PipelineConfig&)) {
  return [disable](uarch::Micro m) {
    auto c = exec::testbed_config(m);
    disable(c);
    return c;
  };
}

void render() {
  std::printf("Ablation: testbed feature contributions (mean cy/element over "
              "the 416-block matrix)\n\n");

  double baseline = mean_cycles(
      [](uarch::Micro m) { return exec::testbed_config(m); });
  std::printf("  %-34s %.3f cy/elem\n", "baseline testbed", baseline);

  struct Toggle {
    const char* name;
    ConfigFor make;
  };
  const Toggle toggles[] = {
      {"no move elimination",
       without([](exec::PipelineConfig& c) { c.move_elimination = false; })},
      {"no zero-idiom elimination",
       without([](exec::PipelineConfig& c) {
         c.zero_idiom_elimination = false;
       })},
      {"no taken-branch bubble",
       without([](exec::PipelineConfig& c) { c.taken_branch_bubble = 0.0; })},
      {"static port binding",
       without([](exec::PipelineConfig& c) {
         c.dynamic_port_selection = false;
       })},
      {"no store-address split",
       without([](exec::PipelineConfig& c) { c.store_address_split = false; })},
  };
  for (const Toggle& t : toggles) {
    double v = mean_cycles(t.make);
    std::printf("  %-34s %.3f cy/elem (%+.1f%%)\n", t.name, v,
                100.0 * (v - baseline) / baseline);
  }

  std::printf(
      "\nInterpretation: the branch bubble and the store-address split are "
      "the load-bearing\nmechanisms behind the measured-vs-bound gap and the "
      "pointer-bump streaming behaviour.\n");
}

}  // namespace ablation_testbed_features

// Ablation: SpecI2M design-parameter sweeps on the SPR memory system.
// Sweeps the utilization threshold and the maximum conversion fraction and
// reports the full-domain traffic ratio, plus the write-combining buffer
// imperfection for NT stores: which parameter shapes which part of the
// Fig. 4 curves.
namespace ablation_speci2m {

constexpr double kSet = 40e9;
constexpr int kCores[] = {2, 4, 6, 8, 10, 13};

void print_ratios(const memsim::MemSystemConfig& cfg) {
  memsim::System sys(cfg);
  for (int n : kCores) {
    std::printf(" %5.2f",
                sys.run_store_benchmark(n, kSet, StoreKind::Standard).ratio());
  }
  std::printf("\n");
}

void render() {
  std::printf("Ablation: SpecI2M and WC-buffer parameters (SPR model)\n\n");

  std::printf("conversion cap sweep (threshold fixed at 0.70):\n");
  std::printf("  %-8s", "cores:");
  for (int n : kCores) std::printf(" %5d", n);
  std::printf("\n");
  for (double cap : {0.0, 0.125, 0.25, 0.5, 1.0}) {
    auto cfg = memsim::preset(uarch::Micro::GoldenCove);
    cfg.spec_i2m_max_conversion = cap;
    std::printf("  cap %.2f ", cap);
    print_ratios(cfg);
  }

  std::printf("\nutilization threshold sweep (cap fixed at 0.25):\n");
  std::printf("  %-10s", "cores:");
  for (int n : kCores) std::printf(" %5d", n);
  std::printf("\n");
  for (double thr : {0.3, 0.5, 0.7, 0.9}) {
    auto cfg = memsim::preset(uarch::Micro::GoldenCove);
    cfg.spec_i2m_threshold = thr;
    cfg.spec_i2m_full_util = std::min(0.99, thr + 0.27);
    std::printf("  thr %.1f   ", thr);
    print_ratios(cfg);
  }

  std::printf("\nNT-store partial-fill fraction sweep:\n");
  for (double part : {0.0, 0.05, 0.10, 0.20}) {
    auto cfg = memsim::preset(uarch::Micro::GoldenCove);
    cfg.nt_partial_max = part;
    memsim::System sys(cfg);
    std::printf("  partial %.2f -> full-domain NT ratio %.3f\n", part,
                sys.run_store_benchmark(13, kSet, StoreKind::NonTemporal)
                    .ratio());
  }

  std::printf(
      "\nInterpretation: the conversion cap sets the floor of the standard-"
      "store curve\n(2.0 - cap); the threshold sets where it bends; the "
      "partial-fill fraction sets\nthe NT-store plateau (paper: ~1.1).\n");
}

}  // namespace ablation_speci2m

// Ablation: late accumulator forwarding on Neoverse V2.  The Arm
// optimization guide documents 2-cycle forwarding of fused accumulates into
// the accumulator input of the next FMA.  Neither OSACA nor this
// repository's default configuration models it (Table III reports the full
// 4-cycle latency).  This quantifies what the feature would change:
// FMA-accumulator recurrences halve; everything else is untouched.
namespace ablation_fma_forwarding {

void render() {
  std::printf(
      "Ablation: Neoverse V2 late accumulator forwarding (2 cy vs 4 cy)\n\n");
  const auto& mm = uarch::machine(uarch::Micro::NeoverseV2);

  // The two model configurations under comparison, as driver predictors.
  analysis::DepOptions fwd;
  fwd.model_accumulator_forwarding = true;
  const driver::InCorePredictor base("osaca");
  const driver::InCorePredictor with_fwd("osaca-fwd", fwd);

  // Micro-kernel: single fused accumulator chain.
  const std::string chain =
      "fmla v0.2d, v1.2d, v2.2d\nsubs x9, x9, #1\nb.ne .L\n";
  std::printf("single fmla chain: LCD %.1f cy (default) vs %.1f cy "
              "(forwarding)\n\n",
              driver::predict_assembly(base, chain, mm).loop_carried_cycles,
              driver::predict_assembly(with_fwd, chain, mm)
                  .loop_carried_cycles);

  // Effect across the GCS half of the validation matrix: one sweep with
  // both model configurations, deduplicated and parallel.
  driver::SweepOptions opt;
  opt.machines = {uarch::machine_ref(uarch::Micro::NeoverseV2)};
  const driver::SweepResult res =
      driver::sweep(driver::filter_matrix(opt), {&base, &with_fwd},
                    support::ThreadPool::default_jobs());
  int affected = 0, total = 0;
  double worst_change = 0;
  std::string worst;
  for (const driver::SweepRow& row : res.rows) {
    double base_cy = row.predictions[0].cycles_per_iteration;
    double with_cy = row.predictions[1].cycles_per_iteration;
    ++total;
    if (with_cy < base_cy - 1e-6) {
      ++affected;
      double change = (base_cy - with_cy) / base_cy;
      if (change > worst_change) {
        worst_change = change;
        worst = row.variant.label();
      }
    }
  }
  std::printf("GCS validation blocks with a tighter bound: %d of %d\n",
              affected, total);
  if (affected > 0) {
    std::printf("largest improvement: %.0f%% on %s\n", 100 * worst_change,
                worst.c_str());
  }
  std::printf(
      "\nInterpretation: forwarding matters only for latency-bound fused-"
      "accumulate\nrecurrences; the streaming validation kernels are "
      "throughput-bound, which is\nwhy the paper's model ignores it without "
      "penalty.\n");
}

}  // namespace ablation_fma_forwarding

// Generational comparison: Ice Lake SP (Sunny Cove) vs. Sapphire Rapids
// (Golden Cove).  The paper notes Intel "managed to decrease the ADD
// latency by half compared to the predecessor Ice Lake" while trading
// higher FP latencies for throughput elsewhere; this quantifies the effect
// on latency-bound kernels.
namespace ablation_ice_lake {

void render() {
  const uarch::MachineModel& icl = *uarch::resolve_machine("icelake").model;
  const uarch::MachineModel& glc = *uarch::resolve_machine("spr").model;
  auto row = [&](const char* metric, const char* tmpl) {
    return std::vector<std::string>{
        metric, format("%.0f", exec::measure_latency(tmpl, icl)),
        format("%.0f", exec::measure_latency(tmpl, glc))};
  };

  std::printf("Generational ablation: Ice Lake SP vs. Golden Cove (SPR)\n\n");
  report::Table t({"metric", "Ice Lake SP", "Golden Cove"});
  t.add_row({"ports", std::to_string(icl.port_count()),
             std::to_string(glc.port_count())});
  t.add_row(row("VEC ADD latency [cy]", "vaddpd %zmm28, %zmm{s}, %zmm{d}"));
  t.add_row(row("Scalar ADD latency [cy]", "vaddsd %xmm28, %xmm{s}, %xmm{d}"));
  t.add_row(row("VEC FMA latency [cy]", "vfmadd231pd %zmm{s}, %zmm29, %zmm{d}"));
  std::fputs(t.to_string().c_str(), stdout);

  // Effect on a latency-bound kernel: the scalar sum reduction.
  const char* sum_body =
      "vaddsd (%rbx,%rcx,8), %xmm0, %xmm0\n"
      "addq $1, %rcx\n"
      "cmpq %rdi, %rcx\n"
      "jne .L2\n";
  for (const uarch::MachineModel* mm : {&icl, &glc}) {
    auto prog = asmir::parse(sum_body, mm->isa());
    auto rep = analysis::analyze(prog, *mm);
    auto meas = exec::run(prog, *mm);
    std::printf(
        "\nscalar sum on %-12s: bound %.2f cy/elem, testbed %.2f cy/elem",
        mm->name().c_str(), rep.predicted_cycles(),
        meas.cycles_per_iteration);
  }
  std::printf(
      "\n\nReading: the dedicated 2-cycle adders of Golden Cove double the "
      "throughput of\nlatency-bound reductions relative to Sunny Cove's "
      "4-cycle FMA-pipe adds.\n");
}

}  // namespace ablation_ice_lake

// Extension (the paper's stated future work): Execution-Cache-Memory
// composition of the in-core model.  For each streaming kernel and machine:
// the ECM decomposition T_OL || T_nOL + T_L1L2 + T_L2L3 + T_L3Mem, the
// memory-resident single-core prediction, and the saturation core count.
namespace ecm_scaling {

void render() {
  std::printf(
      "ECM composition (cycles per iteration; -O3, preferred compiler)\n\n");
  const kernels::Kernel ks[] = {
      kernels::Kernel::Copy,          kernels::Kernel::Add,
      kernels::Kernel::StreamTriad,   kernels::Kernel::SchoenauerTriad,
      kernels::Kernel::Jacobi2D5pt,   kernels::Kernel::Jacobi3D7pt,
      kernels::Kernel::SumReduction,  kernels::Kernel::Update,
  };
  report::Table t({"kernel", "machine", "T_OL", "T_nOL", "L1-L2", "L2-L3",
                   "L3-Mem", "T_ECM(Mem)", "cy/elem", "n_sat"});
  for (kernels::Kernel k : ks) {
    for (uarch::Micro m : uarch::all_micros()) {
      const kernels::Variant v = preferred_o3(k, m);
      auto g = kernels::generate(v);
      auto p = ecm::predict_kernel(v);
      auto h = ecm::hierarchy(m);
      t.add_row({kernels::to_string(k), uarch::cpu_short_name(m),
                 format("%.2f", p.t_ol), format("%.2f", p.t_nol),
                 format("%.2f", p.t_l1l2), format("%.2f", p.t_l2l3),
                 format("%.2f", p.t_l3mem),
                 format("%.2f", p.cycles(ecm::DataLocation::Memory)),
                 format("%.2f", p.cycles(ecm::DataLocation::Memory) /
                                    g.elements_per_iteration),
                 std::to_string(p.saturation_cores(h))});
    }
  }
  std::fputs(t.to_string().c_str(), stdout);

  std::printf("\nSTREAM-triad scaling (predicted GB/s of useful traffic):\n");
  for (uarch::Micro m : uarch::all_micros()) {
    const kernels::Variant v = preferred_o3(kernels::Kernel::StreamTriad, m);
    auto g = kernels::generate(v);
    auto p = ecm::predict_kernel(v);
    auto h = ecm::hierarchy(m);
    const double f_ghz = power::chip(m).base_ghz;
    // Useful bytes per iteration: 3 streams x 8 B x elements.
    double bytes_per_iter = 24.0 * g.elements_per_iteration;
    std::printf("  %-6s", uarch::cpu_short_name(m));
    const int cores = memsim::preset(m).cores;
    for (int n = 1; n <= cores; n = n < 4 ? n + 1 : n + (cores + 7) / 8) {
      double cyc = p.multicore_cycles(n, h);
      std::printf(" %6.0f", bytes_per_iter / cyc * f_ghz);
    }
    std::printf("  | n_sat=%d\n", p.saturation_cores(h));
  }
}

}  // namespace ecm_scaling

// Extension: Roofline placement of the validation kernels with the
// in-core-derived ceilings the paper motivates ("a more realistic
// horizontal ceiling in the Roofline Model").
namespace roofline_ceilings {

void render() {
  std::printf("Roofline ceilings (full socket)\n\n");
  for (uarch::Micro m : uarch::all_micros()) {
    auto c = roofline::ceilings(m);
    std::printf("  %-6s peak %7.0f Gflop/s | mem %4.0f GB/s | ridge %.1f "
                "flop/byte\n",
                uarch::cpu_short_name(m), c.peak_gflops, c.mem_bw_gbs,
                c.ridge_intensity());
  }

  std::printf("\nKernel placements (-O3, preferred compiler):\n\n");
  report::Table t({"kernel", "machine", "AI [F/B]", "classic bound",
                   "in-core ceiling", "bound [Gflop/s]", "regime"});
  const kernels::Kernel ks[] = {
      kernels::Kernel::StreamTriad, kernels::Kernel::SchoenauerTriad,
      kernels::Kernel::Jacobi2D5pt, kernels::Kernel::Jacobi3D27pt,
      kernels::Kernel::SumReduction, kernels::Kernel::GaussSeidel2D5pt,
      kernels::Kernel::Pi};
  for (kernels::Kernel k : ks) {
    for (uarch::Micro m : uarch::all_micros()) {
      auto p = roofline::place(preferred_o3(k, m));
      t.add_row({kernels::to_string(k), uarch::cpu_short_name(m),
                 format("%.3f", p.arithmetic_intensity),
                 format("%.0f", p.classic_bound_gflops),
                 format("%.0f", p.incore_ceiling_gflops),
                 format("%.0f", p.bound_gflops),
                 p.memory_bound ? "memory" : "core"});
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nReading: the in-core ceiling replaces the marketing peak with what "
      "the actual\nloop body can issue -- for recurrences (Gauss-Seidel) and "
      "divider-bound kernels\n(pi) it is 10-38x below the FMA peak.\n");
}

}  // namespace roofline_ceilings

// Bandwidth saturation curves (the likwid-bench part of the paper's
// workflow): useful bandwidth vs. active cores for the classic streaming
// benchmark kinds, per machine.  "Useful" counts the bytes the kernel
// semantically moves; write-allocate traffic is overhead, so machines that
// evade it (Grace always; SPR partially near saturation) convert more of
// their interface bandwidth into useful bandwidth.
namespace bandwidth_curves {

struct BenchKind {
  const char* name;
  double loads_per_elem;
  double stores_per_elem;
};

const BenchKind kKinds[] = {
    {"load", 1, 0},
    {"copy", 1, 1},
    {"update", 1, 1},  // same stream for load and store
    {"triad", 2, 1},
    {"store", 0, 1},
};

/// Useful GB/s for a benchmark kind with `cores` active.
double useful_bw(const memsim::System& sys, int cores, const BenchKind& k) {
  const auto& cfg = sys.config();
  // Write-allocate overhead per element (reads the controller must do on
  // top of the semantic traffic), given the evasion mechanism's state at
  // this core count.
  int in_domain = std::min(cores, cfg.cores_per_domain);
  auto dr = sys.solve_domain(in_domain, StoreKind::Standard);
  double wa_reads = k.stores_per_elem * (1.0 - dr.conversion);
  double useful = k.loads_per_elem + k.stores_per_elem;
  double traffic = useful + wa_reads;
  double rf = (k.loads_per_elem + wa_reads) / traffic;
  double traffic_bw = sys.achieved_bw(cores, rf);
  return traffic_bw * useful / traffic;
}

void render() {
  std::printf("Bandwidth saturation: useful GB/s vs. cores\n");
  for (uarch::Micro m : uarch::all_micros()) {
    memsim::System sys(memsim::preset(m));
    const int cores = sys.config().cores;
    std::printf("\n%s (theoretical %.0f GB/s)\n", sys.config().name,
                sys.config().theoretical_bw_gbs);
    for (const BenchKind& k : kKinds) {
      std::printf("  %-7s", k.name);
      for (int n = 1; n <= cores; n = n < 4 ? n + 1 : n + (cores + 7) / 8) {
        std::printf(" %5.0f", useful_bw(sys, n, k));
      }
      std::printf("  | full %5.0f\n", useful_bw(sys, cores, k));
    }
  }
  std::printf(
      "\nReading: Grace turns nearly all interface bandwidth into useful "
      "bandwidth on\nstore-bearing kernels (automatic write-allocate "
      "evasion); Genoa's store benchmark\nreaches 175 useful GB/s against "
      "433 for load (0.40x), its write-allocate\ndoubling the store traffic; "
      "SPR recovers a few percent near saturation via\nSpecI2M.\n");
}

}  // namespace bandwidth_curves

// What-if studies: the machine models are data, so architectural questions
// the paper raises can be asked directly by editing a model and re-running
// the analysis.
//
//   1. "Zen 5 preview": what if Genoa's AVX-512 were single-pumped
//      (a native 512-bit datapath instead of two 256-bit passes)?
//   2. What if SPR's FP ADD kept Ice Lake's 4-cycle latency?
//   3. The SIMD-width vs ILP tradeoff as per-cycle FMA element rates.
namespace whatif_models {

/// Genoa with a native 512-bit datapath: 512-bit FP ops single-pumped.
uarch::MachineModel zen5_like() {
  uarch::MachineModel mm = uarch::machine(uarch::Micro::Zen4);
  for (const char* op : {"vaddpd", "vsubpd", "vmaxpd", "vminpd"}) {
    mm.set(format("%s v512,v512,v512", op), 0.5, 3, "FP2|FP3");
  }
  mm.set("vmulpd v512,v512,v512", 0.5, 3, "FP0|FP1");
  for (const char* fam : {"vfmadd", "vfmsub", "vfnmadd", "vfnmsub"}) {
    for (const char* v : {"132", "213", "231"}) {
      mm.set(format("%s%spd v512,v512,v512", fam, v), 0.5, 4, "FP0|FP1");
    }
  }
  mm.set("_load.m512", 0.5, 7, "AGU0|AGU1");
  mm.set("vmovupd m512,v512", 0.5, 7, "AGU0|AGU1");
  mm.set("vmovupd v512,m512", 1.0, 1, "FST0;FST1;AGU2");
  mm.set("vxorpd v512,v512,v512", 0.25, 1, "FP0|FP1|FP2|FP3");
  return mm;
}

/// SPR with Ice Lake's 4-cycle FP adds.
uarch::MachineModel spr_slow_add() {
  uarch::MachineModel mm = uarch::machine(uarch::Micro::GoldenCove);
  for (const char* w : {"v512", "v256", "v128"}) {
    const char* ports = std::string(w) == "v512" ? "P0|P5" : "P1|P5";
    for (const char* op : {"vaddpd", "vsubpd"}) {
      mm.set(format("%s %s,%s,%s", op, w, w, w), 0.5, 4, ports);
    }
  }
  mm.set("vaddsd v128,v128,v128", 0.5, 4, "P1|P5");
  mm.set("addsd v128,v128", 0.5, 4, "P1|P5");
  return mm;
}

/// What-if editing composes naturally with the driver: the predictor is
/// model-agnostic, so the edited MachineModel just rides along.
double predict(const uarch::MachineModel& mm, const std::string& body) {
  const driver::InCorePredictor osaca;
  return driver::predict_assembly(osaca, body, mm).cycles_per_iteration;
}

void render() {
  std::printf("What-if studies on edited machine models\n\n");

  // 1. Zen 5 preview: 512-bit kernels on Genoa vs the edited model.
  {
    uarch::MachineModel z5 = zen5_like();
    const auto& z4 = uarch::machine(uarch::Micro::Zen4);
    std::printf("1) Genoa vs \"Zen 5-like\" native 512-bit datapath "
                "(cy/iter, icx -O3 kernels):\n");
    for (kernels::Kernel k :
         {kernels::Kernel::StreamTriad, kernels::Kernel::SchoenauerTriad,
          kernels::Kernel::Jacobi2D5pt, kernels::Kernel::SumReduction}) {
      kernels::Variant v{k, kernels::Compiler::OneApi, kernels::OptLevel::O3,
                         uarch::Micro::Zen4};
      auto g = kernels::generate(v);  // icx emits zmm code
      double base = predict(z4, g.assembly);
      double what = predict(z5, g.assembly);
      std::printf("   %-18s %6.2f -> %6.2f cy/iter (%+.0f%%)\n",
                  kernels::to_string(k), base, what,
                  100.0 * (what - base) / base);
    }
  }

  // 2. SPR with Ice Lake's slow adds: latency-bound reductions regress.
  {
    uarch::MachineModel slow = spr_slow_add();
    const auto& glc = uarch::machine(uarch::Micro::GoldenCove);
    const char* sum =
        "vaddsd (%rbx,%rcx,8), %xmm0, %xmm0\n"
        "addq $1, %rcx\ncmpq %rdi, %rcx\njne .L2\n";
    std::printf(
        "\n2) Scalar sum on SPR: %0.2f cy/elem with 2-cycle adds vs %0.2f "
        "with\n   Ice Lake's 4-cycle adds (the generational win the paper "
        "notes).\n",
        predict(glc, sum), predict(slow, sum));
  }

  // 3. The SIMD-width vs ILP tradeoff in one number: per-cycle DP elements
  //    of the FMA pipes.
  std::printf(
      "\n3) FMA element rate (DP elem/cy): GCS 4x128b = %d, SPR 2x512b = "
      "%d,\n   Genoa 2x256b double-pumped 512 = %d -- the paper's Table "
      "III row.\n",
      8, 16, 8);
}

}  // namespace whatif_models

// Node-level synthesis: the paper's intro question -- "if an application
// allows a high parallelism on the node level ... the overall throughput of
// the Genoa system might come out first".  Combines the in-core model, the
// sustained-clock model and the memory-bandwidth model into a predicted
// full-socket rate per kernel, and names the winner.
namespace node_winner {

constexpr const char* kNames[] = {"GCS", "SPR", "Genoa"};

/// Full-socket useful rate in Gelem/s from a swept node-throughput cell.
double node_rate_gelem(const driver::SweepResult& res,
                       const driver::SweepRow& row) {
  const uarch::Micro m = row.variant.target;
  const auto& chip = power::chip(m);
  IsaClass isa = m == uarch::Micro::NeoverseV2 ? IsaClass::Sve
                                                : IsaClass::Avx512;
  double f_ghz = power::sustained_frequency(m, isa, chip.cores);
  double cyc = row.predictions.front().cycles_per_iteration;
  const driver::Block& b = res.blocks[row.block_index];
  return b.gen.elements_per_iteration / cyc * f_ghz;  // Gelem/s
}

/// The index of the largest of the three per-machine values, and its lead
/// over the runner-up (0 when the runner-up is 0).
struct Winner {
  int best;
  double second;
};

Winner winner(const std::vector<double>& v) {
  Winner w{static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin()),
           0.0};
  for (int i = 0; i < 3; ++i)
    if (i != w.best) w.second = std::max(w.second, v[i]);
  return w;
}

void render() {
  std::printf(
      "Node-level winner per kernel (full socket, -O3, preferred "
      "compiler)\n\n");

  // One sweep covers the whole table: 13 kernels x 3 machines, preferred
  // compiler (gcc everywhere) at -O3, evaluated by the ECM node-throughput
  // predictor on the worker pool.
  driver::SweepOptions opt;
  opt.compilers = {kernels::Compiler::Gcc};
  opt.opt_levels = {kernels::OptLevel::O3};
  opt.jobs = support::ThreadPool::default_jobs();
  const driver::EcmPredictor node = driver::EcmPredictor::node_throughput();
  const driver::SweepResult res =
      driver::sweep(driver::filter_matrix(opt), {&node}, opt.jobs);
  std::map<std::pair<kernels::Kernel, uarch::Micro>, double> rate;
  for (const driver::SweepRow& row : res.rows) {
    rate[{row.variant.kernel, row.variant.target}] =
        node_rate_gelem(res, row);
  }

  report::Table t({"kernel", "GCS", "SPR", "Genoa", "winner", "factor"});
  int wins[3] = {0, 0, 0};
  for (kernels::Kernel k : kernels::all_kernels()) {
    std::vector<double> rates;
    for (uarch::Micro m : uarch::all_micros()) {
      rates.push_back(rate.at({k, m}));
    }
    const Winner w = winner(rates);
    ++wins[w.best];
    t.add_row({kernels::to_string(k), format("%.1f", rates[0]),
               format("%.1f", rates[1]), format("%.1f", rates[2]),
               kNames[w.best],
               w.second > 0 ? format("%.2fx", rates[w.best] / w.second)
                            : "-"});
  }
  // The paper's counter-case: compute-dense work (the artificial peak-FLOP
  // benchmark of Table I), where core count x width x clock decides.
  {
    std::vector<double> tf;
    for (uarch::Micro m : uarch::all_micros())
      tf.push_back(power::peak_flops(m).achievable_tflops);
    const Winner w = winner(tf);
    t.add_row({"dense FMA (Tflop/s)", format("%.2f", tf[0]),
               format("%.2f", tf[1]), format("%.2f", tf[2]), kNames[w.best],
               format("%.2fx", tf[w.best] / w.second)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nwins: GCS %d, SPR %d, Genoa %d (units: Gelem/s of useful "
              "output)\n",
              wins[0], wins[1], wins[2]);
  std::printf(
      "\nReading: streaming kernels follow the useful-bandwidth ordering "
      "(GCS's\nbandwidth lead, 1.07x), and GCS's low latencies win the "
      "divider-bound pi (2.14x).\nGenoa wins the other five: all four Jacobi "
      "stencils (1.31-1.60x) and the\nGauss-Seidel recurrence (1.56x).\n");
}

}  // namespace node_winner

struct Artifact {
  const char* name;
  void (*render)();
};

/// Every artifact, in paper order: the tables and figures first, then the
/// ablations, then the extension studies.
constexpr Artifact kArtifacts[] = {
    {"table1_node_features", table1::render},
    {"table2_core_features", table2::render},
    {"table3_instruction_benchmarks", table3::render},
    {"fig1_port_diagram", fig1::render},
    {"fig2_frequency_scaling", fig2::render},
    {"fig3_prediction_error", fig3::render},
    {"fig4_wa_evasion", fig4::render},
    {"ablation_port_balancer", ablation_port_balancer::render},
    {"ablation_testbed_features", ablation_testbed_features::render},
    {"ablation_speci2m", ablation_speci2m::render},
    {"ablation_fma_forwarding", ablation_fma_forwarding::render},
    {"ablation_ice_lake", ablation_ice_lake::render},
    {"ecm_scaling", ecm_scaling::render},
    {"roofline_ceilings", roofline_ceilings::render},
    {"bandwidth_curves", bandwidth_curves::render},
    {"whatif_models", whatif_models::render},
    {"node_winner", node_winner::render},
};

const Artifact* find(const std::string& name) {
  for (const Artifact& a : kArtifacts) {
    if (name == a.name) return &a;
  }
  return nullptr;
}

}  // namespace

int run(const std::vector<std::string>& artifacts) {
  std::vector<const Artifact*> selected;
  for (const std::string& name : artifacts) {
    const Artifact* a = find(name);
    if (a == nullptr) {
      std::fprintf(stderr, "reproduce: unknown artifact '%s'; known:\n",
                   name.c_str());
      for (const Artifact& known : kArtifacts) {
        std::fprintf(stderr, "  %s\n", known.name);
      }
      return 2;
    }
    selected.push_back(a);
  }
  if (selected.empty()) {
    for (const Artifact& a : kArtifacts) selected.push_back(&a);
  }
  // Several artifacts are told apart by a `==> name <==` header line, the
  // way head(1) separates files; a single one prints exactly its own text.
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (selected.size() > 1) {
      std::printf("%s==> %s <==\n", i > 0 ? "\n" : "", selected[i]->name);
    }
    selected[i]->render();
  }
  return 0;
}

}  // namespace incore::reproduce
