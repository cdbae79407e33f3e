// Unroll advisor: what unroll (interleave) factor should a kernel use on a
// given machine?  Sweeps factors through the in-core model and the testbed
// and reports the knee — a concrete engineering use of the library beyond
// reproducing the paper.
//
//   ./unroll_advisor [sum|triad] [gcs|spr|genoa]

#include <cstdio>
#include <string>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "support/strings.hpp"
#include "uarch/model.hpp"

using namespace incore;
using support::format;

namespace {

/// Hand-rolled unrollable bodies: `u` independent accumulators.
std::string sum_body(uarch::Micro m, int u) {
  std::string b;
  if (m == uarch::Micro::NeoverseV2) {
    for (int i = 0; i < u; ++i) {
      b += format("ldr q%d, [x2, #%d]\n", 8 + i, 16 * i);
      b += format("fadd v%d.2d, v%d.2d, v%d.2d\n", i, i, 8 + i);
    }
    b += format("add x2, x2, #%d\n", 16 * u);
    b += format("subs x6, x6, #%d\nb.ne .L2\n", 2 * u);
  } else {
    const char* r = m == uarch::Micro::GoldenCove ? "zmm" : "ymm";
    int ew = m == uarch::Micro::GoldenCove ? 64 : 32;
    for (int i = 0; i < u; ++i) {
      b += format("vaddpd %d(%%rbx,%%rcx), %%%s%d, %%%s%d\n", ew * i, r, i, r,
                  i);
    }
    b += format("addq $%d, %%rcx\ncmpq %%rdi, %%rcx\njne .L2\n", ew * u);
  }
  return b;
}

std::string triad_body(uarch::Micro m, int u) {
  std::string b;
  if (m == uarch::Micro::NeoverseV2) {
    for (int i = 0; i < u; ++i) {
      b += format("ldr q%d, [x2, #%d]\n", i, 16 * i);
      b += format("ldr q%d, [x3, #%d]\n", 8 + i, 16 * i);
      b += format("fmla v%d.2d, v%d.2d, v31.2d\n", i, 8 + i);
      b += format("str q%d, [x1, #%d]\n", i, 16 * i);
    }
    b += format("add x1, x1, #%d\nadd x2, x2, #%d\nadd x3, x3, #%d\n", 16 * u,
                16 * u, 16 * u);
    b += format("subs x6, x6, #%d\nb.ne .L2\n", 2 * u);
  } else {
    const char* r = m == uarch::Micro::GoldenCove ? "zmm" : "ymm";
    int ew = m == uarch::Micro::GoldenCove ? 64 : 32;
    for (int i = 0; i < u; ++i) {
      b += format("vmovupd %d(%%rbx,%%rcx), %%%s%d\n", ew * i, r, i);
      b += format("vfmadd231pd %d(%%rdx,%%rcx), %%%s15, %%%s%d\n", ew * i, r,
                  r, i);
      b += format("vmovupd %%%s%d, %d(%%rax,%%rcx)\n", r, i, ew * i);
    }
    b += format("addq $%d, %%rcx\ncmpq %%rdi, %%rcx\njne .L2\n", ew * u);
  }
  return b;
}

int usage() {
  std::fprintf(stderr, "usage: unroll_advisor [sum|triad] [gcs|spr|genoa]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kernel = argc > 1 ? argv[1] : "sum";
  if (kernel != "sum" && kernel != "triad") return usage();
  const bool triad = kernel == "triad";
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 2 && !uarch::micro_from_name(argv[2], micro)) return usage();
  if (argc > 3) return usage();
  const auto& mm = uarch::machine(micro);
  std::printf("%s on %s: cycles per element vs. unroll factor\n\n",
              triad ? "stream triad" : "sum reduction",
              uarch::cpu_short_name(micro));
  std::printf("  unroll   bound   testbed\n");
  int best_u = 1;
  double best = 1e30;
  const int elems_per_op = micro == uarch::Micro::GoldenCove ? 8
                           : micro == uarch::Micro::Zen4     ? 4
                                                             : 2;
  for (int u : {1, 2, 4, 6, 8}) {
    std::string body = triad ? triad_body(micro, u) : sum_body(micro, u);
    auto prog = asmir::parse(body, mm.isa());
    auto rep = analysis::analyze(prog, mm);
    auto meas = exec::run(prog, mm);
    double per_elem = meas.cycles_per_iteration / (u * elems_per_op);
    std::printf("  %4d  %7.3f  %7.3f cy/elem\n", u,
                rep.predicted_cycles() / (u * elems_per_op), per_elem);
    if (per_elem < best - 1e-6) {
      best = per_elem;
      best_u = u;
    }
  }
  std::printf(
      "\nrecommendation: unroll by %d (%.3f cy/element).\n"
      "Latency-bound reductions need enough independent accumulators to "
      "cover\nthe FP-add latency; throughput-bound triads flatten once the "
      "load/store\nports saturate.\n",
      best_u, best);
  return 0;
}
