// Compare compiler personalities on one kernel: show the generated loop
// bodies and how the in-core model ranks them.
//
//   ./compare_compilers [kernel] [gcs|spr|genoa]
//
// Kernels: add copy init update stream-triad schoenauer-triad sum pi
//          jacobi-2d-5pt jacobi-3d-7pt jacobi-3d-11pt jacobi-3d-27pt
//          gauss-seidel-2d-5pt

#include <cstdio>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "kernels/kernels.hpp"
#include "support/strings.hpp"
#include "uarch/model.hpp"

using namespace incore;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: compare_compilers [kernel] [gcs|spr|genoa]\n");
  return 2;
}

bool kernel_from_name(const std::string& name, kernels::Kernel& out) {
  for (kernels::Kernel k : kernels::all_kernels()) {
    if (name == kernels::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  kernels::Kernel kernel = kernels::Kernel::SchoenauerTriad;
  if (argc > 1 && !kernel_from_name(argv[1], kernel)) return usage();
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 2 && !uarch::micro_from_name(argv[2], micro)) return usage();
  if (argc > 3) return usage();

  std::printf("kernel %s on %s\n", kernels::to_string(kernel),
              uarch::cpu_short_name(micro));

  // One sweep over this kernel's compiler personalities at -O1 and -O3,
  // evaluated by the in-core bound and the testbed measurement.
  std::vector<kernels::Variant> matrix;
  for (kernels::Compiler cc : kernels::compilers_for(micro)) {
    for (kernels::OptLevel o :
         {kernels::OptLevel::O1, kernels::OptLevel::O3}) {
      matrix.push_back(kernels::Variant{kernel, cc, o, micro});
    }
  }
  const driver::InCorePredictor osaca;
  const driver::TestbedPredictor testbed;
  const driver::SweepResult res = driver::sweep(matrix, {&osaca, &testbed});
  for (const driver::SweepRow& row : res.rows) {
    const driver::Block& b = res.blocks[row.block_index];
    const double bound = row.predictions[0].cycles_per_iteration;
    const double meas = row.predictions[1].cycles_per_iteration;
    std::printf(
        "\n--- %s -%s  (%d elem/iter, bound %.2f cy/iter, measured %.2f, "
        "%.2f cy/elem)\n",
        kernels::to_string(row.variant.compiler),
        kernels::to_string(row.variant.opt), b.gen.elements_per_iteration,
        bound, meas, meas / b.gen.elements_per_iteration);
    std::fputs(b.gen.assembly.c_str(), stdout);
  }
  return 0;
}
