// ECM model walk-through for one kernel:
//
//   ./ecm_model [kernel] [gcs|spr|genoa]
//
// Shows the in-core split, the per-level transfer terms, predictions for
// every data location, and the multicore scaling curve.

#include <cstdio>
#include <string>

#include "ecm/ecm.hpp"
#include "kernels/kernels.hpp"
#include "memsim/memsim.hpp"
#include "uarch/model.hpp"

using namespace incore;

namespace {

int usage() {
  std::fprintf(stderr, "usage: ecm_model [kernel] [gcs|spr|genoa]\n");
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
  kernels::Kernel kernel = kernels::Kernel::StreamTriad;
  if (argc > 1 && !kernel_from_name(argv[1], kernel)) return usage();
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 2 && !uarch::micro_from_name(argv[2], micro)) return usage();
  if (argc > 3) return usage();

  kernels::Variant v{kernel, kernels::compilers_for(micro).front(),
                     kernels::OptLevel::O3, micro};
  auto g = kernels::generate(v);
  auto p = ecm::predict_kernel(v);
  auto h = ecm::hierarchy(micro);

  std::printf("%s on %s (%d elements per iteration)\n\n",
              kernels::to_string(kernel), uarch::cpu_short_name(micro),
              g.elements_per_iteration);
  std::printf("in-core:   T_OL = %.2f cy   T_nOL = %.2f cy\n", p.t_ol,
              p.t_nol);
  std::printf("transfers: L1-L2 %.2f   L2-L3 %.2f   L3-Mem %.2f cy\n",
              p.t_l1l2, p.t_l2l3, p.t_l3mem);
  std::printf("\nprediction by data location (cy/iter):\n");
  for (auto loc : {ecm::DataLocation::L1, ecm::DataLocation::L2,
                   ecm::DataLocation::L3, ecm::DataLocation::Memory}) {
    std::printf("  %-4s %.2f\n", ecm::to_string(loc), p.cycles(loc));
  }
  std::printf("\nsaturation at %d cores; scaling (cy/iter):\n",
              p.saturation_cores(h));
  for (int n : {1, 2, 4, 8, 16, 32}) {
    std::printf("  %2d cores: %.2f\n", n, p.multicore_cycles(n, h));
  }
  return 0;
}
