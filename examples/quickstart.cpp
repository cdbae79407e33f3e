// Quickstart: analyze a kernel loop body with the in-core model.
//
// Takes assembly from a file (or uses a built-in STREAM-triad body), runs
// the OSACA-style analyzer, the LLVM-MCA-style comparator and the execution
// testbed on one machine model, and prints the port-pressure table plus the
// three cycle estimates.
//
//   ./quickstart [spr|gcs|genoa] [file.s]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "mca/mca.hpp"
#include "uarch/model.hpp"

using namespace incore;

namespace {

/// Default input: the STREAM-triad body the preferred compiler emits for
/// the selected machine.
std::string default_kernel(uarch::Micro micro) {
  kernels::Variant v{kernels::Kernel::StreamTriad,
                     kernels::compilers_for(micro).front(),
                     kernels::OptLevel::O3, micro};
  return kernels::generate(v).assembly;
}

int usage() {
  std::fprintf(stderr, "usage: quickstart [spr|gcs|genoa] [file.s]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 1 && !uarch::micro_from_name(argv[1], micro)) return usage();
  if (argc > 3) return usage();
  std::string text = default_kernel(micro);
  if (argc > 2) {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  const uarch::MachineModel& mm = uarch::machine(micro);
  std::printf("Machine: %s (%s)\n\n", uarch::to_string(micro),
              uarch::cpu_short_name(micro));

  asmir::Program prog = asmir::parse(text, mm.isa());
  analysis::Report rep = analysis::analyze(prog, mm);
  std::fputs(rep.to_table().c_str(), stdout);

  exec::Measurement meas = exec::run(prog, mm);
  mca::Result cmp = mca::simulate(prog, mm);
  std::printf(
      "\nin-core lower bound: %6.2f cy/iter\n"
      "testbed measurement: %6.2f cy/iter\n"
      "LLVM-MCA comparator: %6.2f cy/iter\n",
      rep.predicted_cycles(), meas.cycles_per_iteration,
      cmp.cycles_per_iteration);
  return 0;
}
