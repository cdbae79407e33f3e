// Frequency explorer: what clock does a chip sustain for a given ISA mix
// and core count, and what does that do to the achievable FLOP/s?
//
//   ./frequency_explorer [gcs|spr|genoa] [cores]

#include <cstdio>

#include "power/power.hpp"
#include "support/strings.hpp"
#include "uarch/model.hpp"

using namespace incore;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: frequency_explorer [gcs|spr|genoa] [cores]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 1 && !uarch::micro_from_name(argv[1], micro)) return usage();
  const auto& chip = power::chip(micro);
  long long parsed = chip.cores;
  if (argc > 2 && (!support::parse_int(argv[2], parsed) || parsed < 1 ||
                   parsed > chip.cores)) {
    return usage();
  }
  if (argc > 3) return usage();
  const int cores = static_cast<int>(parsed);

  std::printf("%s: TDP %.0f W, %d cores, turbo %.1f GHz\n\n", chip.name,
              chip.tdp_w, chip.cores, chip.turbo_ghz);
  std::printf("sustained frequency with %d active cores:\n", cores);
  for (power::IsaClass isa : power::isa_classes_for(micro)) {
    double f = power::sustained_frequency(micro, isa, cores);
    std::printf("  %-8s %.2f GHz (%.0f%% of turbo)\n", power::to_string(isa),
                f, 100.0 * f / chip.turbo_ghz);
  }
  auto peak = power::peak_flops(micro);
  std::printf(
      "\nDP peak: %.2f Tflop/s theoretical, %.2f Tflop/s achievable with an "
      "FMA kernel\nat the sustained full-socket clock.\n",
      peak.theoretical_tflops, peak.achievable_tflops);
  return 0;
}
