// Write-allocate evasion explorer.
//
//   ./wa_evasion_explorer [gcs|spr|genoa] [cores] [standard|nt]
//
// Prints the solved memory-system state for the store-only benchmark:
// domain utilization, SpecI2M conversion / claim rate / NT partial fills,
// and the resulting traffic breakdown.

#include <algorithm>
#include <cstdio>
#include <string>

#include "memsim/memsim.hpp"
#include "support/strings.hpp"
#include "uarch/model.hpp"

using namespace incore;
using memsim::StoreKind;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wa_evasion_explorer [gcs|spr|genoa] [cores] "
               "[standard|nt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uarch::Micro micro = uarch::Micro::GoldenCove;
  if (argc > 1 && !uarch::micro_from_name(argv[1], micro)) return usage();
  memsim::System sys(memsim::preset(micro));
  const auto& cfg = sys.config();
  long long parsed = cfg.cores;
  if (argc > 2 && (!support::parse_int(argv[2], parsed) || parsed < 1 ||
                   parsed > cfg.cores)) {
    return usage();
  }
  const int cores = static_cast<int>(parsed);
  const std::string kind_name = argc > 3 ? argv[3] : "standard";
  if (kind_name != "standard" && kind_name != "nt") return usage();
  if (argc > 4) return usage();
  const StoreKind kind =
      kind_name == "nt" ? StoreKind::NonTemporal : StoreKind::Standard;

  std::printf("%s: %d cores (%d per ccNUMA domain), %.0f GB/s theoretical\n",
              cfg.name, cfg.cores, cfg.cores_per_domain,
              cfg.theoretical_bw_gbs);
  std::printf("store kind: %s\n\n",
              kind == StoreKind::Standard ? "standard" : "non-temporal");

  int in_domain = std::min(cores, cfg.cores_per_domain);
  auto dr = sys.solve_domain(in_domain, kind);
  std::printf("first domain (%d active cores):\n", in_domain);
  std::printf("  interface utilization: %.0f%%\n", 100 * dr.utilization);
  std::printf("  WA evasion rate:       %.0f%%\n", 100 * dr.conversion);
  std::printf("  NT partial fills:      %.0f%%\n", 100 * dr.nt_partial);

  auto t = sys.run_store_benchmark(cores, 40e9, kind);
  std::printf("\n40 GB store benchmark across %d cores:\n", cores);
  std::printf("  stored by cores:   %6.1f GB\n", t.bytes_stored / 1e9);
  std::printf("  read from memory:  %6.1f GB\n", t.bytes_read_mem / 1e9);
  std::printf("  written to memory: %6.1f GB\n", t.bytes_written_mem / 1e9);
  std::printf("  traffic ratio:     %6.2f  (1.0 = perfect evasion, 2.0 = "
              "full write-allocate)\n",
              t.ratio());
  return 0;
}
