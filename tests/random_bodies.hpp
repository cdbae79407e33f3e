#pragma once
// Generated x86 loop bodies shared by the traffic tests: the closed-form
// line-rate differential and the replay warm-up differential both draw
// their inputs here, so a generator fix reaches every test that uses it.

#include <cstdlib>
#include <iterator>
#include <string>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace incore::test {

/// A random x86 loop body: up to three base registers, each advancing by
/// its own stride of either sign, carrying loads, stores, read-modify-write
/// and non-temporal stores of 8-64 bytes at displacements that straddle
/// lines and cluster into one to three bands.  A `huge` body puts two
/// accesses more than 8 MiB apart at stride 8 (span/stride above 2^20
/// iterations).
inline std::string random_body(support::Rng& rng, bool huge) {
  using support::format;
  static constexpr const char* kBases[] = {"rax", "rbx", "rcx"};
  static constexpr long long kStrides[] = {4,  8,  12, 16,  24,  32,  40,  48,
                                           56, 64, 72, 96, 128, 136, 256, 1000};
  static constexpr long long kSpacings[] = {0, 72, 520, 4096, 40000};
  static constexpr const char* kVec[] = {"xmm0", "xmm1", "ymm2", "zmm3"};
  std::string out;
  const int streams = huge ? 1 : 1 + static_cast<int>(rng.below(3));
  for (int si = 0; si < streams; ++si) {
    const char* base = kBases[si];
    long long stride = huge ? 8 : kStrides[rng.below(std::size(kStrides))];
    if (rng.below(2) != 0) stride = -stride;
    const long long spacing =
        huge ? (9ll << 20) + static_cast<long long>(rng.below(4096))
             : kSpacings[rng.below(std::size(kSpacings))];
    const int members = huge ? 2 : 1 + static_cast<int>(rng.below(6));
    for (int mi = 0; mi < members; ++mi) {
      const long long band = huge ? mi : static_cast<long long>(rng.below(3));
      const long long disp =
          band * spacing + static_cast<long long>(rng.below(200)) - 64;
      const std::size_t w = rng.below(4);  // 8 << w bytes
      const std::string mem = format("%lld(%%%s)", disp, base);
      switch (rng.below(10)) {
        case 6:
        case 7:
          out += format("%s %%%s, %s\n", w == 0 ? "vmovsd" : "vmovupd",
                        kVec[w], mem.c_str());
          break;
        case 8:
          out += format("addq %%r8, %s\n", mem.c_str());
          break;
        case 9:
          out += w == 0 ? format("movnti %%r8, %s\n", mem.c_str())
                        : format("%s %%%s, %s\n",
                                 w == 1 ? "movntpd" : "vmovntpd", kVec[w],
                                 mem.c_str());
          break;
        default:
          out += format("%s %s, %%%s\n", w == 0 ? "vmovsd" : "vmovupd",
                        mem.c_str(), kVec[w]);
      }
    }
    out += format("%s $%lld, %%%s\n", stride > 0 ? "addq" : "subq",
                  std::llabs(stride), base);
  }
  return out;
}

}  // namespace incore::test
