#pragma once
// The sweep front end shared by `incore-cli sweep` and the daemon's `sweep`
// request: one flag grammar, and the two canonical per-block passes its
// --audit and --traffic flags install as the driver's hooks.
//
// Grammar (tokens in any order; list values are comma-separated):
//     --csv | --json                output format (text when neither)
//     --audit                       per-block audit_verdict column
//     --traffic                     per-block traffic_lines column
//     --cores n1,n2,..              ecm-n<k> scaling columns, k in [1, 1024]
//     --models m1,..  --machines m1,..  --machine-file <m.mdf>
//     --kernels k1,..  --compilers c1,..  --opt O1,..
//
// The driver stays audit- and traffic-agnostic; this layer sits above
// driver, audit and traffic, so it is where the passes are defined.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace incore::server {

/// The --audit pass: the block's verdict ("pass", "divergent:<cause>",
/// "fail:<code>", "error"), audited against a private sink.
[[nodiscard]] std::string audit_verdict(const driver::Block& b);

/// The --traffic pass: memory read/write cache lines per iteration from
/// the static stream analysis (no simulation), "<r>r+<w>w", with a
/// trailing "+" when the analysis is inexact.
[[nodiscard]] std::string traffic_line(const driver::Block& b);

enum class SweepFormat : std::uint8_t { Text, Csv, Json };

struct SweepArgs {
  driver::SweepOptions options;
  SweepFormat format = SweepFormat::Text;
  /// Empty on success; otherwise the diagnostic, worded as the CLI prints
  /// it (the daemon adds its "sweep: " prefix where the text lacks one).
  std::string error;
  /// The failure is a flag neither the grammar nor the front end knows.
  bool unknown_flag = false;
};

/// A front end's own flag (the CLI's --jobs).  Offered every token the
/// grammar does not know: returns false when it does not know it either;
/// otherwise consumes it and any value after it (advancing `i` to the last
/// token used) and sets `error` when the value is bad.
using FlagHook = std::function<bool(const std::vector<std::string>& tokens,
                                    std::size_t& i, std::string& error)>;

/// Parses sweep flag tokens (no command word), stopping at the first error.
[[nodiscard]] SweepArgs parse_sweep_args(const std::vector<std::string>& tokens,
                                         const FlagHook& front_end = {});

}  // namespace incore::server
