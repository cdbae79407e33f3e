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
//
// The daemon's own flags (`incore-cli serve`, `incore-server`) have one
// grammar here too: parse_serve_args.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/sweep.hpp"
#include "server/server.hpp"

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

/// Appends the comma-separated core counts of `list` (each an integer in
/// [1, 1024]) to `out`.  On the first bad item, returns false with the
/// diagnostic "<command>: --cores expects core counts in [1, 1024], got
/// '<item>'" in `error`.
[[nodiscard]] bool parse_core_counts(const std::string& list,
                                     std::vector<int>& out, std::string& error,
                                     std::string_view command = "sweep");

struct ServeArgs {
  ServerOptions options;
  /// Empty on success; otherwise the diagnostic.
  std::string error;
  /// The failure is a flag the grammar does not know.
  bool unknown_flag = false;
};

/// Parses daemon flag tokens (no command word):
///     --socket <path>  (the front end requires it)
///     --workers N      evaluate/finalize stage workers, N in [1, 256]
///     --queue N        per-stage queue capacity, N >= 1
///     --memo N         prediction-memo LRU capacity, 0 = unbounded
/// Values are whole decimal integers.  Diagnostics start with `prefix`
/// ("serve", "incore-server"), except an unknown flag's.
[[nodiscard]] ServeArgs parse_serve_args(const std::vector<std::string>& tokens,
                                         std::string_view prefix);

/// Parses sweep flag tokens (no command word), stopping at the first error.
[[nodiscard]] SweepArgs parse_sweep_args(const std::vector<std::string>& tokens,
                                         const FlagHook& front_end = {});

}  // namespace incore::server
