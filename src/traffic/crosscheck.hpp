#pragma once
// Trace-simulator cross-validation of the static traffic model (VP011).
//
// The static engine (traffic.hpp) claims to predict exactly the quantities
// the trace simulator (memsim::CacheHierarchy) meters.  This component puts
// that claim under test: it synthesizes a concrete address layout for the
// reconstructed streams (disjoint multi-MiB regions, staggered to
// decorrelate cache sets), replays the kernel's per-iteration access
// sequence through the simulator built from the same machine's cache
// geometry, and compares eight steady-state per-iteration rates -- L1
// misses and evictions, L2/L3 reuse hits, L2 evictions, memory reads and
// writes, claimed lines -- against the analytic volumes.
//
// Divergences beyond tolerance are attributed: symbolic strides and
// gathers make the layout unknowable (skipped, attributed); unresolved
// MayAlias pairs mean the synthesized disjoint layout may not match
// reality; reuse distances near a capacity boundary flip the serving level
// either way; the write-allocate model (claim detector phase) explains
// store-side deltas.  Anything left unattributed is a VP011 error.

#include <string>
#include <string_view>
#include <vector>

#include "traffic/layout.hpp"
#include "traffic/traffic.hpp"
#include "verify/diagnostics.hpp"

namespace incore::traffic {

struct CrosscheckOptions {
  /// Relative tolerance on each compared quantity.
  double tolerance = 0.05;
  /// Absolute slack in lines/iteration: differences below this never count
  /// (guards the relative test for near-zero quantities).
  double floor_lines = 0.02;
  /// Iterations measured after warmup.
  long long measure_iterations = 32768;
  /// Hard cap on warmup + measure (keeps huge-L3 machines bounded); when
  /// the cap truncates warmup the comparison is attributed, not failed.
  long long max_total_iterations = kMaxReplayIterations;
};

/// One compared quantity (lines/iteration).
struct Quantity {
  const char* name = "";
  double statik = 0;     // analytic volume
  double simulated = 0;  // trace-simulator measurement
  bool within = true;
};

/// Reasons a divergence (or a skip) is considered understood.
enum class Attribution : std::uint8_t {
  SymbolicStride,         // unknowable layout: cross-check skipped
  GatherScatter,          // unknowable per-lane addresses: skipped
  AliasResolution,        // MayAlias pairs: synthesized layout unproven
  LayerConditionBoundary, // reuse distance near a capacity edge
  AssociativityConflict,  // live lines alias one L1 set beyond its ways
  WriteAllocateModel,     // claim-detector / write-allocate phase effects
  WindowCapped,           // warmup truncated by max_total_iterations
};

[[nodiscard]] const char* to_string(Attribution a);

struct Crosscheck {
  Result statics;  // the static analysis being validated
  /// True when no simulation ran (symbolic/gather streams, or no memory
  /// accesses at all); `attributions` names the reason.
  bool skipped = false;
  std::vector<Quantity> quantities;
  std::vector<Attribution> attributions;
  /// Largest relative error over the compared quantities.
  double max_rel_error = 0;
  /// True when every quantity is within tolerance, or every divergence is
  /// attributed.  False = unattributed divergence (VP011 error).
  bool ok = true;
  long long warmup_iterations = 0;
  long long measured_iterations = 0;
  /// True when max_total_iterations truncated the warmup.
  bool capped = false;
};

/// Runs the full cross-validation of `prog` on `mm`.
[[nodiscard]] Crosscheck crosscheck(const asmir::Program& prog,
                                    const uarch::MachineModel& mm,
                                    const CrosscheckOptions& opt = {});

/// Audit-style entry point: runs crosscheck() and reports VP011 through
/// the sink under `location` (used verbatim) -- an error for unattributed
/// divergence, a note when the divergence (or skip) is attributed.
/// Returns the number of diagnostics emitted.
std::size_t check_traffic_vs_simulation(const asmir::Program& prog,
                                        const uarch::MachineModel& mm,
                                        std::string location,
                                        verify::DiagnosticSink& sink,
                                        const CrosscheckOptions& opt = {});

/// Human-readable comparison table.
[[nodiscard]] std::string to_text(const Crosscheck& c);

/// JSON document (quantities, attributions, window sizes).
[[nodiscard]] std::string to_json(const Crosscheck& c);

}  // namespace incore::traffic
