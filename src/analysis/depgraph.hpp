#pragma once
// Dependency analysis of a loop body: critical path through one iteration
// and the longest loop-carried dependency (LCD) cycle, both in cycles.
//
// The graph is built over *two* unrolled copies of the body.  True (RAW)
// register dependencies, flag dependencies and conservative store-to-load
// memory dependencies (same symbolic base register and overlapping
// displacement range) contribute edges weighted with the producer's result
// latency.  The LCD is the longest path from an instruction in the first
// copy to the same instruction in the second copy, which equals the
// per-iteration length of the binding recurrence.

#include <vector>

#include "asmir/ir.hpp"
#include "uarch/model.hpp"

namespace incore::analysis {

struct DepEdge {
  int from = 0;      // producer instruction index (within one body copy)
  int to = 0;        // consumer instruction index
  double weight = 0; // producer latency contributing to the chain
  bool loop_carried = false;
};

struct DepResult {
  /// Longest latency path through a single iteration (critical path).
  double critical_path_cycles = 0.0;
  /// Longest loop-carried recurrence per iteration.
  double loop_carried_cycles = 0.0;
  /// Instruction indices on the binding recurrence (empty if none).
  std::vector<int> lcd_chain;
  /// Latency contributed between lcd_chain[i] and lcd_chain[(i+1) % size]
  /// (parallel to lcd_chain; sums to loop_carried_cycles).  The provenance
  /// of the LCD bound: which link of the recurrence carries which cycles.
  std::vector<double> lcd_link_cycles;
  /// All intra- and inter-iteration edges (deduplicated).
  std::vector<DepEdge> edges;
};

struct DepOptions {
  /// Treat register copies (mov/fmov between registers) as real latency.
  /// The analyzer keeps them (as OSACA does); the execution testbed renames
  /// them away, which is exactly the Gauss-Seidel discrepancy the paper
  /// reports for Neoverse V2.
  bool keep_move_latency = true;
  /// Model store-to-load forwarding latency for memory recurrences.
  double store_forward_latency = 6.0;
  /// Model late accumulator forwarding of FMA-class instructions (Neoverse
  /// V2 forwards accumulates in 2 cycles).  Off by default: OSACA-equivalent
  /// behaviour charges the full latency on the chain.
  bool model_accumulator_forwarding = false;
  /// Treat recognized zeroing idioms (xor r,r / eor x,x,x) as rename-time:
  /// no input dependencies and zero latency.  On by default (this has
  /// always been the analyzer's behaviour); turning it off gives the
  /// strictly syntactic dependence graph.
  bool recognize_zero_idioms = true;
  /// Eliminate register-to-register moves at rename time (zero latency on
  /// every chain through them), independent of `keep_move_latency`.  This is
  /// the static counterpart of the testbed's move elimination and what
  /// `analyze --rename-aware` switches on.
  bool rename_moves = false;
  /// Match store-to-load pairs with the dataflow alias engine instead of
  /// the versioned-address heuristic: constant pointer bumps between the
  /// store and the load no longer hide the dependency, and loop-carried
  /// memory recurrences are proven via per-iteration stride.
  bool alias_precise_stores = false;

  bool operator==(const DepOptions&) const = default;
};

[[nodiscard]] DepResult analyze_dependencies(const asmir::Program& prog,
                                             const uarch::MachineModel& mm,
                                             const DepOptions& opt = {});

}  // namespace incore::analysis
