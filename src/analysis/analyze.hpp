#pragma once
// The OSACA-style in-core analyzer: combines optimal port-pressure
// balancing with dependency analysis into a lower-bound runtime prediction
// for one loop iteration.
//
//   prediction = max(throughput bound from port pressure,
//                    loop-carried dependency bound)
//
// This is a *lower* bound by construction: it assumes perfect scheduling,
// infinite OoO resources and all data in L1.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/portpressure.hpp"
#include "asmir/ir.hpp"
#include "uarch/model.hpp"

namespace incore::analysis {

struct InstructionReport {
  std::string text;                 // source assembly
  std::string form;                 // machine-model form key
  double latency = 0.0;
  double inverse_throughput = 0.0;
  std::vector<double> port_pressure; // per-port contribution (cycles)
  bool on_lcd = false;
  /// The form missed the model's table and was resolved via the
  /// bare-mnemonic fallback: latency/throughput are mnemonic-level guesses.
  /// Rendered as '!' in to_table() and exported in the JSON report.
  bool used_fallback = false;
};

class Report {
 public:
  /// Port-pressure (throughput) bound in cycles per iteration.
  [[nodiscard]] double throughput_cycles() const { return tp_; }
  /// Critical-path length through one iteration.
  [[nodiscard]] double critical_path_cycles() const { return cp_; }
  /// Longest loop-carried dependency per iteration.
  [[nodiscard]] double loop_carried_cycles() const { return lcd_; }
  /// The analyzer's runtime prediction: max(TP, LCD).
  [[nodiscard]] double predicted_cycles() const { return std::max(tp_, lcd_); }

  [[nodiscard]] const std::vector<double>& port_load() const { return port_load_; }
  [[nodiscard]] const std::vector<InstructionReport>& instructions() const {
    return instructions_;
  }
  [[nodiscard]] const std::vector<int>& lcd_chain() const { return lcd_chain_; }
  [[nodiscard]] const uarch::MachineModel& model() const { return *mm_; }

  /// Renders an OSACA-like per-instruction port pressure table.
  [[nodiscard]] std::string to_table() const;

 private:
  friend Report analyze(const asmir::Program&, const uarch::MachineModel&,
                        const DepOptions&);
  double tp_ = 0.0;
  double cp_ = 0.0;
  double lcd_ = 0.0;
  std::vector<double> port_load_;
  std::vector<InstructionReport> instructions_;
  std::vector<int> lcd_chain_;
  const uarch::MachineModel* mm_ = nullptr;
};

/// Analyze a parsed loop body against a machine model.  Throws
/// support::UnknownInstruction if the model lacks a required form.
[[nodiscard]] Report analyze(const asmir::Program& prog,
                             const uarch::MachineModel& mm,
                             const DepOptions& opt = {});

/// Reports analyze() has built on the calling thread so far.
[[nodiscard]] std::uint64_t analyses_run();

}  // namespace incore::analysis
