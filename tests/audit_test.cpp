// Tests for the prediction audit engine: bound certificates, cross-model
// invariants (VP001–VP010), divergence attribution and the verdict string.

#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "kernels/kernels.hpp"
#include "report/json.hpp"
#include "uarch/registry.hpp"
#include "verify/diagnostics.hpp"

namespace incore {
namespace {

/// First matrix block generating `kernel` for `target` (any compiler/opt).
driver::Block block_for(std::string_view kernel, uarch::Micro target) {
  for (const kernels::Variant& v : kernels::test_matrix()) {
    if (kernel == kernels::to_string(v.kernel) && v.target == target) {
      return driver::make_block(v);
    }
  }
  ADD_FAILURE() << "no matrix variant for " << kernel;
  return driver::make_block(kernels::test_matrix().front());
}

TEST(Audit, CodesRegistered) {
  std::set<std::string> codes;
  for (const verify::CodeInfo& c : verify::all_codes()) codes.insert(c.code);
  for (const char* code : {"VP001", "VP002", "VP003", "VP004", "VP005",
                           "VP006", "VP007", "VP008", "VP009", "VP010"}) {
    EXPECT_TRUE(codes.count(code)) << code;
  }
  for (const verify::CodeInfo& c : verify::all_codes()) {
    const std::string code = c.code;
    if (code.rfind("VP", 0) != 0) continue;
    // VP009/VP010 are attribution notes; everything else is an invariant.
    const auto expect = (code == "VP009" || code == "VP010")
                            ? verify::Severity::Note
                            : verify::Severity::Error;
    EXPECT_EQ(c.severity, expect) << code;
  }
}

TEST(Audit, CertificatesMatchAnalyzer) {
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated) << a.error;
  EXPECT_TRUE(a.ok);
  EXPECT_FALSE(sink.has_errors());

  const analysis::Report rep = analysis::analyze(b.gen.program, *b.mm);
  EXPECT_NEAR(a.port_certificate.cycles, rep.throughput_cycles(), 1e-9);
  EXPECT_NEAR(a.path_certificate.cycles, rep.loop_carried_cycles(), 1e-9);
  EXPECT_NEAR(a.certified_bound, rep.predicted_cycles(), 1e-9);
  EXPECT_DOUBLE_EQ(a.certified_bound, std::max(a.port_certificate.cycles,
                                               a.path_certificate.cycles));
}

TEST(Audit, PortCertificateProvenance) {
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated);

  const audit::Certificate& pc = a.port_certificate;
  EXPECT_EQ(pc.kind, audit::BoundKind::PortPressure);
  ASSERT_FALSE(pc.binding_ports.empty());
  ASSERT_EQ(pc.binding_ports.size(), pc.binding_port_names.size());
  // Binding ports really carry the bottleneck load.
  for (int p : pc.binding_ports) {
    EXPECT_NEAR(pc.port_load[static_cast<std::size_t>(p)], pc.cycles,
                1e-5 * std::max(1.0, pc.cycles));
  }
  // The provenance names the first binding port.
  EXPECT_NE(pc.provenance.find(pc.binding_port_names.front()),
            std::string::npos)
      << pc.provenance;
}

TEST(Audit, PathCertificateProvenance) {
  // The sum recurrence: the accumulator add chain binds the bound.
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated);

  const audit::Certificate& cc = a.path_certificate;
  EXPECT_EQ(cc.kind, audit::BoundKind::CriticalPath);
  ASSERT_FALSE(cc.chain.empty());
  ASSERT_EQ(cc.chain.size(), cc.chain_link_cycles.size());
  double sum = 0.0;
  for (double w : cc.chain_link_cycles) sum += w;
  EXPECT_NEAR(sum, cc.cycles, 1e-6 * std::max(1.0, cc.cycles));
  EXPECT_NE(cc.provenance.find("recurrence"), std::string::npos);
  // The chain instruction's mnemonic appears in the provenance.
  const auto& ins =
      b.gen.program.code[static_cast<std::size_t>(cc.chain.front())];
  EXPECT_NE(cc.provenance.find(ins.mnemonic), std::string::npos)
      << cc.provenance;
}

TEST(Audit, CorpusCertifiesClean) {
  // Every unique block of the validation matrix must pass all VP error
  // checks — the library-level mirror of `incore-cli audit --all`.
  std::size_t audited = 0;
  verify::DiagnosticSink sink;
  for (const driver::Block& b :
       driver::dedup_blocks(kernels::test_matrix()).blocks) {
    const audit::BlockAudit a = audit::audit_block(b, sink);
    EXPECT_TRUE(a.evaluated) << a.location << ": " << a.error;
    EXPECT_TRUE(a.ok) << a.location;
    EXPECT_TRUE(a.failed_codes.empty()) << a.location;
    ++audited;
  }
  EXPECT_FALSE(sink.has_errors());
  EXPECT_GT(audited, 200u);  // the matrix dedups to ~249 unique blocks
}

TEST(Audit, GaussSeidelMoveEliminationFloor) {
  // The paper's V2 outlier: move elimination shortens the Gauss-Seidel
  // recurrence, so the silicon legitimately beats the model bound.  The
  // audit must lower the testbed floor (with a note) instead of flagging
  // VP005.
  const driver::Block b =
      block_for("gauss-seidel-2d-5pt", uarch::Micro::NeoverseV2);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated) << a.error;
  EXPECT_TRUE(a.ok);
  EXPECT_LT(a.testbed_cycles, a.certified_bound);
  EXPECT_LT(a.execution_floor, a.certified_bound);
  EXPECT_NE(a.floor_note.find("rename-stage elimination"), std::string::npos)
      << a.floor_note;
}

TEST(Audit, Zen4DividerOverrideFloor) {
  // Zen 4 measures divider throughput below the model value; the floor
  // must absorb that instead of flagging VP005.
  const driver::Block b = block_for("pi", uarch::Micro::Zen4);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated) << a.error;
  EXPECT_TRUE(a.ok);
  EXPECT_LT(a.execution_floor, a.certified_bound);
  EXPECT_NE(a.floor_note.find("divider throughput"), std::string::npos)
      << a.floor_note;
}

TEST(Audit, AdversarialTolerancesFireEveryFloorCheck) {
  // Impossible tolerances force the invariant checks to fire: pins the
  // emission paths, the failed-code collection and the fail verdict.
  audit::AuditOptions opt;
  opt.tolerance = -1.0;    // equality checks can never pass
  opt.floor_slack = -10.0; // floors inflated 11x: simulators must "fail"
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink, opt);
  ASSERT_TRUE(a.evaluated);
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(sink.has_errors());
  for (const char* code : {"VP001", "VP002", "VP003", "VP004", "VP005",
                           "VP006", "VP008"}) {
    EXPECT_NE(std::find(a.failed_codes.begin(), a.failed_codes.end(), code),
              a.failed_codes.end())
        << code;
  }
  const std::string verdict = audit::verdict_string(a);
  EXPECT_EQ(verdict.rfind("fail:VP001", 0), 0u) << verdict;
  // Every emitted diagnostic carries the block's location.
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.location, a.location);
  }
}

TEST(Audit, VerdictStringForms) {
  audit::BlockAudit a;
  EXPECT_EQ(audit::verdict_string(a), "error");  // not evaluated

  a.evaluated = true;
  a.ok = true;
  EXPECT_EQ(audit::verdict_string(a), "pass");

  audit::Attribution at;
  at.cause = audit::Cause::DispatchBound;
  a.mca_attribution = at;
  EXPECT_EQ(audit::verdict_string(a), "divergent:dispatch-bound");

  // Duplicate causes collapse; distinct causes join with '+'.
  a.testbed_attribution = at;
  EXPECT_EQ(audit::verdict_string(a), "divergent:dispatch-bound");
  a.testbed_attribution->cause = audit::Cause::LatencyChain;
  EXPECT_EQ(audit::verdict_string(a),
            "divergent:dispatch-bound+latency-chain");

  a.ok = false;
  a.failed_codes = {"VP004", "VP007"};
  EXPECT_EQ(audit::verdict_string(a), "fail:VP004+VP007");
}

TEST(Audit, AttributionClassifiesMcaLatencyChain) {
  // sum on Golden Cove: MCA pays the full 4-cycle add latency while the
  // bound follows the 2-cycle accumulator recurrence -> latency-chain, with
  // the chain instruction as the top contribution.
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  ASSERT_TRUE(a.evaluated);
  ASSERT_TRUE(a.mca_attribution.has_value());
  EXPECT_EQ(a.mca_attribution->cause, audit::Cause::LatencyChain);
  EXPECT_GT(a.mca_attribution->gap, 0.0);
  ASSERT_FALSE(a.mca_attribution->contributions.empty());
  EXPECT_FALSE(a.mca_attribution->contributions.front().text.empty());
  // The attribution surfaced as a VP009 note carrying the summary.
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    found |= d.code == std::string("VP009");
  }
  EXPECT_TRUE(found);
}

TEST(Audit, TextReportCarriesProvenance) {
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  const std::string text = audit::to_text(a);
  EXPECT_NE(text.find(a.port_certificate.provenance), std::string::npos);
  EXPECT_NE(text.find(a.path_certificate.provenance), std::string::npos);
  EXPECT_NE(text.find("certified bound"), std::string::npos);
  EXPECT_NE(text.find("verdict:"), std::string::npos);
}

TEST(Audit, JsonReportCarriesProvenance) {
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  const std::string json = audit::to_json(a, sink);
  EXPECT_NE(json.find("\"certificates\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(
      json.find(report::json_escape(a.port_certificate.provenance)),
      std::string::npos);
  EXPECT_NE(json.find("\"certified_bound\""), std::string::npos);
  EXPECT_NE(json.find("\"lint\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
}

TEST(Audit, BlockLocationNamesKernelAndMachine) {
  const driver::Block b = block_for("sum", uarch::Micro::Zen4);
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink);
  EXPECT_NE(a.location.find(b.variant.label()), std::string::npos);
  EXPECT_NE(a.location.find(b.mm->name()), std::string::npos);
}

TEST(Audit, MonotonicityProbeOptional) {
  const driver::Block b = block_for("sum", uarch::Micro::GoldenCove);
  audit::AuditOptions opt;
  opt.check_monotonicity = false;
  verify::DiagnosticSink sink;
  const audit::BlockAudit a = audit::audit_block(b, sink, opt);
  EXPECT_TRUE(a.evaluated);
  EXPECT_TRUE(a.ok);
}

TEST(Audit, UnparsableKernelReportsError) {
  // A program whose instruction cannot be resolved: the audit must report
  // evaluated == false and the "error" verdict rather than throwing.
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  asmir::Program prog = asmir::parse("bogusinsn %xmm0, %xmm1\n", mm.isa());
  ASSERT_FALSE(prog.empty());
  verify::DiagnosticSink sink;
  const audit::BlockAudit a =
      audit::audit_program(prog, mm, "synthetic", sink);
  EXPECT_FALSE(a.evaluated);
  EXPECT_FALSE(a.error.empty());
  EXPECT_EQ(audit::verdict_string(a), "error");
}

}  // namespace
}  // namespace incore
