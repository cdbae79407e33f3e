// Corpus self-equivalence gate: every unique generated block must be
// provably equivalent to itself and to its mechanically x2-unrolled form,
// and cross-compiler pairs of the same (kernel, opt, machine) cell must
// classify as equivalent, reassociation-only or attributed -- never as an
// unattributed difference, an evaluator crash or an opcode bailout.
//
// This is the engine's coverage contract with the corpus: if a compiler
// personality starts emitting an opcode the symbolic evaluator cannot
// model, this gate fails with the VE008 provenance naming it.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "equiv/equiv.hpp"
#include "kernels/kernels.hpp"
#include "support/hash.hpp"

using namespace incore;

namespace {

/// The corpus deduplicated to unique (machine, assembly) blocks -- the
/// paper's 249 -- by the sweep driver's own dedup.
std::vector<driver::Block> unique_blocks() {
  return driver::dedup_blocks(kernels::test_matrix()).blocks;
}

TEST(EquivCorpus, EveryUniqueBlockIsSelfEquivalent) {
  const std::vector<driver::Block> blocks = unique_blocks();
  ASSERT_EQ(blocks.size(), 249u) << "corpus size drifted; update the gate";
  equiv::Engine engine;
  for (const driver::Block& b : blocks) {
    const equiv::Result r =
        engine.check_text(b.gen.assembly, b.gen.assembly, b.gen.program.isa);
    EXPECT_EQ(r.verdict, equiv::Verdict::Equivalent)
        << b.variant.label() << ": " << equiv::to_text(r);
  }
}

TEST(EquivCorpus, EveryUniqueBlockMatchesItsUnrolledTwin) {
  const std::vector<driver::Block> blocks = unique_blocks();
  equiv::Engine engine;
  for (const driver::Block& b : blocks) {
    const std::string twice = equiv::unroll_text(b.gen.assembly, 2);
    const equiv::Result r =
        engine.check_text(b.gen.assembly, twice, b.gen.program.isa);
    EXPECT_EQ(r.verdict, equiv::Verdict::Equivalent)
        << b.variant.label() << " vs x2: " << equiv::to_text(r);
    EXPECT_EQ(r.ref_stamps, 2) << b.variant.label();
    EXPECT_EQ(r.cand_stamps, 1) << b.variant.label();
  }
}

TEST(EquivCorpus, CrossCompilerPairsNeverDivergeUnattributed) {
  // Group the matrix by (kernel, opt, machine) and compare every
  // compiler's code against the cell's first compiler.
  std::map<std::string, std::vector<kernels::Variant>> cells;
  for (const kernels::Variant& v : kernels::test_matrix()) {
    std::string key = std::string(to_string(v.kernel)) + "/" +
                      to_string(v.opt) + "/" + uarch::to_string(v.target);
    cells[key].push_back(v);
  }
  equiv::Engine engine;
  std::map<equiv::Verdict, int> tally;
  int pairs = 0;
  for (const auto& [key, variants] : cells) {
    ASSERT_GE(variants.size(), 2u) << key;
    const kernels::GeneratedKernel ref = kernels::generate(variants[0]);
    for (std::size_t i = 1; i < variants.size(); ++i) {
      const kernels::GeneratedKernel cand = kernels::generate(variants[i]);
      const equiv::Result r =
          engine.check_text(ref.assembly, cand.assembly, ref.program.isa);
      ++pairs;
      ++tally[r.verdict];
      EXPECT_TRUE(r.verdict == equiv::Verdict::Equivalent ||
                  r.verdict == equiv::Verdict::ReassociationOnly ||
                  r.verdict == equiv::Verdict::Attributed)
          << variants[0].label() << " vs " << variants[i].label() << ":\n"
          << equiv::to_text(r);
      if (r.verdict == equiv::Verdict::Attributed) {
        EXPECT_FALSE(r.attribution.empty());
      }
    }
  }
  // The matrix compares 416 cells' worth of pairs; the bulk must actually
  // prove equivalent -- attribution is the explained escape hatch, not the
  // common case.
  EXPECT_GE(pairs, 200);
  EXPECT_GT(tally[equiv::Verdict::Equivalent], pairs / 2);
  EXPECT_EQ(tally[equiv::Verdict::Different], 0);
  EXPECT_EQ(tally[equiv::Verdict::Unsupported], 0);
}

TEST(EquivCorpus, MemoizationCollapsesRepeatedSummaries) {
  // The 249 (machine, assembly) blocks share 192 distinct texts; the
  // engine summarizes each text once and every other probe is a memo hit.
  const std::vector<driver::Block> blocks = unique_blocks();
  std::map<std::string, int> texts;
  for (const driver::Block& b : blocks) {
    ++texts[support::text_key(b.gen.assembly)];
  }
  equiv::Engine engine;
  for (const driver::Block& b : blocks) {
    (void)engine.check_text(b.gen.assembly, b.gen.assembly, b.gen.program.isa);
  }
  EXPECT_EQ(engine.memo_misses(), texts.size());
  EXPECT_EQ(engine.memo_hits(), 2 * blocks.size() - texts.size());
}

}  // namespace
