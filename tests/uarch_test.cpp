// Unit tests for the machine models: structural invariants, Table II / III
// anchor values, and instruction-form resolution.

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "asmir/parser.hpp"
#include "support/error.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"

using namespace incore;
using uarch::MachineModel;
using uarch::Micro;
using uarch::machine;

namespace {

asmir::Instruction parse_one(const char* text, asmir::Isa isa) {
  asmir::Program p = asmir::parse(text, isa);
  EXPECT_EQ(p.size(), 1u) << text;
  return p.code.at(0);
}

}  // namespace

// ------------------------------------------------------------- validation

class MachineValidation : public ::testing::TestWithParam<Micro> {};

TEST_P(MachineValidation, ModelIsInternallyConsistent) {
  EXPECT_NO_THROW(machine(GetParam()).validate());
}

TEST_P(MachineValidation, HasSubstantialInstructionTable) {
  // The paper: "each model comprises hundreds of entries".
  EXPECT_GE(machine(GetParam()).table_size(), 150u);
}

INSTANTIATE_TEST_SUITE_P(AllMicros, MachineValidation,
                         ::testing::Values(Micro::NeoverseV2, Micro::GoldenCove,
                                           Micro::Zen4));

// --------------------------------------------------------------- Table II

TEST(TableII, PortCounts) {
  EXPECT_EQ(machine(Micro::NeoverseV2).port_count(), 17u);
  EXPECT_EQ(machine(Micro::GoldenCove).port_count(), 12u);
  EXPECT_EQ(machine(Micro::Zen4).port_count(), 13u);
}

TEST(TableII, SimdWidths) {
  EXPECT_EQ(machine(Micro::NeoverseV2).simd_width_bits, 128);  // 16 B
  EXPECT_EQ(machine(Micro::GoldenCove).simd_width_bits, 512);  // 64 B
  EXPECT_EQ(machine(Micro::Zen4).simd_width_bits, 256);        // 32 B
}

TEST(TableII, NeoverseV2IntAndFpUnits) {
  const MachineModel& mm = machine(Micro::NeoverseV2);
  EXPECT_EQ(mm.count_ports_matching("I") + mm.count_ports_matching("M"), 6);
  EXPECT_EQ(mm.count_ports_matching("V"), 4);
  EXPECT_EQ(mm.count_ports_matching("LD"), 3);
  EXPECT_EQ(mm.count_ports_matching("ST"), 2);
}

TEST(TableII, Zen4Units) {
  const MachineModel& mm = machine(Micro::Zen4);
  EXPECT_EQ(mm.count_ports_matching("ALU"), 4);
  EXPECT_EQ(mm.count_ports_matching("FP"), 4);
}

// -------------------------------------------------- Table III anchor data

struct TputCase {
  Micro micro;
  asmir::Isa isa;
  const char* text;
  double inverse_throughput;
  double latency;
};

// Names a case "<CPU>_<instruction>" with every run of other characters
// folded to '_' (e.g. "SPR_vaddpd_zmm0_zmm1_zmm2"), so the ctest name taken
// from it is the same in every build; gtest's default byte dump of the
// struct would embed the address of `text`.
void PrintTo(const TputCase& c, std::ostream* os) {
  std::string name = std::string(uarch::cpu_short_name(c.micro)) + '_';
  for (const char* p = c.text; *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p)))
      name += *p;
    else if (name.back() != '_')
      name += '_';
  }
  *os << name;
}

class TableIIIAnchors : public ::testing::TestWithParam<TputCase> {};

TEST_P(TableIIIAnchors, ResolvesToPaperValues) {
  const TputCase& c = GetParam();
  const MachineModel& mm = machine(c.micro);
  auto ins = parse_one(c.text, c.isa);
  uarch::Resolved r = mm.resolve(ins);
  EXPECT_NEAR(r.inverse_throughput, c.inverse_throughput, 1e-9) << c.text;
  EXPECT_NEAR(r.latency, c.latency, 1e-9) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableIII, TableIIIAnchors,
    ::testing::Values(
        // Neoverse V2: VEC ADD 8 elem/cy (0.25 inv with 2 elem), lat 2.
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64,
                 "fadd v0.2d, v1.2d, v2.2d", 0.25, 2},
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64,
                 "fmul v0.2d, v1.2d, v2.2d", 0.25, 3},
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64,
                 "fmla v0.2d, v1.2d, v2.2d", 0.25, 4},
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64,
                 "fdiv v0.2d, v1.2d, v2.2d", 5.0, 5},
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64, "fadd d0, d1, d2",
                 0.25, 2},
        TputCase{Micro::NeoverseV2, asmir::Isa::AArch64, "fdiv d0, d1, d2",
                 2.5, 12},
        // Golden Cove: VEC ADD 16 elem/cy (0.5 inv with 8 elem), lat 2.
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vaddpd %zmm0, %zmm1, %zmm2", 0.5, 2},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vmulpd %zmm0, %zmm1, %zmm2", 0.5, 4},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vfmadd231pd %zmm0, %zmm1, %zmm2", 0.5, 4},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vdivpd %zmm0, %zmm1, %zmm2", 16.0, 14},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vaddsd %xmm0, %xmm1, %xmm2", 0.5, 2},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vfmadd231sd %xmm0, %xmm1, %xmm2", 0.5, 5},
        TputCase{Micro::GoldenCove, asmir::Isa::X86_64,
                 "vdivsd %xmm0, %xmm1, %xmm2", 4.0, 14},
        // Zen 4: VEC ADD 8 elem/cy (0.5 inv with 4 elem), lat 3.
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vaddpd %ymm0, %ymm1, %ymm2", 0.5, 3},
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vmulpd %ymm0, %ymm1, %ymm2", 0.5, 3},
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vfmadd231pd %ymm0, %ymm1, %ymm2", 0.5, 4},
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vdivpd %ymm0, %ymm1, %ymm2", 5.0, 13},
        // Model value for the scalar divide is operand-independent (6.5);
        // the simulated silicon beats it (~5, the paper's pi-kernel case).
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vdivsd %xmm0, %xmm1, %xmm2", 6.5, 13},
        // Zen 4 512-bit double pumping: half the per-instruction rate.
        TputCase{Micro::Zen4, asmir::Isa::X86_64,
                 "vfmadd231pd %zmm0, %zmm1, %zmm2", 1.0, 4}));

// ------------------------------------------------------------- resolution

TEST(Resolve, FoldedLoadDecomposition) {
  const MachineModel& mm = machine(Micro::GoldenCove);
  auto ins = parse_one("vaddpd 32(%rax), %ymm1, %ymm2", asmir::Isa::X86_64);
  uarch::Resolved r = mm.resolve(ins);
  EXPECT_TRUE(r.has_load);
  EXPECT_FALSE(r.has_store);
  // Latency = load (7) + add (2).
  EXPECT_NEAR(r.latency, 9.0, 1e-9);
  EXPECT_NEAR(r.load_latency, 7.0, 1e-9);
  // Port uses from both the load and the ALU op.
  EXPECT_GE(r.port_uses.size(), 2u);
}

TEST(Resolve, RmwToMemoryDecomposition) {
  const MachineModel& mm = machine(Micro::Zen4);
  auto ins = parse_one("addq $1, (%rdi)", asmir::Isa::X86_64);
  uarch::Resolved r = mm.resolve(ins);
  EXPECT_TRUE(r.has_load);
  EXPECT_TRUE(r.has_store);
}

TEST(Resolve, UnknownFormThrows) {
  const MachineModel& mm = machine(Micro::GoldenCove);
  auto ins = parse_one("frobnicate %rax, %rbx", asmir::Isa::X86_64);
  EXPECT_THROW((void)mm.resolve(ins), support::UnknownInstruction);
}

TEST(Resolve, PureLoadHasLoadLatency) {
  const MachineModel& mm = machine(Micro::NeoverseV2);
  auto ins = parse_one("ldr q0, [x1, #32]", asmir::Isa::AArch64);
  uarch::Resolved r = mm.resolve(ins);
  EXPECT_TRUE(r.has_load);
  EXPECT_NEAR(r.latency, 6.0, 1e-9);
}

TEST(Resolve, GatherFormsDistinctFromContiguous) {
  const MachineModel& mm = machine(Micro::NeoverseV2);
  auto contiguous =
      parse_one("ld1d {z0.d}, p0/z, [x1, x2, lsl #3]", asmir::Isa::AArch64);
  auto gather =
      parse_one("ld1d {z0.d}, p0/z, [x1, z2.d, lsl #3]", asmir::Isa::AArch64);
  uarch::Resolved rc = mm.resolve(contiguous);
  uarch::Resolved rg = mm.resolve(gather);
  EXPECT_LT(rc.inverse_throughput, rg.inverse_throughput);
  EXPECT_TRUE(rg.is_gather);
  // Table III: gather latency 9 on V2, 8 cy for 2 cache lines (1/4 CL/cy).
  EXPECT_NEAR(rg.latency, 9.0, 1e-9);
  EXPECT_NEAR(rg.inverse_throughput, 8.0, 1e-9);
}

TEST(Resolve, StoreThroughputMatchesTableII) {
  // SPR: 2 x 256-bit stores/cy; a 512-bit store needs both data ports.
  const MachineModel& mm = machine(Micro::GoldenCove);
  auto st256 = parse_one("vmovupd %ymm0, (%rax)", asmir::Isa::X86_64);
  auto st512 = parse_one("vmovupd %zmm0, (%rax)", asmir::Isa::X86_64);
  EXPECT_NEAR(mm.resolve(st256).inverse_throughput, 0.5, 1e-9);
  EXPECT_NEAR(mm.resolve(st512).inverse_throughput, 1.0, 1e-9);
}

TEST(Resolve, MnemonicFallbackUsed) {
  const MachineModel& mm = machine(Micro::NeoverseV2);
  // "b" without operands resolves through the fallback entry.
  asmir::Program p = asmir::parse("b .L99", asmir::Isa::AArch64);
  EXPECT_NO_THROW((void)mm.resolve(p.code[0]));
}

TEST(ModelApi, MaskRejectsUnknownPort) {
  const MachineModel& mm = machine(Micro::GoldenCove);
  EXPECT_THROW((void)mm.mask("P0|NOPE"), support::ModelError);
  EXPECT_EQ(mm.mask("P0"), 1u);
}

TEST(ModelApi, Names) {
  EXPECT_STREQ(uarch::to_string(Micro::NeoverseV2), "Neoverse V2");
  EXPECT_STREQ(uarch::cpu_short_name(Micro::GoldenCove), "SPR");
  EXPECT_EQ(uarch::all_micros().size(), 3u);
}

// ------------------------------------------------------------- registry

TEST(MachineRegistry, InvalidMicroValueThrowsInsteadOfAliasing) {
  // Regression: machine() used to silently return the Neoverse V2 model
  // for out-of-range enum values.
  EXPECT_THROW((void)machine(static_cast<Micro>(7)), support::ModelError);
}

TEST(MachineRegistry, ResolvesBuiltinNamesAndAliases) {
  for (const char* spelling : {"gcs", "grace", "v2", "neoverse-v2", "GCS"}) {
    uarch::MachineRef ref;
    ASSERT_TRUE(uarch::try_resolve_machine(spelling, ref)) << spelling;
    EXPECT_EQ(ref.name, "gcs");
    EXPECT_EQ(ref.model, &machine(Micro::NeoverseV2)) << spelling;
  }
  uarch::MachineRef spr = uarch::resolve_machine("sapphire-rapids");
  EXPECT_EQ(spr.model, &machine(Micro::GoldenCove));
  uarch::MachineRef genoa = uarch::resolve_machine("zen4");
  EXPECT_EQ(genoa.model, &machine(Micro::Zen4));
}

TEST(MachineRegistry, IceLakeIsRegisteredAsAuxiliaryModel) {
  uarch::MachineRef ref;
  ASSERT_TRUE(uarch::try_resolve_machine("icelake", ref));
  EXPECT_EQ(ref.name, "icelake");
  EXPECT_EQ(ref.model, &uarch::ice_lake_sp());
  EXPECT_EQ(ref->micro(), Micro::GoldenCove);  // shares the family tag
  // ... but micro_from_name stays trio-only: "icelake" must not alias SPR.
  Micro out{};
  EXPECT_FALSE(uarch::micro_from_name("icelake", out));
}

TEST(MachineRegistry, UnknownNameFailsWithoutThrowing) {
  uarch::MachineRef ref;
  EXPECT_FALSE(uarch::try_resolve_machine("m7g", ref));
  EXPECT_FALSE(ref);
  EXPECT_THROW((void)uarch::resolve_machine("m7g"), support::ModelError);
}

TEST(MachineRegistry, BuiltinsListTrioThenAuxiliaries) {
  const auto builtins = uarch::MachineRegistry::instance().builtins();
  ASSERT_GE(builtins.size(), 4u);
  EXPECT_EQ(builtins[0].name, "gcs");
  EXPECT_EQ(builtins[1].name, "spr");
  EXPECT_EQ(builtins[2].name, "genoa");
  EXPECT_EQ(builtins[3].name, "icelake");
  const auto trio = uarch::MachineRegistry::instance().trio();
  ASSERT_EQ(trio.size(), 3u);
  EXPECT_EQ(trio[2].model, &machine(Micro::Zen4));
}

TEST(MachineRegistry, AddModelRegistersWhatIfClone) {
  MachineModel clone = machine(Micro::Zen4);  // copy
  clone.set("vdivpd v256,v256,v256", 2.5, 11.0, "5xFP0|FP1");
  uarch::MachineRef ref = uarch::MachineRegistry::instance().add_model(
      "genoa-fastdiv-test", std::move(clone));
  EXPECT_EQ(ref.name, "genoa-fastdiv-test");
  uarch::MachineRef back = uarch::resolve_machine("genoa-fastdiv-test");
  EXPECT_EQ(back.model, ref.model);
  EXPECT_NE(back.model, &machine(Micro::Zen4));
}

TEST(MachineRegistry, AddModelCannotShadowABuiltin) {
  EXPECT_THROW((void)uarch::MachineRegistry::instance().add_model(
                   "gcs", machine(Micro::NeoverseV2)),
               support::ModelError);
}

TEST(MachineRegistry, MachineRefBridgeMatchesBuiltins) {
  for (Micro m : uarch::all_micros()) {
    uarch::MachineRef ref = uarch::machine_ref(m);
    EXPECT_EQ(ref.model, &machine(m));
    EXPECT_TRUE(static_cast<bool>(ref));
  }
}

TEST(MachineRegistry, NamesHelpMentionsEveryBuiltinAndFiles) {
  const std::string help = uarch::machine_names_help();
  for (const char* name : {"gcs", "spr", "genoa", "icelake", ".mdf"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}
