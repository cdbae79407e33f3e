// Tests for the machine-description file (MDF) layer: export/reload
// round-trips must preserve every model field and reproduce byte-identical
// predictions; malformed files must fail with file:line diagnostics.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "mca/mca.hpp"
#include "support/error.hpp"
#include "uarch/mdf.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"

namespace {

using namespace incore;
using uarch::MachineModel;
using uarch::Micro;

void expect_equal_models(const MachineModel& a, const MachineModel& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.micro(), b.micro());
  EXPECT_EQ(a.isa(), b.isa());
  EXPECT_EQ(a.ports(), b.ports());
  EXPECT_EQ(a.simd_width_bits, b.simd_width_bits);
  EXPECT_EQ(a.l1_load_latency, b.l1_load_latency);
  EXPECT_EQ(a.loads_per_cycle, b.loads_per_cycle);
  EXPECT_EQ(a.stores_per_cycle, b.stores_per_cycle);

  const uarch::HierarchyParams& ha = a.hierarchy;
  const uarch::HierarchyParams& hb = b.hierarchy;
  EXPECT_EQ(ha.cy_per_cl_l1_l2, hb.cy_per_cl_l1_l2);
  EXPECT_EQ(ha.cy_per_cl_l2_l3, hb.cy_per_cl_l2_l3);
  EXPECT_EQ(ha.cy_per_cl_l3_mem, hb.cy_per_cl_l3_mem);
  EXPECT_EQ(ha.socket_cl_per_cy, hb.socket_cl_per_cy);
  EXPECT_EQ(ha.socket_cores, hb.socket_cores);
  EXPECT_EQ(ha.write_allocate_evaded, hb.write_allocate_evaded);

  const uarch::CoreResources& ra = a.resources();
  const uarch::CoreResources& rb = b.resources();
  EXPECT_EQ(ra.decode_width, rb.decode_width);
  EXPECT_EQ(ra.rename_width, rb.rename_width);
  EXPECT_EQ(ra.retire_width, rb.retire_width);
  EXPECT_EQ(ra.rob_size, rb.rob_size);
  EXPECT_EQ(ra.scheduler_size, rb.scheduler_size);
  EXPECT_EQ(ra.load_queue, rb.load_queue);
  EXPECT_EQ(ra.store_queue, rb.store_queue);

  ASSERT_EQ(a.table_size(), b.table_size());
  for (const std::string& f : a.forms()) {
    const uarch::InstrPerf* pa = a.find(f);
    const uarch::InstrPerf* pb = b.find(f);
    ASSERT_NE(pa, nullptr) << f;
    ASSERT_NE(pb, nullptr) << "form lost in round-trip: " << f;
    EXPECT_EQ(pa->inverse_throughput, pb->inverse_throughput) << f;
    EXPECT_EQ(pa->latency, pb->latency) << f;
    EXPECT_EQ(pa->uops, pb->uops) << f;
    EXPECT_EQ(pa->accumulator_latency, pb->accumulator_latency) << f;
    ASSERT_EQ(pa->port_uses.size(), pb->port_uses.size()) << f;
    for (std::size_t i = 0; i < pa->port_uses.size(); ++i) {
      EXPECT_EQ(pa->port_uses[i].mask, pb->port_uses[i].mask) << f;
      EXPECT_EQ(pa->port_uses[i].cycles, pb->port_uses[i].cycles) << f;
    }
  }
}

std::string load_error(const std::string& text) {
  try {
    (void)uarch::load_machine_string(text, "test.mdf");
  } catch (const support::ModelError& e) {
    return e.what();
  }
  return {};
}

// ------------------------------------------------------------- round trip

TEST(Mdf, RoundTripPreservesEveryBuiltinModel) {
  for (const uarch::MachineRef& ref :
       uarch::MachineRegistry::instance().builtins()) {
    SCOPED_TRACE(ref.name);
    const MachineModel& builtin = *ref.model;
    const MachineModel loaded =
        uarch::load_machine_string(uarch::save_machine_string(builtin));
    expect_equal_models(builtin, loaded);
  }
}

TEST(Mdf, SaveLoadSaveIsAFixedPoint) {
  for (Micro m : uarch::all_micros()) {
    const std::string once = uarch::save_machine_string(uarch::machine(m));
    const std::string twice =
        uarch::save_machine_string(uarch::load_machine_string(once));
    EXPECT_EQ(once, twice) << uarch::to_string(m);
  }
}

TEST(Mdf, ReloadedModelReproducesPredictionsExactly) {
  struct Case {
    Micro micro;
    const char* body;
  };
  const std::vector<Case> cases = {
      {Micro::NeoverseV2,
       "ldr q0, [x1], #16\n"
       "fadd v1.2d, v1.2d, v0.2d\n"
       "subs x2, x2, #2\n"
       "b.ne .L2\n"},
      {Micro::GoldenCove,
       "vaddsd (%rbx,%rcx,8), %xmm0, %xmm0\n"
       "addq $1, %rcx\n"
       "cmpq %rdi, %rcx\n"
       "jne .L2\n"},
      {Micro::Zen4,
       "vmovupd (%rbx,%rcx,8), %ymm1\n"
       "vfmadd231pd %ymm2, %ymm1, %ymm0\n"
       "addq $4, %rcx\n"
       "cmpq %rdi, %rcx\n"
       "jne .L2\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(uarch::to_string(c.micro));
    const MachineModel& builtin = uarch::machine(c.micro);
    const MachineModel loaded =
        uarch::load_machine_string(uarch::save_machine_string(builtin));
    const asmir::Program prog = asmir::parse(c.body, builtin.isa());

    const auto ra = analysis::analyze(prog, builtin);
    const auto rb = analysis::analyze(prog, loaded);
    EXPECT_EQ(ra.predicted_cycles(), rb.predicted_cycles());
    EXPECT_EQ(ra.throughput_cycles(), rb.throughput_cycles());
    EXPECT_EQ(ra.loop_carried_cycles(), rb.loop_carried_cycles());
    EXPECT_EQ(ra.critical_path_cycles(), rb.critical_path_cycles());

    EXPECT_EQ(mca::simulate(prog, builtin).cycles_per_iteration,
              mca::simulate(prog, loaded).cycles_per_iteration);
    EXPECT_EQ(exec::run(prog, builtin).cycles_per_iteration,
              exec::run(prog, loaded).cycles_per_iteration);
  }
}

TEST(Mdf, FamilyNamesRoundTrip) {
  for (Micro m : uarch::all_micros()) {
    Micro back{};
    ASSERT_TRUE(uarch::family_from_name(uarch::family_name(m), back));
    EXPECT_EQ(back, m);
  }
  Micro out{};
  EXPECT_FALSE(uarch::family_from_name("cortex-m0", out));
}

TEST(Mdf, FileRoundTripThroughDisk) {
  const std::string path = testing::TempDir() + "mdf_test_v2.mdf";
  uarch::save_machine_file(uarch::machine(Micro::NeoverseV2), path);
  const MachineModel loaded = uarch::load_machine_file(path);
  expect_equal_models(uarch::machine(Micro::NeoverseV2), loaded);
  std::remove(path.c_str());
}

TEST(Mdf, HierarchyDirectiveOverridesFamilyDefault) {
  // An explicit hierarchy line re-keys the ECM composition of a loaded
  // model; fields not mentioned keep the family default.
  const MachineModel mm = uarch::load_machine_string(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "hierarchy l3_mem=0.75 socket_cl_per_cy=1.5 cores=16 wa_evasion=1\n"
      "form 1 3 0 0 P0 add r64,r64\n");
  const uarch::HierarchyParams def =
      uarch::default_hierarchy_params(Micro::Zen4);
  EXPECT_EQ(mm.hierarchy.cy_per_cl_l1_l2, def.cy_per_cl_l1_l2);
  EXPECT_EQ(mm.hierarchy.cy_per_cl_l2_l3, def.cy_per_cl_l2_l3);
  EXPECT_EQ(mm.hierarchy.cy_per_cl_l3_mem, 0.75);
  EXPECT_EQ(mm.hierarchy.socket_cl_per_cy, 1.5);
  EXPECT_EQ(mm.hierarchy.socket_cores, 16);
  EXPECT_TRUE(mm.hierarchy.write_allocate_evaded);
}

TEST(Mdf, MissingHierarchyKeepsFamilyDefault) {
  // Pre-PR-7 MDF files carry no hierarchy section: loading one must behave
  // exactly like the built-in family model.
  const MachineModel mm = uarch::load_machine_string(
      "mdf 1\n"
      "machine toy\n"
      "family neoverse-v2\n"
      "isa aarch64\n"
      "ports P0 P1\n"
      "form 1 3 0 0 P0 add x,x\n");
  const uarch::HierarchyParams def =
      uarch::default_hierarchy_params(Micro::NeoverseV2);
  EXPECT_EQ(mm.hierarchy.cy_per_cl_l3_mem, def.cy_per_cl_l3_mem);
  EXPECT_EQ(mm.hierarchy.socket_cores, def.socket_cores);
  EXPECT_EQ(mm.hierarchy.write_allocate_evaded, def.write_allocate_evaded);
}

// A toy model whose l1_load_latency header (line 6) and first form's
// latency field (line 7) are both spelled `number`.
std::string toy_with_number(const std::string& number) {
  return "mdf 1\n"
         "machine toy\n"
         "family zen4\n"
         "isa x86_64\n"
         "ports P0 P1\n"
         "l1_load_latency " + number + "\n"
         "form 1 " + number + " 0 0 P0 add r64,r64\n";
}

// The number grammar is strtod's over the whole field, whichever parser
// takes a spelling: signs, exponents, bare fractions and hex all load.
TEST(Mdf, NumberSpellingsFollowStrtod) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"3", 3.0},       {"+3", 3.0},      {"-0", 0.0},     {"3e0", 3.0},
      {"0.3E1", 3.0},   {"2.5e-1", 0.25}, {".5", 0.5},     {"5.", 5.0},
      {"0x1p3", 8.0},   {"0X10", 16.0},   {"007", 7.0},
      {"0.1", 0.1},     {"0.3333333333333333", 1.0 / 3}};
  for (const auto& [spelling, value] : cases) {
    SCOPED_TRACE(spelling);
    const MachineModel mm =
        uarch::load_machine_string(toy_with_number(spelling), "test.mdf");
    EXPECT_EQ(mm.l1_load_latency, value);
    EXPECT_EQ(mm.find("add r64,r64")->latency, value);
  }
}

// ---------------------------------------------------------- malformed input

TEST(MdfErrors, MissingVersionLine) {
  const std::string err = load_error("machine toy\n");
  EXPECT_NE(err.find("test.mdf:1:"), std::string::npos) << err;
  EXPECT_NE(err.find("mdf 1"), std::string::npos) << err;
}

TEST(MdfErrors, UnsupportedVersion) {
  const std::string err = load_error("mdf 2\n");
  EXPECT_NE(err.find("test.mdf:1:"), std::string::npos) << err;
  EXPECT_NE(err.find("unsupported mdf version"), std::string::npos) << err;
}

TEST(MdfErrors, EmptyFile) {
  const std::string err = load_error("# only a comment\n");
  EXPECT_NE(err.find("empty file"), std::string::npos) << err;
}

TEST(MdfErrors, UnknownFamily) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family cortex-m0\n");
  EXPECT_NE(err.find("test.mdf:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown family"), std::string::npos) << err;
}

TEST(MdfErrors, UnknownPortInFormSpec) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "form 1 3 0 0 P9 add r64,r64\n");
  EXPECT_NE(err.find("test.mdf:6:"), std::string::npos) << err;
}

TEST(MdfErrors, BadOccupancySpec) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "form one 3 0 0 P0 add r64,r64\n");
  EXPECT_NE(err.find("test.mdf:6:"), std::string::npos) << err;
  EXPECT_NE(err.find("inverse throughput"), std::string::npos) << err;
}

TEST(MdfErrors, DuplicateFormIsRejected) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "form 1 3 0 0 P0 add r64,r64\n"
      "form 1 3 0 0 P1 add r64,r64\n");
  EXPECT_NE(err.find("test.mdf:7:"), std::string::npos) << err;
}

TEST(MdfErrors, TruncatedFileWithoutForms) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n");
  EXPECT_NE(err.find("truncated file: no instruction forms"),
            std::string::npos)
      << err;
}

TEST(MdfErrors, DeclaredFormCountMismatch) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "forms 3\n"
      "form 1 3 0 0 P0 add r64,r64\n");
  EXPECT_NE(err.find("declares 3 forms, found 1"), std::string::npos) << err;
}

TEST(MdfErrors, TruncatedFormLine) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "form 1 3\n");
  EXPECT_NE(err.find("test.mdf:6:"), std::string::npos) << err;
  EXPECT_NE(err.find("truncated form line"), std::string::npos) << err;
}

TEST(MdfErrors, HeaderAfterFirstFormIsRejected) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports P0 P1\n"
      "form 1 3 0 0 P0 add r64,r64\n"
      "simd_width_bits 256\n");
  EXPECT_NE(err.find("test.mdf:7:"), std::string::npos) << err;
  EXPECT_NE(err.find("after the first form"), std::string::npos) << err;
}

TEST(MdfErrors, UnknownDirective) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "frequency 3.5\n");
  EXPECT_NE(err.find("test.mdf:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown directive"), std::string::npos) << err;
}

TEST(MdfErrors, UnknownResourceKey) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "resources rob=100 mshr=12\n");
  EXPECT_NE(err.find("test.mdf:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown resource"), std::string::npos) << err;
}

TEST(MdfErrors, HierarchyFieldWithoutValue) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "hierarchy l3_mem\n");
  EXPECT_NE(err.find("test.mdf:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("key=value"), std::string::npos) << err;
}

TEST(MdfErrors, HierarchyNonPositiveTransferCost) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "hierarchy l3_mem=0\n");
  EXPECT_NE(err.find("test.mdf:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("must be positive"), std::string::npos) << err;
}

TEST(MdfErrors, HierarchyUnknownField) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "hierarchy l4_tape=3\n");
  EXPECT_NE(err.find("test.mdf:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown hierarchy field"), std::string::npos) << err;
}

TEST(MdfErrors, HierarchyBadEvasionFlag) {
  const std::string err = load_error(
      "mdf 1\n"
      "machine toy\n"
      "family zen4\n"
      "hierarchy wa_evasion=2\n");
  EXPECT_NE(err.find("test.mdf:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("'wa_evasion' must be 0 or 1"), std::string::npos) << err;
}

// Spellings strtod does not take whole are rejected with the same
// file:line diagnostic, in a header line and in a form line.
TEST(MdfErrors, NumberSpellingsRejectedLikeStrtod) {
  for (const std::string spelling :
       {"3x", "3,5", "+-3", "--3", "++3", "1e", "1e+", ".", "+", "0x",
        "3..5", "1_000", "three"}) {
    SCOPED_TRACE(spelling);
    std::string err = load_error(toy_with_number(spelling));
    EXPECT_NE(err.find("test.mdf:6: expected a number for l1_load_latency, "
                       "got '" + spelling + "'"),
              std::string::npos)
        << err;
    // With a valid header, the form line's latency fails the same way.
    std::string text = toy_with_number(spelling);
    text.replace(text.find("l1_load_latency " + spelling),
                 16 + spelling.size(), "l1_load_latency 4");
    err = load_error(text);
    EXPECT_NE(err.find("test.mdf:7: expected a number for latency, got '" +
                       spelling + "'"),
              std::string::npos)
        << err;
  }
}

TEST(MdfErrors, NonexistentFile) {
  EXPECT_THROW((void)uarch::load_machine_file("/nonexistent/nope.mdf"),
               support::ModelError);
}

// A hand-edited model loads and analyzes without recompilation: the
// acceptance scenario of docs/machine-format.md's what-if walkthrough.
TEST(Mdf, HandWrittenWhatIfModelAnalyzes) {
  const std::string text =
      "mdf 1\n"
      "machine toy-zen\n"
      "family zen4\n"
      "isa x86_64\n"
      "ports ALU0 ALU1 AGU0 FP0 FP1\n"
      "simd_width_bits 256\n"
      "l1_load_latency 4\n"
      "loads_per_cycle 1\n"
      "stores_per_cycle 1\n"
      "resources decode=4 rename=6 retire=6 rob=224 scheduler=96 "
      "load_queue=72 store_queue=44\n"
      "forms 4\n"
      "form 0.5 1 0 0 ALU0|ALU1 add i,r64\n"
      "form 0.5 1 0 0 ALU0|ALU1 cmp r64,r64\n"
      "form 1 1 0 0 ALU0 jne l\n"
      "form 0.5 3 0 0 FP0|FP1 vaddpd v256,v256,v256\n";
  const MachineModel mm = uarch::load_machine_string(text, "toy.mdf");
  EXPECT_EQ(mm.name(), "toy-zen");
  EXPECT_EQ(mm.micro(), Micro::Zen4);
  EXPECT_EQ(mm.table_size(), 4u);

  const asmir::Program prog = asmir::parse(
      "vaddpd %ymm1, %ymm0, %ymm0\n"
      "addq $4, %rcx\n"
      "cmpq %rdi, %rcx\n"
      "jne .L2\n",
      mm.isa());
  const auto rep = analysis::analyze(prog, mm);
  // The vaddpd recurrence dominates: 3-cycle FP add latency.
  EXPECT_GE(rep.predicted_cycles(), 3.0);
}

}  // namespace
