// Corpus tests: faithful compiler-output snippets (directives, labels,
// prologues, comments) must parse, resolve and analyze end to end.  These
// mirror what `gcc -S` / `clang -S` actually emit around the loop bodies
// the paper's workflow extracts with OSACA markers.

#include <gtest/gtest.h>

#include <ostream>

#include "analysis/analyze.hpp"
#include "asmir/parser.hpp"
#include "exec/exec.hpp"
#include "uarch/model.hpp"

using namespace incore;
using asmir::Isa;

namespace {

// gcc 12.1 -O3 -march=sapphirerapids style STREAM triad, full file shape.
const char* kGccSprTriad = R"(	.file	"triad.c"
	.text
	.p2align 4
	.globl	triad
	.type	triad, @function
triad:
.LFB0:
	.cfi_startproc
	testq	%rdi, %rdi
	jle	.L1
	xorl	%ecx, %ecx
	.p2align 4,,10
	.p2align 3
# LLVM-MCA-BEGIN triad
.L3:
	vmovupd	(%rsi,%rcx), %zmm1
	vfmadd213pd	(%rdx,%rcx), %zmm2, %zmm1
	vmovupd	%zmm1, (%rax,%rcx)
	addq	$64, %rcx
	cmpq	%rdi, %rcx
	jne	.L3
# LLVM-MCA-END
.L1:
	vzeroupper
	ret
	.cfi_endproc
.LFE0:
	.size	triad, .-triad
)";

// clang 17 -O2 style unrolled copy loop (pointer-bumped, AT&T).
const char* kClangCopy = R"(	.text
	.globl	copy
copy:                                   # @copy
# %bb.0:
	testq	%rdx, %rdx
	jle	.LBB0_3
# LLVM-MCA-BEGIN copy
.LBB0_2:                                # =>This Inner Loop Header: Depth=1
	vmovupd	(%rsi), %ymm0
	vmovupd	32(%rsi), %ymm1
	vmovupd	%ymm0, (%rdi)
	vmovupd	%ymm1, 32(%rdi)
	addq	$64, %rsi
	addq	$64, %rdi
	addq	$8, %rcx
	cmpq	%rdx, %rcx
	jne	.LBB0_2
# LLVM-MCA-END
.LBB0_3:
	vzeroupper
	retq
)";

// gcc 13.2 -O3 -mcpu=neoverse-v2 style NEON sum (aarch64 syntax with //
// comments and directives).
const char* kGccGraceSum = R"(	.arch armv9-a+sve2
	.file	"sum.c"
	.text
	.align	2
	.global	sum
	.type	sum, %function
sum:
.LFB0:
	.cfi_startproc
	cbz	x1, .L4
	mov	x2, 0
// OSACA-BEGIN
.L3:
	ldr	q31, [x0], #16
	fadd	v0.2d, v0.2d, v31.2d
	subs	x1, x1, #2
	b.ne	.L3
// OSACA-END
.L4:
	faddp	d0, v0.2d
	ret
	.cfi_endproc
)";

// armclang 23.10 -O2 style SVE triad with whilelo control.
const char* kArmclangTriad = R"(	.text
	.globl	triad                           // -- Begin function triad
	.p2align	2
	.type	triad,@function
triad:                                  // @triad
// %bb.0:
	mov	x9, xzr
	whilelo	p0.d, xzr, x0
// OSACA-BEGIN
.LBB0_1:                                // =>This Inner Loop Header: Depth=1
	ld1d	{ z0.d }, p0/z, [x1, x9, lsl #3]
	ld1d	{ z1.d }, p0/z, [x2, x9, lsl #3]
	fmla	z0.d, p0/m, z1.d, z2.d
	st1d	{ z0.d }, p0, [x3, x9, lsl #3]
	incd	x9
	whilelo	p0.d, x9, x0
	b.any	.LBB0_1
// OSACA-END
	ret
)";

struct CorpusCase {
  const char* name;
  const char* text;
  Isa isa;
  uarch::Micro micro;
  std::size_t body_instructions;
};

const CorpusCase kCases[] = {
    {"gcc-spr-triad", kGccSprTriad, Isa::X86_64, uarch::Micro::GoldenCove, 6},
    {"clang-copy", kClangCopy, Isa::X86_64, uarch::Micro::Zen4, 9},
    {"gcc-grace-sum", kGccGraceSum, Isa::AArch64, uarch::Micro::NeoverseV2, 4},
    {"armclang-triad", kArmclangTriad, Isa::AArch64, uarch::Micro::NeoverseV2,
     7},
};

// Names a case by its `name` with '-' as '_' (e.g. "gcc_spr_triad"), so the
// ctest name taken from it is the same in every build; gtest's default byte
// dump of the struct would embed the addresses of `name` and `text`.
void PrintTo(const CorpusCase& c, std::ostream* os) {
  for (const char* p = c.name; *p != '\0'; ++p) *os << (*p == '-' ? '_' : *p);
}

}  // namespace

class Corpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(Corpus, MarkerExtractionFindsLoopBody) {
  const CorpusCase& c = GetParam();
  asmir::Program p = asmir::parse(c.text, c.isa);
  EXPECT_EQ(p.size(), c.body_instructions) << c.name;
}

TEST_P(Corpus, AnalyzesAndSimulates) {
  const CorpusCase& c = GetParam();
  asmir::Program p = asmir::parse(c.text, c.isa);
  const auto& mm = uarch::machine(c.micro);
  analysis::Report rep;
  ASSERT_NO_THROW(rep = analysis::analyze(p, mm)) << c.name;
  EXPECT_GT(rep.predicted_cycles(), 0.0);
  auto meas = exec::run(p, mm);
  EXPECT_GE(meas.cycles_per_iteration, rep.predicted_cycles() - 0.05)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(RealCompilerOutput, Corpus,
                         ::testing::ValuesIn(kCases));

TEST(CorpusDetails, GccTriadUsesFma213) {
  asmir::Program p = asmir::parse(kGccSprTriad, Isa::X86_64);
  bool has_fma = false;
  for (const auto& ins : p.code) {
    if (ins.mnemonic == "vfmadd213pd") {
      has_fma = true;
      // 213 form: folded load + multiply-add, destination read+write.
      EXPECT_TRUE(ins.is_load);
      EXPECT_TRUE(ins.ops.back().read);
    }
  }
  EXPECT_TRUE(has_fma);
}

TEST(CorpusDetails, ArmclangBracedListWithSpaces) {
  // "{ z0.d }" with inner spaces must parse like "{z0.d}".
  asmir::Program p = asmir::parse(kArmclangTriad, Isa::AArch64);
  EXPECT_EQ(p.code[0].form(), "ld1d v128,p,m128");
}

TEST(CorpusDetails, TabSeparatedOperandsParse) {
  auto p = asmir::parse("\tvmovupd\t(%rax), %ymm0\n", Isa::X86_64);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.code[0].form(), "vmovupd m256,v256");
}

// Additional real-world shapes: Intel-syntax disassembly, gcc -O1 x86, and
// an icx-style masked remainder loop.

TEST(CorpusDetails, IntelSyntaxDisassemblyShape) {
  // objdump--style Intel listing of a SPR triad body.
  const char* intel = R"(
sum_loop:
    vmovupd zmm0, zmmword ptr [rsi+rcx]
    vfmadd231pd zmm0, zmm15, zmmword ptr [rdx+rcx]
    vmovupd zmmword ptr [rax+rcx], zmm0
    add rcx, 64
    cmp rcx, rdi
    jne sum_loop
)";
  asmir::Program p = asmir::parse(intel, Isa::X86_64);
  ASSERT_EQ(p.size(), 6u);
  auto rep = analysis::analyze(p, uarch::machine(uarch::Micro::GoldenCove));
  EXPECT_GT(rep.predicted_cycles(), 0.0);
}

TEST(CorpusDetails, GccO1ScalarShape) {
  const char* o1 = R"(	.text
update:
	testq	%rsi, %rsi
	jle	.L5
	movl	$0, %eax
.L3:
	movsd	(%rdi,%rax,8), %xmm0
	mulsd	%xmm1, %xmm0
	movsd	%xmm0, (%rdi,%rax,8)
	addq	$1, %rax
	cmpq	%rsi, %rax
	jne	.L3
.L5:
	ret
)";
  asmir::Program p = asmir::parse(o1, Isa::X86_64);
  // Whole function parses (no markers): 10 instructions.
  EXPECT_EQ(p.size(), 10u);
  // The SSE store form resolves.
  const auto& mm = uarch::machine(uarch::Micro::Zen4);
  for (const auto& ins : p.code) {
    EXPECT_NO_THROW((void)mm.resolve(ins)) << ins.raw;
  }
}

TEST(CorpusDetails, IcxMaskedRemainderLoop) {
  const char* icx = R"(
# LLVM-MCA-BEGIN remainder
..B1.7:
	vmovupd	(%rsi,%rcx,8), %zmm1{%k1}{z}
	vaddpd	%zmm1, %zmm2, %zmm3{%k1}{z}
	vmovupd	%zmm3, (%rdi,%rcx,8){%k1}
	addq	$8, %rcx
	cmpq	%rdx, %rcx
	jb	..B1.7
# LLVM-MCA-END
)";
  asmir::Program p = asmir::parse(icx, Isa::X86_64);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.code[0].form(), "vmovupd m512,v512,k");
  EXPECT_EQ(p.code[2].form(), "vmovupd v512,m512,k");
  const auto& mm = uarch::machine(uarch::Micro::GoldenCove);
  EXPECT_NO_THROW((void)analysis::analyze(p, mm));
}
