// incore-cli — the command-line face of the library (the OSACA-workflow
// equivalent).
//
//   incore-cli machines
//       List the modeled microarchitectures and their key features.
//   incore-cli analyze <machine> [file.s] [--json]
//       Static in-core analysis of a loop body (stdin when no file), with
//       the port-pressure table, the LLVM-MCA-style comparator and the
//       testbed measurement; --json emits a machine-readable report.
//   incore-cli kernels
//       List the validation kernels and their properties.
//   incore-cli emit <machine> <kernel> <compiler> <O1|O2|O3|Ofast>
//       Print the assembly a compiler personality generates.
//   incore-cli tput <machine> <instruction template>
//   incore-cli lat  <machine> <instruction template>
//       Instruction microbenchmarks ({d}/{s} register placeholders).
//   incore-cli ecm <machine> <kernel>
//       ECM decomposition for a kernel at -O3.
//   incore-cli reproduce [artifact...]
//       The paper's tables and figures, ablations and extension studies.

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/dot.hpp"
#include "asmir/parser.hpp"
#include "audit/audit.hpp"
#include "dataflow/dataflow.hpp"
#include "driver/predictor.hpp"
#include "driver/sweep.hpp"
#include "ecm/crosscheck.hpp"
#include "ecm/ecm.hpp"
#include "equiv/equiv.hpp"
#include "equiv/lints.hpp"
#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "mca/mca.hpp"
#include "power/power.hpp"
#include "report/json.hpp"
#include "server/server.hpp"
#include "server/sweep_args.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "traffic/crosscheck.hpp"
#include "traffic/lints.hpp"
#include "traffic/traffic.hpp"
#include "uarch/mdf.hpp"
#include "uarch/model.hpp"
#include "uarch/registry.hpp"
#include "verify/diagnostics.hpp"
#include "verify/kernel_lints.hpp"
#include "verify/model_lints.hpp"

#include "reproduce.hpp"

using namespace incore;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: incore-cli <command> [...]\n"
      "  machines                         list registered machine models\n"
      "  analyze <machine> [file.s]       in-core analysis of a loop body\n"
      "       --json emits analysis + LLVM-MCA + testbed as one document\n"
      "       --machine-file <m.mdf> analyzes against a loaded description\n"
      "       --rename-aware eliminates reg-reg moves at rename (static\n"
      "                      counterpart of the testbed's move elimination)\n"
      "       --dot <file> also writes the dependency graph as Graphviz DOT\n"
      "  dataflow <isa|machine> [file.s]  def-use chains, liveness, rename\n"
      "                                   classes and the alias matrix\n"
      "       --json machine-readable output; --dot <file> def-use graph;\n"
      "       isa: aarch64 or x86 (or any machine name)\n"
      "  sweep                            evaluate the validation matrix\n"
      "       sweep flags: --jobs N (0 = auto) --models m1,m2 --kernels k1,..\n"
      "                    --machines m1,.. --compilers c1,.. --opt O1,..\n"
      "                    --machine-file <m.mdf> --csv --json\n"
      "                    --audit adds a per-block audit_verdict column\n"
      "                    --traffic adds a traffic_lines column (memory\n"
      "                    read/write cache lines per iteration)\n"
      "                    --cores n1,n2,.. adds ecm-n<k> scaling columns\n"
      "                    (full-kernel N-core ECM) + a saturation summary\n"
      "                    (models: osaca mca testbed)\n"
      "  audit <machine> [file.s]         cross-model bound certificates +\n"
      "                                   divergence attribution (VP lints)\n"
      "  audit --all                      audit the whole generated corpus\n"
      "       audit flags: --json --verbose --machine-file <m.mdf>\n"
      "            --traffic adds the VP011 static-traffic cross-check\n"
      "            --ecm adds the VP012-VP014 ECM/memory-side checks\n"
      "  export-model <machine> [-o file] write a model as a .mdf machine-\n"
      "                                   description file (stdout default)\n"
      "  reproduce [artifact..]           print the paper's tables, figures,\n"
      "                                   ablations and extension studies\n"
      "                                   (all, in paper order, by default;\n"
      "                                   an unknown name lists the valid ones)\n"
      "  kernels                          list validation kernels\n"
      "  emit <machine> <kernel> <cc> <O> render a compiler personality\n"
      "  tput <machine> <template>        instruction throughput microbench\n"
      "  lat <machine> <template>         instruction latency microbench\n"
      "  ecm <machine> <kernel>           ECM decomposition at -O3; the\n"
      "                  transfer terms come from the static traffic engine\n"
      "       --cores n1,n2,.. prints the N-core scaling curve;\n"
      "                  --crosscheck validates the scaling law against\n"
      "                  the memory simulators (--json)\n"
      "  ecm --all                        corpus gate: every unique block's\n"
      "                  scaling law vs the memory simulators (VP014)\n"
      "  traffic <machine> [file.s]       static memory streams and\n"
      "                                   analytic per-level data volumes\n"
      "       traffic flags: --json --crosscheck (also replay through the\n"
      "            cache trace simulator and compare) --machine-file <m.mdf>\n"
      "  traffic --all                    cross-validate the static volumes\n"
      "                                   of every unique corpus block\n"
      "  equiv <ref.s> <cand.s>           static semantic-equivalence proof\n"
      "                                   of two loop bodies (same ISA)\n"
      "       equiv flags: --json --strict-fp (reject reassociation-only\n"
      "            equivalence) --isa aarch64|x86 (default: sniffed from\n"
      "            the AT&T '%%' register sigils); exit 0 when the verdict\n"
      "            is accepted, 1 otherwise; VE diagnostics on stderr\n"
      "  dot <machine> [file.s]           dependency graph as Graphviz DOT\n"
      "  timeline <machine> [file.s]      pipeline timeline (llvm-mca style)\n"
      "  forms <machine> [substring]      list instruction-form database\n"
      "  lint --all-models                verify every bundled model + the\n"
      "                                   generated kernel corpus\n"
      "  lint <machine> [file.s]          verify one model (and a kernel)\n"
      "       lint flags: --json --werror --verbose --codes --catalog\n"
      "            --machine-file <m.mdf> lints a loaded description\n"
      "  serve --socket <path>            prediction service on a local\n"
      "                                   socket (see docs/server.md)\n"
      "       serve flags: --workers N (evaluate/finalize stage workers)\n"
      "                    --queue N (per-stage queue capacity)\n"
      "                    --memo N (prediction-memo capacity, 0 = unbounded)\n"
      "  client --socket <path> <request> one framed request to a server:\n"
      "       client ping | stats | shutdown\n"
      "       client analyze|audit|traffic|ecm <machine> [file.s]\n"
      "       client sweep [sweep flags]\n"
      "       client raw <body>           send a raw request body verbatim\n"
      "machines: gcs spr genoa icelake, or a .mdf file path;\n"
      "compilers: gcc clang icx armclang\n");
  return 2;
}

/// Resolves a machine name, alias or .mdf path to a registry ref.  Load
/// errors from malformed files propagate to main()'s error handler so the
/// user sees the file:line diagnostic.
bool parse_machine(const std::string& name, uarch::MachineRef& out) {
  if (uarch::try_resolve_machine(name, out)) return true;
  std::fprintf(stderr, "unknown machine '%s' (known: %s)\n", name.c_str(),
               uarch::machine_names_help());
  return false;
}

/// Reads a file (or stdin when path is null) into `text`.
bool read_input(const char* path, std::string& text) {
  std::ostringstream ss;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return false;
    }
    ss << in.rdbuf();
  } else {
    ss << std::cin.rdbuf();
  }
  text = ss.str();
  return true;
}

int cmd_machines() {
  auto& reg = uarch::MachineRegistry::instance();
  for (const uarch::MachineRef& ref : reg.builtins()) {
    const auto& mm = *ref.model;
    std::string silicon = "aux model";
    if (auto trio = reg.trio_tag(ref.name)) {
      const auto& chip = power::chip(*trio);
      silicon = support::format("%d cores, TDP %.0f W", chip.cores,
                                chip.tdp_w);
    }
    std::printf("%-8s %-12s %2zu ports, SIMD %2d B, %s, "
                "%zu instruction forms\n",
                ref.name.c_str(), uarch::to_string(mm.micro()),
                mm.port_count(), mm.simd_width_bits / 8, silicon.c_str(),
                mm.table_size());
  }
  std::printf("(any command also accepts a .mdf machine-description file "
              "path; see docs/machine-format.md)\n");
  return 0;
}

/// Writes `content` to `path`, reporting failures on stderr.
bool write_file(const char* path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  out << content;
  return true;
}

int cmd_analyze(int argc, char** argv) {
  bool json = false;
  bool rename_aware = false;
  std::string machine_name;
  const char* machine_file = nullptr;
  const char* dot_path = nullptr;
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--rename-aware") {
      rename_aware = true;
    } else if (a == "--dot") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--dot needs a file path\n");
        return 2;
      }
      dot_path = argv[++i];
    } else if (a == "--machine-file") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--machine-file needs a value\n");
        return 2;
      }
      machine_file = argv[++i];
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown analyze flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty() && machine_file == nullptr) {
      machine_name = a;
    } else {
      path = argv[i];
    }
  }
  if (machine_name.empty() && machine_file == nullptr) return usage();
  uarch::MachineRef ref;
  if (!parse_machine(machine_file != nullptr ? machine_file : machine_name,
                     ref)) {
    return 2;
  }
  std::string text;
  if (!read_input(path, text)) return 1;
  const auto& mm = *ref.model;
  asmir::Program prog = asmir::parse(text, mm.isa());
  if (prog.empty()) {
    std::fprintf(stderr, "no instructions parsed\n");
    return 1;
  }
  analysis::DepOptions dopt;
  dopt.rename_moves = rename_aware;
  auto rep = analysis::analyze(prog, mm, dopt);
  if (dot_path != nullptr &&
      !write_file(dot_path, analysis::to_dot(prog, mm, dopt))) {
    return 1;
  }
  if (json) {
    // One document covering all three models (report::to_json has a
    // serialization for each result type).
    auto cmp = mca::simulate(prog, mm);
    auto meas = exec::run(prog, mm);
    std::printf("{\n\"analysis\": %s,\n\"mca\": %s,\n\"testbed\": %s}\n",
                report::to_json(rep).c_str(),
                report::to_json(cmp, mm).c_str(),
                report::to_json(meas, mm).c_str());
    return 0;
  }
  if (rename_aware)
    std::printf("(rename-aware: reg-reg moves eliminated on chains)\n");
  std::fputs(rep.to_table().c_str(), stdout);
  std::printf("\ntestbed measurement: %.2f cy/iter | LLVM-MCA comparator: "
              "%.2f cy/iter\n",
              exec::run(prog, mm).cycles_per_iteration,
              mca::simulate(prog, mm).cycles_per_iteration);
  return 0;
}

// ----------------------------------------------------------- corpus gates

int finish_lint(const verify::DiagnosticSink& sink, bool json, bool werror,
                bool verbose);

/// How one corpus block fared in a gate.
enum class Outcome : std::uint8_t { Pass, Attributed, Fail };

struct Tally {
  std::size_t pass = 0;
  std::size_t attributed = 0;
  std::size_t failed = 0;
  void add(Outcome o) {
    if (o == Outcome::Pass) {
      ++pass;
    } else if (o == Outcome::Attributed) {
      ++attributed;
    } else {
      ++failed;
    }
  }
};

/// An audit verdict: "pass", "divergent:<cause>" (attributed), anything
/// else fails.
Outcome classify_verdict(const std::string& v) {
  if (v == "pass") return Outcome::Pass;
  return v.starts_with("divergent") ? Outcome::Attributed : Outcome::Fail;
}

/// A gate's per-block check: reports through the sink, returns the verdict.
using GateCheck =
    std::function<Outcome(const driver::Block&, verify::DiagnosticSink&)>;

/// A simulator cross-check (VP011, VP014) as a gate check: an error fails
/// the block, any other diagnostic attributes its divergence.
template <typename Options>
GateCheck simulator_check(std::size_t (*check)(const asmir::Program&,
                                               const uarch::MachineModel&,
                                               std::string,
                                               verify::DiagnosticSink&,
                                               const Options&)) {
  return [check](const driver::Block& b, verify::DiagnosticSink& sink) {
    const std::size_t before = sink.diagnostics().size();
    check(b.gen.program, *b.mm,
          support::format("kernel '%s' on '%s'", b.variant.label().c_str(),
                          b.mm->name().c_str()),
          sink, Options{});
    const auto& d = sink.diagnostics();
    const bool err = std::any_of(
        d.begin() + static_cast<std::ptrdiff_t>(before), d.end(),
        [](const verify::Diagnostic& x) {
          return x.severity == verify::Severity::Error;
        });
    if (err) return Outcome::Fail;
    return d.size() > before ? Outcome::Attributed : Outcome::Pass;
  };
}

/// Runs one corpus gate serially over every unique (machine, assembly)
/// block of the validation matrix, in first-seen order, and prints
/// "<verb> N unique corpus blocks: P <pass>, A <attributed>, F fail".
int run_gate(const char* verb, const char* pass, const char* attributed,
             bool json, bool verbose, const GateCheck& check) {
  const std::vector<driver::Block> blocks =
      driver::dedup_blocks(kernels::test_matrix()).blocks;
  verify::DiagnosticSink sink;
  Tally t;
  for (const driver::Block& b : blocks) t.add(check(b, sink));
  if (!json) {
    std::printf("%s %zu unique corpus blocks: %zu %s, %zu %s, %zu fail\n",
                verb, blocks.size(), t.pass, pass, t.attributed, attributed,
                t.failed);
  }
  return finish_lint(sink, json, /*werror=*/false, verbose);
}

// ------------------------------------------------------------------ sweep

int cmd_sweep(int argc, char** argv) {
  // --jobs is the CLI's own flag: a daemon's core is sized at its start.
  int jobs = 1;
  auto jobs_flag = [&jobs](const std::vector<std::string>& tokens,
                           std::size_t& i, std::string& error) {
    if (tokens[i] != "--jobs") return false;
    if (i + 1 >= tokens.size()) {
      error = "--jobs needs a value";
      return true;
    }
    // 0 is the documented "auto" value; anything non-numeric, negative or
    // absurd gets a diagnostic instead of silently clamping.
    const std::string& v = tokens[++i];
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || n < 0 || n > 4096) {
      error = "sweep: --jobs expects a worker count between 0 (auto) and "
              "4096, got '" + v + "'";
      return true;
    }
    jobs = n == 0 ? support::ThreadPool::default_jobs() : static_cast<int>(n);
    return true;
  };
  server::SweepArgs args = server::parse_sweep_args(
      std::vector<std::string>(argv + 2, argv + argc), jobs_flag);
  if (!args.error.empty()) {
    std::fprintf(stderr, "%s\n", args.error.c_str());
    return args.unknown_flag ? usage() : 2;
  }
  args.options.jobs = jobs;
  const driver::SweepResult r = driver::sweep(args.options);
  if (r.rows.empty()) {
    std::fprintf(stderr, "sweep: the filters leave an empty matrix\n");
    return 1;
  }
  if (args.format == server::SweepFormat::Csv) {
    std::fputs(driver::to_csv(r).c_str(), stdout);
  } else if (args.format == server::SweepFormat::Json) {
    std::fputs(driver::to_json(r).c_str(), stdout);
  } else {
    const auto& st = r.stats;
    std::printf("sweep: %zu matrix cells -> %zu unique blocks (%zu unique "
                "assemblies)\n",
                st.cells, st.unique_blocks, st.unique_assemblies);
    std::printf(
        "       %zu evaluations across %zu models, %zu dedup hits "
        "(%.0f%% of cell-results memoized), jobs %d, %.1f ms\n",
        st.evaluations, r.model_ids.size(), st.dedup_hits,
        st.cells ? 100.0 * static_cast<double>(st.dedup_hits) /
                       static_cast<double>(st.cells * r.model_ids.size())
                 : 0.0,
        st.jobs, static_cast<double>(st.wall_time_ns) / 1e6);
    if (st.failed > 0) {
      std::printf("       %zu evaluations FAILED\n", st.failed);
    }
    if (!r.audit_verdicts.empty()) {
      Tally t;
      for (const std::string& v : r.audit_verdicts) t.add(classify_verdict(v));
      std::printf("       audit: %zu pass, %zu divergent, %zu fail of %zu "
                  "unique blocks\n",
                  t.pass, t.attributed, t.failed, r.audit_verdicts.size());
    }
    const std::string scaling = driver::scaling_summary(r);
    if (!scaling.empty()) std::fputs(scaling.c_str(), stdout);
    for (const driver::ModelErrorStats& s : driver::error_stats(r)) {
      std::printf(
          "  %-8s vs testbed: %3zu blocks | right of zero %3.0f%% | within "
          "+10%%/+20%%: %.0f%%/%.0f%% | mean |RPE| %.0f%% | off by >2x: %d\n",
          s.model.c_str(), s.rpes.size(), 100 * s.rpe.fraction_right,
          100 * s.rpe.fraction_in10, 100 * s.rpe.fraction_in20,
          100 * s.rpe.mean_abs_rpe, s.rpe.off_by_2x);
    }
  }
  return r.stats.failed > 0 ? 1 : 0;
}

int cmd_dot(const std::string& machine_name, const char* path) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  std::string text;
  if (!read_input(path, text)) return 1;
  const auto& mm = *ref.model;
  asmir::Program prog = asmir::parse(text, mm.isa());
  std::fputs(analysis::to_dot(prog, mm).c_str(), stdout);
  return 0;
}

int cmd_dataflow(int argc, char** argv) {
  bool json = false;
  const char* dot_path = nullptr;
  std::string target;
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--dot") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--dot needs a file path\n");
        return 2;
      }
      dot_path = argv[++i];
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown dataflow flag '%s'\n", a.c_str());
      return usage();
    } else if (target.empty()) {
      target = a;
    } else {
      path = argv[i];
    }
  }
  if (target.empty()) return usage();
  // The pass is machine-model-free; only the parsing ISA is needed.  Accept
  // an ISA keyword directly, or any machine name / .mdf path to borrow its
  // ISA.
  asmir::Isa isa;
  if (target == "aarch64" || target == "arm") {
    isa = asmir::Isa::AArch64;
  } else if (target == "x86" || target == "x86-64" || target == "x86_64") {
    isa = asmir::Isa::X86_64;
  } else {
    uarch::MachineRef ref;
    if (!parse_machine(target, ref)) return 2;
    isa = ref.model->isa();
  }
  std::string text;
  if (!read_input(path, text)) return 1;
  asmir::Program prog = asmir::parse(text, isa);
  if (prog.empty()) {
    std::fprintf(stderr, "no instructions parsed\n");
    return 1;
  }
  const dataflow::Analysis df = dataflow::analyze(prog);
  if (dot_path != nullptr && !write_file(dot_path, analysis::to_dot(df)))
    return 1;
  std::fputs((json ? dataflow::to_json(df) : dataflow::to_text(df)).c_str(),
             stdout);
  return 0;
}

int cmd_equiv(int argc, char** argv) {
  bool json = false;
  bool strict_fp = false;
  std::optional<asmir::Isa> isa;
  const char* ref_path = nullptr;
  const char* cand_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--strict-fp") {
      strict_fp = true;
    } else if (a == "--isa") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--isa needs a value (aarch64 or x86)\n");
        return 2;
      }
      const std::string v = argv[++i];
      if (v == "aarch64" || v == "arm") {
        isa = asmir::Isa::AArch64;
      } else if (v == "x86" || v == "x86-64" || v == "x86_64") {
        isa = asmir::Isa::X86_64;
      } else {
        std::fprintf(stderr, "unknown ISA '%s'\n", v.c_str());
        return 2;
      }
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown equiv flag '%s'\n", a.c_str());
      return usage();
    } else if (ref_path == nullptr) {
      ref_path = argv[i];
    } else if (cand_path == nullptr) {
      cand_path = argv[i];
    } else {
      std::fprintf(stderr, "equiv takes exactly two kernel files\n");
      return usage();
    }
  }
  if (ref_path == nullptr || cand_path == nullptr) return usage();
  std::string ref_text;
  std::string cand_text;
  if (!read_input(ref_path, ref_text) || !read_input(cand_path, cand_text))
    return 1;
  if (!isa) {
    // AT&T x86 registers carry a '%' sigil; AArch64 text never does.
    const bool x86 = ref_text.find('%') != std::string::npos;
    isa = x86 ? asmir::Isa::X86_64 : asmir::Isa::AArch64;
  }
  equiv::Options opts;
  opts.strict_fp = strict_fp;
  equiv::Engine engine(opts);
  const equiv::Result result = engine.check_text(ref_text, cand_text, *isa);
  std::fputs(
      (json ? equiv::to_json(result) : equiv::to_text(result)).c_str(),
      stdout);
  verify::DiagnosticSink sink;
  equiv::lint_equivalence(result, ref_path, cand_path, strict_fp, sink);
  if (!sink.empty()) std::fputs(sink.to_text().c_str(), stderr);
  return result.accepted(strict_fp) ? 0 : 1;
}

int cmd_timeline(const std::string& machine_name, const char* path) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  std::string text;
  if (!read_input(path, text)) return 1;
  const auto& mm = *ref.model;
  asmir::Program prog = asmir::parse(text, mm.isa());
  auto cfg = exec::testbed_config(mm.micro());
  cfg.timeline_iterations = 3;
  auto r = exec::simulate_loop(prog, mm, cfg);
  std::fputs(exec::render_timeline(r.timeline, prog).c_str(), stdout);
  std::printf("\nsteady state: %.2f cy/iter\n", r.cycles_per_iteration);
  return 0;
}

int cmd_forms(const std::string& machine_name, const char* filter) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const auto& mm = *ref.model;
  auto forms = mm.forms();
  std::sort(forms.begin(), forms.end());
  int shown = 0;
  for (const std::string& f : forms) {
    if (filter != nullptr && f.find(filter) == std::string::npos) continue;
    const auto* p = mm.find(f);
    std::printf("%-40s inv %6.3f cy  lat %4.1f cy\n", f.c_str(),
                p->inverse_throughput, p->latency);
    ++shown;
  }
  std::printf("%d forms\n", shown);
  return 0;
}

int cmd_kernels() {
  for (kernels::Kernel k : kernels::all_kernels()) {
    const auto& ki = kernels::info(k);
    std::printf("%-20s %2d loads, %d stores, %4.1f flops/elem%s%s%s\n",
                ki.name, ki.loads_per_element, ki.stores_per_element,
                ki.flops_per_element, ki.is_reduction ? ", reduction" : "",
                ki.has_recurrence ? ", recurrence" : "",
                ki.has_divide ? ", divide" : "");
  }
  return 0;
}

int cmd_emit(const std::string& machine_name, const std::string& kernel_name,
             const std::string& cc_name, const std::string& opt_name) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  kernels::Variant v{};
  v.target = ref->micro();
  bool found = false;
  for (kernels::Kernel k : kernels::all_kernels()) {
    if (kernel_name == kernels::to_string(k)) {
      v.kernel = k;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown kernel '%s' (try: incore-cli kernels)\n",
                 kernel_name.c_str());
    return 2;
  }
  found = false;
  for (kernels::Compiler c :
       {kernels::Compiler::Gcc, kernels::Compiler::Clang,
        kernels::Compiler::OneApi, kernels::Compiler::ArmClang}) {
    if (cc_name == kernels::to_string(c)) {
      v.compiler = c;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown compiler '%s'\n", cc_name.c_str());
    return 2;
  }
  found = false;
  for (kernels::OptLevel o : {kernels::OptLevel::O1, kernels::OptLevel::O2,
                              kernels::OptLevel::O3, kernels::OptLevel::Ofast}) {
    if (opt_name == kernels::to_string(o)) {
      v.opt = o;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown optimization level '%s'\n",
                 opt_name.c_str());
    return 2;
  }
  auto g = kernels::generate(v);
  std::printf("# %s (%d elements/iteration)\n%s", v.label().c_str(),
              g.elements_per_iteration, g.assembly.c_str());
  return 0;
}

int cmd_microbench(const std::string& machine_name, const std::string& tmpl,
                   bool latency) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const auto& mm = *ref.model;
  if (latency) {
    std::printf("latency: %.2f cy\n", exec::measure_latency(tmpl, mm));
  } else {
    double inv = exec::measure_inverse_throughput(tmpl, mm);
    std::printf("inverse throughput: %.3f cy (%.2f instructions/cy)\n", inv,
                1.0 / inv);
  }
  return 0;
}

/// Corpus ECM gate: the scaling law of every unique block cross-validated
/// against the memory simulators (VP014); every divergence must carry a
/// memory-side attribution.
int cmd_ecm_all(bool json, bool verbose) {
  return run_gate("ECM-validated", "agree", "attributed", json, verbose,
                  simulator_check(ecm::check_scaling_vs_simulation));
}

int cmd_ecm(int argc, char** argv) {
  std::string machine_name;
  std::string kernel_name;
  bool crosscheck = false;
  bool json = false;
  bool all = false;
  bool verbose = false;
  std::vector<int> cores;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--analytic") {
      // The static traffic engine is the only traffic source; the old
      // opt-in flag stays accepted.
    } else if (a == "--crosscheck") {
      crosscheck = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--all") {
      all = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--cores") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cores needs a value\n");
        return 2;
      }
      std::string error;
      if (!server::parse_core_counts(argv[++i], cores, error, "ecm")) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown ecm flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty()) {
      machine_name = a;
    } else if (kernel_name.empty()) {
      kernel_name = a;
    } else {
      return usage();
    }
  }
  if (all) return cmd_ecm_all(json, verbose);
  if (machine_name.empty() || kernel_name.empty()) return usage();
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const uarch::Micro micro = ref->micro();
  kernels::Variant v{};
  v.target = micro;
  v.opt = kernels::OptLevel::O3;
  v.compiler = kernels::compilers_for(micro).front();
  bool found = false;
  for (kernels::Kernel k : kernels::all_kernels()) {
    if (kernel_name == kernels::to_string(k)) {
      v.kernel = k;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel_name.c_str());
    return 2;
  }
  const kernels::GeneratedKernel g = kernels::generate(v);
  const auto& mm = *ref.model;
  const analysis::Report rep = analysis::analyze(g.program, mm);
  const ecm::HierarchyParams h = ecm::hierarchy_for(mm);
  const traffic::Result tr = traffic::analyze(g.program, mm);
  const ecm::BoundaryTraffic t = ecm::boundary_traffic(tr.volumes);
  const ecm::Prediction p = ecm::predict(rep, t, h);
  std::printf("boundary traffic: L1-L2 %.3f | L2-L3 %.3f | L3-Mem %.3f "
              "lines/iter (%zu streams%s)\n",
              t.lines_l1l2, t.lines_l2l3, t.lines_l3mem, tr.streams.size(),
              tr.exact ? "" : ", inexact");
  std::printf("T_OL %.2f | T_nOL %.2f | L1-L2 %.2f | L2-L3 %.2f | "
              "L3-Mem %.2f cy/iter\n",
              p.t_ol, p.t_nol, p.t_l1l2, p.t_l2l3, p.t_l3mem);
  for (auto loc : {ecm::DataLocation::L1, ecm::DataLocation::L2,
                   ecm::DataLocation::L3, ecm::DataLocation::Memory}) {
    std::printf("  %-4s %.2f cy/iter\n", ecm::to_string(loc), p.cycles(loc));
  }
  std::printf("saturates at %d cores\n", p.saturation_cores(h));
  if (!cores.empty()) {
    const int n_sat = p.t_l3mem > 0 ? p.saturation_cores(h) : 0;
    std::printf("scaling (socket cycles/iteration):\n");
    for (int n : cores) {
      const double cy = p.multicore_cycles(n, h);
      std::printf("  n=%-4d %.3f cy/iter%s\n", n, cy,
                  n_sat > 0 && n >= n_sat ? "  [saturated]" : "");
    }
  }
  if (crosscheck) {
    ecm::ScalingOptions sopt;
    sopt.cores = cores;
    const ecm::ScalingCheck c = ecm::crosscheck_scaling(g.program, mm, sopt);
    std::fputs(json ? ecm::to_json(c).c_str() : ecm::to_text(c).c_str(),
               stdout);
    return c.ok ? 0 : 1;
  }
  return 0;
}

// ----------------------------------------------------------- export-model

int cmd_export_model(int argc, char** argv) {
  std::string machine_name;
  const char* out_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" || a == "--output") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        return 2;
      }
      out_path = argv[++i];
    } else if (a.starts_with("-")) {
      std::fprintf(stderr, "unknown export-model flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty()) {
      machine_name = a;
    } else {
      return usage();
    }
  }
  if (machine_name.empty()) return usage();
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  if (out_path != nullptr) {
    uarch::save_machine_file(*ref.model, out_path);
  } else {
    std::fputs(uarch::save_machine_string(*ref.model).c_str(), stdout);
  }
  return 0;
}

// ------------------------------------------------------------------ lint

/// The bundled machine models: the paper's testbed trio plus the auxiliary
/// Ice Lake SP generational-comparison model, straight from the registry.
std::vector<const uarch::MachineModel*> bundled_models() {
  std::vector<const uarch::MachineModel*> models;
  for (const uarch::MachineRef& ref :
       uarch::MachineRegistry::instance().builtins()) {
    models.push_back(ref.model);
  }
  return models;
}

int finish_lint(const verify::DiagnosticSink& sink, bool json, bool werror,
                bool verbose) {
  if (json) {
    std::fputs(report::to_json(sink).c_str(), stdout);
  } else {
    std::fputs(
        sink.to_text(verbose ? verify::Severity::Note
                             : verify::Severity::Warning)
            .c_str(),
        stdout);
    std::printf("lint: %s\n", sink.summary().c_str());
    if (!verbose && sink.count(verify::Severity::Note) > 0) {
      std::printf("(re-run with --verbose to see the notes)\n");
    }
  }
  if (sink.has_errors()) return 1;
  if (werror && sink.warnings() > 0) return 1;
  return 0;
}

int cmd_lint_codes() {
  for (const verify::CodeInfo& c : verify::all_codes()) {
    std::printf("%-6s %-8s %s\n", c.code, verify::to_string(c.severity),
                c.summary);
  }
  return 0;
}

/// Display name and doc page per diagnostic family; docs/linting.md stays
/// the source of truth for VM/VK, docs/audit.md for VP, docs/traffic.md
/// for VT.
const char* family_title(std::string_view family) {
  if (family == "VM") return "machine-model lints";
  if (family == "VK") return "kernel & dataflow lints";
  if (family == "VP") return "prediction-audit lints";
  if (family == "VT") return "traffic lints";
  if (family == "VE") return "semantic-equivalence lints";
  return "diagnostics";
}

const char* family_doc(std::string_view family) {
  if (family == "VP") return "docs/audit.md";
  if (family == "VT") return "docs/traffic.md";
  if (family == "VE") return "docs/equivalence.md";
  return "docs/linting.md";
}

int cmd_lint_catalog(bool json) {
  // Group the registry by the two-letter family prefix, preserving
  // registration order within and across families.
  std::vector<std::pair<std::string, std::vector<const verify::CodeInfo*>>>
      families;
  for (const verify::CodeInfo& c : verify::all_codes()) {
    const std::string fam = std::string(c.code).substr(0, 2);
    if (families.empty() || families.back().first != fam) {
      families.emplace_back(fam, std::vector<const verify::CodeInfo*>{});
    }
    families.back().second.push_back(&c);
  }
  if (json) {
    std::string out = "{\n  \"families\": [\n";
    for (std::size_t f = 0; f < families.size(); ++f) {
      const auto& [fam, codes] = families[f];
      out += support::format(
          "    {\"family\": \"%s\", \"title\": \"%s\", \"doc\": \"%s\", "
          "\"codes\": [\n",
          fam.c_str(), family_title(fam), family_doc(fam));
      for (std::size_t i = 0; i < codes.size(); ++i) {
        out += support::format(
            "      {\"code\": \"%s\", \"severity\": \"%s\", \"summary\": "
            "\"%s\"}%s\n",
            codes[i]->code, verify::to_string(codes[i]->severity),
            report::json_escape(codes[i]->summary).c_str(),
            i + 1 < codes.size() ? "," : "");
      }
      out += support::format("    ]}%s\n",
                             f + 1 < families.size() ? "," : "");
    }
    out += "  ]\n}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  for (const auto& [fam, codes] : families) {
    std::printf("%s — %s (%s)\n", fam.c_str(), family_title(fam),
                family_doc(fam));
    for (const verify::CodeInfo* c : codes) {
      std::printf("  %-6s %-8s %s\n", c->code, verify::to_string(c->severity),
                  c->summary);
    }
  }
  std::printf(
      "\nThese families lint the machine models and kernels.  The codebase "
      "itself is\nstatically checked too: clang-tidy (.clang-tidy — "
      "bugprone-*, concurrency-*,\nperformance-*) and the Clang "
      "thread-safety annotations (-Wthread-safety,\ndocs/concurrency.md) "
      "run as CI gates.\n");
  return 0;
}

int cmd_lint_all(bool json, bool werror, bool verbose) {
  verify::DiagnosticSink sink;
  const auto models = bundled_models();
  for (const uarch::MachineModel* mm : models) {
    verify::lint_model(*mm, sink);
  }

  // The generated kernel corpus, deduplicated by (target, assembly): the
  // 416-variant matrix collapses to the unique codegen blocks.
  const std::vector<driver::Block> blocks =
      driver::dedup_blocks(kernels::test_matrix()).blocks;
  // Compiler-generated kernels legitimately carry accumulators and
  // induction variables across iterations; suppress the VK001 notes here
  // (they stay on for user-supplied files).
  verify::KernelLintOptions kopt;
  kopt.flag_loop_carried_inputs = false;
  std::vector<verify::CorpusEntry> corpus;
  corpus.reserve(blocks.size());
  for (const driver::Block& b : blocks) {
    const std::string label = b.variant.label();
    verify::lint_program(b.gen.program, *b.mm, label, sink, kopt);
    traffic::lint_traffic(b.gen.program, *b.mm, label, sink);
    corpus.push_back(verify::CorpusEntry{label, &b.gen.program, b.mm});
  }

  // Cross-model coverage over the testbed trio (the auxiliary Ice Lake SP
  // model is deliberately minimal and excluded from the diff).
  std::vector<const uarch::MachineModel*> trio;
  for (uarch::Micro m : uarch::all_micros()) trio.push_back(&uarch::machine(m));
  verify::lint_cross_model_coverage(corpus, trio, sink);

  if (!json) {
    std::printf("linted %zu models, %zu unique corpus kernels\n",
                models.size(), blocks.size());
  }
  return finish_lint(sink, json, werror, verbose);
}

int cmd_lint_one(const std::string& machine_name, const char* path, bool json,
                 bool werror, bool verbose) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const auto& mm = *ref.model;
  verify::DiagnosticSink sink;
  verify::lint_model(mm, sink);
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    verify::lint_source_markers(text, path, sink);
    asmir::Program prog = asmir::parse(text, mm.isa());
    verify::lint_program(prog, mm, path, sink);
    traffic::lint_traffic(prog, mm, path, sink);
  }
  return finish_lint(sink, json, werror, verbose);
}

int cmd_lint(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool verbose = false;
  bool all = false;
  bool catalog = false;
  std::string machine_name;
  const char* file = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--werror") {
      werror = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--all-models") {
      all = true;
    } else if (a == "--codes") {
      return cmd_lint_codes();
    } else if (a == "--catalog") {
      catalog = true;
    } else if (a == "--machine-file") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--machine-file needs a value\n");
        return 2;
      }
      machine_name = argv[++i];
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown lint flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty()) {
      machine_name = a;
    } else {
      file = argv[i];
    }
  }
  if (catalog) return cmd_lint_catalog(json);
  if (all) return cmd_lint_all(json, werror, verbose);
  if (machine_name.empty()) return usage();
  return cmd_lint_one(machine_name, file, json, werror, verbose);
}

// ------------------------------------------------------------------ audit

int cmd_audit_all(bool json, bool verbose, bool traffic, bool ecm) {
  audit::AuditOptions aopt;
  aopt.check_traffic = traffic;
  aopt.check_ecm = ecm;
  return run_gate("audited", "pass", "divergent", json, verbose,
                  [&aopt](const driver::Block& b,
                          verify::DiagnosticSink& sink) {
                    return classify_verdict(audit::verdict_string(
                        audit::audit_block(b, sink, aopt)));
                  });
}

int cmd_audit_one(const std::string& machine_name, const char* path,
                  bool json, bool verbose, bool traffic, bool ecm) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const auto& mm = *ref.model;
  std::string text;
  if (!read_input(path, text)) return 1;
  asmir::Program prog = asmir::parse(text, mm.isa());
  if (prog.empty()) {
    std::fprintf(stderr, "no instructions parsed\n");
    return 1;
  }
  verify::DiagnosticSink sink;
  audit::AuditOptions aopt;
  aopt.check_traffic = traffic;
  aopt.check_ecm = ecm;
  const audit::BlockAudit a = audit::audit_program(
      prog, mm, path != nullptr ? path : "<stdin>", sink, aopt);
  if (json) {
    std::fputs(audit::to_json(a, sink).c_str(), stdout);
  } else {
    std::fputs(audit::to_text(a).c_str(), stdout);
    std::fputs(
        sink.to_text(verbose ? verify::Severity::Note
                             : verify::Severity::Warning)
            .c_str(),
        stdout);
    std::printf("audit: %s\n", sink.summary().c_str());
  }
  // A block the audit could not evaluate (unresolvable form, analyzer
  // throw) fires no VP invariant, but exiting 0 on it would hide the
  // failure from CI.
  if (!a.evaluated) return 1;
  return sink.has_errors() ? 1 : 0;
}

int cmd_audit(int argc, char** argv) {
  bool json = false;
  bool verbose = false;
  bool all = false;
  bool traffic = false;
  bool ecm = false;
  std::string machine_name;
  const char* file = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--all") {
      all = true;
    } else if (a == "--traffic") {
      traffic = true;
    } else if (a == "--ecm") {
      ecm = true;
    } else if (a == "--machine-file") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--machine-file needs a value\n");
        return 2;
      }
      machine_name = argv[++i];
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown audit flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty()) {
      machine_name = a;
    } else {
      file = argv[i];
    }
  }
  if (all) return cmd_audit_all(json, verbose, traffic, ecm);
  if (machine_name.empty()) return usage();
  return cmd_audit_one(machine_name, file, json, verbose, traffic, ecm);
}

// ---------------------------------------------------------------- traffic

/// Corpus traffic gate: the static volumes of every unique block
/// cross-validated against the trace simulator on its own target machine
/// (VP011).
int cmd_traffic_all(bool json, bool verbose) {
  return run_gate("cross-validated", "agree", "attributed", json, verbose,
                  simulator_check(traffic::check_traffic_vs_simulation));
}

int cmd_traffic_one(const std::string& machine_name, const char* path,
                    bool json, bool do_crosscheck) {
  uarch::MachineRef ref;
  if (!parse_machine(machine_name, ref)) return 2;
  const auto& mm = *ref.model;
  std::string text;
  if (!read_input(path, text)) return 1;
  asmir::Program prog = asmir::parse(text, mm.isa());
  if (prog.empty()) {
    std::fprintf(stderr, "no instructions parsed\n");
    return 1;
  }
  const traffic::Result r = traffic::analyze(prog, mm);
  if (!do_crosscheck) {
    std::fputs((json ? traffic::to_json(r) : traffic::to_text(r)).c_str(),
               stdout);
    return 0;
  }
  const traffic::Crosscheck c = traffic::crosscheck(prog, mm);
  if (json) {
    std::printf("{\n\"traffic\": %s,\n\"crosscheck\": %s}\n",
                traffic::to_json(r).c_str(), traffic::to_json(c).c_str());
  } else {
    std::fputs(traffic::to_text(r).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(traffic::to_text(c).c_str(), stdout);
  }
  return c.ok ? 0 : 1;
}

int cmd_traffic(int argc, char** argv) {
  bool json = false;
  bool all = false;
  bool do_crosscheck = false;
  std::string machine_name;
  const char* file = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--all") {
      all = true;
    } else if (a == "--crosscheck") {
      do_crosscheck = true;
    } else if (a == "--machine-file") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--machine-file needs a value\n");
        return 2;
      }
      machine_name = argv[++i];
    } else if (a.starts_with("--")) {
      std::fprintf(stderr, "unknown traffic flag '%s'\n", a.c_str());
      return usage();
    } else if (machine_name.empty()) {
      machine_name = a;
    } else {
      file = argv[i];
    }
  }
  if (all) return cmd_traffic_all(json, /*verbose=*/do_crosscheck);
  if (machine_name.empty()) return usage();
  return cmd_traffic_one(machine_name, file, json, do_crosscheck);
}

}  // namespace

// ---------------------------------------------------------------- service

int cmd_serve(int argc, char** argv) {
  server::ServeArgs args =
      server::parse_serve_args({argv + 2, argv + argc}, "serve");
  if (!args.error.empty()) {
    std::fprintf(stderr, "%s\n", args.error.c_str());
    return args.unknown_flag ? usage() : 2;
  }
  server::ServerOptions opt = std::move(args.options);
  if (opt.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket <path> is required\n");
    return 2;
  }
  const std::string path = opt.socket_path;
  server::Server srv(std::move(opt));
  std::string error;
  if (!srv.start(error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  // Announce readiness on a flushed line: launcher scripts wait for it.
  std::printf("incore-server: listening on %s\n", path.c_str());
  std::fflush(stdout);
  srv.wait();
  srv.stop();
  std::printf("incore-server: stopped (%llu requests, %llu errors)\n",
              static_cast<unsigned long long>(srv.context().requests()),
              static_cast<unsigned long long>(srv.context().errors()));
  return 0;
}

int cmd_client(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> words;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else {
      words.push_back(a);
    }
  }
  if (socket_path.empty() || words.empty()) {
    std::fprintf(stderr,
                 "client: usage: incore-cli client --socket <path> "
                 "<request...>\n");
    return 2;
  }
  const std::string& cmd = words[0];
  std::string body;
  if (cmd == "raw") {
    // Verbatim request body — the door the protocol smoke test uses to
    // exercise the server's malformed-request diagnostics.
    for (std::size_t i = 1; i < words.size(); ++i) {
      body += i > 1 ? " " : "";
      body += words[i];
    }
  } else if (cmd == "analyze" || cmd == "audit" || cmd == "traffic" ||
             cmd == "ecm") {
    if (words.size() < 2) {
      std::fprintf(stderr, "client: %s needs a machine name\n", cmd.c_str());
      return 2;
    }
    std::string text;
    if (!read_input(words.size() > 2 ? words[2].c_str() : nullptr, text)) {
      return 1;
    }
    body = cmd + " " + words[1] + "\n" + text;
  } else {
    // ping / stats / shutdown / sweep with flags: the request line is the
    // words joined, no payload.
    for (std::size_t i = 0; i < words.size(); ++i) {
      body += i > 0 ? " " : "";
      body += words[i];
    }
  }
  const std::string reply = server::request(socket_path, body);
  std::fputs(reply.c_str(), stdout);
  if (!reply.empty() && reply.back() != '\n') std::fputc('\n', stdout);
  return reply.rfind("{\"ok\": true", 0) == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "machines") return cmd_machines();
    if (cmd == "kernels") return cmd_kernels();
    if (cmd == "reproduce") return reproduce::run({argv + 2, argv + argc});
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argc, argv);
    if (cmd == "dataflow" && argc >= 3) return cmd_dataflow(argc, argv);
    if (cmd == "equiv" && argc >= 3) return cmd_equiv(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "export-model" && argc >= 3)
      return cmd_export_model(argc, argv);
    if (cmd == "emit" && argc == 6)
      return cmd_emit(argv[2], argv[3], argv[4], argv[5]);
    if (cmd == "tput" && argc == 4) return cmd_microbench(argv[2], argv[3], false);
    if (cmd == "lat" && argc == 4) return cmd_microbench(argv[2], argv[3], true);
    if (cmd == "ecm" && argc >= 3) return cmd_ecm(argc, argv);
    if (cmd == "dot" && argc >= 3)
      return cmd_dot(argv[2], argc > 3 ? argv[3] : nullptr);
    if (cmd == "timeline" && argc >= 3)
      return cmd_timeline(argv[2], argc > 3 ? argv[3] : nullptr);
    if (cmd == "forms" && argc >= 3)
      return cmd_forms(argv[2], argc > 3 ? argv[3] : nullptr);
    if (cmd == "lint" && argc >= 3) return cmd_lint(argc, argv);
    if (cmd == "audit" && argc >= 3) return cmd_audit(argc, argv);
    if (cmd == "traffic" && argc >= 3) return cmd_traffic(argc, argv);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
