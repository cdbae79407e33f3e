// Reproduces Fig. 3: histograms of the relative prediction error (RPE) of
// the OSACA-style in-core model and the LLVM-MCA-style comparator over the
// full validation matrix (13 kernels x 4 optimization levels x the
// compilers available per machine = 416 test blocks).
//
//   RPE = (measured - predicted) / measured
//
// Bars right of the zero line are predictions *faster* than the
// measurement -- desired for a lower-bound model.  The leftmost bucket
// collects predictions off by more than a factor of two (RPE <= -1).
//
// The "measurement" is the execution-testbed simulation of each block on
// its target machine (the hardware substitute; see DESIGN.md).

#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "driver/sweep.hpp"
#include "report/report.hpp"
#include "server/sweep_args.hpp"
#include "support/csv.hpp"
#include "support/ks.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "uarch/model.hpp"

using namespace incore;
using support::format;

int main(int argc, char** argv) {
  const bool emit_csv = argc > 1 && std::string(argv[1]) == "--csv";

  struct Sample {
    kernels::Variant variant;
    std::size_t block;  // into res.blocks / res.audit_verdicts
    double measured;
    double osaca;
    double mca;
  };

  // The whole matrix through the sweep driver: dedup collapses the 416
  // cells to the unique blocks, the worker pool fans the three models out,
  // and the rows come back in deterministic matrix order.  The audit hook
  // attributes every block's model divergence alongside the predictions.
  driver::SweepOptions opt;
  opt.jobs = support::ThreadPool::default_jobs();
  opt.audit = server::audit_verdict;
  const driver::SweepResult res = driver::sweep(opt);
  std::vector<Sample> samples;
  samples.reserve(res.rows.size());
  for (const driver::SweepRow& row : res.rows) {
    samples.push_back(Sample{
        row.variant, row.block_index,
        res.find(row, "testbed")->cycles_per_iteration,
        res.find(row, "osaca")->cycles_per_iteration,
        res.find(row, "mca")->cycles_per_iteration});
  }

  std::printf("Fig. 3: relative prediction error over %zu test blocks "
              "(%zu unique assembly representations)\n\n",
              samples.size(), res.stats.unique_assemblies);

  auto rpe = [](double measured, double predicted) {
    return (measured - predicted) / measured;
  };

  // Per-model histograms (10% buckets like the paper), per machine and
  // total, plus the summary statistics quoted in the text.
  for (const char* model : {"OSACA", "LLVM-MCA"}) {
    const bool osaca = std::string(model) == "OSACA";
    support::Histogram all(-1.0, 1.0, 20);
    std::map<uarch::Micro, std::vector<double>> per_arch;
    std::vector<double> rpes;
    for (const Sample& s : samples) {
      double r = rpe(s.measured, osaca ? s.osaca : s.mca);
      all.add(r);
      per_arch[s.variant.target].push_back(r);
      rpes.push_back(r);
    }
    std::fputs(
        report::render_rpe_histogram(all, format("%s model, all machines",
                                                 model))
            .c_str(),
        stdout);
    auto sum = report::summarize_rpe(rpes);
    std::printf(
        "  right of zero: %.0f%% | within +10%%: %.0f%% | within +20%%: "
        "%.0f%% | off by >2x: %d\n",
        100 * sum.fraction_right, 100 * sum.fraction_in10,
        100 * sum.fraction_in20, sum.off_by_2x);
    for (auto& [micro, vec] : per_arch) {
      auto s = report::summarize_rpe(vec);
      std::printf(
          "  %-6s avg under-prediction RPE %.0f%% | avg |RPE| %.0f%% "
          "(n=%zu)\n",
          uarch::cpu_short_name(micro), 100 * s.mean_under_rpe,
          100 * s.mean_abs_rpe, vec.size());
    }
    std::printf("\n");
  }

  // Are the two RPE distributions statistically distinct?  (The paper
  // argues this visually from the histograms; we attach a KS test.)
  {
    std::vector<double> osaca, mca_v;
    for (const Sample& s : samples) {
      osaca.push_back(rpe(s.measured, s.osaca));
      mca_v.push_back(rpe(s.measured, s.mca));
    }
    auto ks = support::ks_test(osaca, mca_v);
    std::printf(
        "Kolmogorov-Smirnov OSACA vs LLVM-MCA RPE: D = %.3f, p = %.2e "
        "(distributions %s)\n\n",
        ks.statistic, ks.p_value,
        ks.p_value < 0.01 ? "clearly distinct" : "not distinguishable");
  }

  // The paper's headline outliers, called out explicitly, each tagged with
  // the audit's attributed divergence cause for its unique block.
  std::printf("Outliers (prediction slower than measurement by > 5%%):\n");
  for (const Sample& s : samples) {
    double r = rpe(s.measured, s.osaca);
    if (r < -0.05) {
      std::printf("  OSACA %-46s pred %.2f vs meas %.2f (RPE %+.2f)  "
                  "[audit: %s]\n",
                  s.variant.label().c_str(), s.osaca, s.measured, r,
                  res.audit_verdicts[s.block].c_str());
    }
  }

  // Why the simulators exceed the in-core lower bound, per attributed
  // cause over the unique blocks (the audit's VP009/VP010 classification).
  {
    std::map<std::string, std::size_t> causes;
    for (const std::string& v : res.audit_verdicts) {
      if (v.starts_with("divergent:")) {
        // A verdict can carry several '+'-joined causes; count each.
        const std::string tail = v.substr(std::string("divergent:").size());
        for (std::string_view part : support::split(tail, '+')) {
          ++causes[std::string(part)];
        }
      } else {
        ++causes[v];
      }
    }
    std::printf("\nDivergence attribution over %zu unique blocks "
                "(simulator above the certified bound by > 5%%):\n",
                res.audit_verdicts.size());
    for (const auto& [cause, n] : causes) {
      std::printf("  %-22s %3zu blocks\n", cause.c_str(), n);
    }
  }

  if (emit_csv) {
    std::printf("\nCSV (variant, measured, osaca, mca):\n");
    support::CsvWriter csv(std::cout);
    csv.header({"variant", "measured_cy", "osaca_cy", "mca_cy"});
    for (const Sample& s : samples) {
      csv.row({s.variant.label(), format("%.3f", s.measured),
               format("%.3f", s.osaca), format("%.3f", s.mca)});
    }
  }

  std::printf(
      "\nPaper reference: OSACA 96%% right of zero, 37%%/44%% within "
      "+10/+20%%, 1 block off by >2x;\nLLVM-MCA predicts 75%% of blocks "
      "slower than measured, 14 off by >2x.\nAverage under-prediction RPE "
      "(OSACA): GC 24%%, V2 30%%, Zen4 18%%; |RPE| OSACA 30/26/18 vs "
      "LLVM-MCA 35/52/16.\n");
  return 0;
}
