#!/usr/bin/env python3
"""Compare two result sets of the seeded benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the result records perfbench/run.py writes
(<build>/results/<workload>-seed<N>-trace0.json), one per run.  Runs of the
two sides are paired by workload and seed.  For every (workload, end-to-end
metric) row the tool prints one verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's interquartile spread;
  unresolved  the parent's own spread is wider than the metric's bound, and
              not every change run is better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound BENCHMARK.json gives the metric;
  unchanged   otherwise.

A fail_ratio row per workload compares failed / attempted operations.  The
exit status is 1 when any row is worse or a fail ratio rose, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {seed: record}} for the untraced records in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Verdict for paired value lists (same order) of one metric."""
    lower = better == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    pm = statistics.median(parent)
    cm = statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    if wins >= 0.9 * len(parent) and beats(cm, pm) and abs(cm - pm) > spread:
        v = "improved"
    elif pm and spread / abs(pm) > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, pm, q1, q3, cm, wins


def compare(parent_dir, change_dir, bench):
    parent = load(parent_dir)
    change = load(change_dir)
    failed = False
    print("%-8s %-14s %12s %25s %12s %7s  %s"
          % ("workload", "metric", "parent", "parent q1..q3", "change", "wins", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            print("%-8s (no paired runs)" % workload)
            failed = True
            continue
        if len(seeds) < 10:
            print("%-8s note: %d pairs; the rule asks for at least 10" % (workload, len(seeds)))
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            v, pm, q1, q3, cm, wins = verdict(pv, cv, m["better"], m["bound"])
            failed |= v == "worse"
            print("%-8s %-14s %12.6g %12.6g..%-12.6g %12.6g %3d/%-3d  %s"
                  % (workload, name, pm, q1, q3, cm, wins, len(seeds), v))

        def ratio(runs):
            att = sum(runs[s]["attempted"] for s in seeds)
            return sum(runs[s]["failed"] for s in seeds) / att if att else 1.0

        pr, cr = ratio(p_runs), ratio(c_runs)
        rose = cr > pr
        failed |= rose
        print("%-8s %-14s %12.6g %25s %12.6g %7s  %s"
              % (workload, "fail_ratio", pr, "", cr, "", "worse" if rose else "unchanged"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    return compare(args.parent_dir, args.change_dir, bench)


if __name__ == "__main__":
    sys.exit(main())
