#!/usr/bin/env python3
"""Seeded end-to-end benchmark of incore.

    python3 perfbench/run.py --workload matrix|memory|gates|daemon \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 a traced run gives the
per-layer metrics, and an untraced run of the same work gives the tracing
overhead.  Every run also writes a result record, the per-layer table and
the Chrome trace under <build>/results/ (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix", "memory", "gates", "daemon")
# Request metrics of the daemon, printed after the end-to-end metrics of
# BENCHMARK.json.  They apply to no bounded workload (README.md says why
# the daemon is not one), so BENCHMARK.json does not list them.
REQUEST_METRICS = [{"name": "req_per_s", "unit": "1/s"},
                   {"name": "req_p50_ms", "unit": "ms"},
                   {"name": "req_p99_ms", "unit": "ms"}]
# Fresh-process set-ups per run besides the measured process's own; the
# reported setup_s is the median of them all.  A set-up takes 1 to 30 ms,
# and single ones spread by half across runs.
SETUP_REPEATS = 20
# A run must end within 180 s of finishing its build (the first run in a
# fresh checkout builds for minutes); harness processes are killed past this.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no incore sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(bdir, "incore-perfbench")
    if not os.path.isfile(exe):
        raise BenchError("build produced no harness at " + exe)
    return exe


class Harness:
    def __init__(self, exe, deadline):
        self.exe = exe
        self.deadline = deadline

    def __call__(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        try:
            p = subprocess.run([self.exe, *map(str, args)], cwd=ROOT, text=True,
                               stdout=subprocess.PIPE, stderr=sys.stderr,
                               timeout=left, check=False)
        except subprocess.TimeoutExpired as e:
            raise BenchError("harness timed out: %s" % " ".join(map(str, args))) from e
        if p.returncode != 0:
            raise BenchError("harness exited %d: %s" % (p.returncode, " ".join(map(str, args))))
        lines = [l for l in p.stdout.splitlines() if l.startswith("PERFBENCH ")]
        if not lines:
            raise BenchError("harness printed no result")
        for line in p.stdout.splitlines():
            if not line.startswith("PERFBENCH "):
                log(line)
        return json.loads(lines[-1][len("PERFBENCH "):])


def source_digest():
    """Digest of the sources the harness builds, for runs outside git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return p.stdout.strip() if p.returncode == 0 else "none"


def end_to_end(results, setups):
    """The end-to-end metrics of one run from its harness results."""
    med = statistics.median
    passes = [p for r in results for p in r["passes"]]
    return {
        "setup_s": med(r["setup_s"] for r in setups),
        "blocks_per_s": med(p["blocks"] / p["wall_s"] for p in passes),
        "req_per_s": med(p["ops"] / p["wall_s"] for p in passes),
        "req_p50_ms": med(r["lat_p50_ms"] for r in results),
        "req_p99_ms": med(r["lat_p99_ms"] for r in results),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in results),
    }


def run(args):
    bdir = build_dir()
    exe = build(bdir)
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out_dir = os.path.join(bdir, "results")
    sock_dir = os.path.join(bdir, "sock")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(sock_dir, exist_ok=True)
    harness = Harness(exe, started + RUN_BUDGET_S)
    common = ["--workload", args.workload, "--seed", args.seed,
              "--golden", os.path.join(HERE, "golden"),
              "--socket-dir", os.path.relpath(sock_dir, ROOT)]
    tag = "%s-seed%d" % (args.workload, args.seed)

    if args.trace:
        prefix = os.path.join(out_dir, tag)
        traced = harness(*common, "--seconds", args.seconds, "--trace-out", prefix)
        units = (traced["meta"]["requests"] if args.workload == "daemon"
                 else len(traced["passes"]))
        plain = harness(*common, "--seconds", args.seconds, "--units", int(units))
        results = [traced, plain]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["timed_wall_s"] - plain["timed_wall_s"]
        kinds = bench["per_layer"]
    else:
        results = []
        t0 = time.monotonic()
        while True:
            results.append(harness(*common, "--seconds", args.seconds))
            # memory times one cold pass per process (the driver's ECM memo
            # is process-wide), so further passes need further processes.
            if args.workload != "memory" or time.monotonic() - t0 >= args.seconds:
                break
        setups = results + [harness(*common, "--seconds", args.seconds, "--setup-only")
                            for _ in range(SETUP_REPEATS)]
        metrics = end_to_end(results, setups)
        kinds = bench["end_to_end"] + (REQUEST_METRICS if args.workload == "daemon" else [])

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    missing = [k["name"] for k in kinds if k["name"] not in metrics]
    if missing:
        raise BenchError("harness did not report " + ", ".join(missing))
    shown = {k["name"]: {"value": metrics[k["name"]], "unit": k["unit"]} for k in kinds}

    meta = dict(results[0]["meta"])
    meta.update({"seed": args.seed, "workload": args.workload, "trace": args.trace,
                 "seconds": args.seconds, "processes": len(results),
                 "git_rev": git_rev(), "source_digest": source_digest()})
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted if attempted else 1.0,
              "metrics": shown, "meta": meta,
              "processes": results}
    with open(os.path.join(out_dir, "%s-trace%d.json" % (tag, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(out_dir, tag + "-layers.md"), "w") as fh:
            fh.write("| metric | value | unit |\n|---|---|---|\n")
            for k in kinds:
                fh.write("| %s | %.9g | %s |\n" % (k["name"], metrics[k["name"]], k["unit"]))
            fh.write("\ntraced timed wall %.3f s, untraced %.3f s (same work)\n"
                     % (traced["timed_wall_s"], plain["timed_wall_s"]))

    print("run: " + json.dumps(meta, sort_keys=True))
    print("fail_ratio: %.6g (%d of %d operations failed)"
          % (record["fail_ratio"], failed, attempted))
    for name, m in shown.items():
        print("%-26s %14.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": record["correct"], "attempted": attempted, "failed": failed,
            "metrics": shown}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
