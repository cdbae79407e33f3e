"""Self-tests of the seeded benchmark.

    python3 -m unittest discover -s perfbench/tests

The harness is built the way perfbench/run.py builds it (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run as perfrun  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = perfrun.build(perfrun.build_dir())

    def lines(self, *args):
        p = subprocess.run([self.exe, *map(str, args)], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, check=True)
        return p.stdout.splitlines()

    def result(self, *args):
        line = [l for l in self.lines(*args) if l.startswith("PERFBENCH ")][-1]
        return json.loads(line[len("PERFBENCH "):])

    def test_gates_sample_follows_the_seed(self):
        a = self.lines("--gates-sample", "--seed", 7)
        self.assertEqual(a, self.lines("--gates-sample", "--seed", 7))
        self.assertNotEqual(a, self.lines("--gates-sample", "--seed", 8))
        self.assertNotEqual(a, self.lines("--gates-sample", "--seed", 7, "--pass", 1))
        # One cell per kernel x machine x compiler stratum, and the compilers
        # of one kernel x machine at distinct optimization levels.
        self.assertEqual(len(a), 104)
        levels = {}
        for label in a:
            kernel, compiler, level, machine = label.rsplit("-", 3)
            levels.setdefault((kernel, machine), {})[compiler] = level
        self.assertEqual(sum(len(c) for c in levels.values()), 104)
        for by_compiler in levels.values():
            self.assertEqual(len(set(by_compiler.values())), len(by_compiler))

    def test_daemon_requests_follow_the_seed(self):
        a = self.lines("--daemon-requests", "--seed", 7, "--count", 1500)
        self.assertEqual(a, self.lines("--daemon-requests", "--seed", 7, "--count", 1500))
        b = self.lines("--daemon-requests", "--seed", 8, "--count", 1500)
        self.assertNotEqual(a, b)
        # Seeds reorder a deck; they do not change what it holds.
        self.assertEqual(sorted(a[:1000]), sorted(b[:1000]))
        kinds = [l.split()[0] for l in a[:1000]]
        self.assertEqual((kinds.count("analyze"), kinds.count("ecm"), kinds.count("traffic")),
                         (700, 200, 100))

    def test_corrupted_golden_fails_every_operation(self):
        with tempfile.TemporaryDirectory(dir=perfrun.build_dir()) as tmp:
            shutil.copy(os.path.join(BENCH, "golden", "blocks.tsv"), tmp)
            with open(os.path.join(BENCH, "golden", "digests.txt")) as fh:
                digests = fh.read()
            with open(os.path.join(tmp, "digests.txt"), "w") as fh:
                fh.write(digests.replace("matrix ", "matrix 0", 1))
            r = self.result("--workload", "matrix", "--seed", 1, "--seconds", 1,
                            "--units", 1, "--golden", tmp)
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], r["attempted"])

    def test_golden_digests_match(self):
        golden = os.path.join(BENCH, "golden")
        r = self.result("--workload", "matrix", "--seed", 5, "--seconds", 1,
                        "--units", 1, "--golden", golden)
        self.assertEqual((r["attempted"], r["failed"]), (747, 0))
        # 249 unique blocks x (osaca + ECM at 1, 2, 4, 8 cores).
        r = self.result("--workload", "memory", "--seed", 5, "--seconds", 1, "--golden", golden)
        self.assertEqual((r["attempted"], r["failed"]), (1245, 0))

    def test_traced_run_reports_every_layer_metric(self):
        p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                            "matrix", "--seed", "2", "--seconds", "1", "--trace", "1"],
                           cwd=ROOT, text=True, stdout=subprocess.PIPE, check=True)
        result = json.loads(p.stdout.splitlines()[-1])
        names = [m["name"] for m in load_benchmark()["per_layer"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        self.assertTrue(result["correct"])
        results = os.path.join(perfrun.build_dir(), "results")
        with open(os.path.join(results, "matrix-seed2-layers.md")) as fh:
            table = fh.read()
        for name in names:
            self.assertIn("| %s |" % name, table)
        with open(os.path.join(results, "matrix-seed2.trace.json")) as fh:
            trace = json.load(fh)
        spans = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        self.assertTrue({"driver.sweep", "analysis.analyze", "mca.simulate",
                         "exec.run", "kernels.generate"} <= spans)


class CompareTest(unittest.TestCase):
    def write(self, directory, workload, values, failed=0):
        for seed, v in enumerate(values):
            rec = {"workload": workload, "seed": seed, "trace": 0,
                   "attempted": 100, "failed": failed,
                   "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                               for m in load_benchmark()["end_to_end"]}}
            with open(os.path.join(directory, "%s-seed%d-trace0.json" % (workload, seed)),
                      "w") as fh:
                json.dump(rec, fh)

    def verdict(self, parent, change, better="lower", bound=0.1):
        return compare.verdict(parent, change, better, bound)[0]

    def test_verdicts(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        self.assertEqual(self.verdict(parent, [v * 0.8 for v in parent]), "improved")
        self.assertEqual(self.verdict(parent, [v * 1.3 for v in parent]), "worse")
        self.assertEqual(self.verdict(parent, [v * 1.01 for v in parent]), "unchanged")
        noisy = [5, 15, 8, 12, 6, 14, 7, 13, 9, 11]
        self.assertEqual(self.verdict(noisy, [v * 1.05 for v in noisy]), "unresolved")
        self.assertEqual(self.verdict(parent, [v * 1.2 for v in parent], "higher"), "improved")

    def test_exit_status(self):
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            self.write(p, "matrix", [1.0] * 10)
            self.write(c, "matrix", [1.0] * 10)
            bench = load_benchmark()
            self.assertEqual(compare.compare(p, c, bench), 0)
            self.write(c, "matrix", [1.0] * 10, failed=1)
            self.assertEqual(compare.compare(p, c, bench), 1)


if __name__ == "__main__":
    unittest.main()
