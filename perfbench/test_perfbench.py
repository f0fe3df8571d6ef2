#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The statistics tests run instantly; the rest build the driver (once per
checkout) and run short benchmark runs, about a minute after the build.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 4.0)
        self.assertEqual(run.percentile(values, 50), 2.5)
        self.assertAlmostEqual(run.percentile(values, 99), 3.97)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNotNone(run.tail_percentile(list(range(1000)), 99))
        self.assertIsNone(run.tail_percentile(list(range(900)), 99))
        # Ties at the top leave nothing strictly beyond the percentile.
        self.assertIsNone(run.tail_percentile([1.0] * 5000, 99))

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10, 12, 9, 11, 30, 10, 11, 9, 12, 10]
        q1, q2, q3 = 9.75, 10.5, 12.0
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / q2)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def digest(self, workload, seed):
        done = subprocess.run(
            [str(run.DRIVER), "--workload", workload, "--seed", str(seed),
             "--digest-only"], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout)["digest"]

    def test_fixed_seed_gives_stable_corpus_digest(self):
        for workload in WORKLOADS + ["served_repeat"]:
            self.assertEqual(self.digest(workload, 2026),
                             self.digest(workload, 2026))
            self.assertNotEqual(self.digest(workload, 2026),
                                self.digest(workload, 2027))

    def test_driver_knows_the_benchmark_workloads(self):
        for workload in WORKLOADS + ["served_repeat"]:
            self.digest(workload, 1)
        done = subprocess.run([str(run.DRIVER), "--workload", "nope",
                               "--seed", "1", "--digest-only"],
                              capture_output=True)
        self.assertNotEqual(done.returncode, 0)

    def run_benchmark(self, workload, trace):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_output_names_exactly_the_benchmark_metrics(self):
        # served_repeat is not in BENCHMARK.json but runs on request; its
        # server gates (verdicts, SIGTERM exit) must keep working.
        for workload, trace, section in (
                ("cyclic5", 0, "end_to_end"), ("cyclic5", 1, "per_layer"),
                ("served_repeat", 0, "end_to_end"),
                ("served_repeat", 1, "per_layer")):
            result = self.run_benchmark(workload, trace)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(set(result["metrics"]), set(expected))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], expected[name])
                self.assertIsInstance(metric["value"], (int, float))

    def test_refuses_to_run_without_the_sources(self):
        bare = run.BUILD_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
