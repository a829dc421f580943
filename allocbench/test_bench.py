#!/usr/bin/env python3
"""Self-tests of the benchmark harness. Run from the repository root:

    python3 allocbench/test_bench.py

They build the binary (as run.py does) and use the fastest workload for the
end-to-end checks; set ALLOCBENCH_SLOW_TESTS=1 to also replay cold_solve and
warm_churn under tracing (about a minute each).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Relative to the working directory, as the benchmark's command is.
RUN = [sys.executable, "allocbench/run.py"]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the module under test)


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(RUN + [str(a) for a in args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.splitlines()[-1])


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def binary(self, *args):
        return subprocess.run([str(run.BINARY)] + [str(a) for a in args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=600)

    def test_emitted_names_are_in_manifest(self):
        spec = manifest()
        declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = self.binary("--workload", "sim_replay", "--seed", 3,
                               "--seconds", 0.5, "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            raw = result_of(done)
            for name in raw["metrics"]:
                self.assertRegex(name, NAME_RE)
                self.assertIn(name, declared)
            shown = run.validate(raw, spec, trace)
            self.assertEqual(list(shown["metrics"]),
                             [m["name"] for m in spec[kind]])

    def test_undeclared_metric_is_refused(self):
        raw = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {"no_such_metric": {"value": 1.0, "unit": "s"}}}
        with self.assertRaises(SystemExit):
            run.validate(raw, manifest(), 1)

    def test_unknown_workload_exits_nonzero(self):
        done = run_bench("--workload", "no_such_workload", "--seed", 1,
                         "--seconds", 1, "--trace", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(done.stdout.strip())
        direct = self.binary("--workload", "no_such_workload", "--seed", 1,
                             "--seconds", 1, "--trace", 0)
        self.assertNotEqual(direct.returncode, 0)
        self.assertFalse(direct.stdout.strip())

    def test_seed_changes_inputs(self):
        for workload in (w["name"] for w in manifest()["workloads"]):
            prints = [self.binary("--fingerprint", 1, "--workload", workload,
                                  "--seed", seed).stdout.strip()
                      for seed in (5, 5, 6)]
            self.assertTrue(prints[0], workload)
            self.assertEqual(prints[0], prints[1], workload)
            self.assertNotEqual(prints[0], prints[2], workload)

    def assert_replay_matches(self, workload, seconds):
        # A failed operation (warm_churn's known infeasible epochs) is not
        # a harness failure; a replay that differs from the solve is.
        done = run_bench("--workload", workload, "--seed", 11,
                         "--seconds", seconds, "--trace", 1)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertNotIn("check failed", done.stdout)
        result = result_of(done)
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["trace.replay_s"]["value"], 0)

    def test_traced_replay_equals_untraced_solve(self):
        self.assert_replay_matches("sim_replay", 0.5)

    @unittest.skipUnless(os.environ.get("ALLOCBENCH_SLOW_TESTS"),
                         "set ALLOCBENCH_SLOW_TESTS=1")
    def test_traced_replay_equals_untraced_solve_at_scale(self):
        self.assert_replay_matches("cold_solve", 1)
        self.assert_replay_matches("warm_churn", 1)

    def test_bare_benchmark_directory_fails_cleanly(self):
        bare = run.BUILD_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in manifest()["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "cold_solve", "--seed", 1,
                             "--seconds", 1, "--trace", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertFalse(done.stdout.strip())
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
