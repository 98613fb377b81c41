#!/usr/bin/env python3
"""Self-tests of the EBLNet benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark (as run.py does), runs
the eblbench_selftest binary (fingerprint identical at 1 and 2 runner
workers and with tracing on; every correctness check rejects a
deliberately wrong input), then runs every workload briefly in both modes
through run.py and checks that the metric names printed are exactly
BENCHMARK.json's, use only [A-Za-z0-9_.-], and that every run passed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_selftest_binary(self):
        proc = subprocess.run([os.path.join(self.build_dir, "eblbench_selftest")],
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_declared_names_are_well_formed(self):
        bench = benchmark()
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME_RE)

    def test_printed_metrics_match_benchmark_json(self):
        bench = benchmark()
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, cwd=ROOT, timeout=180)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    for name in printed:
                        self.assertRegex(name, NAME_RE)
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in bench[key]})


if __name__ == "__main__":
    unittest.main()
