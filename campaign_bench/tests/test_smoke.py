#!/usr/bin/env python3
"""Smoke test for the campaign benchmark.

Runs every workload at a tiny simulated budget, untraced and traced, and
checks that each metric BENCHMARK.json names is printed with its unit and
that no cell fails. From the repository root:

    python3 campaign_bench/tests/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
TINY_BUDGET_MS = 60_000


def bench_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--budget-ms", str(TINY_BUDGET_MS)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace, expected):
        lines, result = bench_run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], float, m["name"])
        self.assertTrue(any(line.startswith("host: ") for line in lines))
        if trace:
            self.assertTrue(any(line.startswith("stepped: ") for line in lines))
            self.assertTrue(any(line.startswith("add-up: ") for line in lines))

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check(workload, 0, self.spec["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check(workload, 1, self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
