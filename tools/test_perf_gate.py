#!/usr/bin/env python3
"""Tests of tools/perf_gate.py's decision rule on synthetic run records.

    python3 tools/test_perf_gate.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_gate import GATED_METRIC, decide  # noqa: E402


def benchmark(bound=0.25, better="lower"):
    return {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "setup_s", "better": "lower", "bound": 0.01},
            {"name": GATED_METRIC, "better": better, "bound": bound},
        ],
    }


def run(tree, value, exit=0, failed=0, attempted=10):
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {GATED_METRIC: {"value": value, "unit": "s"}}}
    return {"tree": tree, "workload": "w", "exit": exit,
            "result": None if exit else result}


def runs(base, head):
    return [run("base", v) for v in base] + [run("head", v) for v in head]


class DecideTest(unittest.TestCase):
    def failures(self, records, **spec):
        return decide(benchmark(**spec), records)[1]

    def test_identical_runs_pass(self):
        self.assertEqual(self.failures(runs([1.0] * 5, [1.0] * 5)), [])

    def test_regression_inside_bound_passes(self):
        # Median 1.0 -> 1.2: 20% worse, under the 25% bound.
        records = runs([0.9, 1.0, 1.1], [1.1, 1.2, 1.3])
        self.assertEqual(self.failures(records), [])

    def test_regression_past_bound_fails_and_names_workload(self):
        records = runs([0.9, 1.0, 1.1], [1.2, 1.3, 1.4])
        failures = self.failures(records)
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("w: " + GATED_METRIC))

    def test_median_ignores_one_outlier(self):
        records = runs([1.0, 1.0, 1.0], [1.0, 1.0, 9.0])
        self.assertEqual(self.failures(records), [])

    def test_nonzero_head_exit_fails(self):
        records = runs([1.0] * 3, [1.0] * 3) + [run("head", 0, exit=1)]
        failures = self.failures(records)
        self.assertEqual(failures, ["w: 1 head run(s) exited nonzero"])

    def test_nonzero_base_exit_alone_passes(self):
        records = runs([1.0] * 3, [1.0] * 3) + [run("base", 0, exit=1)]
        self.assertEqual(self.failures(records), [])

    def test_higher_failed_share_fails(self):
        records = runs([1.0] * 3, [1.0] * 2) + [run("head", 1.0, failed=1)]
        failures = self.failures(records)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_equal_failed_share_passes(self):
        records = [run("base", 1.0, failed=1), run("head", 1.0, failed=1)]
        self.assertEqual(self.failures(records), [])

    def test_bound_is_read_from_benchmark(self):
        records = runs([1.0] * 3, [1.1] * 3)  # 10% worse
        self.assertEqual(self.failures(records, bound=0.25), [])
        self.assertEqual(len(self.failures(records, bound=0.05)), 1)

    def test_direction_is_read_from_benchmark(self):
        faster = runs([1.0] * 3, [0.5] * 3)
        self.assertEqual(self.failures(faster, better="lower"), [])
        self.assertEqual(len(self.failures(faster, better="higher")), 1)
        self.assertEqual(
            self.failures(runs([1.0] * 3, [1.5] * 3), better="higher"), [])

    def test_repo_benchmark_declares_the_gated_metric(self):
        root = Path(__file__).resolve().parent.parent
        with open(root / "BENCHMARK.json") as f:
            declared = json.load(f)
        records = [dict(r, workload=w["name"])
                   for w in declared["workloads"]
                   for r in runs([1.0], [1.0])]
        report, failures = decide(declared, records)
        self.assertEqual(failures, [])
        self.assertEqual(len(report), len(declared["workloads"]))


if __name__ == "__main__":
    unittest.main()
