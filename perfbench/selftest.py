#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

* the metric and workload names the command prints match
  ``BENCHMARK.json`` exactly, with units, and are well-formed;
* a perturbed correctness reference makes its point fail, and the run
  still completes with a result line;
* the traced run's layer self times sum to its wall time within 5%;
* ``references.json`` covers the default and the held-out seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import METRICS  # noqa: E402

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def command_result(workload: str, trace: int) -> dict:
    """The last stdout line of one short run of the real command."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
        cwd=run.ROOT)
    return json.loads(completed.stdout.strip().splitlines()[-1])


class BenchmarkNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.untraced = command_result("fuzz", 0)
        cls.traced = command_result("fuzz", 1)

    def test_workloads_match(self) -> None:
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_end_to_end_metrics_match(self) -> None:
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        printed = {name: value["unit"]
                   for name, value in self.untraced["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_per_layer_metrics_match(self) -> None:
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        printed = {name: value["unit"]
                   for name, value in self.traced["metrics"].items()}
        self.assertEqual(printed, declared)
        self.assertEqual(list(printed), [name for name, _ in METRICS])

    def test_names_are_well_formed(self) -> None:
        names = ([w["name"] for w in self.spec["workloads"]]
                 + list(self.untraced["metrics"])
                 + list(self.traced["metrics"]))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_result_lines_are_correct(self) -> None:
        for result in (self.untraced, self.traced):
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)

    def test_layer_self_times_sum_to_run_time(self) -> None:
        ratio = self.traced["metrics"]["tracing.layer_sum_ratio"]["value"]
        self.assertAlmostEqual(ratio, 1.0, delta=0.05)


class References(unittest.TestCase):
    def test_default_and_held_out_seeds_recorded(self) -> None:
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                reference = run.load_references(workload, seed)
                self.assertTrue(reference, f"{workload} seed {seed}")

    def test_perturbed_reference_fails_its_point(self) -> None:
        reference = dict(run.load_references("processor", run.DEFAULT_SEED))
        label = sorted(reference)[0]
        reference[label] = "0" * 16
        outcome = run.run_workload("processor", run.DEFAULT_SEED, 0,
                                   trace=False, references=reference)
        self.assertEqual(outcome["failed"], 1)
        self.assertEqual(outcome["attempted"], len(reference))
        line = run.report("processor", run.DEFAULT_SEED, outcome)
        self.assertFalse(json.loads(line.splitlines()[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
