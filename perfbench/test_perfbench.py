#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root (takes a few minutes; builds on first use):

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and the benchmark's output agree on metric names
and units, that names and counts stay within the result contract, that
every simulated result repeats bit for bit across invocations and between
the timed and traced runs, and that a non-default seed changes the inputs.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SIM = re.compile(r"^\[sim\] (\S+)=(\S+)$")
INPUTS = re.compile(r"^\[inputs\] (\S+)$")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds="1"):
    """Run the benchmark; returns (result JSON, sim values, input digest)."""
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{p.returncode}:\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    sim = dict(m.groups() for m in map(SIM.match, lines) if m)
    digest = [m.group(1) for m in map(INPUTS.match, lines) if m]
    return json.loads(lines[-1]), sim, digest[0] if digest else None


class Contract(unittest.TestCase):
    def test_metric_names_and_counts(self):
        b = bench()
        self.assertLessEqual(len(b["end_to_end"]), 16)
        self.assertLessEqual(len(b["per_layer"]), 128)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in b["end_to_end"]])
        self.assertEqual({w["name"] for w in b["workloads"]},
                         {"paper-sweep", "noc-mesh"})


class Determinism(unittest.TestCase):
    """Per workload: two timed runs and one traced run at seed 0."""

    def check_workload(self, workload):
        b = bench()
        timed = [run(workload, 0, 0) for _ in range(2)]
        traced = run(workload, 0, 1)
        for result, _, _ in timed:
            self.assertTrue(result["correct"], result)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in b["end_to_end"]})
            for m in b["end_to_end"]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertGreater(result["metrics"][m["name"]]["value"], 0)
        result, sim, _ = traced
        self.assertTrue(result["correct"], result)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in b["per_layer"]})
        for m in b["per_layer"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        # Bit-identical simulated results: the printed %.17g strings round
        # trip doubles exactly, so string equality is bit equality.
        self.assertTrue(sim)
        self.assertEqual(timed[0][1], timed[1][1])
        self.assertEqual(timed[0][1], sim)
        for name, text in sim.items():
            self.assertEqual(float(text), result["metrics"][name]["value"])
        self.assertEqual(timed[0][2], timed[1][2])
        self.assertEqual(timed[0][2], traced[2])

    def test_noc_mesh(self):
        self.check_workload("noc-mesh")

    def test_paper_sweep(self):
        self.check_workload("paper-sweep")


class Seeds(unittest.TestCase):
    def test_non_default_seed_changes_inputs(self):
        for workload in ("paper-sweep", "noc-mesh"):
            _, sim0, in0 = run(workload, 0, 0)
            _, sim1, in1 = run(workload, 1, 0)
            self.assertIsNotNone(in0)
            self.assertNotEqual(in0, in1, workload)
            self.assertNotEqual(sim0, sim1, workload)


if __name__ == "__main__":
    unittest.main(verbosity=2)
