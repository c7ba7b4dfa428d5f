#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark through perfbench/run.py (into .bench_build/ under
the checkout root) and checks, on short --smoke runs of every workload:

  - the timing subclasses are observational: each traced run (and, on
    the shard workload, the one-worker run) reproduces the untraced
    fingerprint, so the benchmark reports correct with nothing failed,
    and the end-to-end mode's counting runs hash the same as the traced
    mode's runs of the seed;
  - the report names every metric BENCHMARK.json declares, with its
    unit, in the text report and in the JSON line;
  - an unknown workload name or a malformed argument is rejected with a
    non-zero exit and no result line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (the wrapper under test)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def setUpModule():
    run.build()


def bench(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s%s"
                             % (workload, trace, proc.returncode,
                                proc.stdout, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {(w, t): smoke(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_timing_subclasses_are_observational(self):
        for (workload, trace), (_, result) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                # Two runs at least (a repeat, or an untraced and a
                # traced run); the shard workload's traced mode adds its
                # one-worker run.
                self.assertGreaterEqual(result["attempted"], 2)
                if trace and workload.endswith("-shards"):
                    self.assertGreaterEqual(result["attempted"], 3)

    def test_both_modes_simulate_the_same_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                fingerprints = {
                    line.split()[-1]
                    for trace in (0, 1)
                    for line in self.runs[(workload, trace)][0]
                    if line.startswith("run ")}
                self.assertEqual(len(fingerprints), 1, fingerprints)

    def test_report_names_every_metric_with_its_unit(self):
        for (workload, trace), (text, result) in self.runs.items():
            declared = SPEC["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(
                    sorted(result["metrics"]),
                    sorted(m["name"] for m in declared))
                for m in declared:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                    self.assertTrue(any(
                        line.split()[:1] == [m["name"]]
                        and line.split()[-1] == m["unit"]
                        for line in text), m["name"])

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            metrics = self.runs[(workload, 0)][1]["metrics"]
            for name, metric in metrics.items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)


class BadInput(unittest.TestCase):
    def assertRejected(self, *args):
        proc = bench(*args)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn('"correct"', proc.stdout)

    def test_unknown_workload(self):
        self.assertRejected("--workload", "nope", "--seed", "1",
                            "--seconds", "1", "--trace", "0")

    def test_malformed_seed(self):
        for seed in ("x1", "-3", "1.5", "1e3", ""):
            with self.subTest(seed=seed):
                self.assertRejected("--workload", WORKLOADS[0], "--seed",
                                    seed, "--seconds", "1", "--trace", "0")

    def test_malformed_trace_and_seconds(self):
        self.assertRejected("--workload", WORKLOADS[0], "--seed", "1",
                            "--seconds", "1", "--trace", "2")
        self.assertRejected("--workload", WORKLOADS[0], "--seed", "1",
                            "--seconds", "0", "--trace", "0")


if __name__ == "__main__":
    unittest.main()
