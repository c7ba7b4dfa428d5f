#!/usr/bin/env python3
"""Unit tests for tools/check_perf.py (run by ctest as check_perf_py).

Covers the counter-direction handling — a rate counter (pages/sec,
higher is better) must fail the gate when it drops and pass when it
rises, a cost counter (direction "lower", e.g. ns/window) the other
way around — plus --update re-baselining, --against, the
comparison with a parent run from the same host, the median over
repeated runs of one benchmark, and a benchmark that skipped itself
against one that failed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_PERF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "check_perf.py")


def results_json(value_by_name):
    """A minimal micro_mm_ops --benchmark_format=json document."""
    return {
        "benchmarks": [
            {"name": name, "run_type": "iteration", "counter": value}
            for name, value in value_by_name.items()
        ]
    }


def repeated_results_json(values_by_name):
    """The same with one iteration row per repetition, plus the
    aggregate rows google-benchmark appends (which the gate skips)."""
    rows = []
    for name, values in values_by_name.items():
        rows += [{"name": name, "run_type": "iteration",
                  "repetition_index": i, "counter": value}
                 for i, value in enumerate(values)]
        rows.append({"name": name + "_mean", "run_type": "aggregate",
                     "aggregate_name": "mean",
                     "counter": sum(values) / len(values)})
    return {"benchmarks": rows}


def baseline_json(spec_by_name):
    return {"counters": spec_by_name}


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, document):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return path

    def run_gate(self, results, baseline, *extra):
        results_path = self.write("results.json", results)
        baseline_path = self.write("baseline.json", baseline)
        proc = subprocess.run(
            [sys.executable, CHECK_PERF, results_path, baseline_path,
             *extra],
            capture_output=True, text=True)
        return proc, baseline_path

    def test_rate_counter_regresses_downward(self):
        # A 30% throughput loss on a higher-is-better counter must go
        # red past the default 25% fail threshold.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(results_json({"BM_Rate": 700.0}),
                                baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("::error::", proc.stdout)

    def test_rate_counter_improvement_passes(self):
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(results_json({"BM_Rate": 1300.0}),
                                baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("consider re-baselining", proc.stdout)

    def test_cost_counter_regresses_upward(self):
        # direction "lower": the same +30% that passes for a rate
        # counter is a regression for a cost counter.
        baseline = baseline_json(
            {"BM_Cost": {"counter": "counter", "value": 1000.0,
                         "direction": "lower"}})
        proc, _ = self.run_gate(results_json({"BM_Cost": 1300.0}),
                                baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("::error::", proc.stdout)

    def test_cost_counter_improvement_passes(self):
        baseline = baseline_json(
            {"BM_Cost": {"counter": "counter", "value": 1000.0,
                         "direction": "lower"}})
        proc, _ = self.run_gate(results_json({"BM_Cost": 700.0}),
                                baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_unknown_direction_is_an_error(self):
        baseline = baseline_json(
            {"BM_Bad": {"counter": "counter", "value": 1000.0,
                        "direction": "sideways"}})
        proc, _ = self.run_gate(results_json({"BM_Bad": 1000.0}),
                                baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("unknown direction", proc.stdout)

    def test_warn_band_does_not_fail(self):
        # 15% down: past --warn-pct 10 but inside --fail-pct 25.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(results_json({"BM_Rate": 850.0}),
                                baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("::warning::", proc.stdout)

    def test_update_rebaselines_and_keeps_direction(self):
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0},
             "BM_Cost": {"counter": "counter", "value": 50.0,
                         "direction": "lower"}})
        proc, baseline_path = self.run_gate(
            results_json({"BM_Rate": 700.0, "BM_Cost": 80.0}),
            baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        with open(baseline_path) as handle:
            updated = json.load(handle)
        self.assertEqual(updated["counters"]["BM_Rate"]["value"], 700.0)
        self.assertEqual(updated["counters"]["BM_Cost"]["value"], 80.0)
        self.assertEqual(updated["counters"]["BM_Cost"]["direction"],
                         "lower")
        # The re-baselined file must pass its own gate.
        proc2, _ = self.run_gate(
            results_json({"BM_Rate": 700.0, "BM_Cost": 80.0}), updated)
        self.assertEqual(proc2.returncode, 0, proc2.stdout)

    def test_against_compares_with_the_parent_run(self):
        # The parent's counters replace the pins: a counter far from its
        # pin passes when it matches the parent, and one 30% off the
        # parent fails in its own direction.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1.0},
             "BM_Cost": {"counter": "counter", "value": 1.0,
                         "direction": "lower"}})
        parent_path = self.write(
            "parent.json", results_json({"BM_Rate": 1000.0,
                                         "BM_Cost": 50.0}))
        proc, _ = self.run_gate(
            results_json({"BM_Rate": 1010.0, "BM_Cost": 49.0}), baseline,
            "--against", parent_path)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("parent", proc.stdout)
        self.assertNotIn("::warning::", proc.stdout)
        proc, _ = self.run_gate(
            results_json({"BM_Rate": 1000.0, "BM_Cost": 65.0}), baseline,
            "--against", parent_path)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("::error::perf gate: BM_Cost", proc.stdout)
        proc, _ = self.run_gate(
            results_json({"BM_Rate": 850.0, "BM_Cost": 50.0}), baseline,
            "--against", parent_path)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("::warning::perf gate: BM_Rate", proc.stdout)

    def test_against_fails_on_a_counter_the_parent_lacks(self):
        baseline = baseline_json(
            {"BM_New": {"counter": "counter", "value": 1000.0}})
        parent_path = self.write("parent.json", results_json({}))
        proc, _ = self.run_gate(results_json({"BM_New": 1000.0}),
                                baseline, "--against", parent_path)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("in the parent run", proc.stdout)

    def test_against_and_update_are_exclusive(self):
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        parent_path = self.write("parent.json",
                                 results_json({"BM_Rate": 1000.0}))
        proc, baseline_path = self.run_gate(
            results_json({"BM_Rate": 700.0}), baseline, "--update",
            "--against", parent_path)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        with open(baseline_path) as handle:
            self.assertEqual(json.load(handle), baseline)

    def test_median_inside_the_bound_passes(self):
        # One repetition 40% down, but the median is 2% down: the gate
        # judges the median, not the last or worst row.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(
            repeated_results_json({"BM_Rate": [1000.0, 980.0, 600.0]}),
            baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("::warning::", proc.stdout)
        self.assertIn("980", proc.stdout)

    def test_median_past_the_bound_fails(self):
        # The last repetition matches the pin, but the median is 30%
        # down.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(
            repeated_results_json({"BM_Rate": [700.0, 650.0, 1000.0]}),
            baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("::error::perf gate: BM_Rate", proc.stdout)

    def test_update_and_against_take_medians(self):
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1.0}})
        proc, baseline_path = self.run_gate(
            repeated_results_json({"BM_Rate": [900.0, 1000.0, 1200.0]}),
            baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        with open(baseline_path) as handle:
            updated = json.load(handle)
        self.assertEqual(updated["counters"]["BM_Rate"]["value"], 1000.0)
        parent_path = self.write(
            "parent.json",
            repeated_results_json({"BM_Rate": [1000.0, 1010.0, 100.0]}))
        proc, _ = self.run_gate(
            repeated_results_json({"BM_Rate": [990.0, 980.0, 2000.0]}),
            baseline, "--against", parent_path)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("::warning::", proc.stdout)

    def test_skipped_benchmark_is_reported_not_failed(self):
        # google-benchmark's row for a SkipWithError("skipped: ...")
        # carries no counter; the gate notes it and keeps its pin.
        baseline = baseline_json(
            {"BM_Rate": {"counter": "counter", "value": 1000.0},
             "BM_Ahead": {"counter": "counter", "value": 2000.0}})
        results = results_json({"BM_Rate": 1000.0})
        results["benchmarks"].append(
            {"name": "BM_Ahead", "run_type": "iteration",
             "error_occurred": True,
             "error_message": "skipped: needs a second CPU"})
        proc, _ = self.run_gate(results, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("::notice::perf gate: benchmark 'BM_Ahead' skipped:",
                      proc.stdout)
        self.assertRegex(proc.stdout, r"BM_Ahead .* skipped")
        self.assertNotIn("::error::", proc.stdout)
        proc, baseline_path = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        with open(baseline_path) as handle:
            updated = json.load(handle)
        self.assertEqual(updated["counters"]["BM_Ahead"]["value"], 2000.0)

    def test_other_benchmark_error_fails(self):
        baseline = baseline_json(
            {"BM_Broken": {"counter": "counter", "value": 1000.0}})
        results = {"benchmarks": [
            {"name": "BM_Broken", "run_type": "iteration",
             "error_occurred": True, "error_message": "setup failed"}]}
        proc, _ = self.run_gate(results, baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("::error::perf gate: benchmark 'BM_Broken' failed: "
                      "setup failed", proc.stdout)
        self.assertNotIn("::notice::", proc.stdout)

    def test_missing_benchmark_fails(self):
        baseline = baseline_json(
            {"BM_Gone": {"counter": "counter", "value": 1000.0}})
        proc, _ = self.run_gate(results_json({}), baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)


if __name__ == "__main__":
    unittest.main()
