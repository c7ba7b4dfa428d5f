#!/usr/bin/env python3
"""Compare a micro_mm_ops --benchmark_format=json run against the
checked-in performance baseline (bench/perf_baseline.json).

The baseline pins benchmark *counters* (pages/sec-style rates by
default), not wall-clock times, so the gate is insensitive to how long
the benchmark harness chose to run. Each baseline entry may declare a
"direction": "higher" (the default — rate counters regress downward)
or "lower" (cost counters such as ns/window regress upward). For every
counter named in the baseline:

    direction "higher":  regression % = (baseline - current) / baseline * 100
    direction "lower":   regression % = (current - baseline) / baseline * 100

Exit status is 1 if any counter regressed more than --fail-pct
(default 25%), otherwise 0. Regressions beyond --warn-pct (default
10%) print a warning; improvements beyond --warn-pct suggest
re-baselining. Output uses GitHub workflow commands (::error:: /
::warning::) so the annotations land on the PR.

Re-baselining (after an intentional perf change, on the CI runner
class the baseline documents):

    bench/micro_mm_ops --benchmark_format=json \
        --benchmark_repetitions=3 > results.json
    tools/check_perf.py results.json bench/perf_baseline.json --update

Single runs of the same binary differ by 10% and more on a shared host,
so run the benchmarks with --benchmark_repetitions=N: each counter is
judged by its median over the N iteration rows that share a benchmark
name (in the results, the --against parent run and --update alike).

A benchmark that cannot run on the host (BM_SyntheticBatchAhead and
BM_SyntheticServiceCalls on one CPU) reports error_occurred with an
error_message starting "skipped:". The gate prints a ::notice:: for it,
lists it as skipped and keeps its pin; any other error fails the gate.

Pins taken on another machine class say little about this one. To judge
a change on one host, run micro_mm_ops from the parent tree and from
the change on that host, then compare the two result files with
--against: the parent's counters stand in for the pinned values, and
the baseline supplies only the counter names, directions and the same
thresholds.

    tools/check_perf.py change.json bench/perf_baseline.json \
        --against parent.json

Usage:
    check_perf.py RESULTS_JSON BASELINE_JSON [--fail-pct N]
                  [--warn-pct N] [--update | --against PARENT_JSON]
"""

import argparse
import json
import statistics
import sys


SKIP_PREFIX = "skipped:"


def load_errors(results):
    """Map benchmark name -> the error_message of its first row that
    reports error_occurred (a skip starts with SKIP_PREFIX)."""
    errors = {}
    for bench in results.get("benchmarks", []):
        name = bench.get("name")
        if name is not None and bench.get("error_occurred"):
            errors.setdefault(name, str(bench.get("error_message", "")))
    return errors


def load_counters(results):
    """Map benchmark name -> counters dict, each counter the median over
    the iteration rows of that name (one per repetition). Aggregate rows
    (google-benchmark's own _mean/_median/...) and error rows are
    skipped."""
    samples = {}
    for bench in results.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or \
                bench.get("error_occurred"):
            continue
        name = bench.get("name")
        if name is None:
            continue
        row = samples.setdefault(name, {})
        for key, value in bench.items():
            if isinstance(value, (int, float)):
                row.setdefault(key, []).append(value)
    return {
        name: {key: statistics.median(values) for key, values in row.items()}
        for name, row in samples.items()
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("results", help="micro_mm_ops JSON output")
    parser.add_argument("baseline", help="bench/perf_baseline.json")
    parser.add_argument("--fail-pct", type=float, default=25.0,
                        help="regression %% that fails the gate")
    parser.add_argument("--warn-pct", type=float, default=10.0,
                        help="regression %% that warns")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true",
                      help="write current values into the baseline")
    mode.add_argument("--against", metavar="PARENT_JSON",
                      help="compare with a parent run from the same "
                           "host instead of the pinned values")
    args = parser.parse_args()

    with open(args.results) as handle:
        results = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    parent = None
    parent_errors = {}
    if args.against:
        with open(args.against) as handle:
            parent_results = json.load(handle)
        parent = load_counters(parent_results)
        parent_errors = load_errors(parent_results)

    measured = load_counters(results)
    errors = load_errors(results)
    failures = 0
    warnings = 0
    rows = []

    for name, spec in sorted(baseline.get("counters", {}).items()):
        counter = spec["counter"]
        error = errors.get(name, parent_errors.get(name))
        if error is not None:
            if error.startswith(SKIP_PREFIX):
                print(f"::notice::perf gate: benchmark '{name}' "
                      f"{error}")
                rows.append((name, counter, spec["value"], None,
                             "skipped"))
            else:
                print(f"::error::perf gate: benchmark '{name}' failed: "
                      f"{error}")
                failures += 1
            continue
        if parent is None:
            pinned = float(spec["value"])
        elif parent.get(name, {}).get(counter) is None:
            print(f"::error::perf gate: benchmark '{name}' reports no "
                  f"'{counter}' counter in the parent run")
            failures += 1
            continue
        else:
            pinned = float(parent[name][counter])
        direction = spec.get("direction", "higher")
        if direction not in ("higher", "lower"):
            print(f"::error::perf gate: baseline for '{name}' has "
                  f"unknown direction '{direction}' (want higher|lower)")
            failures += 1
            continue
        bench = measured.get(name)
        if bench is None:
            print(f"::error::perf gate: benchmark '{name}' missing "
                  f"from results (did the --benchmark_filter drop it?)")
            failures += 1
            continue
        current = bench.get(counter)
        if current is None:
            print(f"::error::perf gate: benchmark '{name}' reports no "
                  f"'{counter}' counter")
            failures += 1
            continue
        current = float(current)
        if args.update:
            spec["value"] = current
            rows.append((name, counter, pinned, current, "updated"))
            continue
        if pinned <= 0:
            print(f"::error::perf gate: baseline for '{name}' is "
                  f"non-positive ({pinned}); re-baseline with --update")
            failures += 1
            continue
        if direction == "lower":
            regression = (current - pinned) / pinned * 100.0
        else:
            regression = (pinned - current) / pinned * 100.0
        rows.append((name, counter, pinned, current,
                     f"{-regression:+.1f}%"))
        if regression > args.fail_pct:
            print(f"::error::perf gate: {name} {counter} regressed "
                  f"{regression:.1f}% ({pinned:.3g} -> {current:.3g}, "
                  f"fail threshold {args.fail_pct:g}%)")
            failures += 1
        elif regression > args.warn_pct:
            print(f"::warning::perf gate: {name} {counter} regressed "
                  f"{regression:.1f}% ({pinned:.3g} -> {current:.3g})")
            warnings += 1
        elif -regression > args.warn_pct:
            print(f"::warning::perf gate: {name} {counter} improved "
                  f"{-regression:.1f}% ({pinned:.3g} -> {current:.3g}); "
                  f"consider re-baselining with --update")

    reference = "baseline" if parent is None else "parent"
    header = f"{'benchmark':32} {'counter':16} {reference:>12} " \
             f"{'current':>12} {'delta':>8}"
    print(header)
    print("-" * len(header))
    for name, counter, pinned, current, delta in rows:
        shown = "-" if current is None else f"{current:12.4g}"
        print(f"{name:32} {counter:16} {float(pinned):12.4g} "
              f"{shown:>12} {delta:>8}")

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if failures:
        print(f"perf gate: FAIL ({failures} counter(s) past "
              f"{args.fail_pct:g}%)")
        return 1
    status = f"{warnings} warning(s)" if warnings else "all green"
    print(f"perf gate: OK ({status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
