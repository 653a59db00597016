#!/usr/bin/env python3
"""CI perf-regression gate.

Compares BENCH_<name>.json records (emitted by bench binaries via
bench/bench_runner.h --json) against the committed baselines in
bench/baselines/. A gated metric regressing by more than the tolerance
fails the job; metrics not listed in the baseline's "gate" map are
reported but never gate.

Usage:
    python3 bench/check_perf.py RESULT.json [RESULT2.json ...] \
        [--baseline-dir bench/baselines] [--tolerance 0.25]

Baseline files are plain bench records plus a "gate" map:
    "gate": { "queries_per_s": "higher", "latency_p50_ms": "lower" }
"higher" = the metric must not drop below baseline*(1-tol);
"lower"  = the metric must not rise above baseline*(1+tol).

A gate value may also be an object for per-metric settings:
    "gate": { "tracing_overhead_pct": {"direction": "lower", "slack": 25},
              "alloc_per_query": {"direction": "lower", "tolerance": 1.0} }
"tolerance" overrides the global --tolerance for that metric;
"slack" widens the bound by an absolute amount (floor - slack or
ceiling + slack), which keeps near-zero counters gateable.

Refresh baselines with bench/update_baselines.sh after a deliberate
performance change.

Stdlib only — no third-party deps.
"""

import argparse
import json
import os
import sys

DEFAULT_TOLERANCE = 0.25


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(result, baseline, tolerance):
    """Yields (metric, current, base, direction, ok, note) rows."""
    gates = baseline.get("gate", {})
    base_metrics = baseline.get("metrics", {})
    cur_metrics = result.get("metrics", {})
    for metric, gate in gates.items():
        if isinstance(gate, dict):
            direction = gate.get("direction")
            tol = gate.get("tolerance", tolerance)
            slack = gate.get("slack", 0.0)
        else:
            direction, tol, slack = gate, tolerance, 0.0
        base = base_metrics.get(metric)
        cur = cur_metrics.get(metric)
        if base is None:
            yield metric, cur, base, direction, False, "missing in baseline"
            continue
        if cur is None:
            yield metric, cur, base, direction, False, "missing in result"
            continue
        if direction == "higher":
            floor = base * (1.0 - tol) - slack
            ok = cur >= floor
            note = f"floor {floor:.6g}"
        elif direction == "lower":
            ceil = base * (1.0 + tol) + slack
            ok = cur <= ceil
            note = f"ceiling {ceil:.6g}"
        else:
            ok, note = False, f"bad direction {direction!r}"
        yield metric, cur, base, direction, ok, note


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def write_summary(path, rows):
    """Appends a baseline-vs-current markdown table (GITHUB_STEP_SUMMARY)."""
    with open(path, "a") as f:
        f.write("### Perf gate\n\n")
        f.write("| bench | metric | current | baseline | gate | status |\n")
        f.write("|---|---|---|---|---|---|\n")
        for name, metric, cur, base, direction, ok, note in rows:
            status = "✅" if ok else "❌ FAIL"
            f.write(f"| {name} | {metric} | {fmt(cur)} | {fmt(base)} "
                    f"| {direction} ({note}) | {status} |\n")
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("results", nargs="+", help="BENCH_<name>.json files")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="relative regression tolerance (default 0.25)")
    ap.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="append a markdown comparison table to this file "
                         "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = ap.parse_args()

    failures = 0
    summary_rows = []
    for result_path in args.results:
        result = load(result_path)
        name = result.get("bench")
        if not name:
            print(f"FAIL {result_path}: no \"bench\" field")
            failures += 1
            continue
        baseline_path = os.path.join(args.baseline_dir,
                                     f"BENCH_{name}.json")
        if not os.path.exists(baseline_path):
            print(f"FAIL {result_path}: no baseline {baseline_path} "
                  f"(run bench/update_baselines.sh)")
            failures += 1
            continue
        baseline = load(baseline_path)
        print(f"== {name} (tolerance {args.tolerance:.0%}) ==")
        gated = 0
        for metric, cur, base, direction, ok, note in compare(
                result, baseline, args.tolerance):
            gated += 1
            status = "ok  " if ok else "FAIL"
            print(f"  {status} {metric}: {fmt(cur)} vs baseline {fmt(base)} "
                  f"({direction}, {note})")
            summary_rows.append((name, metric, cur, base, direction, ok,
                                 note))
            if not ok:
                failures += 1
        if gated == 0:
            print(f"  (baseline gates no metrics — nothing enforced)")
    if args.summary and summary_rows:
        write_summary(args.summary, summary_rows)
    if failures:
        print(f"\nperf gate: {failures} failure(s)")
        return 1
    print("\nperf gate: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
