#!/usr/bin/env python3
"""Summarize google-benchmark JSON output (the tracked perf trajectories).

Usage:
  tools/bench_report.py BENCH_mpc.json [BENCH_fleet.json ...] \\
      [--baseline bench/results/BENCH_mpc.json]

Accepts any number of results files and prints one table per file, one row
per benchmark with its real time. When a baseline file is given, rows whose
names appear in the baseline also get the baseline time and the speedup
(baseline / current); files with no overlap simply omit those columns. CI
runs this after `bench_micro_solver --benchmark_out=BENCH_mpc.json` and
`bench_fleet --benchmark_out=BENCH_fleet.json` so every PR records how the
solver and the fleet engine moved. Exit code is 1 if any report cannot be
produced (missing or corrupt file) and 0 otherwise; regressions are
reported, not failed, since shared CI runners are too noisy for a hard gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# Factors to nanoseconds, keyed by google-benchmark's time_unit field.
_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path: pathlib.Path) -> dict[str, float]:
    """Map benchmark name -> real time in ns (iteration runs only)."""
    with path.open(encoding="utf-8") as fh:
        data = json.load(fh)
    result: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregates of --benchmark_repetitions
        unit = _TO_NS.get(bench.get("time_unit", "ns"), 1.0)
        result[bench["name"]] = float(bench["real_time"]) * unit
    return result


def fmt_time(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def print_table(title: str, current: dict[str, float],
                baseline: dict[str, float]) -> None:
    # Only show baseline columns when this file has rows the baseline knows.
    compare = baseline if any(n in baseline for n in current) else {}
    name_w = max(len(n) for n in current)
    header = f"{'benchmark':<{name_w}}  {'time':>10}"
    if compare:
        header += f"  {'baseline':>10}  {'speedup':>8}"
    print(f"== {title}")
    print(header)
    print("-" * len(header))
    for name, time_ns in current.items():
        row = f"{name:<{name_w}}  {fmt_time(time_ns):>10}"
        if compare:
            base_ns = compare.get(name)
            if base_ns is None:
                row += f"  {'-':>10}  {'-':>8}"
            else:
                row += f"  {fmt_time(base_ns):>10}  {base_ns / time_ns:>7.2f}x"
        print(row)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+", help="google-benchmark JSON output file(s)")
    parser.add_argument(
        "--baseline",
        help="earlier google-benchmark JSON to compare against (speedup = baseline/current)",
    )
    args = parser.parse_args()

    baseline: dict[str, float] = {}
    if args.baseline:
        try:
            baseline = load_benchmarks(pathlib.Path(args.baseline))
        except (OSError, ValueError, KeyError) as err:
            print(f"bench_report.py: cannot read {args.baseline}: {err}", file=sys.stderr)
            return 1

    status = 0
    for index, results in enumerate(args.results):
        try:
            current = load_benchmarks(pathlib.Path(results))
        except (OSError, ValueError, KeyError) as err:
            print(f"bench_report.py: cannot read {results}: {err}", file=sys.stderr)
            status = 1
            continue
        if not current:
            print(f"bench_report.py: no benchmarks in {results}", file=sys.stderr)
            status = 1
            continue
        if index > 0:
            print()
        print_table(results, current, baseline)
    return status


if __name__ == "__main__":
    sys.exit(main())
