#!/usr/bin/env python3
"""Hard-gate headline benchmark metrics against committed baselines.

Usage:
  tools/bench_guard.py BENCH_mpc.json=bench/results/BENCH_mpc.json \\
      BENCH_fleet.json=bench/results/BENCH_fleet.json [--tolerance 4.0]

Each positional argument is a CURRENT=BASELINE pair of google-benchmark JSON
files. Benchmarks are matched by name; a run fails (exit 1) when any matched
benchmark's real time exceeds baseline * tolerance. Unlike bench_report.py —
which narrates the perf trajectory without judging it — this is a gate, so
the tolerance is deliberately generous (default 4x): shared CI runners jitter
by integer factors, and the gate exists to catch order-of-magnitude
accidents (a debug-build binary, an O(n^2) slip in the solver hot loop, an
event queue that stopped recycling), not single-digit-percent drift.

Benchmarks present on only one side are reported and ignored: new benchmarks
should not fail the gate, and retired ones should not block until the
baseline is regenerated. A baseline whose names ALL miss the current run
fails, though — that means the wrong file pair was wired up.

--require NAME (repeatable) upgrades silence to failure for specific names:
the run fails unless NAME was matched — present in both the current run and
the baseline — in at least one pair. Use it for benchmarks the gate must
actually cover — without it, a renamed or silently dropped benchmark
degrades into an ignored "new"/"retired" note and the gate stops gating it.

--require-faster FAST=SLOW (repeatable) asserts an ordering *within the
current run*: the run fails unless both names are present in the current
side of some pair and real_time(FAST) < real_time(SLOW). This gates
speedups that must hold on the runner itself regardless of baseline drift —
e.g. the sharded fleet engine beating the serial engine at equal fleet size
(BM_FleetRun/10000/0/real_time vs BM_FleetRun/10000/1/real_time; rows
registered with UseRealTime() carry the /real_time suffix). Both rows come
from the same process on the same machine, so no cross-run tolerance
applies.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from bench_report import fmt_time, load_benchmarks


def guard(current_path: pathlib.Path, baseline_path: pathlib.Path,
          tolerance: float, matched_out: set[str],
          current_out: dict[str, float]) -> int:
    current = load_benchmarks(current_path)
    baseline = load_benchmarks(baseline_path)
    matched = sorted(set(current) & set(baseline))
    matched_out.update(matched)
    current_out.update(current)
    if not matched:
        print(f"bench_guard.py: {current_path} and {baseline_path} share no "
              f"benchmark names; wrong pair?", file=sys.stderr)
        return 1

    status = 0
    print(f"== {current_path} vs {baseline_path} (tolerance {tolerance:g}x)")
    for name in matched:
        ratio = current[name] / baseline[name]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        if verdict != "ok":
            status = 1
        print(f"  {verdict:>10}  {name}: {fmt_time(current[name])} vs "
              f"baseline {fmt_time(baseline[name])} ({ratio:.2f}x)")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {'new':>10}  {name}: {fmt_time(current[name])} "
              f"(not in baseline; regenerate to start tracking)")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {'retired':>10}  {name}: in baseline only")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pairs", nargs="+", metavar="CURRENT=BASELINE",
                        help="google-benchmark JSON pair to gate")
    parser.add_argument("--tolerance", type=float, default=4.0,
                        help="max allowed current/baseline time ratio "
                             "(default: %(default)s)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="fail unless NAME is matched in at least one "
                             "pair (repeatable)")
    parser.add_argument("--require-faster", action="append", default=[],
                        metavar="FAST=SLOW",
                        help="fail unless real_time(FAST) < real_time(SLOW) "
                             "in the current run (repeatable)")
    args = parser.parse_args(argv)
    if args.tolerance <= 1.0:
        parser.error("--tolerance must be > 1.0")

    status = 0
    matched: set[str] = set()
    current_times: dict[str, float] = {}
    for pair in args.pairs:
        head, sep, tail = pair.partition("=")
        if not sep or not head or not tail:
            parser.error(f"expected CURRENT=BASELINE, got '{pair}'")
        try:
            status |= guard(pathlib.Path(head), pathlib.Path(tail),
                            args.tolerance, matched, current_times)
        except (OSError, ValueError, KeyError) as err:
            print(f"bench_guard.py: cannot read pair '{pair}': {err}",
                  file=sys.stderr)
            status = 1
    for name in sorted(set(args.require) - matched):
        print(f"bench_guard.py: MISSING required benchmark '{name}' "
              f"(not matched in any pair)", file=sys.stderr)
        status = 1
    for ordering in args.require_faster:
        fast, sep, slow = ordering.partition("=")
        if not sep or not fast or not slow:
            parser.error(f"expected FAST=SLOW, got '{ordering}'")
        missing = [n for n in (fast, slow) if n not in current_times]
        if missing:
            print(f"bench_guard.py: MISSING benchmark(s) {missing} for "
                  f"ordering '{ordering}'", file=sys.stderr)
            status = 1
            continue
        if current_times[fast] < current_times[slow]:
            print(f"    faster ok  {fast}: {fmt_time(current_times[fast])} < "
                  f"{slow}: {fmt_time(current_times[slow])}")
        else:
            print(f"bench_guard.py: ORDERING VIOLATION: {fast} "
                  f"({fmt_time(current_times[fast])}) is not faster than "
                  f"{slow} ({fmt_time(current_times[slow])})",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
