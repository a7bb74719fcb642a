#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form configures and builds an optimized perfbench binary from the
sources in this checkout (under $CARGO_TARGET_DIR, default .bench_build),
then runs one workload; the last stdout line is the JSON result. --smoke
runs every workload of BENCHMARK.json at toy size, traced and untraced, and
checks that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-release"


def cached_build_type(build):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if cached_build_type(out) is None:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ)
    env["TMPDIR"] = str(out / "tmp")
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    build_type = cached_build_type(out)
    if build_type not in OPTIMIZED_BUILD_TYPES:
        raise RuntimeError(f"refusing an unoptimized build (CMAKE_BUILD_TYPE={build_type!r})")
    return out / "perfbench"


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def bench_env():
    env = dict(os.environ)
    env.pop("PS360_THREADS", None)  # threads and shards are set explicitly
    return env


def run_binary(binary, args, capture):
    return subprocess.run([str(binary), *args], env=bench_env(), timeout=RUN_TIMEOUT_S,
                          capture_output=capture, text=True, check=False)


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            result = run_binary(binary, ["--workload", workload["name"], "--seed", "1",
                                         "--seconds", "0.2", "--trace", trace, "--smoke",
                                         "--commit", "smoke"], capture=True)
            label = f"{workload['name']} --trace {trace}"
            if result.returncode != 0:
                problems.append(f"{label}: exit {result.returncode}: {result.stderr.strip()}")
                continue
            report = json.loads(result.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in report["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, extra {extra}, unit mismatch {units}")
            if not report["correct"] or report["failed"] != 0:
                problems.append(f"{label}: {report['failed']} of {report['attempted']} failed")
            log(f"smoke {label}: {len(printed)} metrics, "
                f"{report['attempted']} checked operations")
    for problem in problems:
        log(f"smoke FAILED: {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the metric names")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        result = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace,
                                     "--commit", source_id()], capture=False)
        return result.returncode
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
