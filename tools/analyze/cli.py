"""Command-line front end for the analyzer (tools/lint.py is the shim).

Exit codes: 0 clean, 1 findings, 2 usage/internal error. `--check` may
repeat; each per-check ctest entry (`lint.<id>`) is one such invocation, so
local runs, ctest, and CI all share this path.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .engine import run_analysis
from .output import RENDERERS
from .registry import all_checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lint.py",
        description="pstream360 repo-invariant static analyzer",
    )
    parser.add_argument("--repo", default=".", help="repository root")
    parser.add_argument(
        "--check",
        action="append",
        metavar="ID",
        help="run/report only this check id (repeatable; default: all)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="print one check id per line and exit",
    )
    parser.add_argument(
        "--describe-checks",
        action="store_true",
        help="print 'id<TAB>description' per check and exit",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checks or args.describe_checks:
        for cid, cls in all_checks().items():
            print(cid if args.list_checks else f"{cid}\t{cls.description}")
        return 0

    repo = pathlib.Path(args.repo)
    if not repo.is_dir():
        print(f"lint.py: not a directory: {repo}", file=sys.stderr)
        return 2
    try:
        report = run_analysis(repo, args.check)
    except ValueError as err:
        print(f"lint.py: {err}", file=sys.stderr)
        return 2

    text = RENDERERS[args.format](report)
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        # Keep the console actionable even when the report goes to a file.
        print(
            f"lint.py: {len(report.findings)} finding(s) -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
