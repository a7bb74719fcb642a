"""pstream360 static-analysis framework.

A small, project-specific analyzer: every repo invariant is a registered
check class with a stable ID, findings carry file/line locations, and the
engine applies inline suppressions before deciding the exit code. `tools/lint.py` is the CLI shim; `tools/analyze/cli.py`
holds the argument parsing; checks live in `tools/analyze/checks/`.

Public API (used by tools/lint.py and tests/analyze_test.py):

    from analyze import cli
    cli.main(["--repo", ".", "--format", "json"])

    from analyze.engine import run_analysis
    report = run_analysis(repo_root)          # full check set
"""

from __future__ import annotations

__version__ = "1.0.0"
