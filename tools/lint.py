#!/usr/bin/env python3
"""Repo-invariant lint for pstream360 — thin shim over tools/analyze/.

Every invariant is a registered check class with a stable ID (see
`--list-checks`); findings honor inline suppressions
(`// ps360-lint: allow(<check-id>) -- <justification>`). ctest runs one
`lint.<id>` entry per check; CI additionally uploads the SARIF report:

  python3 tools/lint.py --repo . --format sarif --out lint.sarif

Exit code 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from analyze import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.main())
