"""Source model shared by every check: files, comment stripping, suppressions.

Line numbers are 1-based everywhere. Comment stripping preserves line
structure (comment bodies become spaces) so a match position in the
stripped text maps to the same line number as in the raw text.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import pathlib
import re

from . import config

# Inline suppression grammar. The justification after `--` is mandatory;
# `suppression-hygiene` reports any allow() without one.
#
#   // ps360-lint: allow(check-id) -- why this is safe here
#   // ps360-lint: allow(check-a, check-b) -- one justification for both
SUPPRESSION_RE = re.compile(
    r"//\s*ps360-lint:\s*allow\(([^)]*)\)\s*(?:--\s*(\S.*))?"
)


@dataclasses.dataclass
class Suppression:
    """One parsed `// ps360-lint: allow(...)` comment."""

    rel: str                      # repo-relative posix path
    line: int                     # 1-based line the comment sits on
    check_ids: tuple[str, ...]
    justification: str            # "" when missing (an error in itself)
    used_for: set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violation. `line` of None means the finding is file-scoped."""

    check_id: str
    rel: str
    line: int | None
    message: str
    # Content fingerprint: stable across unrelated edits that shift line
    # numbers. Filled in by the engine (needs the file's line text).
    fingerprint: str = ""

    def location(self) -> str:
        return self.rel if self.line is None else f"{self.rel}:{self.line}"


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure.

    String literals are not parsed; none of the banned tokens appear inside
    string literals in this codebase (same simplification the original
    lint.py made, now centralized).
    """

    def _blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", _blank, text, flags=re.S)
    return re.sub(r"//[^\n]*", _blank, text)


class SourceFile:
    """One on-disk source file with raw text, stripped text, suppressions."""

    def __init__(self, path: pathlib.Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.raw = path.read_text(encoding="utf-8")
        self.raw_lines = self.raw.splitlines()
        self.stripped = strip_comments(self.raw)
        self.stripped_lines = self.stripped.splitlines()
        self.suppressions = [
            Suppression(
                rel=rel,
                line=lineno,
                check_ids=tuple(
                    s.strip() for s in m.group(1).split(",") if s.strip()
                ),
                justification=(m.group(2) or "").strip(),
            )
            for lineno, line in enumerate(self.raw_lines, start=1)
            if (m := SUPPRESSION_RE.search(line))
        ]

    def line_of_offset(self, offset: int) -> int:
        """1-based line number of a character offset into the text."""
        return self.stripped.count("\n", 0, offset) + 1


class RepoContext:
    """Lazy, cached view of the repository the checks run against."""

    def __init__(self, repo: pathlib.Path) -> None:
        self.repo = repo.resolve()

    @functools.cache
    def source_files(self) -> tuple[SourceFile, ...]:
        files = []
        for d in config.SOURCE_DIRS:
            root = self.repo / d
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*")):
                if path.suffix not in config.SOURCE_SUFFIXES or not path.is_file():
                    continue
                rel = path.relative_to(self.repo).as_posix()
                if any(
                    rel == ex or rel.startswith(ex + "/")
                    for ex in config.EXCLUDE_PATHS
                ):
                    continue
                files.append(SourceFile(path, rel))
        return tuple(files)

    def sources(
        self,
        *,
        under: tuple[str, ...] | None = None,
        suffixes: tuple[str, ...] | None = None,
    ) -> list[SourceFile]:
        out = []
        for sf in self.source_files():
            if suffixes and not sf.rel.endswith(suffixes):
                continue
            # `under` entries are directories or single files: exact path
            # matches let config scope a discipline to one file.
            if under and not any(
                sf.rel == d or sf.rel.startswith(d + "/") for d in under
            ):
                continue
            out.append(sf)
        return out

    def all_suppressions(self) -> list[Suppression]:
        return [s for sf in self.source_files() for s in sf.suppressions]


def content_fingerprint(check_id: str, sf: SourceFile | None, finding: Finding,
                        ordinal: int) -> str:
    """Line-content hash so baselines survive line-number drift.

    File-scope findings hash the message instead (there is no line to pin
    to); `ordinal` disambiguates identical lines in one file.
    """
    if finding.line is None or sf is None:
        basis = finding.message
    else:
        idx = finding.line - 1
        basis = sf.raw_lines[idx].strip() if idx < len(sf.raw_lines) else ""
    digest = hashlib.sha1(basis.encode("utf-8")).hexdigest()[:12]
    return f"{check_id}:{finding.rel}:{digest}:{ordinal}"
