"""Concurrency discipline for threaded translation units.

A file is "threaded" when it mentions std::thread / std::jthread (today
only src/util/worker_pool.cpp: the one process-wide worker pool that the
evaluation grid, the tournament's cells, the fleet engine's speculative
solves and VideoWorkload construction all run on, DESIGN.md §15). Inside
threaded files:

  conc-sync-comment      every std::atomic / std::mutex /
                         std::condition_variable declaration carries a
                         contract comment (same line, or the line directly
                         above) saying what it protects and why the scheme
                         is deterministic
  conc-thread-discipline detached threads and raw `new std::thread` are
                         banned everywhere: every thread joins before the
                         owning scope exits, or results can outlive their
                         slots
"""

from __future__ import annotations

import re
from typing import Iterable

from ..context import Finding, RepoContext, SourceFile
from ..registry import Check, register

_THREADED = re.compile(r"std::j?thread\b")
_SYNC_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(std::atomic(?:<|_)|std::(?:shared_|recursive_)?mutex\b"
    r"|std::condition_variable)"
)


def _threaded_sources(ctx: RepoContext) -> list[SourceFile]:
    return [
        sf for sf in ctx.sources(under=("src",)) if _THREADED.search(sf.stripped)
    ]


def _has_contract_comment(sf: SourceFile, lineno: int) -> bool:
    raw = sf.raw_lines[lineno - 1]
    if "//" in raw:
        return True
    prev = lineno - 2
    while prev >= 0 and not sf.raw_lines[prev].strip():
        prev -= 1
    if prev < 0:
        return False
    stripped_prev = sf.raw_lines[prev].strip()
    return stripped_prev.startswith("//") or stripped_prev.endswith("*/")


@register
class SyncContractComment(Check):
    id = "conc-sync-comment"
    description = (
        "atomics/mutexes in threaded code carry a contract comment "
        "(what they protect, why the scheme stays deterministic)"
    )

    def run(self, ctx: RepoContext) -> Iterable[Finding]:
        for sf in _threaded_sources(ctx):
            for lineno, line in enumerate(sf.stripped_lines, start=1):
                m = _SYNC_DECL.match(line)
                if m and not _has_contract_comment(sf, lineno):
                    yield self.finding(
                        sf.rel,
                        lineno,
                        f"'{m.group(1).rstrip('<_')}' declaration without a "
                        "contract comment; in threaded code every "
                        "synchronization primitive states what it protects "
                        "and why results stay deterministic",
                    )


@register
class ThreadDiscipline(Check):
    id = "conc-thread-discipline"
    description = "no detached threads, no raw `new std::thread`"

    _PATTERNS = [
        (re.compile(r"\.\s*detach\s*\(\s*\)"), "detach()"),
        (re.compile(r"\bnew\s+std::j?thread\b"), "new std::thread"),
    ]

    def run(self, ctx: RepoContext) -> Iterable[Finding]:
        for sf in ctx.sources():
            for pattern, label in self._PATTERNS:
                for m in pattern.finditer(sf.stripped):
                    yield self.finding(
                        sf.rel,
                        sf.line_of_offset(m.start()),
                        f"uses {label}; threads join before their owning "
                        "scope exits (a detached worker can outlive the "
                        "result slots it writes)",
                    )
