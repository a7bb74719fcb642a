"""Check registry: every invariant is a class with a stable ID.

A check yields Findings; it never looks at suppressions — the engine owns
that layer. IDs are stable public API: they appear in suppression
comments, SARIF ruleIds, and ctest names (`lint.<id>`), so renaming one is
a breaking change.
"""

from __future__ import annotations

from typing import Iterable, Type

from .context import Finding, RepoContext

_REGISTRY: dict[str, Type["Check"]] = {}


class Check:
    """Base class. Subclasses set `id` and `description` and implement run()."""

    id: str = ""
    description: str = ""

    def run(self, ctx: RepoContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, rel: str, line: int | None, message: str) -> Finding:
        return Finding(check_id=self.id, rel=rel, line=line, message=message)


def register(cls: Type[Check]) -> Type[Check]:
    if not cls.id or not cls.description:
        raise ValueError(f"{cls.__name__} must set a stable id and description")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate check id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_checks() -> dict[str, Type[Check]]:
    # Import for side effect: each module registers its checks on import.
    from . import checks  # noqa: F401

    return dict(sorted(_REGISTRY.items()))
