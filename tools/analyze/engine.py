"""Analysis engine: run checks and resolve suppressions.

The engine always evaluates the *full* check set — a `--check` filter only
restricts which findings are reported. That keeps per-check ctest entries
honest (suppression-hygiene needs global knowledge of which allow()
comments matched) while staying cheap: every check is a regex pass over an
already-cached source model.

Suppression scope rules:
  * line-scoped finding: an allow() on the same line or the line directly
    above suppresses it;
  * file-scoped finding (no line): an allow() anywhere in that file
    suppresses it.
"""

from __future__ import annotations

import collections
import dataclasses
import pathlib

from .context import Finding, RepoContext, Suppression, content_fingerprint
from .registry import all_checks


@dataclasses.dataclass
class Report:
    repo: pathlib.Path
    check_ids: list[str]                 # every check that ran
    selected: list[str] | None           # reporting filter (None = all)
    findings: list[Finding]              # post-filter
    all_findings: list[Finding]          # pre-filter
    suppressions_honored: int

    @property
    def clean(self) -> bool:
        return not self.findings


def _suppression_for(
    finding: Finding, by_file: dict[str, list[Suppression]]
) -> Suppression | None:
    for supp in by_file.get(finding.rel, ()):
        if finding.check_id not in supp.check_ids:
            continue
        if finding.line is None or supp.line in (finding.line, finding.line - 1):
            return supp
    return None


def _hygiene_findings(
    suppressions: list[Suppression], valid_ids: set[str], check_id: str
) -> list[Finding]:
    findings = []
    for supp in suppressions:
        if not supp.check_ids:
            findings.append(Finding(
                check_id, supp.rel, supp.line,
                "allow() names no check id",
            ))
        if not supp.justification:
            findings.append(Finding(
                check_id, supp.rel, supp.line,
                "suppression is missing its justification: write "
                "'// ps360-lint: allow(<check-id>) -- <why this is safe>'",
            ))
        for cid in supp.check_ids:
            if cid not in valid_ids:
                findings.append(Finding(
                    check_id, supp.rel, supp.line,
                    f"allow({cid}) names an unknown check id "
                    f"(see `tools/lint.py --list-checks`)",
                ))
            elif cid not in supp.used_for:
                findings.append(Finding(
                    check_id, supp.rel, supp.line,
                    f"unused suppression: allow({cid}) matched no finding — "
                    "delete it (stale suppressions hide future violations)",
                ))
    return findings


def run_analysis(
    repo: pathlib.Path,
    selected: list[str] | None = None,
) -> Report:
    repo = repo.resolve()
    ctx = RepoContext(repo)
    checks = {cid: cls() for cid, cls in all_checks().items()}

    if selected:
        unknown = sorted(set(selected) - set(checks))
        if unknown:
            raise ValueError(
                f"unknown check id(s): {', '.join(unknown)} "
                "(see --list-checks)"
            )

    raw: list[Finding] = []
    for check in checks.values():
        if getattr(check, "engine_managed", False):
            continue
        raw.extend(check.run(ctx))

    # Resolve suppressions, tracking which allow() entries earned their keep.
    suppressions = ctx.all_suppressions()
    by_file: dict[str, list[Suppression]] = collections.defaultdict(list)
    for supp in suppressions:
        by_file[supp.rel].append(supp)
    kept: list[Finding] = []
    honored = 0
    for finding in raw:
        supp = _suppression_for(finding, by_file)
        if supp is not None and supp.justification:
            supp.used_for.add(finding.check_id)
            honored += 1
        else:
            # A justification-less allow() suppresses nothing: the finding
            # stays AND suppression-hygiene flags the comment.
            kept.append(finding)

    hygiene_id = "suppression-hygiene"
    kept.extend(_hygiene_findings(suppressions, set(checks), hygiene_id))

    # Content fingerprints (ordinal disambiguates identical lines).
    sf_by_rel = {sf.rel: sf for sf in ctx.source_files()}
    seen: collections.Counter[str] = collections.Counter()
    fingerprinted: list[Finding] = []
    for finding in sorted(kept, key=lambda f: (f.rel, f.line or 0, f.check_id)):
        sf = sf_by_rel.get(finding.rel)
        key = content_fingerprint(finding.check_id, sf, finding, 0)
        fp = content_fingerprint(finding.check_id, sf, finding, seen[key])
        seen[key] += 1
        fingerprinted.append(dataclasses.replace(finding, fingerprint=fp))

    reported = (
        fingerprinted if selected is None
        else [f for f in fingerprinted if f.check_id in selected]
    )
    return Report(
        repo=repo,
        check_ids=sorted(checks),
        selected=sorted(selected) if selected else None,
        findings=reported,
        all_findings=fingerprinted,
        suppressions_honored=honored,
    )
