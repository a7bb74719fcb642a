"""Report renderers: human text, machine JSON, SARIF 2.1.0.

The SARIF output is the CI artifact (uploaded from the release leg) and is
deliberately minimal-but-valid: tool.driver with the full rule table,
results with ruleId/ruleIndex, message, one physical location each, and the
engine's content fingerprint under `fingerprints` so external viewers can
track findings across commits.
"""

from __future__ import annotations

import json

from .engine import Report
from .registry import all_checks

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: Report) -> str:
    lines: list[str] = []
    scope = (
        "all checks" if report.selected is None
        else "check(s) " + ", ".join(report.selected)
    )
    if report.findings:
        lines.append(f"ps360-lint: {len(report.findings)} finding(s) [{scope}]")
        for f in report.findings:
            lines.append(f"  {f.location()}: [{f.check_id}] {f.message}")
    else:
        lines.append(f"ps360-lint: clean [{scope}]")
    if report.suppressions_honored:
        lines.append(
            f"ps360-lint: {report.suppressions_honored} inline suppression(s) "
            "honored"
        )
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    payload = {
        "tool": "ps360-lint",
        "checks": report.check_ids,
        "selected": report.selected,
        "findings": [
            {
                "check": f.check_id,
                "path": f.rel,
                "line": f.line,
                "message": f.message,
                "fingerprint": f.fingerprint,
            }
            for f in report.findings
        ],
        "suppressions_honored": report.suppressions_honored,
    }
    return json.dumps(payload, indent=2) + "\n"


def render_sarif(report: Report) -> str:
    checks = all_checks()
    rule_ids = report.check_ids
    rule_index = {cid: i for i, cid in enumerate(rule_ids)}
    rules = [
        {
            "id": cid,
            "shortDescription": {"text": checks[cid].description},
        }
        for cid in rule_ids
    ]
    results = []
    for f in report.findings:
        location = {
            "physicalLocation": {
                "artifactLocation": {"uri": f.rel},
            }
        }
        if f.line is not None:
            location["physicalLocation"]["region"] = {"startLine": f.line}
        results.append(
            {
                "ruleId": f.check_id,
                "ruleIndex": rule_index[f.check_id],
                "level": "error",
                "message": {"text": f.message},
                "locations": [location],
                "fingerprints": {"ps360LintContent/v1": f.fingerprint},
            }
        )
    sarif = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "ps360-lint",
                        "informationUri":
                            "https://github.com/pstream360/pstream360",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2) + "\n"


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
