#!/usr/bin/env python3
"""Self-test for the tools/analyze static-analysis framework.

Each fixture under tests/data/analyze_fixtures/<check-id>/ is a mini-repo
containing exactly one deliberate violation of that check; the test proves
the check catches it at the expected file. On top of that: suppression
semantics (justified allow() silences, justification-less allow() does
not), the CLI exit-code contract, and the SARIF report shape.

Runs as ctest `lint.selftest`; stdlib-only on purpose.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analyze import cli  # noqa: E402
from analyze.engine import run_analysis  # noqa: E402
from analyze.output import render_json, render_sarif, render_text  # noqa: E402
from analyze.registry import all_checks  # noqa: E402

FIXTURES = REPO / "tests" / "data" / "analyze_fixtures"

# check id -> file its fixture violation lives in.
EXPECTED_VIOLATION = {
    "header-pragma-once": "src/missing_guard.h",
    "using-namespace-std": "src/uses_std.cpp",
    "rng-policy": "src/bad_rng.cpp",
    "units-suffix": "src/api.h",
    "contracts": "src/no_checks.cpp",
    "det-wall-clock": "src/fleet/clock.cpp",
    "det-locale": "src/trace/fmt.cpp",
    "det-static-state": "src/sim/counter.cpp",
    "det-unordered": "src/obs/index.cpp",
    "det-address-order": "src/fleet/order.cpp",
    "det-contract-comment": "src/sim/nocomment.cpp",
    "conc-sync-comment": "src/fleet/sync.cpp",
    "conc-thread-discipline": "src/video/worker.cpp",
    "suppression-hygiene": "src/stale.cpp",
}


class CheckCatalogTest(unittest.TestCase):
    def test_every_check_has_a_seeded_fixture(self):
        self.assertEqual(sorted(all_checks()), sorted(EXPECTED_VIOLATION))

    def test_ids_and_descriptions_are_wellformed(self):
        for cid, cls in all_checks().items():
            self.assertRegex(cid, r"^[a-z][a-z0-9-]+$")
            self.assertTrue(cls.description, cid)


class SeededViolationTest(unittest.TestCase):
    """Each check catches its fixture's single deliberate violation."""

    def _run(self, fixture: str):
        return run_analysis(FIXTURES / fixture)

    def test_each_fixture_trips_exactly_its_check(self):
        for cid, rel in EXPECTED_VIOLATION.items():
            with self.subTest(check=cid):
                report = self._run(cid)
                hits = [f for f in report.findings if f.check_id == cid]
                self.assertEqual(
                    len(hits), 1,
                    f"{cid}: expected 1 finding, got "
                    f"{[(f.check_id, f.rel, f.line) for f in report.findings]}",
                )
                self.assertEqual(hits[0].rel, rel)
                # The seeded violation is the only finding in its fixture.
                self.assertEqual(len(report.findings), 1, cid)

    def test_findings_carry_fingerprints_and_messages(self):
        for f in self._run("rng-policy").findings:
            self.assertTrue(f.fingerprint)
            self.assertIn("rng-policy", f.fingerprint)
            self.assertTrue(f.message)


class SuppressionTest(unittest.TestCase):
    def test_justified_suppression_silences_the_finding(self):
        report = run_analysis(FIXTURES / "suppressed-clean")
        self.assertTrue(report.clean, [f.message for f in report.findings])
        self.assertEqual(report.suppressions_honored, 1)

    def test_unjustified_suppression_keeps_finding_and_flags_comment(self):
        report = run_analysis(FIXTURES / "unjustified-suppression")
        by_check = {f.check_id for f in report.findings}
        self.assertIn("rng-policy", by_check)
        self.assertIn("suppression-hygiene", by_check)
        self.assertEqual(report.suppressions_honored, 0)

    def test_unused_suppression_is_flagged_as_stale(self):
        report = run_analysis(FIXTURES / "suppression-hygiene")
        [finding] = report.findings
        self.assertEqual(finding.check_id, "suppression-hygiene")
        self.assertIn("unused suppression", finding.message)

    def test_check_filter_restricts_reporting_not_analysis(self):
        report = run_analysis(
            FIXTURES / "unjustified-suppression", ["suppression-hygiene"]
        )
        # Only the selected check is *reported* ...
        self.assertEqual({f.check_id for f in report.findings},
                         {"suppression-hygiene"})
        # ... but the full analysis still saw the rng-policy finding.
        self.assertIn("rng-policy", {f.check_id for f in report.all_findings})

    def test_unknown_check_id_is_a_usage_error(self):
        with self.assertRaises(ValueError):
            run_analysis(FIXTURES / "rng-policy", ["no-such-check"])


class OutputFormatTest(unittest.TestCase):
    def setUp(self):
        self.report = run_analysis(FIXTURES / "rng-policy")

    def test_text_names_check_file_and_line(self):
        text = render_text(self.report)
        self.assertIn("[rng-policy]", text)
        self.assertIn("src/bad_rng.cpp", text)

    def test_json_is_machine_readable(self):
        data = json.loads(render_json(self.report))
        self.assertEqual(len(data["findings"]), 1)
        finding = data["findings"][0]
        self.assertEqual(finding["check"], "rng-policy")
        self.assertEqual(finding["path"], "src/bad_rng.cpp")
        self.assertTrue(finding["fingerprint"])

    def test_sarif_shape(self):
        sarif = json.loads(render_sarif(self.report))
        self.assertEqual(sarif["version"], "2.1.0")
        [run] = sarif["runs"]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        self.assertEqual(rule_ids, sorted(all_checks()))
        [result] = run["results"]
        self.assertEqual(result["ruleId"], "rng-policy")
        self.assertEqual(rule_ids[result["ruleIndex"]], "rng-policy")
        location = result["locations"][0]["physicalLocation"]
        self.assertEqual(
            location["artifactLocation"]["uri"], "src/bad_rng.cpp"
        )
        self.assertIn("ps360LintContent/v1", result["fingerprints"])


class CliTest(unittest.TestCase):
    def test_exit_one_on_findings_zero_when_clean(self):
        fixture = str(FIXTURES / "rng-policy")
        self.assertEqual(cli.main(["--repo", fixture]), 1)
        clean = str(FIXTURES / "suppressed-clean")
        self.assertEqual(cli.main(["--repo", clean]), 0)

    def test_exit_two_on_usage_errors(self):
        self.assertEqual(cli.main(["--repo", "/nonexistent"]), 2)
        self.assertEqual(
            cli.main(["--repo", str(FIXTURES / "rng-policy"),
                      "--check", "no-such-check"]), 2
        )

    def test_sarif_out_file(self):
        fixture = str(FIXTURES / "rng-policy")
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "lint.sarif"
            rc = cli.main(["--repo", fixture, "--format", "sarif",
                           "--out", str(out)])
            self.assertEqual(rc, 1)
            sarif = json.loads(out.read_text())
            self.assertEqual(sarif["version"], "2.1.0")


class RealRepoTest(unittest.TestCase):
    def test_the_repo_itself_is_clean(self):
        report = run_analysis(REPO)
        self.assertTrue(
            report.clean,
            "repo has lint findings:\n" + render_text(report),
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
