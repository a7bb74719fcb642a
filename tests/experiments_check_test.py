#!/usr/bin/env python3
"""Self-test for tools/check_experiments.py, the EXPERIMENTS.md doc check.

The committed fixture (tests/data/experiments_check/one_digit_changed.md)
changes one digit of the Fig. 9 table and must fail, naming that cell. Every
figure number the check covers is then changed in turn in a copy of
EXPERIMENTS.md, and each copy must fail too, so no covered number goes
unchecked. Runs as ctest `docs.experiments_golden_selftest`; stdlib only.
"""

from __future__ import annotations

import pathlib
import re
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_experiments  # noqa: E402

GOLDEN = check_experiments.load_golden(REPO / "tests" / "data" / "paper_figures_golden.csv")
DOC = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
FIXTURE = REPO / "tests" / "data" / "experiments_check" / "one_digit_changed.md"

# The numbers the check covers: 2 tables x 4 schemes x 2 traces, the Fig. 9
# savings of Ptile and Ours, the four Fig. 9(d) savings and three devices'
# Ours savings.
COVERED = 16 + 2 + 4 + 3


def figure_sections(doc: str) -> tuple[int, int]:
    """Offsets spanning the Fig. 9, 10 and 11 sections."""
    start = doc.index("## Fig. 9 ")
    end = doc.index("\n## ", doc.index("## Fig. 11 "))
    return start, end


class ExperimentsCheckTest(unittest.TestCase):
    def test_one_digit_changed_fixture_fails_naming_the_cell(self):
        errors = check_experiments.check(FIXTURE.read_text(encoding="utf-8"), GOLDEN)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("Fig. 9 table, Nontile trace 1", errors[0])
        self.assertIn("prints 0.805", errors[0])
        self.assertIn("gives 0.804", errors[0])
        self.assertEqual(check_experiments.main(["--doc", str(FIXTURE)]), 1)

    def test_every_covered_number_is_checked(self):
        # Change the last digit of each decimal number in the three sections;
        # the covered ones must each fail the check, the paper's own figures
        # (which the golden does not hold) must not.
        start, end = figure_sections(DOC)
        failing = []
        for m in re.finditer(r"\d+\.\d+", DOC[start:end]):
            i = start + m.end() - 1
            bumped = DOC[:i] + str((int(DOC[i]) + 1) % 10) + DOC[i + 1:]
            if check_experiments.check(bumped, GOLDEN):
                failing.append(m.group(0))
        self.assertEqual(len(failing), COVERED, failing)

    def test_a_missing_row_fails(self):
        _, end = figure_sections(DOC)
        fig11 = DOC.index("## Fig. 11 ")
        row = re.search(r"^\| \*\*Ours\*\* .*\n", DOC[fig11:end], flags=re.M)
        self.assertIsNotNone(row)
        dropped = DOC[:fig11 + row.start()] + DOC[fig11 + row.end():]
        errors = check_experiments.check(dropped, GOLDEN)
        self.assertEqual(errors, ["EXPERIMENTS.md: the Fig. 11 table's Ours row not found"])


if __name__ == "__main__":
    unittest.main()
