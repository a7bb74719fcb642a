#!/usr/bin/env python3
"""Check EXPERIMENTS.md's paper-figure numbers against the golden.

tests/data/paper_figures_golden.csv pins the Section V grids bit for bit
(PaperFiguresGoldenTest). This check reads its full-length (`full.*`) rows
and fails when a number EXPERIMENTS.md prints differs from the golden at
the precision printed:

  * the Fig. 9 and Fig. 11 tables: each scheme's normalized energy or QoE
    per trace;
  * the Fig. 9 savings line (Ptile, Ours) and the Fig. 9(d) line
    (transmission and decoding savings of the video and trace it names);
  * Fig. 10's Ours saving per device.

A section, table row or line that is missing fails too, so the doc cannot
drop a number silently. Runs as ctest `docs.experiments_golden`:

  python3 tools/check_experiments.py [--doc EXPERIMENTS.md]
                                     [--golden tests/data/paper_figures_golden.csv]

Exit status 0 when every number matches, 1 with one line per mismatch.
Stdlib only.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Fig. 10's device names as the doc prints them -> the golden's config.
# The Pixel 3 figures are the Fig. 9 grid's.
DEVICE_CONFIGS = {
    "Nexus 5X": "full.fig10.Nexus5X",
    "Galaxy S20": "full.fig10.GalaxyS20",
    "Pixel 3": "full.fig9",
}


def load_golden(path: pathlib.Path) -> dict[tuple[str, str], float]:
    """The golden's `full.*` rows as {(config, key): value}."""
    with path.open(newline="", encoding="utf-8") as f:
        return {
            (row["config"], row["key"]): float(row["value"])
            for row in csv.DictReader(f)
            if row["config"].startswith("full.")
        }


def section(doc: str, heading: str) -> str | None:
    """Body of the `## <heading>...` section."""
    match = re.search(
        r"^## " + re.escape(heading) + r".*?$(.*?)(?=^## |\Z)", doc, flags=re.M | re.S
    )
    return None if match is None else match.group(1)


def table_rows(body: str) -> dict[str, list[str]]:
    """A section's Markdown table rows: first cell -> the rest, bold dropped."""
    rows = {}
    for line in body.splitlines():
        if line.startswith("|"):
            cells = [c.strip().strip("*") for c in line.strip().strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


class Checker:
    def __init__(self, golden: dict[tuple[str, str], float]) -> None:
        self.golden = golden
        self.errors: list[str] = []

    def expect(self, where: str, printed: str, config: str, key: str, scale: float = 1.0):
        """`printed` must equal the golden value (times `scale`) rounded to
        as many decimals as `printed` shows."""
        if (config, key) not in self.golden:
            self.errors.append(f"{where}: golden has no {config},{key}")
            return
        decimals = len(printed.split(".")[1]) if "." in printed else 0
        want = f"{self.golden[(config, key)] * scale:.{decimals}f}"
        if printed != want:
            self.errors.append(f"{where}: EXPERIMENTS.md prints {printed}, golden {config},{key} "
                               f"gives {want}")

    def missing(self, what: str) -> None:
        self.errors.append(f"EXPERIMENTS.md: {what} not found")

    def figure_table(self, body: str | None, figure: str, config: str, metric: str) -> None:
        if body is None:
            return self.missing(f"the {figure} section")
        rows = table_rows(body)
        schemes = sorted({key.split(".")[2] for (c, key) in self.golden
                          if c == config and key.startswith(metric + ".")} - {"Ctile"})
        for scheme in schemes:
            cells = rows.get(scheme)
            if cells is None or len(cells) < 2:
                self.missing(f"the {figure} table's {scheme} row")
                continue
            for trace, printed in (("t1", cells[0]), ("t2", cells[1])):
                self.expect(f"{figure} table, {scheme} trace {trace[1]}", printed, config,
                            f"{metric}.{trace}.{scheme}")

    def percent(self, body: str, pattern: str, what: str) -> re.Match[str] | None:
        """First match of `pattern` in `body` with its line breaks collapsed."""
        match = re.search(pattern, " ".join(body.split()))
        if match is None:
            self.missing(what)
        return match

    def fig9_lines(self, body: str | None) -> None:
        if body is None:
            return
        for scheme in ("Ptile", "Ours"):
            m = self.percent(body, r"Average savings vs Ctile:.*?\*\*" + scheme +
                             r" ([\d.]+)%\*\*", f"Fig. 9's {scheme} saving")
            if m:
                self.expect(f"Fig. 9 savings, {scheme}", m.group(1), "full.fig9",
                            f"saving.{scheme}", 100.0)
        where = self.percent(body, r"Fig\. 9\(d\) breakdown \(video (\d+), trace (\d+)\)",
                             "Fig. 9(d)'s video and trace")
        if where is None:
            return
        prefix = f"components.v{where.group(1)}.t{where.group(2)}"
        for label, key in (("transmission", "transmit"), ("decoding", "decode")):
            m = self.percent(body, label + r" saving Ptile ([\d.]+)% / Ours ([\d.]+)%",
                             f"Fig. 9(d)'s {label} savings")
            if m:
                for scheme, printed in (("Ptile", m.group(1)), ("Ours", m.group(2))):
                    self.expect(f"Fig. 9(d) {label} saving, {scheme}", printed, "full.fig9",
                                f"{prefix}.{scheme}.{key}_saving", 100.0)

    def fig10_line(self, body: str | None) -> None:
        if body is None:
            return self.missing("the Fig. 10 section")
        for device, config in DEVICE_CONFIGS.items():
            m = self.percent(body, re.escape(device) + r":? ([\d.]+)%",
                             f"Fig. 10's {device} saving")
            if m:
                self.expect(f"Fig. 10 Ours saving, {device}", m.group(1), config,
                            "saving.Ours", 100.0)


def check(doc: str, golden: dict[tuple[str, str], float]) -> list[str]:
    """One message per number that differs from the golden, or is missing."""
    c = Checker(golden)
    fig9 = section(doc, "Fig. 9 ")
    c.figure_table(fig9, "Fig. 9", "full.fig9", "normalized_energy")
    c.fig9_lines(fig9)
    c.fig10_line(section(doc, "Fig. 10 "))
    c.figure_table(section(doc, "Fig. 11 "), "Fig. 11", "full.fig11", "normalized_qoe")
    return c.errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc", type=pathlib.Path, default=REPO / "EXPERIMENTS.md")
    parser.add_argument("--golden", type=pathlib.Path,
                        default=REPO / "tests" / "data" / "paper_figures_golden.csv")
    args = parser.parse_args(argv)
    errors = check(args.doc.read_text(encoding="utf-8"), load_golden(args.golden))
    for error in errors:
        print(error)
    if errors:
        print(f"{args.doc}: {len(errors)} figure number(s) disagree with {args.golden}")
        return 1
    print(f"{args.doc}: every Fig. 9-11 number matches {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
