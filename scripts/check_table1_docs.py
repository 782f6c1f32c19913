#!/usr/bin/env python3
"""Check EXPERIMENTS.md's Table 1 against the pinned bench_table1 output.

The Golden.Table1ThreadsCsv ctest pins the stdout of `bench_table1 25 1999
--threads 4 --csv` in tests/golden/Table1ThreadsCsv.stdout. Its `-- csv --`
block holds every cell's mean and each application's unloaded reference.
This script compares each bold measured cell of the "Table 1" section of
EXPERIMENTS.md with that block, both rounded to one decimal:

  * the "measured random" mean and the "measured auto" mean (18 cells);
  * the percentage beside each auto mean, (auto - random) / random of the
    unrounded means;
  * the measured "unloaded ref" of each application (3 cells).

Every cell of the CSV block must appear in the doc. Exits non-zero listing
every mismatch. Run from anywhere:

  python3 scripts/check_table1_docs.py [EXPERIMENTS.md] [GOLDEN.stdout]
"""

import csv
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOLD = re.compile(r"^\*\*(-?[0-9.]+)(?: \((-?[0-9.]+)%\))?\*\*$")


def golden_cells(path):
    """(app, condition, policy) -> mean, and app -> reference, from the
    golden's CSV block."""
    text = path.read_text()
    marker = "-- csv --\n"
    if marker not in text:
        sys.exit(f"{path}: no '-- csv --' block")
    means, refs = {}, {}
    for row in csv.DictReader(text.split(marker, 1)[1].splitlines()):
        means[(row["app"], row["condition"], row["policy"])] = float(
            row["mean_s"])
        refs[row["app"]] = float(row["reference_s"])
    return means, refs


def doc_rows(path):
    """(app, condition, cells) per row of the Table 1 section's table."""
    lines = path.read_text().splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith("## Table 1")), None)
    if start is None:
        sys.exit(f"{path}: no '## Table 1' section")
    app = None
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("| ") or "**" not in line:
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0]:
            app = cells[0].rsplit(", ", 1)[0]  # "FFT (1K), 4 nodes"
        yield app, cells[1], cells


def main():
    doc = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "EXPERIMENTS.md"
    golden = (Path(sys.argv[2]) if len(sys.argv) > 2 else
              ROOT / "tests" / "golden" / "Table1ThreadsCsv.stdout")
    means, refs = golden_cells(golden)
    errors = []
    seen = set()

    def compare(what, doc_value, expected):
        want = f"{expected:.1f}"
        if doc_value != want:
            errors.append(f"{what}: doc reads {doc_value}, golden {want}")

    for app, condition, cells in doc_rows(doc):
        bold = [BOLD.match(c.replace("−", "-")) for c in cells]
        values = [m for m in bold if m]
        if not values:  # the header row's bold labels
            continue
        if condition == "unloaded ref":
            if app not in refs or len(values) != 1:
                errors.append(f"{app} unloaded ref: unexpected row")
                continue
            compare(f"{app} unloaded ref", values[0].group(1), refs[app])
            seen.add((app, "ref"))
            continue
        key_random = (app, condition, "random")
        key_auto = (app, condition, "auto")
        if key_random not in means or key_auto not in means or \
                len(values) != 2:
            errors.append(f"{app} {condition}: unexpected row")
            continue
        random, auto = means[key_random], means[key_auto]
        compare(f"{app} {condition} random", values[0].group(1), random)
        compare(f"{app} {condition} auto", values[1].group(1), auto)
        compare(f"{app} {condition} auto change %",
                values[1].group(2) or "missing",
                (auto - random) / random * 100.0)
        seen.update({key_random, key_auto})

    expected = set(means) | {(app, "ref") for app in refs}
    for key in sorted(expected - seen):
        errors.append(f"{' '.join(key)}: not in {doc.name}'s Table 1")
    if errors:
        print(f"{doc.name} Table 1 disagrees with {golden.name}:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"{doc.name} Table 1: {len(seen)} measured cells match "
          f"{golden.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
