#!/usr/bin/env python3
"""Check EXPERIMENTS.md's fault-sweep table against the pinned bench_faults
output.

The Golden.FaultsThreadsCsv ctest pins the stdout of `bench_faults 12 2031
--threads 4 --csv` in tests/golden/FaultsThreadsCsv.stdout. Its CSV block
(from the `severity,policy,...` header on) holds every cell's mean and its
count of selections on the Smoothed rung. This script compares each row of
the "Measurement-fault sweep" table of EXPERIMENTS.md with that block:

  * the mean of every policy, to one decimal (16 cells);
  * the "vs random" ratio beside each auto mean, auto / random of the
    block's means, to two decimals (12 cells);
  * the smoothed selections of the three auto policies (12 counts).

Every cell of the CSV block must appear in the doc. Exits non-zero listing
every mismatch. Run from anywhere:

  python3 scripts/check_faults_docs.py [EXPERIMENTS.md] [GOLDEN.stdout]
"""

import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AUTO = ["auto-balanced", "auto-compute", "auto-bandwidth"]


def golden_cells(path):
    """(severity, policy) -> (mean, smoothed count), from the CSV block."""
    lines = path.read_text().splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith("severity,policy,")), None)
    if start is None:
        sys.exit(f"{path}: no 'severity,policy,...' CSV block")
    return {(float(r["severity"]), r["policy"]):
            (float(r["mean_s"]), int(r["degraded_smoothed"]))
            for r in csv.DictReader(lines[start:])}


def doc_rows(path):
    """Severity and cells per row of the fault-sweep section's table."""
    lines = path.read_text().splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith("## Measurement-fault sweep")), None)
    if start is None:
        sys.exit(f"{path}: no '## Measurement-fault sweep' section")
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("| "):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        try:
            yield float(cells[0]), cells
        except ValueError:  # the header row
            continue


def main():
    doc = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "EXPERIMENTS.md"
    golden = (Path(sys.argv[2]) if len(sys.argv) > 2 else
              ROOT / "tests" / "golden" / "FaultsThreadsCsv.stdout")
    cells = golden_cells(golden)
    errors = []
    seen = set()

    def compare(what, doc_value, want):
        if doc_value != want:
            errors.append(f"{what}: doc reads {doc_value}, golden {want}")

    for severity, row in doc_rows(doc):
        # severity | random | 3 x (auto mean | vs random) | smoothed b/c/bw
        keys = [(severity, p) for p in ["random"] + AUTO]
        if len(row) != 9 or any(k not in cells for k in keys):
            errors.append(f"severity {severity}: unexpected row")
            continue
        random = cells[keys[0]][0]
        compare(f"{severity} random mean", row[1], f"{random:.1f}")
        smoothed = [c.strip() for c in row[8].split("/")]
        if len(smoothed) != 3:
            errors.append(f"severity {severity}: unexpected smoothed cell")
            smoothed = ["missing"] * 3
        for i, key in enumerate(keys[1:]):
            mean, count = cells[key]
            compare(f"{severity} {key[1]} mean", row[2 + 2 * i], f"{mean:.1f}")
            compare(f"{severity} {key[1]} vs random", row[3 + 2 * i],
                    f"{mean / random:.2f}")
            compare(f"{severity} {key[1]} smoothed", smoothed[i], str(count))
        seen.update(keys)

    for key in sorted(set(cells) - seen):
        errors.append(f"severity {key[0]} {key[1]}: not in {doc.name}'s "
                      "fault-sweep table")
    if errors:
        print(f"{doc.name} fault sweep disagrees with {golden.name}:")
        for e in errors:
            print(f"  {e}")
        return 1
    autos = sum(1 for key in seen if key[1] != "random")
    print(f"{doc.name} fault sweep: {len(seen)} means, {autos} vs-random "
          f"ratios and {autos} smoothed counts match {golden.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
