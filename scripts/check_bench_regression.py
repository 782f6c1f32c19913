#!/usr/bin/env python3
"""Gate a fresh bench_exact record against the committed BENCH_exact.json.

Usage: check_bench_regression.py FRESH BASELINE

The exact grid is deterministic (node budgets, never wall-clock budgets),
so its record is the same on every machine and the rules compare values
exactly:

  * headline.sound must stay true whenever the baseline's is: every cell's
    bracket greedy <= optimum <= bound holds;
  * headline.cells and headline.exact_cells must not fall below the
    baseline's: the fresh run covers and certifies at least as many cells.

Timings are not gated here: benchmark/compare.py runs the merge base and
the change on one machine (CI's benchmark gate job).

Exits 1 listing every violated rule, 2 on bad usage; prints one line per
rule otherwise. A missing field fails: schema drift must not silently
disable the gate.
"""

import json
import sys

# (path, kind): "true" requires the fresh flag to be true whenever the
# baseline's is; "at_least" requires fresh >= baseline.
RULES = [
    ("headline.sound", "true"),
    ("headline.cells", "at_least"),
    ("headline.exact_cells", "at_least"),
]


def lookup(doc, path):
    cur = doc
    for key in path.split("."):
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        fresh = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)
    failures = []
    for path, kind in RULES:
        fv, bv = lookup(fresh, path), lookup(baseline, path)
        if fv is None or bv is None:
            failures.append(f"{path}: field missing (fresh={fv!r}, "
                            f"baseline={bv!r}) — schema drift?")
        elif kind == "true" and bv is True and fv is not True:
            failures.append(f"{path}: baseline asserts the contract, fresh "
                            f"run reports {fv!r}")
        elif kind == "at_least" and not fv >= bv:
            failures.append(f"{path}: {fv!r} < baseline {bv!r}")
        else:
            print(f"check_bench_regression: {path}: OK ({fv!r}, baseline "
                  f"{bv!r})")
    for msg in failures:
        print(f"check_bench_regression: FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("check_bench_regression: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
