#!/usr/bin/env python3
"""Same-machine A/B comparison of two netsel builds on the benchmark.

    python3 benchmark/compare.py PARENT CHANGE [--pairs 10] [--seed 7177]
        PARENT and CHANGE are netsel_bench binaries, or checkouts: a checkout is
        built and smoke-tested with its own `benchmark/run.py --check` and
        its build-benchmark/netsel_bench is used. Runs --pairs pairs of every
        workload, alternating which side runs first, every run on the same
        seed and on BENCHMARK.json's run_seconds.

    python3 benchmark/compare.py --sets PARENT.json CHANGE.json
        Compares two recorded sets (run.py --calibrate --save FILE); the
        i-th runs of the two sets form pair i.

For every workload, every end-to-end metric of BENCHMARK.json and every
per-layer metric an untraced run reports (the op timings, which have no
bound):
    gain        the change wins >= 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                IQR (distance between its quartiles), in the better direction;
    loss        the same in the worse direction, for a metric with no bound;
    REGRESSION  the change's median is worse than the parent's by more than
                the metric's bound;
    unresolved  either side's spread (IQR / median) exceeds the bound, unless
                every change run reads better than every parent run;
    =           none of these.
One row per workload. Exit 1 on any regression or failed check, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def binary_for(side):
    p = Path(side).resolve()
    if p.is_file():
        return p
    run = p / "benchmark" / "run.py"
    if not run.exists():
        sys.exit(f"compare.py: {side} is neither a binary nor a checkout")
    if subprocess.run([sys.executable, str(run), "--check"], cwd=p).returncode:
        sys.exit(f"compare.py: {side}: build or smoke check failed")
    return p / "build-benchmark" / "netsel_bench"


def run_once(binary, workload, seed, seconds):
    p = subprocess.run([str(binary), "--workload", workload, "--seed",
                        str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 2) or not lines:  # 2: checks failed
        sys.exit(f"compare.py: {binary} failed on {workload}")
    r = json.loads(lines[-1])
    return {"correct": r["correct"],
            "metrics": {k: v["value"] for k, v in r["metrics"].items()}}


def run_pairs(a, names, seconds):
    binaries = {"parent": binary_for(a.parent), "change": binary_for(a.change)}
    sets = {"parent": {w: [] for w in names}, "change": {w: [] for w in names}}
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in names:
            for side in order:
                sets[side][w].append(run_once(binaries[side], w, a.seed,
                                              seconds))
        print(f"pair {i + 1}/{a.pairs} done", file=sys.stderr)
    return sets["parent"], sets["change"]


def load_set(path):
    report = json.loads(Path(path).read_text())
    return {w: [{"correct": r["correct"],
                 "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for r in entry["runs"]]
            for w, entry in report["workloads"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(spec, parent, change):
    """(status, relative change of the median, parent IQR share)."""
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    sp = (p3 - p1) / mp if mp else 0.0
    sc = (c3 - c1) / mc if mc else 0.0
    delta = (mc - mp) / mp if mp else 0.0
    worse = delta if lower else -delta
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    clear = abs(mc - mp) > p3 - p1
    bound = spec.get("bound")
    all_better = all(better(c, p) for c in change for p in parent)
    if bound is not None and max(sp, sc) > bound and not all_better:
        status = "unresolved"
    elif bound is not None and worse > bound:
        status = "REGRESSION"
    elif wins >= 0.9 * len(pairs) and clear and better(mc, mp):
        status = "gain"
    elif bound is None and losses >= 0.9 * len(pairs) and clear:
        status = "loss"
    else:
        status = "="
    return status, delta, sp


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--sets", nargs=2, metavar=("PARENT_JSON", "CHANGE_JSON"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=4242)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if a.sets:
        parent, change = (load_set(p) for p in a.sets)
        missing = [w for w in names if w not in parent or w not in change]
        if missing:
            sys.exit(f"compare.py: sets lack workloads: {' '.join(missing)}")
    elif a.parent and a.change:
        if a.pairs < 10:
            print("compare.py: note: a gain needs >= 10 pairs", file=sys.stderr)
        parent, change = run_pairs(a, names, spec["run_seconds"])
    else:
        ap.error("give PARENT and CHANGE, or --sets")

    first = parent[names[0]][0]["metrics"]
    metrics = spec["end_to_end"] + [m for m in spec["per_layer"]
                                    if m["name"] in first]
    regression = False
    header = f"{'workload':16s}" + "".join(f" {m['name']:>22s}" for m in metrics)
    print(header)
    details = []
    for w in names:
        row = f"{w:16s}"
        bad = [r for r in parent[w] + change[w] if not r["correct"]]
        if bad:
            regression = True
            details.append(f"{w}: {len(bad)} run(s) failed their checks")
        for m in metrics:
            p = [r["metrics"][m["name"]] for r in parent[w]]
            c = [r["metrics"][m["name"]] for r in change[w]]
            status, delta, sp = verdict(m, p, c)
            regression |= status == "REGRESSION"
            row += f" {f'{100 * delta:+.1f}% {status}':>22s}"
            bound = (f"bound {100 * m['bound']:.0f}%" if "bound" in m
                     else "no bound")
            details.append(
                f"{w} {m['name']}: parent median {statistics.median(p):.6g} "
                f"(IQR {100 * sp:.1f}%), change median "
                f"{statistics.median(c):.6g} {m['unit']}, {bound}, "
                f"{len(p)} pairs")
        print(row)
    print()
    print("\n".join(details))
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
