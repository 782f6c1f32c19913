#!/usr/bin/env python3
"""Build the netsel benchmark binary and run its workloads.

    python3 benchmark/run.py              every workload once, end-to-end metrics
    python3 benchmark/run.py --traced     plus one traced run per workload:
                                          per-layer metrics, obs.overhead_frac
    python3 benchmark/run.py --calibrate  five runs per workload: median, IQR
                                          and max/min per metric (--save FILE
                                          keeps the report for compare.py)
    python3 benchmark/run.py --check      reduced-size smoke of every check
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                          one run; the last line of stdout is
                                          {"correct", "attempted", "failed",
                                          "metrics"} with the BENCHMARK.json
                                          metrics of that mode

Every workload runs in its own process. The binary is built into
build-benchmark/ (a CMake project in benchmark/ that builds the library from
the repository root); run artifacts go to build-benchmark/out/ and the
report, with nproc, compiler, build type and commit, to
build-benchmark/results.json. The default seed is 4242; seed 7177 is held
out for verifying claims. Any failed check makes the exit code non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-benchmark"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def untraced_specs(spec, result):
    """The end-to-end metrics, then the per-layer ones a --trace 0 run also
    measures (the op timings: shown and compared, not gated)."""
    return spec["end_to_end"] + [m for m in spec["per_layer"]
                                 if m["name"] in result["metrics"]]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the binary (both are no-ops when up to date);
    returns its path."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "netsel_bench",
              "-j", str(os.cpu_count() or 1)]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return BUILD / "netsel_bench"


def run_binary(binary, args):
    """Run the binary once; returns its result object. Exit code 2 with a
    result is a run whose checks failed: its result says which."""
    try:
        p = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"binary timed out: {' '.join(args)}")
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 2) or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"binary failed (exit {p.returncode}): {' '.join(args)}")
    return json.loads(lines[-1])


def one_run(binary, workload, seed, seconds, trace):
    OUT.mkdir(parents=True, exist_ok=True)
    return run_binary(binary, ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--out", str(OUT)])


def pick(result, specs):
    """The listed metrics of one result, in list order; all must be there."""
    out = {}
    for s in specs:
        m = result["metrics"].get(s["name"])
        if m is None:
            fail(f"{result['workload']}: binary did not report {s['name']}")
        out[s["name"]] = {"value": m["value"], "unit": s["unit"]}
    return out


def spread(values):
    """(median, IQR as a share of the median, max/min or None if min is 0)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 1.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo else (1.0 if hi == lo else None)
    return med, (q3 - q1) / med if med else 0.0, ratio


def single_run(binary, spec, a):
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload}; known: {' '.join(names)}")
    r = one_run(binary, a.workload, a.seed, a.seconds, a.trace)
    metrics = pick(r, spec["per_layer" if a.trace else "end_to_end"])
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for f in r["failures"]:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if r["correct"] else 2


def machine_record():
    rec = {"nproc": os.cpu_count()}
    cache = BUILD / "CMakeCache.txt"
    vals = {}
    if cache.exists():
        for line in cache.read_text().splitlines():
            if "=" in line and not line.startswith(("#", "//")):
                key, _, val = line.partition("=")
                vals[key.split(":")[0]] = val
    rec["build_type"] = vals.get("CMAKE_BUILD_TYPE", "unknown")
    cxx = vals.get("CMAKE_CXX_COMPILER", "c++")
    try:
        rec["compiler"] = subprocess.run(
            [cxx, "--version"], stdout=subprocess.PIPE, text=True
        ).stdout.splitlines()[0]
    except (OSError, IndexError):
        rec["compiler"] = cxx
    try:
        rec["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    except OSError:
        rec["commit"] = "unknown"
    return rec


def full_run(binary, spec, a):
    reps = 5 if a.calibrate else 1
    e2e = spec["end_to_end"]
    report = {"machine": machine_record(), "seed": a.seed,
              "seconds": a.seconds, "reps": reps, "workloads": {}}
    problems = []
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = [one_run(binary, w, a.seed, a.seconds, 0) for _ in range(reps)]
        shown = untraced_specs(spec, runs[0])
        entry = {"runs": [], "summary": {}}
        for r in runs:
            entry["runs"].append({"correct": r["correct"],
                                  "attempted": r["attempted"],
                                  "failed": r["failed"],
                                  "objective_mean": r["objective_mean"],
                                  "digest": r["digest"],
                                  "metrics": pick(r, shown)})
            problems += [f"{w}: {f}" for f in r["failures"]]
        print(f"\n== {w} (seed {a.seed}, {a.seconds} s, {reps} run(s), "
              f"{runs[0]['ops']} timed ops, {runs[0]['failed']} of "
              f"{runs[0]['attempted']} failed) ==")
        for s in shown:
            values = [r["metrics"][s["name"]]["value"] for r in entry["runs"]]
            med, iqr, ratio = spread(values)
            entry["summary"][s["name"]] = {"median": med, "iqr_frac": iqr,
                                           "max_over_min": ratio,
                                           "unit": s["unit"]}
            extra = (f"   IQR {100 * iqr:5.2f}%  max/min {ratio:.3f}"
                     if reps > 1 and ratio is not None else "")
            gate = "" if s in e2e else "   (not gated)"
            print(f"  {s['name']:14s} {med:12.6g} {s['unit']:6s}{extra}{gate}")
        print(f"  {'objective_mean':14s} {runs[0]['objective_mean']:12.10g} "
              f"score   (checked for bit-identity)")
        ident = {(r["digest"], r["objective_mean"]) for r in runs}
        if a.traced:
            t = one_run(binary, w, a.seed, a.seconds, 1)
            problems += [f"{w} traced: {f}" for f in t["failures"]]
            ident.add((t["digest"], t["objective_mean"]))
            entry["traced"] = pick(t, spec["per_layer"])
            entry["traced_extra"] = {k: v for k, v in t["metrics"].items()
                                     if k not in entry["traced"]}
            print(f"  -- per layer (traced run; spans in {OUT}) --")
            for name, m in sorted(t["metrics"].items()):
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        if len(ident) != 1:
            problems.append(f"{w}: digest/objective_mean differ across runs")
        report["workloads"][w] = entry
    report["correct"] = not problems
    report["problems"] = problems
    dest = Path(a.save) if a.save else BUILD / "results.json"
    dest.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {dest}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("all checks passed" if not problems else "CHECKS FAILED")
    return 0 if not problems else 2


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--save", help="write the report to this file instead of "
                    "build-benchmark/results.json")
    ap.add_argument("--binary", help="use this binary; skip the build")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be >= 1")
    binary = Path(a.binary) if a.binary else build()
    if a.check:
        OUT.mkdir(parents=True, exist_ok=True)
        return subprocess.run([str(binary), "--check", "--out",
                               str(OUT / "check")]).returncode
    if a.workload:
        return single_run(binary, spec, a)
    return full_run(binary, spec, a)


if __name__ == "__main__":
    sys.exit(main())
