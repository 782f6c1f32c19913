#!/usr/bin/env python3
"""Schema check for the obs metrics JSON document (and optionally a Chrome
trace) written by the bench binaries' --metrics-json / --chrome-trace flags.

Usage: check_metrics_json.py [--profile NAME] METRICS_JSON [CHROME_TRACE_JSON]

Profiles pick the required metric set for the producing benchmark:
  table1 (default)  simulation grids: bench_table1 / bench_faults
  scale             selection-only runs: bench_scale (no simulator, no
                    experiment harness, hence no sim.*/exp.* counters)
  churn             delta-stream runs: bench_churn (adds the incremental
                    invalidation counters and the CSR patch histogram)
  service           scheduler-loop runs: bench_service (adds the sched.*
                    state-machine counters, the placement-latency and
                    queue-wait histograms, the obs.ts.* / obs.trace.* /
                    obs.flight.* telemetry mirrors, requires the
                    10k-host candidate-set histogram to stay out of its
                    overflow bucket, and reconciles the job counters; see
                    reconcile_service)
  exact             optimality-gap certification runs: bench_exact (the
                    select.bnb.* branch-and-bound search counters and the
                    B&B latency histogram; select.selections covers both
                    the exact searches and their greedy warm starts)
  timeseries        the positional file is a netsel-timeseries-v1 document
                    (bench_service --timeseries-json): validates monotone
                    sim time, sample-count vs cadence consistency, and the
                    counter delta-decode round trip (first + sum(deltas)
                    == last, len(deltas) == samples - 1)

Exits non-zero with a message on the first violation. Used by CI on the
documents its bench runs write, and by scripts/bench_exact_json.sh.
"""

import json
import sys

SCHEMA = "netsel-metrics-v1"

# Counters/histograms every instrumented run of the given profile must
# register (values may be 0 — e.g. the degradation counters are
# pre-registered by the bench even when no placement ran through the
# service).
PROFILES = {
    "table1": {
        "counters": [
            "select.ctx.row_hits",
            "select.ctx.row_misses",
            "api.degradation.full",
            "api.degradation.smoothed",
            "api.degradation.prior",
            "pool.tasks_run",
            "pool.steals",
            "sim.events",
            "exp.trials",
        ],
        "histograms": [
            "exp.cell_s",
            "select.latency_s.balanced",
        ],
    },
    "scale": {
        "counters": [
            "select.ctx.row_hits",
            "select.ctx.row_misses",
            "select.prune.dropped",
            "select.selections",
            "api.degradation.full",
            "api.degradation.smoothed",
            "api.degradation.prior",
        ],
        "histograms": [
            "select.latency_s.balanced",
            "select.latency_s.max_bandwidth",
            "select.latency_s.max_compute",
        ],
        "gauges": [
            "proc.peak_rss_bytes",
            "select.ctx.arena_bytes",
        ],
    },
    "churn": {
        "counters": [
            "select.ctx.row_hits",
            "select.ctx.row_misses",
            "select.ctx.invalidations",
            "select.ctx.delta.applied",
            "select.ctx.rows.repaired",
            "select.ctx.rows.invalidated.partial",
            "select.ctx.rows.invalidated.full",
            "api.reselect.calls",
            "api.reselect.migrations",
            "api.degradation.full",
            "api.degradation.smoothed",
            "api.degradation.prior",
        ],
        "histograms": [
            "select.latency_s.balanced",
        ],
    },
    "exact": {
        "counters": [
            "select.bnb.selections",
            "select.bnb.expanded",
            "select.bnb.pushed",
            "select.bnb.pruned_bound",
            "select.bnb.pruned_lex",
            "select.bnb.pool_dominated",
            "select.bnb.open_dropped",
            "select.bnb.certified",
            "select.bnb.budget_hits",
            "select.selections",
            "select.ctx.row_hits",
            "select.ctx.row_misses",
        ],
        "histograms": [
            "select.latency_s.bnb",
        ],
    },
    "service": {
        "counters": [
            "sched.jobs.submitted",
            "sched.jobs.admitted",
            "sched.jobs.rejected",
            "sched.jobs.timeout",
            "sched.jobs.placed",
            "sched.jobs.completed",
            "sched.place.conflicts",
            "sched.place.infeasible",
            "sched.rebalance.attempts",
            "sched.rebalance.migrations",
            "sched.ladder.full",
            "sched.ladder.smoothed",
            "sched.ladder.prior",
            "api.reselect.calls",
            "api.reselect.migrations",
            "api.degradation.full",
            "api.degradation.smoothed",
            "api.degradation.prior",
            "select.ctx.row_hits",
            "select.ctx.row_misses",
            "select.selections",
            "obs.ts.samples",
            "obs.ts.dropped",
            "obs.trace.traces",
            "obs.trace.spans",
            "obs.flight.events",
        ],
        "histograms": [
            "sched.placement_latency_s",
            "sched.queue_wait_s",
            "api.candidate_set_size",
            "select.latency_s.balanced",
        ],
        "gauges": [
            "sched.queue.depth",
            "sched.jobs.running",
            "obs.ts.series",
        ],
    },
}

TS_SCHEMA = "netsel-timeseries-v1"


def reconcile_service(path, counters, gauges):
    """Job-accounting identities of a drained scheduler run (bench_service
    drains every pass; the gauges hold the last pass's end state, and the
    counters sum over passes, each of which satisfies them)."""
    c = counters
    queued = gauges["sched.queue.depth"]
    running = gauges["sched.jobs.running"]
    tenant_rungs = sum(v for k, v in c.items()
                       if k.startswith("sched.ladder.tenant."))
    identities = [
        ("sched.jobs.submitted", c["sched.jobs.submitted"],
         "admitted + rejected",
         c["sched.jobs.admitted"] + c["sched.jobs.rejected"]),
        ("sched.jobs.admitted", c["sched.jobs.admitted"],
         "placed + timeout + sched.queue.depth",
         c["sched.jobs.placed"] + c["sched.jobs.timeout"] + queued),
        ("sched.jobs.placed", c["sched.jobs.placed"],
         "completed + sched.jobs.running",
         c["sched.jobs.completed"] + running),
        ("sched.jobs.placed", c["sched.jobs.placed"],
         "sched.ladder.full + smoothed + prior",
         c["sched.ladder.full"] + c["sched.ladder.smoothed"]
         + c["sched.ladder.prior"]),
        ("sched.jobs.placed", c["sched.jobs.placed"],
         "sum of sched.ladder.tenant.*", tenant_rungs),
    ]
    for name, value, rhs, expected in identities:
        if value != expected:
            fail(f"{path}: {name} = {value} != {rhs} = {expected}")


def fail(msg):
    print(f"check_metrics_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(path, profile):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: 'counters' missing or not an object")
    for name in PROFILES[profile]["counters"]:
        if name not in counters:
            fail(f"{path}: required counter {name!r} missing")
        if not isinstance(counters[name], int) or counters[name] < 0:
            fail(f"{path}: counter {name!r} is not a non-negative integer")

    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        fail(f"{path}: 'histograms' missing or not an object")
    for name in PROFILES[profile]["histograms"]:
        if name not in hists:
            fail(f"{path}: required histogram {name!r} missing")
    for name, h in hists.items():
        bounds, counts = h.get("bounds"), h.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            fail(f"{path}: histogram {name!r} lacks bounds/counts lists")
        if len(counts) != len(bounds) + 1:
            fail(
                f"{path}: histogram {name!r}: len(counts)={len(counts)} "
                f"!= len(bounds)+1={len(bounds) + 1}"
            )
        if bounds != sorted(bounds):
            fail(f"{path}: histogram {name!r}: bounds not ascending")
        if h.get("count") != sum(counts):
            fail(
                f"{path}: histogram {name!r}: count={h.get('count')} "
                f"!= sum(counts)={sum(counts)}"
            )

    if profile == "service":
        # The candidate-set histogram's exponential buckets (2 .. 2^20) must
        # cover the 10k-host profile: a populated overflow bucket means the
        # bounds regressed (the old linear buckets topped out at 32).
        h = hists.get("api.candidate_set_size", {})
        counts = h.get("counts") or [0]
        if h.get("count", 0) == 0:
            fail(f"{path}: api.candidate_set_size recorded no observations")
        if counts[-1] != 0:
            fail(
                f"{path}: api.candidate_set_size overflowed its bucket "
                f"bounds ({counts[-1]} observations past "
                f"{h.get('bounds', [0])[-1]})"
            )

    gauge_names = PROFILES[profile].get("gauges", [])
    if gauge_names:
        gauges = doc.get("gauges")
        if not isinstance(gauges, dict):
            fail(f"{path}: 'gauges' missing or not an object")
        for name in gauge_names:
            if name not in gauges:
                fail(f"{path}: required gauge {name!r} missing")
            if not isinstance(gauges[name], (int, float)) or gauges[name] < 0:
                fail(f"{path}: gauge {name!r} is not a non-negative number")

    if profile == "service":
        reconcile_service(path, counters, doc["gauges"])

    if not isinstance(doc.get("spans"), int):
        fail(f"{path}: 'spans' missing or not an integer")
    print(
        f"check_metrics_json: {path}: OK "
        f"({len(counters)} counters, {len(hists)} histograms, "
        f"{doc['spans']} spans)"
    )


def check_timeseries(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != TS_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {TS_SCHEMA!r}")
    cadence = doc.get("cadence_s")
    if not isinstance(cadence, (int, float)) or cadence <= 0:
        fail(f"{path}: cadence_s missing or not positive")
    samples = doc.get("samples")
    dropped = doc.get("dropped")
    if not isinstance(samples, int) or samples < 0:
        fail(f"{path}: 'samples' missing or negative")
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"{path}: 'dropped' missing or negative")
    t_first, t_last = doc.get("t_first"), doc.get("t_last")
    if samples == 0:
        if doc.get("series"):
            fail(f"{path}: zero samples but non-empty series")
        print(f"check_metrics_json: {path}: OK (empty time series)")
        return
    # Sim time is monotone by construction: boundary i sits at i * cadence.
    # With `dropped` rows evicted, the first retained row is boundary
    # `dropped` and the last is boundary dropped + samples - 1.
    tol = 1e-9 * max(1.0, abs(t_last or 0.0))
    if abs(t_first - dropped * cadence) > tol:
        fail(
            f"{path}: t_first={t_first} inconsistent with "
            f"dropped={dropped} * cadence={cadence}"
        )
    if abs(t_last - (t_first + (samples - 1) * cadence)) > tol:
        fail(
            f"{path}: t_last={t_last} != t_first + (samples-1)*cadence "
            f"(monotone cadence grid violated)"
        )
    series = doc.get("series")
    if not isinstance(series, dict) or not series:
        fail(f"{path}: 'series' missing or empty despite {samples} samples")
    for name, s in series.items():
        kind = s.get("type")
        if kind == "counter":
            deltas = s.get("deltas")
            if not isinstance(deltas, list) or len(deltas) != samples - 1:
                fail(
                    f"{path}: counter {name!r}: len(deltas)="
                    f"{None if not isinstance(deltas, list) else len(deltas)} "
                    f"!= samples-1={samples - 1}"
                )
            first, last = s.get("first"), s.get("last")
            if first + sum(deltas) != last:
                fail(
                    f"{path}: counter {name!r}: delta decode "
                    f"first+sum(deltas)={first + sum(deltas)} != last={last}"
                )
        elif kind == "gauge":
            values = s.get("values")
            if not isinstance(values, list) or len(values) != samples:
                fail(
                    f"{path}: gauge {name!r}: len(values)="
                    f"{None if not isinstance(values, list) else len(values)} "
                    f"!= samples={samples}"
                )
        else:
            fail(f"{path}: series {name!r} has unknown type {kind!r}")
    print(
        f"check_metrics_json: {path}: OK "
        f"({len(series)} series, {samples} samples, {dropped} dropped)"
    )


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: 'traceEvents' missing, not a list, or empty")
    complete = 0
    for ev in events:
        if "ph" not in ev or "name" not in ev:
            fail(f"{path}: event without ph/name: {ev!r}")
        if ev["ph"] == "X":
            complete += 1
            for key in ("ts", "dur", "pid", "tid"):
                if key not in ev:
                    fail(f"{path}: complete event missing {key!r}: {ev!r}")
    if complete == 0:
        fail(f"{path}: no complete ('ph':'X') events recorded")
    print(f"check_metrics_json: {path}: OK ({complete} complete events)")


def main(argv):
    args = argv[1:]
    profile = "table1"
    if args and args[0] == "--profile":
        if len(args) < 2 or (args[1] not in PROFILES and args[1] != "timeseries"):
            print(__doc__, file=sys.stderr)
            return 2
        profile = args[1]
        args = args[2:]
    if len(args) < 1 or len(args) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    if profile == "timeseries":
        check_timeseries(args[0])
        if len(args) == 2:
            check_trace(args[1])
        return 0
    check_metrics(args[0], profile)
    if len(args) == 2:
        check_trace(args[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
