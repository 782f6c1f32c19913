#!/usr/bin/env bash
# Regenerate BENCH_exact.json: build Release, run the optimality-gap
# certification grid (family x m in {4,8,16,32,64} x criterion plus the
# fixed-constraint x prioritization block) and write the gap record to the
# repo root. Every cell carries a sound bracket greedy <= optimum <= bound
# from the branch-and-bound selector under a deterministic node budget —
# marked exact when the search proved optimality, else with its stop
# reason. The record is bit-identical across machines (node budgets only,
# no wall-clock budgets), so the regression gate compares its cell and
# soundness fields directly. The metrics document lands in the build tree
# (build/metrics_exact.json: the select.bnb.* counters and B&B latency
# histogram).
#
# Usage: scripts/bench_exact_json.sh [budget]
#   budget  node-expansion budget per cell (default 20000)
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${1:-20000}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$(nproc)" --target bench_exact >/dev/null
./build/bench/bench_exact --budget "$BUDGET" \
  --bench-json BENCH_exact.json --metrics-json build/metrics_exact.json
python3 scripts/check_metrics_json.py --profile exact build/metrics_exact.json
cat BENCH_exact.json
