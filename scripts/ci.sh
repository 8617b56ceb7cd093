#!/usr/bin/env bash
# Full CI gate: lint (tier-2), the tier-1 build+test suite, every crate's
# unit tests, the benchmark package's tests, the runtime correctness
# checker's integration tests, and the static planner's self-verification
# (exact-once, lockstep, plan<->trace conformance over the example
# configurations). Run from anywhere; fails on the first violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint (fmt + clippy)"
scripts/lint.sh

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests: cargo test --workspace -q (every crate's unit tests)"
cargo test --workspace -q

echo "== benchmark package tests (its phase-split driver repeats Experiment::run through the public API)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== checker integration tests"
cargo test -q --test checker

echo "== planner self-verification (plan_report)"
cargo run --release --example plan_report

echo "== tune (zero Error lints on presets; advisory beats every preset; committed CSV of the strategy matrix regenerates byte-identically)"
cargo run --release -q -p amrio-bench --bin tune
git diff --exit-code -- results/tune.csv

echo "== verify (static happens-before verdicts vs runtime checker, zero false negatives; committed CSV regenerates byte-identically)"
cargo run --release -q -p amrio-bench --bin verify
git diff --exit-code -- results/verify.csv

echo "== resilience fault-matrix smoke (fault injection + graceful degradation)"
cargo run --release -q -p amrio-bench --bin resilience -- --smoke

echo "== crash-point sweep (atomic commit + restart-from-latest; committed CSV regenerates byte-identically)"
cargo run --release -q -p amrio-bench --bin crash
git diff --exit-code -- results/crash.csv

echo "== selfbench smoke (exact work counters of each smoke cell vs BENCH_selfbench.json, then the wall-clock regression gate)"
cargo run --release -q -p amrio-bench --bin selfbench -- --smoke --out /tmp/selfbench_smoke.json
baseline=$(grep -m1 '"smoke_total_wall_ms"' BENCH_selfbench.json | grep -o '[0-9.]*')
current=$(grep -m1 '"smoke_total_wall_ms"' /tmp/selfbench_smoke.json | grep -o '[0-9.]*')
echo "   committed baseline: ${baseline} ms, this run: ${current} ms"
awk -v b="$baseline" -v c="$current" 'BEGIN {
  if (c > b * 1.25) {
    printf "selfbench smoke regressed: %.1f ms > 1.25 x %.1f ms baseline\n", c, b
    exit 1
  }
}'

echo "== selfbench scale smoke (exact work counters of the 256-rank cell vs its rank_sweep row in BENCH_selfbench.json, then the absolute executor-scaling budget)"
cargo run --release -q -p amrio-bench --bin selfbench -- --scale-smoke

echo "== loadgen smoke (serve cache: hot >= 20x cold rps, hot p99 budget, zero digest mismatches, coalescing proof)"
cargo run --release -q -p amrio-bench --bin loadgen -- --smoke

echo "ci: OK"
