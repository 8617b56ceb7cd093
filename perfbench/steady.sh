#!/usr/bin/env bash
# Run the benchmark on several seeds per workload, one run at a time,
# and print each metric's median and quartile spread across the runs.
#
#   perfbench/steady.sh [runs] [seconds] [workload...]
#
# Run from the repository root. Result lines are kept in
# perfbench/out/steady-<workload>.jsonl.
set -euo pipefail

runs=${1:-10}
seconds=${2:-10}
shift 2 || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(paper_sweep rank_cliff crash_recover serve_zipf)
fi

bench=(bash perfbench/run.sh)
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml # build before timing anything
mkdir -p perfbench/out
for w in "${workloads[@]}"; do
    out=perfbench/out/steady-$w.jsonl
    : >"$out"
    for i in $(seq 1 "$runs"); do
        "${bench[@]}" --workload "$w" --seed "$((1000 + i))" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out"
    done
    echo "== $w ($runs runs, ${seconds}s each)"
    "${bench[@]}" spread <"$out"
done
