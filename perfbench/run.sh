#!/usr/bin/env bash
# Build the benchmark from source, then run it pinned to one CPU.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build uses every core; the run is
# pinned because on a small virtual machine the wake-up latency between
# CPUs, not the program, set most of the run-to-run spread of wall time
# (rank threads hand the scheduler grant to each other thousands of
# times per run). The build output goes to $CARGO_TARGET_DIR, or
# perfbench/target when it is unset.
set -euo pipefail

here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/amrio-perfbench"

# One arena per process keeps the peak resident set from depending on
# which arena each short-lived rank thread happened to get.
export MALLOC_ARENA_MAX=1

if command -v taskset >/dev/null 2>&1; then
    # The last CPU this process may use (CPU 0 takes most interrupts).
    cpu=$(awk '/^Cpus_allowed_list:/ { print $2 }' /proc/self/status | grep -o '[0-9]*$')
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
