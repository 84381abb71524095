#!/usr/bin/env bash
# Benchmark driver: runs the criterion benches in quick mode (the
# vendored criterion shim is already sample-bounded) and then the
# engine-level benchmark (perfbench, the command BENCHMARK.json names)
# on its three workloads, one JSON result line per workload in
# target/perfbench/<workload>.json.
#
# Usage: scripts/bench.sh [SECONDS]
#   SECONDS: measurement time per workload (default 20, as BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_RUN="${1:-20}"

echo "==> criterion benches (quick mode)"
cargo bench -q -p sparse-bench --bench fig2_conversions
cargo bench -q -p sparse-bench --bench table4_morton

echo "==> perfbench (BENCHMARK.json workloads)"
mkdir -p target/perfbench
for workload in bulk-default bulk-verified stream-small; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        --target-dir target -- \
        --workload "$workload" --seconds "$SECONDS_PER_RUN" --trace 0 \
        | tail -n 1 | tee "target/perfbench/$workload.json"
done

echo "Wrote target/perfbench/{bulk-default,bulk-verified,stream-small}.json"
