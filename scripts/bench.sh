#!/usr/bin/env bash
# Benchmark driver: runs the engine-level benchmark (perfbench, the
# command BENCHMARK.json names) on its three workloads; the paper's
# figures come from `cargo run --release -p sparse-bench --bin figures`.
# Each workload runs twice: with `--trace 0` for the end-to-end metrics
# and with `--trace 1` for the per-layer metrics and the per-pair layer
# table perfbench prints on stderr. The result is
# one JSON object per workload in target/perfbench/<workload>.json:
#
#   {"workload": ..., "end_to_end": <trace-0 line>, "layers": <trace-1 line>,
#    "per_pair": [{"pair": "COO -> CSR", "calls": .., "ns_per_nnz": ..,
#                  "plan": .., "validate": .., "exec": .., "extract": ..}, ..]}
#
# Usage: scripts/bench.sh [SECONDS]
#   SECONDS: measurement time per run (default 20, as BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_RUN="${1:-20}"

echo "==> perfbench (BENCHMARK.json workloads)"
mkdir -p target/perfbench
perfbench() {
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        --target-dir target -- \
        --workload "$1" --seconds "$SECONDS_PER_RUN" --trace "$2"
}
for workload in bulk-default bulk-verified stream-small; do
    table="target/perfbench/$workload.trace.txt"
    end_to_end=$(perfbench "$workload" 0 | tail -n 1)
    layers=$(perfbench "$workload" 1 2> "$table" | tail -n 1)
    # Table rows end in six numbers after a pair name that contains spaces.
    per_pair=$(awk '/ -> / && NF >= 9 {
        name = $1; for (k = 2; k <= NF - 6; k++) name = name " " $k
        printf "%s{\"pair\": \"%s\", \"calls\": %s, \"ns_per_nnz\": %s, \"plan\": %s, \"validate\": %s, \"exec\": %s, \"extract\": %s}", sep, name, $(NF-5), $(NF-4), $(NF-3), $(NF-2), $(NF-1), $NF
        sep = ", "
    }' "$table")
    printf '{"workload": "%s", "seconds": %s, "end_to_end": %s, "layers": %s, "per_pair": [%s]}\n' \
        "$workload" "$SECONDS_PER_RUN" "$end_to_end" "$layers" "$per_pair" \
        | tee "target/perfbench/$workload.json"
done

echo "Wrote target/perfbench/{bulk-default,bulk-verified,stream-small}.json (per-pair tables in *.trace.txt)"
