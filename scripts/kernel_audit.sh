#!/usr/bin/env bash
# Kernel audit: does each native kernel still beat the interpreter on its
# own pair?
#
# Builds HEAD's perfbench once, as scripts/ab.sh does (a `git archive`
# export under target/ab/<sha>/, shared with ab.sh; the working tree is
# never touched). Then, for each seed 1..SEEDS, it runs one `--trace 1`
# run of bulk-verified (kernels) and one of bulk-default (interpreter
# only) of SECONDS each, alternating which goes first. From each run's
# per-pair layer table it takes the pair's end-to-end ns per stored
# entry. A pair is kernel-backed when its bulk-verified replay has no
# extract stage: a kernel returns the destination container itself.
#
# It prints, per kernel-backed pair, the median ns/nnz on each side over
# the seeds, their ratio, and whether the row clears the keep rule: the
# kernel's median at least 5% below the interpreter's. Last, it prints
# the median of the same ratio over the pairs both sides interpret: what
# the two sides differ by when no kernel is involved (host drift between
# runs, allocator state), against which a ratio near 0.95 is read. The
# raw tables are kept in target/ab/<sha>-kernel-audit.runs.
#
# Usage: scripts/kernel_audit.sh SEEDS SECONDS
#   SEEDS:   runs per side, on perfbench seeds 1..SEEDS
#   SECONDS: perfbench --seconds of each run
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
    echo "usage: scripts/kernel_audit.sh SEEDS SECONDS" >&2
    exit 2
fi
SEEDS=$1 SECONDS_PER_RUN=$2
HEAD=$(git rev-parse --verify "HEAD^{commit}")

dir="target/ab/$HEAD"
if [ ! -x "$dir/perfbench" ]; then
    echo "==> building perfbench at $HEAD" >&2
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    git archive "$HEAD" | tar -x -C "$dir/src"
    cargo build --release --quiet --offline \
        --manifest-path "$dir/src/perfbench/Cargo.toml" --target-dir "$dir/target" >&2
    cp "$dir/target/release/perfbench" "$dir/perfbench"
fi

# Each runs line: side, seed, pair label, ns/nnz, extract ns/nnz (tabs).
RUNS="target/ab/${HEAD:0:7}-kernel-audit.runs"
: > "$RUNS"
for ((seed = 1; seed <= SEEDS; seed++)); do
    if ((seed % 2)); then order="bulk-verified bulk-default"; else order="bulk-default bulk-verified"; fi
    for workload in $order; do
        echo "==> seed $seed/$SEEDS: $workload" >&2
        table=$(mktemp)
        last=$("$dir/perfbench" --workload "$workload" --seed "$seed" \
            --seconds "$SECONDS_PER_RUN" --trace 1 2> "$table" | tail -n 1)
        case "$last" in
            *'"correct": true'*'"failed": 0,'*) ;;
            *) echo "kernel_audit: $workload seed $seed: wrong outputs or failed conversions" >&2
               rm -f "$table"; exit 1 ;;
        esac
        # Table rows end in six numbers (calls, ns/nnz, plan, validate,
        # exec, extract) after a label that holds spaces.
        awk -v side="$workload" -v seed="$seed" 'BEGIN { OFS = "\t" }
            NF >= 7 && $(NF - 5) ~ /^[0-9]+$/ {
                pair = $1
                for (k = 2; k <= NF - 6; k++) pair = pair " " $k
                print side, seed, pair, $(NF - 4), $NF
            }' "$table" >> "$RUNS"
        rm -f "$table"
    done
done

awk -F '\t' -v seeds="$SEEDS" -v seconds="$SECONDS_PER_RUN" -v head="$HEAD" '
function sortn(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
function median(a, n) {
    sortn(a, n)
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
{
    side = $1; pair = $3
    if (!(pair in seen)) { seen[pair] = 1; order[++npairs] = pair }
    n[side, pair]++
    ns[side, pair, n[side, pair]] = $4 + 0
    if (side == "bulk-verified" && $5 + 0 != 0) interp[pair] = 1
}
END {
    printf "kernel audit at %.7s: %d seeds, %s s per run; ns/nnz medians end to end\n",
        head, seeds, seconds
    printf "%-20s %10s %10s %8s  %s\n", "pair", "kernel", "interp", "ratio", "keep (ratio <= 0.95)"
    for (p = 1; p <= npairs; p++) {
        pair = order[p]
        for (s = 0; s < 2; s++) {
            side = s ? "bulk-default" : "bulk-verified"
            m = n[side, pair]
            for (k = 1; k <= m; k++) x[k] = ns[side, pair, k]
            med[s] = m ? median(x, m) : 0
        }
        ratio = med[1] ? med[0] / med[1] : 0
        if (pair in interp) {
            null[++nnull] = ratio
            continue
        }
        printf "%-20s %10.1f %10.1f %8.3f  %s\n", pair, med[0], med[1], ratio,
            ratio <= 0.95 ? "yes" : "no"
        kernels++
    }
    printf "%d kernel-backed pairs; the %d interpreted on both sides: median ratio %.3f\n",
        kernels, nnull, nnull ? median(null, nnull) : 0
}' "$RUNS"
