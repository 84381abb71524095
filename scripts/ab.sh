#!/usr/bin/env bash
# A/B benchmark of two revisions on one perfbench workload.
#
# Builds each revision's perfbench once, from a `git archive` export of
# that revision under target/ab/<sha>/ (the working tree is never
# touched), then runs N pairs of BENCHMARK.json's `run_seconds` each
# with `--trace 0`, alternating which side runs first. It prints, per
# BENCHMARK.json end-to-end metric, each side's range, median and
# interquartile range, and in how many pairs HEAD beat BASE (ties count
# for neither), plus each side's correct runs and failed conversions.
# The last line of stdout is the whole run as one JSON object; the raw
# perfbench lines are kept in target/ab/<base>-<head>-<workload>-s<seed>.runs.
#
# Usage: scripts/ab.sh BASE HEAD WORKLOAD N SEED
#   BASE, HEAD: any git revisions (commits, tags, branches)
#   WORKLOAD:   bulk-default | bulk-verified | stream-small
#   N:          pairs of runs
#   SEED:       perfbench --seed
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 5 ]; then
    echo "usage: scripts/ab.sh BASE HEAD WORKLOAD N SEED" >&2
    exit 2
fi
WORKLOAD=$3 N=$4 SEED=$5
BASE=$(git rev-parse --verify "$1^{commit}")
HEAD=$(git rev-parse --verify "$2^{commit}")

# BENCHMARK.json on one line: run_seconds, and "name better bound" for
# each end-to-end metric.
SPEC=$(tr -d '\n' < BENCHMARK.json)
SECONDS_PER_RUN=$(printf '%s' "$SPEC" | sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p')
METRICS=$(printf '%s' "$SPEC" | sed 's/.*"end_to_end": *\[\([^]]*\)\].*/\1/' | tr '}' '\n' |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')

# One optimized perfbench per revision, reused across invocations.
build() {
    local dir="target/ab/$1"
    if [ ! -x "$dir/perfbench" ]; then
        echo "==> building perfbench at $1" >&2
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git archive "$1" | tar -x -C "$dir/src"
        cargo build --release --quiet --offline \
            --manifest-path "$dir/src/perfbench/Cargo.toml" --target-dir "$dir/target" >&2
        cp "$dir/target/release/perfbench" "$dir/perfbench"
    fi
}
build "$BASE"
build "$HEAD"

RUNS="target/ab/${BASE:0:7}-${HEAD:0:7}-$WORKLOAD-s$SEED.runs"
: > "$RUNS"
for ((i = 1; i <= N; i++)); do
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
        if [ "$side" = base ]; then sha=$BASE; else sha=$HEAD; fi
        echo "==> pair $i/$N: $side" >&2
        line=$("target/ab/$sha/perfbench" --workload "$WORKLOAD" --seed "$SEED" \
            --seconds "$SECONDS_PER_RUN" --trace 0 2> /dev/null | tail -n 1)
        printf '%s %s %s\n' "$i" "$side" "$line" >> "$RUNS"
    done
done

# Summary. Each runs line: pair, side, perfbench's JSON line.
awk -v metrics="$METRICS" -v base="$BASE" -v head="$HEAD" -v workload="$WORKLOAD" \
    -v seed="$SEED" -v seconds="$SECONDS_PER_RUN" '
function value(line, name,    s) {
    s = line
    if (!sub(".*\"" name "\": \\{\"value\": ", "", s)) return "null"
    sub("[,}].*", "", s)
    return s
}
function sortn(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# The p-quantile of sorted a[1..n], interpolating between ranks.
function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
    pair = $1; side = $2; line = $0; sub(/^[^ ]+ [^ ]+ /, "", line)
    npairs = pair > npairs ? pair : npairs
    raw[pair, side] = line
    ok = line ~ /"correct": true/
    correct[side] += ok
    runs[side]++
    nfail = line; sub(/.*"failed": /, "", nfail); sub(/,.*/, "", nfail)
    failed[side] += nfail + 0
}
END {
    m = split(metrics, spec, "\n")
    printf "%s, seed %s, %s s per run, %d pairs; base %.7s, head %.7s\n",
        workload, seed, seconds, npairs, base, head
    printf "%-22s %-5s %21s %11s %11s %s\n", "metric", "side", "range", "median", "IQR", "head wins"
    json_summary = ""
    for (k = 1; k <= m; k++) {
        split(spec[k], f, " ")
        name = f[1]; lower = f[2] == "lower"; bound = f[3]
        wins = 0
        for (s = 0; s < 2; s++) {
            side = s ? "head" : "base"
            n = 0
            for (p = 1; p <= npairs; p++) {
                v = value(raw[p, side], name)
                if (v != "null") x[++n] = v + 0
            }
            sortn(x, n)
            med[side] = n ? quantile(x, n, 0.5) : "nan"
            iqr[side] = n ? quantile(x, n, 0.75) - quantile(x, n, 0.25) : "nan"
            lo[side] = n ? x[1] : "nan"; hi[side] = n ? x[n] : "nan"
        }
        for (p = 1; p <= npairs; p++) {
            b = value(raw[p, "base"], name); h = value(raw[p, "head"], name)
            if (b == "null" || h == "null" || b + 0 == h + 0) continue
            if ((lower && h + 0 < b + 0) || (!lower && h + 0 > b + 0)) wins++
        }
        change = med["base"] ? (med["head"] - med["base"]) / med["base"] : 0
        for (s = 0; s < 2; s++) {
            side = s ? "head" : "base"
            printf "%-22s %-5s %10.4g-%-10.4g %11.4g %11.4g", s ? "" : name, side,
                lo[side], hi[side], med[side], iqr[side]
            if (s) printf " %d/%d (median %+.1f%%, bound %g)", wins, npairs, 100 * change, bound
            printf "\n"
        }
        json_summary = json_summary sprintf("%s\"%s\": {\"better\": \"%s\", \"bound\": %s, " \
            "\"base_median\": %s, \"base_iqr\": %s, \"head_median\": %s, \"head_iqr\": %s, " \
            "\"head_wins\": %d, \"pairs\": %d}", k > 1 ? ", " : "", name, f[2], bound,
            med["base"], iqr["base"], med["head"], iqr["head"], wins, npairs)
    }
    for (s = 0; s < 2; s++) {
        side = s ? "head" : "base"
        printf "%s: %d/%d runs correct, %d failed conversions\n", side, correct[side],
            runs[side], failed[side]
    }
    json_runs = ""
    for (p = 1; p <= npairs; p++)
        for (s = 0; s < 2; s++) {
            side = s ? "head" : "base"
            json_runs = json_runs sprintf("%s{\"pair\": %d, \"side\": \"%s\", \"result\": %s}",
                json_runs == "" ? "" : ", ", p, side, raw[p, side] == "" ? "null" : raw[p, side])
        }
    printf "{\"base\": \"%s\", \"head\": \"%s\", \"workload\": \"%s\", \"seed\": %s, " \
        "\"seconds\": %s, \"summary\": {%s}, \"failed\": {\"base\": %d, \"head\": %d}, " \
        "\"correct_runs\": {\"base\": %d, \"head\": %d}, \"runs\": [%s]}\n",
        base, head, workload, seed, seconds, json_summary, failed["base"], failed["head"],
        correct["base"], correct["head"], json_runs
}' "$RUNS"
