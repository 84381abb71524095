#!/usr/bin/env bash
# Full local gate: release build, tests, and lint-clean clippy.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# default-members in Cargo.toml makes this every crate's tests: the
# differential, fault-injection, observability and concurrency suites
# included.
cargo test -q

echo "==> oracle, differential, fault-injection, tensor, interpreter and ExecStats suites on the optimized build"
# The engine serves release builds: check the optimized interpreter and
# kernels against the 37-pair oracle and the kernel differential suite,
# and the memory-budget and allocation-failure tests, which hold in
# fault_injection and tensor_path. The interpreter's own tests and the
# exact ExecStats golden run here too: chunked loops compute lanes and
# trip counts with arithmetic that panics on overflow in debug builds and
# wraps in release, so both builds must pass them. So do the packed-key
# sort, whose shifts reach 63 bits, the Z-order validation sweep in
# sparse-formats, and the rank golden that pins the list lanes' ranks.
cargo test --release -q -p spf-codegen --lib
cargo test --release -q -p sparse-formats
cargo test --release -q -p sparse-synthesis --test rank_golden
cargo test --release -q -p sparse-synthesis --test conversions
cargo test --release -q -p sparse-engine --test oracle
cargo test --release -q -p sparse-synthesis --test differential
cargo test --release -q -p sparse-engine --test fault_injection
cargo test --release -q -p sparse-engine --test tensor_path

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no-panic gate: hardened crates deny unwrap/expect in non-test code"
# sparse-engine and sparse-formats carry crate-level
# #![deny(clippy::unwrap_used, clippy::expect_used)]; clippy.toml exempts
# #[cfg(test)] code. Any panicking escape hatch in production code fails
# this step. (The flags live in the crates, not on the command line,
# because trailing clippy flags leak into workspace-internal deps.)
cargo clippy -q -p sparse-engine -p sparse-formats --lib

echo "==> rustdoc with warnings denied"
# A doc link to a deleted or private item, or an ambiguous one, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo run --release --example lint_descriptor (static-analysis gate)"
# Lints every catalog descriptor and statically verifies every
# synthesizable conversion plan; exits nonzero on any error or warning.
cargo run --release --example lint_descriptor

echo "==> figures at a tiny scale (the one figure harness stays runnable)"
# Every series the paper's evaluation and EXPERIMENTS.md cite (Table 3,
# Fig. 2a-d, Fig. 3, Table 4, Table 5 and the ablation), at a scale small
# enough to take well under a second; any panic exits nonzero.
cargo run --release -q -p sparse-bench --bin figures -- --scale 4096 --reps 1 > /dev/null

echo "==> perfbench stream-small (engine-level correctness and layer-shape gate)"
# Converts every executable catalog pair (31 matrix, 6 tensor) through
# Engine::convert / convert_tensor and checks each output bit-exactly;
# building it also proves the public API the benchmark pins still
# exists. The last line of stdout is the run's JSON result. It builds
# into the workspace's target/ so perfbench/ itself stays untouched.
PERF_LAST=$(cargo run --release --offline --manifest-path perfbench/Cargo.toml --target-dir target -- \
    --workload stream-small --seconds 1 --trace 1 | tail -n 1)
echo "$PERF_LAST"
case "$PERF_LAST" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench stream-small: wrong outputs or failed conversions" >&2; exit 1 ;;
esac
# Shape, not speed: the replayed layers (plan, validate, exec, extract)
# must explain Engine::convert's time to within half of it either way.
metric() { printf '%s\n' "$PERF_LAST" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"; }
UNATTR=$(metric unattributed_share)
if ! awk -v x="$UNATTR" 'BEGIN {
    if (x !~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) exit 1
    exit !(x >= -0.5 && x <= 0.5)
}'; then
    echo "perfbench stream-small: unattributed_share '$UNATTR' outside [-0.5, 0.5]" >&2
    exit 1
fi

# Plan-cost shape: a plan-cache hit must cost less than executing 16
# entries. Descriptors carry their fingerprint from construction, so a hit
# is a map probe; a ratio, so the host's speed cancels out.
PLAN=$(metric plan_ns_per_call) EXEC=$(metric exec_ns_per_nnz)
if ! awk -v p="$PLAN" -v e="$EXEC" 'BEGIN {
    if (p !~ /^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) exit 1
    if (e !~ /^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) exit 1
    exit !(p < 16 * e)
}'; then
    echo "perfbench stream-small: plan_ns_per_call '$PLAN' not below" \
        "16 x exec_ns_per_nnz '$EXEC'" >&2
    exit 1
fi

# Counter consistency: every golden normalizes values away, so a counter
# wired to the wrong atomic would only show here. Every conversion is a
# kernel hit or an interpreter run, and perfbench synthesizes every plan
# in set-up, so each timed convert's plan lookup is a cache hit.
CONV=$(metric conversions) HIT=$(metric kernels_hit) INTERP=$(metric interp_fallbacks)
CACHE=$(metric cache_hits)
if ! awk -v c="$CONV" -v k="$HIT" -v i="$INTERP" -v h="$CACHE" 'BEGIN {
    if (c !~ /^[0-9]+$/ || k !~ /^[0-9]+$/ || i !~ /^[0-9]+$/ || h !~ /^[0-9]+$/) exit 1
    exit !(c > 0 && k + i == c && h >= c)
}'; then
    echo "perfbench stream-small: inconsistent counters (conversions '$CONV'," \
        "kernels_hit '$HIT', interp_fallbacks '$INTERP', cache_hits '$CACHE')" >&2
    exit 1
fi

echo "All checks passed."
