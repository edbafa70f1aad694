#!/usr/bin/env bash
# The offline CI gate: everything here must pass with no network access.
# Run locally before pushing; .github/workflows/ci.yml runs the same
# script, one stage per matrix job. The workspace has zero external
# dependencies (see crates/util), so --offline is a hard requirement,
# not an optimization.
#
# Usage: ./ci.sh [stage...]
#   fmt       rustfmt check
#   lint      legodb-lint static analysis gate (+ clippy when available)
#   test      plain workspace test pass
#   fault     fault-injection test pass (LEGODB_FAULT_SEED=1)
#   recovery  seeded crash-recovery property across 16 seed streams
#   hardened  release tests with debug-assertions + overflow-checks
#   bench     experiment benches + bench-gate thresholds
#   ingest    streaming-ingest bench + gates
#   layout    physical-layout bench + gates
#   all       every stage above, in order (the default)
#   soak      repeated workspace test runs at 1/2/8 test threads, plus the
#             fault pass at 8 (slow; not part of `all`)
#
# Gate artifacts (lint report, bench records) are collected under
# target/ci/ so the workflow can upload them from one place.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
ARTIFACTS=target/ci
mkdir -p "$ARTIFACTS"

build_release() {
    echo "==> cargo build --release --offline"
    cargo build --release --offline --workspace
}

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --check
}

# Static analysis gate (DESIGN.md §12 + §17): the workspace must lint
# clean before anything else runs — per-file rules, the flow-aware
# concurrency/durability rules (lock-order, wal-before-apply,
# guard-across-fsync), and the allow-unused audit (a stale
# `lint: allow` is itself a diagnostic, so the suppression count can
# only shrink). Exit is non-zero on any diagnostic; the JSON-lines
# report is left in target/ci/ for tooling.
stage_lint() {
    build_release
    echo "==> legodb-lint (static analysis gate)"
    cargo run --release --offline -q -p legodb-lint -- \
        --json "$ARTIFACTS/LINT_report.jsonl"

    # Clippy ships with rustup toolchains but not every minimal
    # container; soft-fail only when the component itself is absent.
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy --offline -- -D warnings"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> cargo clippy unavailable; skipping lint step"
    fi
}

stage_test() {
    build_release
    echo "==> cargo test -q --offline"
    cargo test -q --offline --workspace
}

# Fault-injection pass: LEGODB_FAULT_SEED activates the deterministic
# failpoints (crates/util/src/fault.rs); candidate evaluations fail or
# panic for a fixed fraction of (site, key) pairs and the suite must
# still pass — proving the fault-isolation layer contains them. The
# incremental-costing equivalence property (DESIGN.md §11) is re-run
# explicitly so the guarantee stays visible even if the suite's test
# layout changes.
stage_fault() {
    echo "==> fault-injection test pass (LEGODB_FAULT_SEED=1)"
    LEGODB_FAULT_SEED=1 cargo test -q --offline --workspace
    echo "==> incremental-costing equivalence property (fault)"
    LEGODB_FAULT_SEED=1 cargo test -q --offline \
        --test properties incremental_costing_matches_the_oracle
    # One crash-recovery property seed with the runtime lock-order
    # sanitizer (crates/util/src/lockcheck.rs) forced on: faults drive
    # the durable engine down its rarest lock paths, and the tracker
    # panics on any acquisition-order cycle the static analyzer missed.
    echo "==> crash-recovery property with the lock-order sanitizer forced on"
    LEGODB_LOCK_ORDER=1 LEGODB_FAULT_SEED=1 LEGODB_PROP_SEED=1 \
        cargo test -q --offline --test robustness crash_recovery
}

# Soak pass: tier-1 must be deterministic on any core count, so the
# whole workspace suite runs repeatedly at 1, 2 and 8 test threads, and
# the fault pass (LEGODB_FAULT_SEED=1) repeatedly at 8. A test that
# passes alone but fails beside a neighbour — the signature of state
# leaking between tests, as the process-global fault override once did —
# shows up here. The run count is fixed so every soak means the same.
stage_soak() {
    local runs=20
    local log="$ARTIFACTS/SOAK_last.log"
    soak_run() {
        "$@" > "$log" 2>&1 || {
            tail -n 60 "$log" >&2
            echo "soak: failed: $*" >&2
            exit 1
        }
    }
    for threads in 1 2 8; do
        echo "==> soak: $runs workspace test runs at --test-threads $threads"
        for _ in $(seq 1 "$runs"); do
            soak_run cargo test -q --offline --workspace --no-fail-fast -- \
                --test-threads "$threads"
        done
    done
    echo "==> soak: $runs fault-pass runs (LEGODB_FAULT_SEED=1) at --test-threads 8"
    for _ in $(seq 1 "$runs"); do
        soak_run env LEGODB_FAULT_SEED=1 cargo test -q --offline --workspace \
            --no-fail-fast -- --test-threads 8
    done
    echo "    all $((runs * 4)) soak runs passed"
}

# Crash-recovery pass (DESIGN.md §14): the seeded crash-recovery
# property re-runs across independent LEGODB_PROP_SEED streams with the
# env failpoints armed, so each stream draws different (fault seed, row
# count) cases and crashes the durable engine at different WAL and
# checkpoint sites. The property asserts the reopened database is a
# prefix of the operation sequence containing every acknowledged commit,
# with no partial rows and byte-identical double opens. Per-stream
# outcomes land in target/ci/RECOVERY_report.txt.
stage_recovery() {
    build_release
    local streams="${LEGODB_RECOVERY_SEEDS:-16}"
    echo "==> crash-recovery property across $streams seed streams"
    : > "$ARTIFACTS/RECOVERY_report.txt"
    for seed in $(seq 1 "$streams"); do
        LEGODB_FAULT_SEED=1 LEGODB_PROP_SEED="$seed" \
            cargo test -q --offline --test robustness crash_recovery
        echo "seed stream $seed: ok" >> "$ARTIFACTS/RECOVERY_report.txt"
    done
    echo "    all $streams seed streams recovered consistently"
}

# Hardened pass: optimized code with debug assertions and integer
# overflow checks re-enabled, in a separate target dir so the plain
# release cache stays valid. The lint gate itself must build (and stay
# clean) under the hardened flags — the gate is only trustworthy if it
# survives its own CI. Debug assertions also arm the in-evaluator
# from-scratch costing oracle, so the equivalence property runs here
# too.
stage_hardened() {
    echo "==> hardened test pass (release + debug-assertions + overflow-checks)"
    RUSTFLAGS="-C debug-assertions=on -C overflow-checks=on" \
    CARGO_TARGET_DIR=target/hardened \
    cargo test -q --offline --workspace --release

    RUSTFLAGS="-C debug-assertions=on -C overflow-checks=on" \
    CARGO_TARGET_DIR=target/hardened \
    cargo run --release --offline -q -p legodb-lint

    echo "==> incremental-costing equivalence property (hardened)"
    RUSTFLAGS="-C debug-assertions=on -C overflow-checks=on" \
    CARGO_TARGET_DIR=target/hardened \
    cargo test -q --offline --release \
        --test properties incremental_costing_matches_the_oracle
}

# Bench gates, enforced by the bench-gate bin over the JSON-lines
# records in target/ci/BENCH_search.json:
#
#  - search_incremental: the memo machinery must actually engage — a
#    zero cache hit rate means footprint/fingerprint invalidation has
#    regressed to recosting everything.
#  - search_scale at 10× IMDB-equivalent size: the sequential and
#    work-stealing arms must agree on the final cost bit-for-bit, and on
#    multi-core machines work-stealing must beat the sequential search on
#    wall-clock. (On a single core both arms degenerate to the same
#    sequential execution, so there is no speedup to measure — the
#    equality gate still runs.)
#  - recovery (DESIGN.md §14): a durable load + midway checkpoint +
#    reopen at 1× and 10× corpus scale must recover a byte-identical
#    database (replay_match == 1). Throughput numbers are archived but
#    not gated — wall clock on shared runners is too noisy.
stage_bench() {
    build_release
    echo "==> experiment benches (records in $ARTIFACTS/BENCH_search.json)"
    rm -f "$ARTIFACTS/BENCH_search.json"
    LEGODB_BENCH_JSON=$ARTIFACTS/BENCH_search.json \
        ./target/release/search_incremental >/dev/null
    LEGODB_BENCH_JSON=$ARTIFACTS/BENCH_search.json \
    LEGODB_SCALE_LIST="${LEGODB_SCALE_LIST:-1,10}" \
        ./target/release/search_scale >/dev/null

    echo "==> recovery bench (records in $ARTIFACTS/BENCH_recovery.json)"
    rm -f "$ARTIFACTS/BENCH_recovery.json"
    LEGODB_BENCH_JSON=$ARTIFACTS/BENCH_recovery.json \
    LEGODB_RECOVERY_SCALES="${LEGODB_RECOVERY_SCALES:-1,10}" \
        ./target/release/recovery >/dev/null

    echo "==> bench-gate thresholds"
    ./target/release/bench-gate "$ARTIFACTS/BENCH_search.json" \
        --where experiment=search_incremental --where memoize=on \
        --require 'hit_rate>0'
    ./target/release/bench-gate "$ARTIFACTS/BENCH_search.json" \
        --where experiment=search_incremental --where summary=1 \
        --require 'speedup>0'
    ./target/release/bench-gate "$ARTIFACTS/BENCH_search.json" \
        --where experiment=search_scale --where scale=10 --where summary=1 \
        --require 'cost_match==1'
    if [ "$(nproc 2>/dev/null || echo 1)" -ge 2 ]; then
        ./target/release/bench-gate "$ARTIFACTS/BENCH_search.json" \
            --where experiment=search_scale --where scale=10 --where summary=1 \
            --require 'steal_speedup_vs_sequential>1.0'
    else
        echo "    single core: skipping the work-stealing speedup gate"
    fi
    for scale in $(echo "${LEGODB_RECOVERY_SCALES:-1,10}" | tr ',' ' '); do
        ./target/release/bench-gate "$ARTIFACTS/BENCH_recovery.json" \
            --where experiment=recovery --where "scale=$scale" \
            --require 'replay_match==1'
    done
}

# Streaming-ingest gates (DESIGN.md §15), over BENCH_ingest.json:
#
#  - rows_match at every scale: the streaming shred must be bit-identical
#    to the DOM oracle — a throughput win that changes the database is a
#    correctness bug, not an optimisation.
#  - within_budget: the streaming path must actually stream (peak
#    resident elements under a tenth of the DOM node count).
#  - fsyncs_per_batch <= 1: batched appends group each batch into one
#    WAL frame with a single fsync.
#  - streaming_speedup > 1.0 at 10×: the event-pull path must beat the
#    DOM path. The headline target is 1.5×; the CI floor is looser
#    because wall clock on shared runners is noisy.
stage_ingest() {
    build_release
    echo "==> streaming ingest bench (records in $ARTIFACTS/BENCH_ingest.json)"
    rm -f "$ARTIFACTS/BENCH_ingest.json"
    LEGODB_BENCH_JSON=$ARTIFACTS/BENCH_ingest.json \
    LEGODB_INGEST_SCALES="${LEGODB_INGEST_SCALES:-1,10}" \
        ./target/release/ingest >/dev/null

    echo "==> ingest gates"
    for scale in $(echo "${LEGODB_INGEST_SCALES:-1,10}" | tr ',' ' '); do
        ./target/release/bench-gate "$ARTIFACTS/BENCH_ingest.json" \
            --where experiment=ingest --where "scale=$scale" \
            --require 'rows_match==1' \
            --require 'within_budget==1' \
            --require 'fsyncs_per_batch<=1'
    done
    ./target/release/bench-gate "$ARTIFACTS/BENCH_ingest.json" \
        --where experiment=ingest --where scale=10 \
        --require 'streaming_speedup>1.0'
}

# Physical-layout gates (DESIGN.md §16), over BENCH_layout.json:
#
#  - results_match at every scale: the all-row and mixed-layout builds
#    must answer Q1–Q18 (plus the analytic scan set) bit-identically —
#    layout is physical design, never semantics.
#  - agg_chose_columnar == 1: the greedy `set-layout` search must move at
#    least one table referenced by the analytic workload (Q11–Q18) to
#    the column store.
#  - lookup_columnar_tables == 0: the same search on the point-lookup
#    workload (Q1–Q6) must leave every table on the row heap — columnar
#    random access pays a per-column reassembly penalty.
#  - columnar_agg_speedup > 1.2 at 10×: narrow-projection analytic scans
#    must actually run faster on the column store. The headline number
#    is ~2×; the CI floor is looser for shared-runner noise.
stage_layout() {
    build_release
    echo "==> physical-layout bench (records in $ARTIFACTS/BENCH_layout.json)"
    rm -f "$ARTIFACTS/BENCH_layout.json"
    LEGODB_BENCH_JSON=$ARTIFACTS/BENCH_layout.json \
    LEGODB_LAYOUT_SCALES="${LEGODB_LAYOUT_SCALES:-1,10}" \
        ./target/release/layout_scale >/dev/null

    echo "==> layout gates"
    for scale in $(echo "${LEGODB_LAYOUT_SCALES:-1,10}" | tr ',' ' '); do
        ./target/release/bench-gate "$ARTIFACTS/BENCH_layout.json" \
            --where experiment=layout --where "scale=$scale" \
            --require 'results_match==1' \
            --require 'agg_chose_columnar==1' \
            --require 'lookup_columnar_tables==0'
    done
    ./target/release/bench-gate "$ARTIFACTS/BENCH_layout.json" \
        --where experiment=layout --where scale=10 \
        --require 'columnar_agg_speedup>1.2'
}

run_stage() {
    case "$1" in
        fmt) stage_fmt ;;
        lint) stage_lint ;;
        test) stage_test ;;
        fault) stage_fault ;;
        recovery) stage_recovery ;;
        hardened) stage_hardened ;;
        bench) stage_bench ;;
        ingest) stage_ingest ;;
        layout) stage_layout ;;
        soak) stage_soak ;;
        all) stage_fmt; stage_lint; stage_test; stage_fault; stage_recovery; stage_hardened; stage_bench; stage_ingest; stage_layout ;;
        *)
            echo "ci.sh: unknown stage '$1' (stages: fmt lint test fault recovery hardened bench ingest layout all soak)" >&2
            exit 2
            ;;
    esac
}

if [ "$#" -eq 0 ]; then
    set -- all
fi
for stage in "$@"; do
    run_stage "$stage"
done

echo "CI gate passed ($*)."
