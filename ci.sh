#!/usr/bin/env bash
# The offline CI gate: everything here must pass with no network access.
# Run locally before pushing; .github/workflows/ci.yml runs the same
# script, one stage per matrix job. The workspace has zero external
# dependencies (see crates/util), so --offline is a hard requirement,
# not an optimization.
#
# Usage: ./ci.sh [stage...]
#   fmt       rustfmt check
#   lint      legodb-lint static analysis gate (+ clippy when available),
#             plus the per-tree code size record target/ci/LOC.jsonl
#   test      plain workspace test pass
#   fault     fault-injection test pass (LEGODB_FAULT_SEED=1)
#   recovery  seeded crash-recovery property across 16 seed streams
#   hardened  release tests with debug-assertions + overflow-checks
#   bench     measured experiments, their gates, committed-record check
#   pipeline  pipebench on each workload, gated on correct answers
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
    record_loc "$ARTIFACTS/LOC.jsonl"

    # Clippy ships with rustup toolchains but not every minimal
    # container; soft-fail only when the component itself is absent.
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy --offline -- -D warnings"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> cargo clippy unavailable; skipping lint step"
    fi
}

# Code size trend (ROADMAP item 10): one JSON line per crate and per
# top-level Rust tree with its count of non-blank lines in *.rs files.
# Recorded beside the lint report, never gated.
record_loc() {
    local out="$1" tree lines
    echo "==> code size per tree -> $out"
    : > "$out"
    for tree in crates/* src tests examples pipebench; do
        lines=$(find "$tree" -name '*.rs' -not -path '*/target/*' -print0 |
            xargs -0 -r cat | grep -cv '^[[:space:]]*$' || true)
        printf '{"tree":"%s","nonblank_rs_lines":%s}\n' "$tree" "${lines:-0}" >> "$out"
    done
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
    local streams=16
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

# Measured experiments and their gates (DESIGN.md §11, §13–§16). Each
# row of the table below runs `legodb-bench <experiment>` once, with its
# records in target/ci/BENCH_*.json, then checks each of its gates with
# `legodb-bench gate`. A gate is `where,...:require,...`, and `scale=*`
# stands for every scale of the row. Wall clock on shared runners is
# noisy, so the speedup floors sit well below the headline numbers.
#
#  - search_incremental: a zero memo hit rate means footprint/fingerprint
#    invalidation has regressed to recosting everything.
#  - search_scale at 10×: the sequential and work-stealing arms agree on
#    the final cost bit-for-bit; on 2+ cores work-stealing also beats the
#    sequential search (one core has no speedup to measure).
#  - recovery: a durable load + midway checkpoint + reopen recovers a
#    byte-identical database.
#  - ingest: the streaming shred is bit-identical to the DOM oracle,
#    stays under a tenth of the DOM working set, groups each batch into
#    one fsync, and beats the DOM path at 10×.
#  - layout: row and mixed layouts answer Q1–Q18 bit-identically, the
#    analytic workload goes columnar and the lookup workload stays row,
#    and narrow columnar scans beat row scans at 10×.
#
# Last, each fresh records file must hold the same (experiment, field)
# pairs as its committed copy at the repository root — names, not
# values — so the committed files stay exactly what this stage emits.
# Regenerate them with `./ci.sh bench && cp target/ci/BENCH_*.json .`.
stage_bench() {
    build_release
    local steal='scale=10,summary=1:steal_speedup_vs_sequential>1.0'
    if [ "$(nproc 2>/dev/null || echo 1)" -lt 2 ]; then
        echo "    single core: skipping the work-stealing speedup gate"
        steal=''
    fi
    rm -f "$ARTIFACTS"/BENCH_*.json
    local row experiment scales gate scale
    while read -ra row; do
        experiment=${row[0]} scales=${row[1]}
        echo "==> legodb-bench $experiment (scales: $scales)"
        local flags=(--out "$ARTIFACTS")
        [ "$scales" = - ] || flags+=(--scales "$scales")
        ./target/release/legodb-bench "$experiment" "${flags[@]}" >/dev/null </dev/null
        for gate in "${row[@]:2}"; do
            for scale in ${scales//,/ }; do
                bench_gate "$experiment" "${gate//scale=\*/scale=$scale}"
                [[ "$gate" == *'scale=*'* ]] || break
            done
        done
    done <<ROWS
search_incremental  -     memoize=on:hit_rate>0 summary=1:speedup>0
search_scale        1,10  scale=10,summary=1:cost_match==1 $steal
recovery            1,10  scale=*:replay_match==1
ingest              1,10  scale=*:rows_match==1,within_budget==1,fsyncs_per_batch<=1 scale=10:streaming_speedup>1.0
layout              1,10  scale=*:results_match==1,agg_chose_columnar==1,lookup_columnar_tables==0 scale=10:columnar_agg_speedup>1.2
ROWS
    echo "==> committed records carry the fields this stage emits"
    local file
    for file in BENCH_search.json BENCH_recovery.json BENCH_ingest.json BENCH_layout.json; do
        diff <(record_fields "$file") <(record_fields "$ARTIFACTS/$file") || {
            echo "$file: (experiment, field) pairs differ from a fresh run (<committed, >fresh)" >&2
            exit 1
        }
    done
}

# `bench_gate <experiment> <where,...:require,...>` over the experiment's
# records file (the search_* experiments share BENCH_search.json).
bench_gate() {
    local where=${2%%:*} require=${2#*:} args=(--where "experiment=$1") kv
    for kv in ${where//,/ }; do args+=(--where "$kv"); done
    for kv in ${require//,/ }; do args+=(--require "$kv"); done
    ./target/release/legodb-bench gate "$ARTIFACTS/BENCH_${1%%_*}.json" "${args[@]}"
}

# The sorted (experiment, field name) pairs of a JSON-lines records file
# of flat objects that start with "experiment" (as JsonObject writes them).
record_fields() {
    awk -F'"' '{ for (i = 2; i < NF; i += 2) if ($(i + 1) ~ /^:/) print $4, $i }' "$1" | sort -u
}

# End-to-end pipeline benchmark (pipebench/README.md), run as
# BENCHMARK.json runs it, once per workload. Each run must check every
# answer against the independent evaluator ("correct": true) with no
# failed operation, and a traced ingest run must keep the streaming
# shred at or under 64 resident elements. Timings and sizes are not
# gated: their bounds are relative to a parent commit's runs.
stage_pipeline() {
    build_release
    local pipebench=(cargo run --release --quiet --offline --manifest-path pipebench/Cargo.toml --)
    local workload
    for workload in lookup publish ingest; do
        echo "==> pipebench --workload $workload"
        "${pipebench[@]}" --workload "$workload" --seed 7 --seconds 2 --trace 0 |
            tail -n 1 > "$ARTIFACTS/PIPELINE_$workload.json"
        ./target/release/legodb-bench gate "$ARTIFACTS/PIPELINE_$workload.json" \
            --require 'correct==1' --require 'failed==0'
    done
    echo "==> pipebench --workload ingest --trace 1"
    "${pipebench[@]}" --workload ingest --seed 7 --seconds 2 --trace 1 |
        tail -n 1 > "$ARTIFACTS/PIPELINE_ingest_trace.json"
    ./target/release/legodb-bench gate "$ARTIFACTS/PIPELINE_ingest_trace.json" \
        --require 'correct==1' --require 'failed==0' \
        --require 'metrics/pschema.peak_resident_elements/value<=64'
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
        pipeline) stage_pipeline ;;
        soak) stage_soak ;;
        all) stage_fmt; stage_lint; stage_test; stage_fault; stage_recovery; stage_hardened; stage_bench; stage_pipeline ;;
        *)
            echo "ci.sh: unknown stage '$1' (stages: fmt lint test fault recovery hardened bench pipeline all soak)" >&2
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
