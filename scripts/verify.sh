#!/usr/bin/env bash
# Full offline verification gate. Everything here must pass with no
# network access: the workspace has zero crates-io dependencies.
#
#   ./scripts/verify.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-run scratch space. NSQL_DATA_DIR is the contract documented in
# nsql-testkit: every file-backed test and every NSQL_DURABILITY=file run
# puts its page/WAL files under a private subdirectory of this root, so one
# `rm -rf` on exit leaves nothing behind even if a test aborts mid-crash.
tmp1=$(mktemp -d)
NSQL_DATA_DIR=$(mktemp -d)
export NSQL_DATA_DIR
trap 'rm -rf "$tmp1" "$NSQL_DATA_DIR"' EXIT

echo "==> cargo build --release (tier-1, step 1)"
cargo build --release --offline

echo "==> cargo test -q (tier-1, step 2)"
cargo test -q --offline

echo "==> cargo test -q --workspace"
cargo test -q --workspace --offline

echo "==> cargo test -q --workspace under NSQL_THREADS=1 and =4"
NSQL_THREADS=1 cargo test -q --workspace --offline >/dev/null
NSQL_THREADS=4 cargo test -q --workspace --offline >/dev/null

echo "==> figure/table binaries are byte-identical under NSQL_THREADS=1 vs =4"
# The binaries pin themselves serial; NSQL_THREADS must not leak through.
for bin in figure1 figure2 section7 ablation bugs extensions sweep; do
    NSQL_THREADS=1 cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.t1.out"
    NSQL_THREADS=4 cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.t4.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.t4.out" \
        || { echo "FAIL: $bin output differs across thread settings"; exit 1; }
done

echo "==> figure/table binaries are byte-identical memory vs file-backed"
# Page I/O is counted above the DiskManager seam, so swapping the in-memory
# store for the durable page file must not move a single counter: every
# figure and table is reproduced byte-for-byte on the WAL-backed store.
for bin in figure1 figure2 section7 ablation bugs extensions sweep; do
    NSQL_DURABILITY=file NSQL_THREADS=1 \
        cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.file.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.file.out" \
        || { echo "FAIL: $bin output differs between storage backends"; exit 1; }
done

echo "==> figure/table binaries are byte-identical row vs vectorized mode"
# Vectorized execution is wall-clock only: every counted page I/O, every
# row, every cost table must be byte-for-byte the row-mode output. The
# `bugs` binary is exempt — it prints EXPLAIN, which intentionally gains
# an "exec mode: vectorized" line (that is the one permitted difference).
for bin in figure1 figure2 section7 ablation extensions sweep; do
    NSQL_EXEC_MODE=vector NSQL_THREADS=1 \
        cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.vec.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.vec.out" \
        || { echo "FAIL: $bin output differs between exec modes"; exit 1; }
done

echo "==> figure/table binaries are byte-identical under NSQL_STRATEGY=batched"
# NSQL_STRATEGY only steers Strategy::Auto (default-option runs); every
# figure/table binary pins its strategy explicitly, so the env knob must
# not move a single byte of any published number — including the `bugs`
# binary's EXPLAIN output, whose strategy lines are part of the figure.
for bin in figure1 figure2 section7 ablation bugs extensions sweep; do
    NSQL_STRATEGY=batched NSQL_THREADS=1 \
        cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.strat.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.strat.out" \
        || { echo "FAIL: $bin output differs under NSQL_STRATEGY=batched"; exit 1; }
done

echo "==> figure/table binaries are byte-identical cache-on vs cache-off"
# Exact-hit caching recharges the recorded page-event sequence instead of
# skipping it, so enabling the cache must not move a single counted I/O or
# row anywhere in the figures. The `bugs` binary is exempt for the same
# reason as the exec-mode loop: its EXPLAIN output intentionally gains
# "cache: ..." lines.
for bin in figure1 figure2 section7 ablation extensions sweep; do
    NSQL_CACHE=on NSQL_THREADS=1 \
        cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.cache.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.cache.out" \
        || { echo "FAIL: $bin output differs with the result cache enabled"; exit 1; }
done

echo "==> figure/table binaries are byte-identical under NSQL_STATS=off"
# The statistics registry is always-on by default, so every baseline above
# was recorded with it collecting. Disabling it must not move a single
# counted I/O or row anywhere in the figures: collection is pure
# side-state off the counted page path, and this diff pins both directions
# of that claim at once (on-baseline vs off-rerun).
for bin in figure1 figure2 section7 ablation bugs extensions sweep; do
    NSQL_STATS=off NSQL_THREADS=1 \
        cargo run --release --offline -q -p nsql-bench --bin "$bin" \
        > "$tmp1/$bin.stats.out"
    diff -q "$tmp1/$bin.t1.out" "$tmp1/$bin.stats.out" \
        || { echo "FAIL: $bin output differs under NSQL_STATS=off"; exit 1; }
done

echo "==> vectorized-equivalence property on both storage backends"
cargo test -q --offline -p nsql-bench --test vec_prop
NSQL_DURABILITY=file cargo test -q --offline -p nsql-bench --test vec_prop >/dev/null

echo "==> nested-iteration rows and four-counter I/O pinned to the pre-bind-once constants"
# Runs in the workspace pass above too; this pass proves the constants do
# not depend on what NSQL_DURABILITY resolves to (the test builds its own
# memory and file stores).
NSQL_DURABILITY=file cargo test -q --offline -p nsql-db --test ni_io_identity >/dev/null

echo "==> sort / merge-join rows and four-counter I/O pinned to the pre-shared-rows constants"
# Same reason as above for the second pass. The kernels themselves are
# compared with the code they replaced (kept verbatim in the two property
# tests) at a second seed besides the default one of the workspace pass.
NSQL_DURABILITY=file cargo test -q --offline -p nsql-db --test merge_join_io_identity >/dev/null
NSQL_TEST_SEED=0x50a7ed cargo test -q --offline -p nsql-storage --test sort_prop
NSQL_TEST_SEED=0x50a7ed cargo test -q --offline -p nsql-engine --test join_prop

echo "==> recovery smoke (crash mid-commit at every write site, oracle-diff)"
cargo run --release --offline -q -p nsql-bench --bin recovery_smoke

echo "==> explain_smoke (EXPLAIN ANALYZE per transform type, exporter schema)"
cargo run --release --offline -q -p nsql-bench --bin explain_smoke

echo "==> stats_smoke (system views, JSON export, I/O-free statistics reads)"
cargo run --release --offline -q -p nsql-bench --bin stats_smoke

echo "==> query-processing library crates are stdout-silent"
# Diagnostics in the processing crates route through the nsql-obs event
# sink, so EXPLAIN ANALYZE and the JSON exporter see them. Harness crates
# (testkit, bench) and binaries are exempt: stdout is their deliverable.
if grep -rnE '(println|eprintln|print|eprint|dbg)!' \
    crates/types/src crates/obs/src crates/sql/src crates/storage/src \
    crates/index/src crates/exec-par/src crates/engine/src crates/vec/src \
    crates/analyzer/src crates/core/src crates/db/src crates/oracle/src \
    crates/cache/src \
    src/lib.rs \
    --include='*.rs' | grep -vE ':[0-9]+:\s*(//|///|//!)'; then
    echo "FAIL: stdout/stderr printing in a query-processing library crate"
    exit 1
fi

echo "==> differential oracle check (release, 200 random cases per pipeline)"
NSQL_DIFF_CASES=200 cargo run --release --offline -q -p nsql-bench --bin diffcheck

echo "==> diff_prop smoke at two pinned seeds (debug path, shrinker wired in)"
NSQL_TEST_SEED=0xd1ffc4ec NSQL_TEST_CASES=60 cargo test -q --offline --test diff_prop
# Case 0 of this one holds a scalar subquery in an operand position, two
# blocks deep (src/diff.rs pins that the seed still generates one).
NSQL_TEST_SEED=0x9e4a100 NSQL_TEST_CASES=20 cargo test -q --offline --test diff_prop

echo "==> batched_prop smoke (thread/backend I/O invariance + metamorphic mutations)"
NSQL_TEST_SEED=0xba7c4ed0 NSQL_TEST_CASES=60 cargo test -q --offline --test batched_prop

echo "==> stats_prop smoke (stats-on/off rows + four-counter I/O invariance)"
NSQL_TEST_SEED=0x57a75b10 NSQL_TEST_CASES=40 cargo test -q --offline --test stats_prop

echo "==> cargo bench --no-run (bench targets compile offline)"
cargo bench -p nsql-bench --no-run --offline

echo "==> testkit is warnings-clean across all targets"
RUSTFLAGS="-D warnings" cargo check -p nsql-testkit --all-targets --offline

echo "==> hot-path crates carry no redundant clones (clippy)"
# nsql-core is included for the rule engine and cost model: rule firings
# clone plan fragments, and a redundant clone there multiplies per query.
# nsql-sql is included for the child-block walker every crate calls.
cargo clippy -p nsql-engine -p nsql-storage -p nsql-index -p nsql-vec -p nsql-cache \
    -p nsql-core -p nsql-types -p nsql-sql \
    --all-targets --offline -- -D clippy::redundant_clone

echo "==> bench smoke (3 samples per bench, results discarded)"
NSQL_BENCH_SAMPLES=3 \
    cargo bench -p nsql-bench --offline --bench nested_vs_transformed >/dev/null
NSQL_BENCH_SAMPLES=3 \
    cargo bench -p nsql-bench --offline --bench ja2_variants >/dev/null
NSQL_BENCH_SAMPLES=3 \
    cargo bench -p nsql-bench --offline --bench par_sweep >/dev/null
NSQL_BENCH_SAMPLES=1 \
    cargo bench -p nsql-bench --offline --bench vec_sweep >/dev/null
NSQL_BENCH_SAMPLES=1 \
    cargo bench -p nsql-bench --offline --bench cache_warm >/dev/null
NSQL_BENCH_SAMPLES=1 \
    cargo bench -p nsql-bench --offline --bench strategy_sweep >/dev/null
NSQL_BENCH_SAMPLES=1 \
    cargo bench -p nsql-bench --offline --bench stats_overhead >/dev/null

echo "==> benchmark smoke (one cycle per workload, answers checked; not a measurement)"
# The standalone package under benchmark/ builds against this checkout. Each
# run checks every answer against the reference evaluators, the metric names
# against BENCHMARK.json, and that two cycles count the same page I/O.
benchmark/run.sh --smoke >/dev/null

echo "verify: OK"
