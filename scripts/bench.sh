#!/usr/bin/env bash
# Wall-clock bench runner with machine-readable JSON output.
#
#   ./scripts/bench.sh [label]           # PR2 benches -> BENCH_pr2.json
#   ./scripts/bench.sh sweep [label]     # thread sweep -> BENCH_pr3.json
#   ./scripts/bench.sh obs [label]       # per-operator metrics -> BENCH_pr5.json
#   ./scripts/bench.sh vec [label]       # exec-mode sweep -> BENCH_pr7.json
#   ./scripts/bench.sh cache [label]     # result-cache sweep -> BENCH_pr8.json
#   ./scripts/bench.sh strategy [label]  # three-way strategy sweep -> BENCH_pr9.json
#   ./scripts/bench.sh stats [label]     # stats-registry overhead -> BENCH_pr10.json
#
# The committed BENCH_pr2.json holds one line per benchmark per run,
# tagged `"label":"baseline"` (recorded before the zero-copy hot-path
# rewrite) and `"label":"optimized"` (after). BENCH_pr3.json holds the
# morsel-parallel thread sweep (1/2/4/8 workers per cell); counted page
# I/Os are identical across a sweep by construction, so only the medians
# move. Compare medians per (group, bench) pair; see DESIGN.md
# "Threading model" and "Execution model and the I/O-accounting
# invariant". BENCH_pr5.json holds one line per EXPLAIN ANALYZE query:
# transform decision, predicted Section-7 costs, and the measured
# per-operator metrics array (rows, page I/O, build/probe/wall timings);
# the page-I/O counters are deterministic, the nanosecond timings are not.
# BENCH_pr7.json holds the exec-mode sweep (row vs vectorized at 1 and 4
# worker threads per cell); counted page I/Os are byte-identical between
# the modes by construction (see DESIGN.md "Vectorized execution"), so
# the medians isolate kernel speedup. Acceptance read the threads=1
# medians of the vec-ni-type-J and vec-hash-join groups; the two vec-ni
# groups are on file only (nested iteration's lane kernel is gone, see
# EXPERIMENTS.md "One block plan, one kernel"). BENCH_pr8.json
# holds the result-cache sweep (cache=off vs primed cache=on per cell);
# counted page I/Os are byte-identical between the cells by construction
# (an exact hit recharges the recorded page events; see DESIGN.md "Result
# caching"), so the medians isolate the evaluation work a hit avoids.
# Acceptance reads the cache-ni-type-J and cache-ni-type-JA-count groups.
# BENCH_pr9.json holds the three-way strategy sweep (nested iteration vs
# the NEST-* transform vs batched correlated evaluation per cell) over a
# duplicate-heavy and a unique-correlation workload; acceptance reads the
# strategy-dup-type-J-notin group, where the query sits outside the
# transformable class (the transform cell times refusal + nested-iteration
# fallback) and batched must beat both incumbents. BENCH_pr10.json holds
# the statistics-registry overhead sweep (stats=off vs stats=on per cell);
# counted page I/Os are byte-identical between the cells by construction
# (collection is pure side-state; see DESIGN.md "System statistics"), so
# the medians isolate the registry's CPU cost. Acceptance reads the
# stats-ni-type-J group and asks the stats=on median to sit within 2% of
# stats=off.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=bench
if [ "${1:-}" = "sweep" ]; then
    mode=sweep
    shift
elif [ "${1:-}" = "obs" ]; then
    mode=obs
    shift
elif [ "${1:-}" = "vec" ]; then
    mode=vec
    shift
elif [ "${1:-}" = "cache" ]; then
    mode=cache
    shift
elif [ "${1:-}" = "strategy" ]; then
    mode=strategy
    shift
elif [ "${1:-}" = "stats" ]; then
    mode=stats
    shift
fi
label=${1:-current}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if [ "$mode" = "sweep" ]; then
    out=BENCH_pr3.json
    echo "==> cargo bench -p nsql-bench --bench par_sweep  (host: $(nproc) CPU(s))"
    NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench par_sweep --offline
elif [ "$mode" = "obs" ]; then
    out=BENCH_pr5.json
    echo "==> cargo run -p nsql-bench --bin explain_smoke  (per-operator metrics)"
    NSQL_OBS_JSON="$tmp" cargo run --release --offline -q -p nsql-bench --bin explain_smoke
elif [ "$mode" = "vec" ]; then
    out=BENCH_pr7.json
    echo "==> cargo bench -p nsql-bench --bench vec_sweep  (host: $(nproc) CPU(s))"
    NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench vec_sweep --offline
elif [ "$mode" = "cache" ]; then
    out=BENCH_pr8.json
    echo "==> cargo bench -p nsql-bench --bench cache_warm  (host: $(nproc) CPU(s))"
    NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench cache_warm --offline
elif [ "$mode" = "strategy" ]; then
    out=BENCH_pr9.json
    echo "==> cargo bench -p nsql-bench --bench strategy_sweep  (host: $(nproc) CPU(s))"
    NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench strategy_sweep --offline
elif [ "$mode" = "stats" ]; then
    out=BENCH_pr10.json
    echo "==> cargo bench -p nsql-bench --bench stats_overhead  (host: $(nproc) CPU(s))"
    NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench stats_overhead --offline
else
    out=BENCH_pr2.json
    for bench in nested_vs_transformed ja2_variants; do
        echo "==> cargo bench -p nsql-bench --bench $bench"
        NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench "$bench" --offline
    done
fi

# Tag each JSON line with the run label (and, for sweeps, the host CPU
# count — medians at >1 thread only improve when the host has >1 CPU) and
# append to the committed file.
if [ "$mode" = "sweep" ] || [ "$mode" = "vec" ] || [ "$mode" = "cache" ] || [ "$mode" = "strategy" ] || [ "$mode" = "stats" ]; then
    sed "s/^{/{\"label\":\"$label\",\"ncpu\":$(nproc),/" "$tmp" >> "$out"
else
    sed "s/^{/{\"label\":\"$label\",/" "$tmp" >> "$out"
fi
echo "appended $(wc -l < "$tmp") results to $out (label: $label)"
