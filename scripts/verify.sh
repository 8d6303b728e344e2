#!/usr/bin/env bash
# Full offline verification gate. Everything here must pass with no
# network access: the workspace has zero crates-io dependencies.
#
#   ./scripts/verify.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-run scratch space. NSQL_DATA_DIR is the contract documented in
# nsql-testkit: every file-backed test puts its page/WAL files under a
# private subdirectory of this root, so one `rm -rf` on exit leaves nothing
# behind even if a test aborts mid-crash.
NSQL_DATA_DIR=$(mktemp -d)
export NSQL_DATA_DIR
trap 'rm -rf "$NSQL_DATA_DIR"' EXIT

echo "==> cargo build --release (tier-1, step 1)"
cargo build --release --offline

echo "==> cargo test -q (tier-1, step 2)"
cargo test -q --offline

echo "==> cargo test -q --workspace"
# Includes crates/bench/tests/figures_identity.rs: all seven figures and
# tables rendered in process under the file store and statistics off, each
# held to the bytes of the configuration of record.
cargo test -q --workspace --offline

echo "==> sort / merge-join kernels against the code they replaced, at a second seed"
# The kernels are compared with the code they replaced (kept verbatim in the
# two property tests) at a second seed besides the default one of the
# workspace pass.
NSQL_TEST_SEED=0x50a7ed cargo test -q --offline -p nsql-storage --test sort_prop
NSQL_TEST_SEED=0x50a7ed cargo test -q --offline -p nsql-engine --test join_prop
# The groupjoin against the hash join and GROUP BY it replaces, likewise.
NSQL_TEST_SEED=0x50a7ed cargo test -q --offline -p nsql-engine --test groupjoin_prop

echo "==> query-processing library crates are stdout-silent"
# Diagnostics in the processing crates are returned as values
# (QueryOutcome::explain, ObsReport), so EXPLAIN ANALYZE and the JSON
# exporter see them. Harness crates (testkit, bench) and binaries are
# exempt: stdout is their deliverable.
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

echo "==> non-test source is environment-blind"
# Every choice is a QueryOptions value (DESIGN.md "Configuration"). The
# environment supplies the test runner's seed, case count and scratch
# directory, and NSQL_THREADS to the benchmark's probes through exec-par —
# nothing else, and nothing writes to it.
if grep -rn 'env::var' crates/*/src src --include='*.rs' \
    | grep -vE '^crates/(exec-par/src/lib|testkit/src/(prop|tempdir))\.rs:'; then
    echo "FAIL: environment read outside exec-par and testkit"
    exit 1
fi
if grep -rn 'set_var' crates src tests examples --include='*.rs'; then
    echo "FAIL: the process environment is written to"
    exit 1
fi

echo "==> deleted names stay deleted, and the 1987 switch stays off the default path"
# One row per mechanism that was measured or reasoned away: the names it
# went by (an extended regex), where they are looked for, the files that may
# keep them (a regex on the path, `-` for none), and what finding one means.
# A row that searches $non_test reads each file up to its `#[cfg(test)]`.
# The last row is the same rule from the other side: `faithful_1987` restores
# the paper's literal plans for the figures, the differential harness and
# the examples that demonstrate them, so outside tests it is set only where
# it is defined, by the named constructors, and by those three.
everywhere='crates/*/src crates/*/tests src tests examples'
non_test='crates/*/src src examples'
while IFS='#' read -r names paths allowed meaning; do
    # shellcheck disable=SC2086 # $paths is a list of globs
    found=$(grep -rlE "$names" $paths --include='*.rs' | while read -r f; do
        if echo "$f" | grep -qxE "$allowed"; then continue; fi
        if [ "$paths" = "$non_test" ]; then
            re="$names" awk -v f="$f" \
                '/^#\[cfg\(test\)\]/ { exit } $0 ~ ENVIRON["re"] { print f ":" FNR ":" $0 }' "$f"
        else
            grep -nHE "$names" "$f"
        fi
    done || true)
    if [ -n "$found" ]; then
        echo "$found"
        echo "FAIL: $meaning"
        exit 1
    fi
done <<GATES
\\b(Tracer|SpanNode|SpanId|MetricsRegistry|OpMetrics|OpSnapshot|ExecObs)\\b#$everywhere#-#a second per-query recorder beside nsql_obs::Profile (DESIGN.md "Observability")
\\b(in_memory_batches|count_batch|last_exec_mode|EXEC_MODE|ValRef)\\b|tr-vec-hash|exec mode: vectorized#$everywhere#-#the column-batch hash-join kernel, its exec-mode knob or its reports; the hash join has one kernel (DESIGN.md "One hash-join kernel")
\\bexec_mode\\b|ExecMode::(Row|Vector)#$everywhere#crates/obs/src/stats\\.rs#the exec-mode option or a mode to choose; ExecMode and StatementSample::exec_mode stay as stubs for benchmark/
\\b(vec_exec|VPred|VOperand|Lane3|keep_lanes|vpred_from_cpred|stream_filter_vec|accumulate_int|accumulate_float|OverlayProvider)\\b#$everywhere#-#a second scan/fold kernel, or dead code deleted with it (DESIGN.md "One hash-join kernel")
\\b(is_temp|l_temp|r_temp|drop_child|drop_input|JoinResult)\\b|IXR_#crates/*/src#-#an ownership flag or the IXR_ pseudo-temporary; temporaries are owned TempFile values
\\brebuild_indexes\\b#crates/*/src#-#the whole-table index rebuild; INSERT costs what it changes (DESIGN.md "Durability")
\\blogical_rules\\b#$everywhere#-#the opt-in plan-rule switch; UnnestOptions::faithful_1987 replaced it (DESIGN.md "Configuration")
\\b(PlanRule|PredicatePushdown|ProjectionPruning|RuleEngine|RuleFiring)\\b#$everywhere#-#a second restriction/projection planner beside the executor's join pipeline (DESIGN.md "One planner for flat blocks")
\\b(judge_rewrite|RewriteJudgement|AggViewDescriptor|DuplicateSemantics)\\b|CacheMode::Rewrite#$everywhere#-#the aggregate-view judge that licensed nothing, or the alias of UnnestOptions::preserve_duplicates (DESIGN.md "Result caching", "Configuration")
\\b(sort_pages|never_raises)\\b|\\binfallible\\(#$everywhere#-#a copy of cost::sort_cost, or a second cannot-raise truth table beside nsql_engine::pred::cannot_raise (DESIGN.md "Join choice")
\\b(VISITS_PER_PAGE_IO|SORTED_ROWS_PER_PAGE_IO|HASHED_ROWS_PER_PAGE_IO|price_cpu)\\b#$everywhere#-#the hand-derived CPU constants or their switch; every default-path choice is priced in fitted time by cost::PRICES (DESIGN.md "Join choice")
\\b(select_block_rule|BLOCK_RULES|BlockRule|BlockAction|NestedShape)\\b#$everywhere#-#the block-rule catalog; nest_g::transform_nested matches on the nesting shape itself (DESIGN.md "One planner for flat blocks", Dispatch)
\\b(trace_view|trace_marker|is_trace|charge_read|charge_write|write_uncounted|eval_parallel|IoMode)\\b|TraceEvent::Marker#$everywhere#-#storage's trace mode or the trace-and-replay parallel nested iteration it served; nested iteration is serial (DESIGN.md "Execution is serial")
\\b(par_map_pages|workers_for|PAR_MIN_ROWS|with_thread_budget|with_requested_threads|external_sort_threads|Morsels|chunk_for|threads_named|morsels_per_worker|absorb)\\b|AggState::merge|\\.morsels\\.#$everywhere#crates/db/tests/explain_parity\\.rs#morsel-parallel operator execution, its thread budget or its per-worker counters; every operator is serial (DESIGN.md "Execution is serial"). explain_parity asserts the JSON key is gone
\\b(eval_batched|Verdicts|BatchedParams|batched_cost)\\b|Strategy::Batched|StrategyKind::Batched|QueryOptions::batched\\b#$everywhere#-#batched correlated evaluation, a second correlated evaluator; nested iteration evaluates each distinct binding once (DESIGN.md "One correlated evaluator"). The eval_query_batched stub stays for benchmark/
\\b(QueryCache|BlockEntry|TempEntry|CacheStats|CacheCounters|CacheCtx|TempKey|replay_temp|temp_keys|result_cache|set_result_cache|record_cache|with_query_cache|cache_counts|normalized_block_signature|table_generation|cache_epoch|STAT_CACHE|nsql_cache|CacheMode)\\b|nsql_stat_cache|NSQL_STAT_CACHE#$everywhere#crates/cache/src/lib\\.rs|crates/db/src/(options|lib)\\.rs#the cross-query result cache, its generation and epoch stamps or its counters; no statement consults a cache (DESIGN.md "No result cache"). CacheMode and nsql-cache stay as stubs for benchmark/
\\bmerge_runs\\b#$everywhere#crates/storage/tests/sort_prop\\.rs#a second merge loop beside the sort's one merge iterator, which runs every pass and hands the last to its consumer (DESIGN.md "Execution model and the I/O-accounting invariant"); sort_prop keeps the old kernel verbatim as its reference
(start|take)_recording\\(#$non_test#crates/storage/src/lib\\.rs#a query path records page events; the recorder is left for join_prop and sort_prop only (DESIGN.md "No result cache")
\\b(eval_grouped|eval_aggregate_row|finish_grouped|project_relation|select_tail|sort_relation|compile_projection|compile_scalar|resolve_output_column|output_schema)\\b#$everywhere#crates/oracle/src/lib\\.rs#a second SELECT phase beside nsql_engine::select; only the oracle keeps its own, as the reference (DESIGN.md "One SELECT phase")
\\b(ShardedCounter|PaddedU64|thread_shard)\\b#$everywhere#-#a sharded counter or its shard picker; execution is serial and a counter is one relaxed atomic (DESIGN.md "Observability")
\\bSHARDS\\b#$everywhere#crates/storage/src/disk\\.rs#a counter shard count; only the disk's page map is sharded
\\b(evict_if_unpinned|evict_lru|pin_page|unpin_page|evict_page)\\b|\\.(un)?pin\\(|\\.pins\\b|pins: u32#$everywhere#-#a buffer-pool pin; pages are immutable Arc<Page>s, so an eviction never invalidates a reader (crates/storage/src/buffer.rs)
\\b(for_block|is_local|as_f64)\\b|\\bfn (as_column|fork)\\b|\\.(as_column|fork)\\(#$everywhere#-#dead code deleted with no caller: Resolver::for_block / is_local, Operand::as_column, Rng::fork, Value::as_f64
faithful_1987 *[:=] *true|UnnestOptions::faithful\\(|set_faithful\\(true#$non_test#crates/core/src/nest_g\\.rs|crates/db/src/options\\.rs|crates/bench/src/.*|src/diff\\.rs|examples/.*#faithful_1987 is set on a path the default options reach
GATES

echo "==> one planner for flat blocks"
# Where a conjunct is applied, which conjuncts are join keys and which columns
# a stored join result carries is decided by PlanExecutor::join_inputs, for
# the canonical query's FROM list and for a temporary over several relations
# alike (DESIGN.md "One planner for flat blocks"): outside tests the conjunct
# classifier has that one caller.
callers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
    /classify_conjunct\(/ && !/fn classify_conjunct\(/ { print current }' \
    crates/db/src/plan_exec.rs | sort -u)
if [ "$callers" != "join_inputs" ]; then
    echo "callers of classify_conjunct: ${callers:-none}"
    echo "FAIL: join conjuncts are classified outside PlanExecutor::join_inputs (or nowhere)"
    exit 1
fi

echo "==> one groupjoin caller"
# The groupjoin stands in for a join and a GROUP BY only where the plan
# executor's aggregate step has checked that they are the same (DESIGN.md
# "Groupjoin"): outside tests, Exec::hash_groupjoin is called by
# PlanExecutor::groupjoin alone, and that by run_plan's aggregate arm alone.
calls() { # "file:function" for every non-test, non-comment call matching $1
    grep -rlE "$1" crates/*/src src --include='*.rs' | while read -r f; do
        re="$1" awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
            $0 ~ ENVIRON["re"] && !/^ *\/\// { print f ":" current }' "$f"
    done | sort -u
}
kernel=$(calls '[.]hash_groupjoin[(]')
step=$(calls 'self[.]groupjoin[(]')
if [ "$kernel" != "crates/db/src/plan_exec.rs:groupjoin" ] \
    || [ "$step" != "crates/db/src/plan_exec.rs:run_plan" ]; then
    echo "callers of hash_groupjoin: ${kernel:-none}; of PlanExecutor::groupjoin: ${step:-none}"
    echo "FAIL: the groupjoin runs outside the plan executor's aggregate step (or nowhere)"
    exit 1
fi

echo "==> one SELECT phase"
# Nested iteration and the plan executor end a block with the one select list
# of nsql_engine::select (DESIGN.md "One SELECT phase"): outside tests it is
# compiled in nested_iter.rs and plan_exec.rs only, and no other SELECT
# phase is written out — but the oracle's, the reference.
compilers=$(calls 'SelectList::compile[(]' | cut -d: -f1 | sort -u | tr '\n' ' ')
if [ "$compilers" != "crates/db/src/plan_exec.rs crates/engine/src/nested_iter.rs " ]; then
    echo "files compiling a select list: ${compilers:-none}"
    echo "FAIL: the select list is compiled outside nested iteration and the plan executor (or nowhere)"
    exit 1
fi
if grep -rnE 'fn (sort_relation|select_tail|resolve_output_column|compile_projection|output_schema)\b' \
    crates/*/src src --include='*.rs' | grep -v '^crates/oracle/'; then
    echo "FAIL: a second SELECT phase outside nsql-oracle"
    exit 1
fi

echo "==> the sort's last pass goes to three consumers"
# nsql_storage::sorted_with hands its last merge pass to the operator that
# wants the rows sorted once, in place of a sorted file it would write and
# read back (DESIGN.md "Execution model and the I/O-accounting invariant").
# Outside tests it is called by external_sort, which writes the file, by
# BTreeIndex::bulk_load, which packs the leaves, and by the GROUP BY fold.
# The merge join's sorts stay written: its two inputs would share the run
# pages.
consumers=$(calls 'sorted_with[(]' | tr '\n' ' ')
want="crates/engine/src/ops/agg.rs:group_aggregate_tuples crates/index/src/lib.rs:bulk_load \
crates/storage/src/sort.rs:external_sort "
if [ "$consumers" != "$want" ]; then
    echo "callers of sorted_with: ${consumers:-none}"
    echo "FAIL: the sort's last pass is handed to a consumer other than the three"
    exit 1
fi

echo "==> one cost model"
# Every page or CPU price is computed in nsql_engine::cost (DESIGN.md "Join
# choice"): outside tests no other source compares a page count with B - 1
# (the cliff of every nested-loop formula of Section 7), names a rate of
# in-memory work per page I/O (`*_PER_PAGE_IO`), or defines a price: a
# `Prices` list (but the one the calibrate program fits and prints) or a
# per-unit time constant (`*_NS`, `*_NANOS`, `*_PRICE`). nsql-core — which
# the engine must not come to depend on — holds neither the model nor a rule
# catalog.
cliff='[<>]=? *[a-z_.()]*(\bb|buffer|buffer_pages\(\))( as f64)? *- *1(\.0)?([^0-9]|$)'
price='[A-Z_]+_PER_PAGE_IO|const [A-Z_]+_(NS|NANOS|PRICE) *:'
priced=$(for f in $(find crates/*/src src -name '*.rs'); do
    [ "$f" = crates/engine/src/cost.rs ] && continue
    # The calibrate program builds the list it fits; nothing else builds one.
    pattern="$cliff|$price"
    [ "$f" = crates/bench/src/bin/calibrate.rs ] || pattern="$pattern|([=(,{] *|^ *)Prices *\{"
    sed '/^#\[cfg(test)\]/q' "$f" | grep -nE "$pattern" | sed "s|^|$f:|" || true
done)
if [ -n "$priced" ]; then
    echo "$priced"
    echo "FAIL: a page or CPU price is computed outside crates/engine/src/cost.rs"
    exit 1
fi
if [ "$(sed '/^#\[cfg(test)\]/q' crates/engine/src/cost.rs | grep -cE "$cliff")" != 1 ]; then
    echo "FAIL: the B - 1 cliff is written out more than once (or not at all) in cost.rs"
    exit 1
fi
if [ -e crates/core/src/cost.rs ] || [ -e crates/core/src/rules.rs ] \
    || grep -q 'nsql-core' crates/engine/Cargo.toml; then
    echo "FAIL: nsql-core holds cost.rs or rules.rs again, or nsql-engine depends on nsql-core"
    exit 1
fi

echo "==> execution is serial"
# Every operator and nested iteration run on the calling thread (DESIGN.md
# "Execution is serial"): outside the exec-par crate, which survives only for
# the benchmark's probes, no source names its worker pool.
if grep -rnE '\b(nsql_exec_par|run_workers)\b' crates/*/src src --include='*.rs' \
    | grep -v '^crates/exec-par/'; then
    echo "FAIL: a crate reaches for the worker pool"
    exit 1
fi

echo "==> no source outside crates/vec names nsql_vec"
# Every operator has one in-memory kernel, over rows (DESIGN.md "One
# hash-join kernel"); the column-batch crate survives only for the
# benchmark's vec.batch_build_us probe.
if grep -rn 'nsql_vec' crates/*/src crates/*/tests src tests examples --include='*.rs' \
    | grep -v '^crates/vec/'; then
    echo "FAIL: a source outside crates/vec uses the column-batch crate"
    exit 1
fi

echo "==> temporaries are owned values"
# What an operator or the plan executor materializes is freed by dropping
# its nsql_storage::TempFile (DESIGN.md "Execution model and the
# I/O-accounting invariant"). Outside tests, pages are freed by hand only in
# the storage crate (the guard itself, the sort's run clean-up), where the
# catalog replaces a table or an index, and in nested iteration, whose
# temporary B+trees (not heap files, so no TempFile) are freed by `teardown`.
by_hand=$(grep -rlE '\.drop_pages\(' crates/*/src src --include='*.rs' | while read -r f; do
    case "$f" in
        crates/storage/src/*|crates/db/src/catalog.rs|crates/engine/src/nested_iter.rs) continue ;;
    esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /\.drop_pages\(/ { print f ":" FNR ":" $0 }' "$f"
done)
if [ -n "$by_hand" ]; then
    echo "$by_hand"
    echo "FAIL: pages freed by hand outside the allow-list"
    exit 1
fi

echo "==> INSERT costs what it changes"
# An INSERT writes again the pages it changes (HeapFile::append,
# BTreeIndex::insert) and nothing else (DESIGN.md "Durability"). It must not
# go back to scanning the table, recounting its distinct values or building
# an index from it: outside tests BTreeIndex::build — the whole relation
# sorted in memory — is called in its own crate and by CREATE INDEX only.
fn_body() { # the body of method $2 (four-space indent) in file $1
    awk -v head="    pub fn $2(" 'index($0, head) == 1 { on = 1 } on { print } on && /^    }$/ { exit }' "$1"
}
builds=$(grep -rl 'BTreeIndex::build(' crates/*/src src --include='*.rs' | while read -r f; do
    case "$f" in crates/index/src/*) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /BTreeIndex::build\(/ { print f ":" FNR }' "$f"
done || true)
in_create_index=$(fn_body crates/db/src/catalog.rs create_index | grep -c 'BTreeIndex::build(' || true)
if [ "$builds" != "$(echo "$builds" | grep '^crates/db/src/catalog.rs:')" ] \
    || [ "$(echo "$builds" | grep -c .)" != "$in_create_index" ]; then
    echo "$builds"
    echo "FAIL: an index is built outside crates/index and Catalog::create_index"
    exit 1
fi
# The other half: a query builds through BTreeIndex::bulk_load, which sorts
# in the B pages the query has, and only nested iteration does (DESIGN.md
# "Execution model and the I/O-accounting invariant").
loads=$(grep -rl 'BTreeIndex::bulk_load(' crates/*/src src --include='*.rs' | while read -r f; do
    case "$f" in crates/index/src/*|crates/engine/src/nested_iter.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /BTreeIndex::bulk_load\(/ { print f ":" FNR }' "$f"
done || true)
if [ -n "$loads" ] || ! grep -q 'BTreeIndex::bulk_load(' crates/engine/src/nested_iter.rs; then
    echo "$loads"
    echo "FAIL: the query-time index build is called outside nested_iter.rs (or not from it)"
    exit 1
fi
insert_body=$(fn_body crates/db/src/catalog.rs insert)
if [ -z "$insert_body" ] \
    || echo "$insert_body" | grep -nE '\.scan\(|from_tuples|column_distincts|BTreeIndex::build'; then
    echo "FAIL: Catalog::insert reads the whole table (or was not found)"
    exit 1
fi

echo "==> differential oracle check (release, 200 random cases per pipeline)"
NSQL_TEST_CASES=200 cargo test -q --release --offline --test diff_prop

echo "==> diff_prop smoke at two pinned seeds (debug path, shrinker wired in)"
NSQL_TEST_SEED=0xd1ffc4ec NSQL_TEST_CASES=60 cargo test -q --offline --test diff_prop
# Case 0 of this one holds a scalar subquery in an operand position, two
# blocks deep (src/diff.rs pins that the seed still generates one).
NSQL_TEST_SEED=0x9e4a100 NSQL_TEST_CASES=20 cargo test -q --offline --test diff_prop

echo "==> ni_memo_prop smoke (backend I/O invariance + metamorphic mutations against 1987)"
NSQL_TEST_SEED=0xba7c4ed0 NSQL_TEST_CASES=60 cargo test -q --offline --test ni_memo_prop

echo "==> ni_probe_prop at a second seed (probing blocks against the 1987 scan and the oracle)"
NSQL_TEST_SEED=0x9a0be5 NSQL_TEST_CASES=60 cargo test -q --offline -p nsql-db --test ni_probe_prop

echo "==> stats_prop smoke (stats-on/off rows + four-counter I/O invariance)"
NSQL_TEST_SEED=0x57a75b10 NSQL_TEST_CASES=40 cargo test -q --offline --test stats_prop

echo "==> testkit is warnings-clean across all targets"
RUSTFLAGS="-D warnings" cargo check -p nsql-testkit --all-targets --offline

echo "==> hot-path crates carry no redundant clones (clippy)"
# nsql-core is included for the transformation: NEST-G
# clones query blocks, and a redundant clone there multiplies per query.
# nsql-sql is included for the child-block walker every crate calls.
cargo clippy -p nsql-engine -p nsql-storage -p nsql-index -p nsql-vec \
    -p nsql-core -p nsql-types -p nsql-sql \
    --all-targets --offline -- -D clippy::redundant_clone

echo "==> benchmark smoke (one cycle per workload, answers checked; not a measurement)"
# The standalone package under benchmark/ builds against this checkout. Each
# run checks every answer against the reference evaluators, the metric names
# against BENCHMARK.json, and that two cycles count the same page I/O.
benchmark/run.sh --smoke >/dev/null

echo "verify: OK"
