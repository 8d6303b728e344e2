//! Exec-mode wall-clock sweep: row vs vectorized execution per cell.
//!
//! Each group runs one (workload, query) cell of the transformed path, or
//! one operator kernel, under `ExecMode::Row` and `ExecMode::Vector` at 1
//! and 4 worker threads. The counted page I/Os are byte-identical across
//! the sweep (enforced by `tests/vec_prop.rs` and the differential
//! harness), so any median movement is pure execution-time speedup from
//! the batch kernels. BENCH_pr7.json holds the original record, including
//! the two nested-iteration cells (`vec-ni-type-J`, `vec-ni-type-JA-count`)
//! that went with nested iteration's lane kernel.
//!
//! ```sh
//! cargo bench -p nsql-bench --bench vec_sweep
//! ```

use nsql_bench::workload::{ja_workload, queries, seed_from_env, Workload, WorkloadSpec};
use nsql_db::{ExecMode, JoinPolicy, QueryOptions};
use nsql_engine::{Exec, JoinKind};
use nsql_storage::{HeapFile, Storage};
use nsql_testkit::bench::{black_box, Bench};
use nsql_testkit::bench_main;
use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

const THREADS: [usize; 2] = [1, 4];

fn sweep(c: &mut Bench, group_name: &str, w: &Workload, sql: &'static str, base: &QueryOptions) {
    let mut group = c.group(group_name);
    group.sample_size(10);
    for t in THREADS {
        for (mode, mname) in [(ExecMode::Row, "row"), (ExecMode::Vector, "vector")] {
            let opts = QueryOptions { threads: t, exec_mode: mode, ..base.clone() };
            group.bench_function(&format!("mode={mname}/threads={t}"), |b| {
                b.iter(|| {
                    let out = w.db.query_with(black_box(sql), &opts).expect("query runs");
                    black_box(out.relation.len())
                })
            });
        }
    }
}

/// Transformed execution end-to-end: whole-query cells where the join is
/// one operator among sort/aggregate/project. These contextualize the
/// kernel numbers — small per-query joins amortize less, so the deltas
/// here are modest by design.
fn bench_transformed(c: &mut Bench) {
    let w = ja_workload(WorkloadSpec::kim_scale_ja(), seed_from_env());
    let hash =
        QueryOptions { join_policy: JoinPolicy::ForceHashJoin, ..QueryOptions::transformed() };
    sweep(c, "vec-tr-hash", &w, queries::TYPE_JA_COUNT, &hash);
    sweep(c, "vec-tr-merge", &w, queries::TYPE_JA_COUNT, &QueryOptions::transformed_merge());
}

/// Seed a heap file of `rows` tuples: column 0 is `key(i)`, the remaining
/// `payload` columns carry derived ints (wide enough that per-tuple clone
/// cost is visible in the row path).
fn seeded_file(
    storage: &Storage,
    prefix: &str,
    rows: usize,
    payload: usize,
    key: impl Fn(usize) -> i64,
) -> HeapFile {
    let mut cols = vec![Column::new(format!("{prefix}K"), ColumnType::Int)];
    for c in 0..payload {
        cols.push(Column::new(format!("{prefix}P{c}"), ColumnType::Int));
    }
    let schema = Schema::new(cols);
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            let mut vals = vec![Value::Int(key(i))];
            for c in 0..payload {
                vals.push(Value::Int((i * 31 + c * 7) as i64 % 1009));
            }
            Tuple::new(vals)
        })
        .collect();
    HeapFile::from_tuples(storage, schema, tuples)
}

/// Hash-join operator kernel: build + probe over relations large enough
/// that the join dominates. The probe side hits ~25% of the build table,
/// so the row path's per-probe key-tuple allocation and per-tuple scan
/// clones are measured against the vectorized u64-prehash probe that
/// materializes tuples only on match.
fn bench_hash_join(c: &mut Bench) {
    let storage = Storage::new(512, 4096);
    // Build side: 20k rows, dense keys. Probe side: 60k rows over a 4x
    // wider key domain — every build bucket is probed, 3 of 4 probes miss.
    let build = seeded_file(&storage, "R", 20_000, 3, |i| i as i64);
    let probe = seeded_file(&storage, "L", 60_000, 3, |i| ((i * 2_654_435_761) % 80_000) as i64);
    let mut group = c.group("vec-hash-join");
    group.sample_size(10);
    for t in THREADS {
        for (vectorized, mname) in [(false, "row"), (true, "vector")] {
            let e = Exec::with_threads(storage.clone(), t).with_vectorized(vectorized);
            group.bench_function(&format!("mode={mname}/threads={t}"), |b| {
                b.iter(|| {
                    let out = e
                        .hash_join_collect(
                            black_box(&probe),
                            black_box(&build),
                            &[0],
                            &[0],
                            None,
                            JoinKind::Inner,
                        )
                        .expect("join runs");
                    black_box(out.len())
                })
            });
        }
    }
}

bench_main!(bench_hash_join, bench_transformed);
