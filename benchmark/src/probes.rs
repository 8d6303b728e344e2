//! Single-layer probes of the traced run: each times one public function
//! of one crate from outside, on a fresh copy of the workload's own tables.
//! A probe that does not apply to a workload (nested iteration at x20, the
//! durable store on the memory backend) reports 0.

use crate::report::Metrics;
use crate::run::select;
use crate::stats::{median_ms, median_of, time_ms};
use crate::workloads::{sql, Session, Spec};
use nsql_cache::{BlockEntry, QueryCache};
use nsql_db::{CacheMode, Database, QueryOptions};
use nsql_engine::{AggSpec, CPred, Exec, JoinKind, NestedIter};
use nsql_index::BTreeIndex;
use nsql_sql::{parse_query, AggFunc};
use nsql_storage::sort::SortKey;
use nsql_storage::{external_sort, HeapFile, Storage};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use nsql_vec::Batch;
use std::hint::black_box;
use std::path::Path;

/// Compile the WHERE clause of `SELECT .. FROM <one table> WHERE ..`.
fn predicate(schema: &Schema, query: &str) -> CPred {
    let q = parse_query(query).expect("probe query parses");
    CPred::compile(
        schema,
        q.where_clause.as_ref().expect("probe query has a WHERE"),
    )
    .expect("probe predicate compiles")
}

/// Run `f`, which returns a heap file, and free the file outside the timing.
fn timed_file(storage: &Storage, reps: usize, mut f: impl FnMut() -> HeapFile) -> f64 {
    median_of(reps, || {
        let (file, ms) = time_ms(&mut f);
        file.drop_pages(storage);
        ms
    })
}

/// `engine.*` operator kernels, `vec.*` and `storage.*` scans on PARTS and
/// SUPPLY, the relations the transformed plans join and aggregate.
fn operators(m: &mut Metrics, db: &Database, reps: usize, nproc: usize) {
    let storage = db.storage();
    let parts = db.catalog().table("PARTS").expect("PARTS loaded").clone();
    let supply = db.catalog().table("SUPPLY").expect("SUPPLY loaded").clone();
    let row = Exec::new(storage.clone());
    let vec = Exec::new(storage.clone()).with_vectorized(true);

    let epoch = predicate(supply.schema(), "SELECT PNUM FROM SUPPLY WHERE EPOCH < 50");
    let filter =
        |e: &Exec| timed_file(storage, reps, || e.filter(&supply, &epoch).expect("filter"));
    let filter_ms = filter(&row);
    m.push(("engine.filter_ms".into(), filter_ms));
    m.push(("engine.filter_vec_ms".into(), filter(&vec)));
    let wide = Exec::with_threads(storage.clone(), nproc);
    m.push(("exec-par.scan_speedup".into(), filter_ms / filter(&wide)));

    // The outer side of the nested-loop probe is the tenth of PARTS the
    // transformed plans restrict to.
    let grp0 = predicate(parts.schema(), "SELECT PNUM FROM PARTS WHERE GRP = 0");
    let outer = row.filter(&parts, &grp0).expect("filter");
    let joined = outer.schema().join(supply.schema());
    let on = predicate(
        &joined,
        "SELECT PNUM FROM PARTS, SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM",
    );
    let nl = median_ms(reps.min(3), || {
        row.nl_join_collect(&outer, &supply, &on, JoinKind::Inner)
            .expect("nl join")
            .len()
    });
    outer.drop_pages(storage);
    m.push(("engine.nl_join_ms".into(), nl));
    let merge = median_ms(reps, || {
        row.merge_join_collect(
            &parts,
            &supply,
            &[0],
            &[0],
            None,
            JoinKind::Inner,
            false,
            false,
        )
        .expect("merge join")
        .len()
    });
    m.push(("engine.merge_join_ms".into(), merge));
    let hash = |e: &Exec| {
        median_ms(reps, || {
            e.hash_join_collect(&parts, &supply, &[0], &[0], None, JoinKind::Inner)
                .expect("hash join")
                .len()
        })
    };
    m.push(("engine.hash_join_ms".into(), hash(&row)));
    m.push(("engine.hash_join_vec_ms".into(), hash(&vec)));
    let agg_schema = Schema::new(vec![
        Column::new("PNUM", ColumnType::Int),
        Column::new("N", ColumnType::Int),
    ]);
    let agg = median_ms(reps, || {
        let aggs = [AggSpec::on(AggFunc::Count, 1)];
        row.group_aggregate_collect(&supply, &[0], &aggs, agg_schema.clone(), false)
            .expect("aggregate")
            .len()
    });
    m.push(("engine.group_agg_ms".into(), agg));

    let pages: Vec<Vec<Tuple>> = supply
        .page_ids()
        .iter()
        .map(|&p| storage.read_page_tuples_uncounted(p))
        .collect();
    let build_ms = median_ms(reps, || {
        pages
            .iter()
            .map(|p| black_box(Batch::from_tuples(p)).len())
            .sum::<usize>()
    });
    m.push((
        "vec.batch_build_us".into(),
        build_ms * 1e3 / pages.len() as f64,
    ));

    m.push((
        "storage.scan_ms".into(),
        median_ms(reps, || supply.scan(storage).count()),
    ));
    let sort = timed_file(storage, reps, || {
        external_sort(storage, &supply, &[SortKey::asc(0)], false)
    });
    m.push(("storage.sort_ms".into(), sort));
    let rel = storage.load_relation(&supply);
    m.push((
        "storage.store_relation_ms".into(),
        timed_file(storage, reps, || storage.store_relation(&rel)),
    ));
    m.push(("db.load_table_ms".into(), load_table_ms(db, &rel, reps)));

    let build = |name: &str| BTreeIndex::build(storage, name, 0, &supply);
    let build_ms = median_of(reps, || {
        let (ix, ms) = time_ms(|| build("IX_PROBE"));
        ix.drop_pages(storage);
        ms
    });
    m.push(("index.build_ms".into(), build_ms));
    let ix = build("IX_PROBE");
    let keys: Vec<Value> = (0..200).map(|i| Value::Int(i * 7 % 1000)).collect();
    let before = storage.io_snapshot();
    let (_, probe_ms) = time_ms(|| {
        keys.iter()
            .map(|k| black_box(ix.probe_eq(storage, k)).len())
            .sum::<usize>()
    });
    let io = storage.io_snapshot().since(&before);
    ix.drop_pages(storage);
    m.push(("index.probe_us".into(), probe_ms * 1e3 / keys.len() as f64));
    m.push((
        "index.pages_per_probe".into(),
        (io.hits + io.misses) as f64 / keys.len() as f64,
    ));
}

/// `Catalog::load_table` of SUPPLY's rows under a scratch name, on a
/// memory-backed database of the same geometry (the probed database must
/// keep its tables; the durable cost of a load is `storage.commit_ms`).
fn load_table_ms(db: &Database, rel: &Relation, reps: usize) -> f64 {
    let mut scratch = Database::with_storage(db.storage().buffer_pages(), db.storage().page_size());
    median_ms(reps, || {
        scratch
            .catalog_mut()
            .load_table("SCRATCH", rel)
            .expect("table loads")
    })
}

/// `engine.ni_*`: the nested-iteration evaluator's variants on the probe
/// shape, at one thread except `ni_ms`, which takes the default.
fn nested_iteration(m: &mut Metrics, session: &Session, reps: usize, threads: usize) {
    let names = [
        "engine.ni_ms",
        "engine.ni_row_ms",
        "engine.ni_vec_ms",
        "engine.batched_ms",
    ];
    if session.spec.parts > 1000 {
        // Minutes per evaluation at x20: the default path never gets there.
        m.extend(names.iter().map(|n| (n.to_string(), 0.0)));
        return;
    }
    let db = &session.db;
    let q = parse_query(&sql(session.spec.probe_shape)).expect("probe shape parses");
    let ni = || NestedIter::new(db.catalog(), db.storage().clone());
    let values = [
        median_ms(reps, || {
            ni().eval_query_threads(&q, threads).expect("ni").len()
        }),
        median_ms(reps, || {
            ni().with_vectorized(false)
                .eval_query_threads(&q, 1)
                .expect("ni")
                .len()
        }),
        median_ms(reps, || {
            ni().with_vectorized(true)
                .eval_query_threads(&q, 1)
                .expect("ni")
                .len()
        }),
        median_ms(reps, || {
            ni().eval_query_batched(&q, 1).expect("batched").len()
        }),
    ];
    m.extend(names.iter().map(|n| n.to_string()).zip(values));
}

/// `cache.*` and `obs.observe_ratio`: the cache is off on the default path,
/// so these time what turning it on would add and save.
fn cache_and_obs(m: &mut Metrics, session: &Session, reps: usize) {
    let cache = QueryCache::with_defaults();
    let schema = Schema::new(vec![Column::new("QUAN", ColumnType::Int)]);
    let entry = |i: i64| BlockEntry {
        signature: "SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = $0".into(),
        binding: Tuple::new(vec![Value::Int(i)]),
        table: "SUPPLY".into(),
        generation: 1,
        epoch: 1,
        rel: Relation::new(schema.clone(), vec![Tuple::new(vec![Value::Int(i)])]).expect("arity"),
    };
    const ENTRIES: i64 = 256;
    let publish_all = || (0..ENTRIES).for_each(|i| cache.publish_block(entry(i)));
    let publish_ms = median_of(reps, || {
        cache.invalidate_table("SUPPLY");
        time_ms(publish_all).1
    });
    let invalidate_ms = median_of(reps, || {
        publish_all();
        time_ms(|| cache.invalidate_table("SUPPLY")).1
    });
    publish_all();
    let probe = entry(ENTRIES / 2);
    let find_ms = median_ms(reps.max(20), || {
        cache
            .find_block(&probe.signature, &probe.binding, "SUPPLY", 1, 1)
            .is_some()
    });
    m.push(("cache.find_us".into(), find_ms * 1e3));
    m.push(("cache.publish_us".into(), publish_ms * 1e3 / ENTRIES as f64));
    m.push(("cache.invalidate_us".into(), invalidate_ms * 1e3));

    let text = sql(session.spec.probe_shape);
    let run = |opts: &QueryOptions| {
        median_ms(reps, || {
            select(&session.db, &text, opts)
                .expect("probe select")
                .0
                .relation
                .len()
        })
    };
    let default_ms = run(&QueryOptions::default());
    let cached = QueryOptions {
        cache: CacheMode::On,
        ..QueryOptions::default()
    };
    select(&session.db, &text, &cached).expect("priming select");
    m.push(("cache.warm_hit_ms".into(), run(&cached)));
    let observed = QueryOptions {
        observe: true,
        ..QueryOptions::default()
    };
    m.push(("obs.observe_ratio".into(), run(&observed) / default_ms));
}

/// `storage.commit_ms` and the rest of the durable store's cost, on the
/// file-backed workload only.
fn durable(m: &mut Metrics, session: &Session, dir: &Path, reps: usize) {
    let names = [
        "storage.commit_ms",
        "storage.wal_bytes_per_commit",
        "storage.recover_ms",
        "db.open_ms",
    ];
    let Some(store) = session.db.storage().durable() else {
        m.extend(names.iter().map(|n| (n.to_string(), 0.0)));
        return;
    };
    let spec = session.spec;
    // An empty batch: the catalog snapshot and the commit record alone.
    let commit = median_ms(reps, || session.db.catalog().persist().expect("commit"));
    // What that commit appends to the log. (An INSERT's own batch passes the
    // auto-checkpoint threshold, which truncates the log, so its bytes are
    // counted as `storage.durable_writes_per_insert` instead.)
    let wal_before = store.wal_len();
    session.db.catalog().persist().expect("commit");
    let wal_per_commit = store.wal_len().saturating_sub(wal_before) as f64;
    let recover = median_ms(reps, || {
        Storage::file_backed(spec.buffer_pages, spec.page_size, dir)
            .expect("store reopens")
            .1
    });
    let open = median_ms(reps, || {
        Database::open_with(spec.buffer_pages, spec.page_size, dir).expect("database reopens")
    });
    m.extend(
        names
            .iter()
            .map(|n| n.to_string())
            .zip([commit, wal_per_commit, recover, open]),
    );
}

/// Every probe, on a fresh session of `spec`.
pub fn all(spec: &'static Spec, seed: u64, out_dir: &Path, threads: usize, reps: usize) -> Metrics {
    let dir = out_dir.join(format!("probe-{}", std::process::id()));
    let session = Session::new(spec, seed, &dir);
    let mut m = Metrics::new();
    operators(&mut m, &session.db, reps, threads);
    nested_iteration(&mut m, &session, reps, threads);
    cache_and_obs(&mut m, &session, reps);
    durable(&mut m, &session, &dir, reps);
    let dispatch = median_ms(200, || {
        nsql_exec_par::run_workers(threads, |w| {
            black_box(w);
        })
    });
    m.push(("exec-par.dispatch_us".into(), dispatch * 1e3));
    m
}
