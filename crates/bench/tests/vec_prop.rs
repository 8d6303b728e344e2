//! Vectorized-equivalence property: on seeded benchmark workloads, the
//! transformed path run under `ExecMode::Vector` returns bit-identical rows
//! AND leaves a byte-identical four-counter page-I/O trace
//! (reads/writes/hits/misses) compared to `ExecMode::Row` — at 1 and 4
//! threads, end-to-end through the `Database` facade. The whole vectorized
//! subsystem (batch kernels, batched join/agg) must be invisible to
//! everything except wall-clock time.
//!
//! Nested iteration has one kernel, so there is no second mode to compare
//! it with: the statements this suite used to run under both of its
//! kernels stay, held to `nsql-oracle` (rows), to the transformed path
//! (float bits) and to the serial run (four-counter trace at 4 threads).
//!
//! Every test runs on both storage backends ([`on_both_backends`]).

use nsql_bench::workload::{queries, WorkloadSpec, DEFAULT_SEED};
use nsql_bench::{RunConfig, Workload};
use nsql_db::{DbError, ExecMode, JoinPolicy, QueryOptions, QueryOutcome};
use nsql_oracle::Oracle;
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// Run `body` with databases in memory, then with file-backed ones.
fn on_both_backends(body: impl Fn(&RunConfig)) {
    body(&RunConfig::default());
    let dir = TempDir::new("nsql-vec-prop");
    body(&RunConfig { data_dir: Some(dir.path().to_path_buf()), ..RunConfig::default() });
}

/// Canonically sorted bitwise row comparison — floats via `to_bits`, so a
/// one-ULP kernel divergence (or an Int/Float type flip) fails loudly.
fn assert_bit_identical(name: &str, row: &Relation, vec: &Relation) {
    let canon = |r: &Relation| {
        let mut rows: Vec<Tuple> = r.tuples().to_vec();
        rows.sort_by(Tuple::total_cmp);
        rows
    };
    let (a, b) = (canon(row), canon(vec));
    assert_eq!(a.len(), b.len(), "{name}: row counts diverged");
    for (x, y) in a.iter().zip(&b) {
        for (u, v) in x.values().iter().zip(y.values()) {
            let same = match (u, v) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => u == v,
            };
            assert!(same, "{name}: bitwise divergence: {u:?} vs {v:?}");
        }
    }
}

/// Run `sql` under Row then Vector, asserting identical rows (or the same
/// error), identical reported I/O, and an identical four-counter storage
/// trace. Returns whether the statement answered (rather than raised).
fn check(w: &Workload, sql: &str, name: &str, base: &QueryOptions) -> bool {
    let s0 = w.db.storage().io_snapshot();
    let row = w.db.query_with(sql, &QueryOptions { exec_mode: ExecMode::Row, ..base.clone() });
    let s1 = w.db.storage().io_snapshot();
    let vec = w.db.query_with(sql, &QueryOptions { exec_mode: ExecMode::Vector, ..base.clone() });
    let s2 = w.db.storage().io_snapshot();
    let answered = row.is_ok();
    match (row, vec) {
        (Ok(row), Ok(vec)) => {
            assert_bit_identical(name, &row.relation, &vec.relation);
            assert_eq!(row.io, vec.io, "{name}: reported I/O totals diverged");
        }
        (Err(row), Err(vec)) => {
            assert_eq!(format!("{row:?}"), format!("{vec:?}"), "{name}: errors diverged")
        }
        (row, vec) => panic!(
            "{name}: one mode failed: row {:?}, vector {:?}",
            row.map(|o| o.relation.len()),
            vec.map(|o| o.relation.len())
        ),
    }
    assert_eq!(
        s1.since(&s0),
        s2.since(&s1),
        "{name}: vector mode changed the reads/writes/hits/misses trace"
    );
    answered
}

const QUERIES: [(&str, &str); 4] = [
    ("type-N", queries::TYPE_N),
    ("type-J", queries::TYPE_J),
    ("type-JA-count", queries::TYPE_JA_COUNT),
    ("type-JA-max", queries::TYPE_JA_MAX),
];

/// The oracle's image of the workload's tables.
fn oracle_of(w: &Workload, tables: &[&str]) -> Oracle {
    let mut oracle = Oracle::new();
    for t in tables {
        let file = w.db.catalog().table(t).expect("workload table");
        oracle.load(*t, w.db.storage().load_relation(file));
    }
    oracle
}

/// One nested-iteration run and the four-counter trace around it.
fn run_ni(w: &Workload, sql: &str, threads: usize) -> (Result<QueryOutcome, DbError>, IoSnapshot) {
    let opts = QueryOptions { threads, ..QueryOptions::nested_iteration() };
    let before = w.db.storage().io_snapshot();
    let out = w.db.query_with(sql, &opts);
    (out, w.db.storage().io_snapshot().since(&before))
}

/// Nested iteration at 1 and 4 threads: same rows (or the same error), the
/// same reported I/O and the same four-counter trace. Returns the serial
/// outcome.
fn check_ni_threads(w: &Workload, sql: &str, name: &str) -> Result<QueryOutcome, DbError> {
    let (serial, trace) = run_ni(w, sql, 1);
    let (par, par_trace) = run_ni(w, sql, 4);
    match (&serial, &par) {
        (Ok(a), Ok(b)) => {
            assert_bit_identical(name, &a.relation, &b.relation);
            assert_eq!(a.io, b.io, "{name}: reported I/O totals diverged at 4 threads");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}: errors diverged at 4 threads")
        }
        (a, b) => panic!(
            "{name}: one thread count failed: serial {:?}, 4 threads {:?}",
            a.as_ref().map(|o| o.relation.len()),
            b.as_ref().map(|o| o.relation.len())
        ),
    }
    assert_eq!(trace, par_trace, "{name}: 4 threads changed the reads/writes/hits/misses trace");
    serial
}

#[test]
fn nested_iteration_equals_the_oracle() {
    on_both_backends(|cfg| {
        for seed in [DEFAULT_SEED, 7] {
            let w = RunConfig { seed, ..cfg.clone() }.workload(WorkloadSpec::small());
            let oracle = oracle_of(&w, &["PARTS", "SUPPLY"]);
            for (name, sql) in QUERIES {
                let name = format!("ni/{name}/seed={seed}");
                let got =
                    check_ni_threads(&w, sql, &name).unwrap_or_else(|e| panic!("{name}: {e}"));
                let want = oracle.eval(&nsql_sql::parse_query(sql).unwrap()).unwrap();
                assert!(got.relation.same_bag(&want), "{name}: nested iteration != oracle");
            }
        }
    });
}

#[test]
fn vectorized_transform_equals_row_mode() {
    on_both_backends(|cfg| {
        let w = cfg.workload(WorkloadSpec::small());
        for (policy, pname) in [
            (JoinPolicy::ForceMergeJoin, "merge"),
            (JoinPolicy::ForceHashJoin, "hash"),
            (JoinPolicy::CostBased, "cost"),
        ] {
            for threads in [1usize, 4] {
                let base = QueryOptions {
                    join_policy: policy,
                    threads,
                    ..QueryOptions::transformed()
                };
                for (name, sql) in QUERIES {
                    let name = format!("tr/{pname}/{name}/threads={threads}");
                    assert!(check(&w, sql, &name, &base), "{name}: expected an answer");
                }
            }
        }
    });
}

/// The vectorized aggregation fold must preserve the exact-summation float
/// invariant: `SUM`/`AVG` bit-identical to the row fold over mixed
/// magnitudes, grouped and global.
#[test]
fn vectorized_float_aggregates_bit_identical() {
    on_both_backends(|cfg| {
        let schema = Schema::new(vec![
            Column::new("GRP", ColumnType::Int),
            Column::new("X", ColumnType::Float),
        ]);
        let mut rel = Relation::empty(schema);
        let mut rng = nsql_testkit::Rng::from_seed(9);
        for i in 0..4000i64 {
            let x = match i % 7 {
                0 => 1e12,
                1 => -1e12,
                2 => 0.1,
                3 => -0.30000000000000004,
                4 => 1e-9,
                5 => 3.25,
                _ => rng.gen_range(-1000..1000) as f64 / 8.0,
            };
            rel.push(Tuple::new(vec![Value::Int(i % 5), Value::Float(x)])).unwrap();
        }
        let mut db = cfg.database_with(64, 256);
        db.catalog_mut().load_table("MEAS", &rel).expect("fresh catalog");
        let w = Workload { db, spec: WorkloadSpec::small() };
        for sql in [
            "SELECT SUM(X), AVG(X) FROM MEAS",
            "SELECT GRP, SUM(X), AVG(X) FROM MEAS GROUP BY GRP",
        ] {
            let base = QueryOptions::transformed();
            assert!(check(&w, sql, "float-agg/tr", &base), "float-agg/tr: expected an answer");
            // Nested iteration folds with the same exact summation: bit-equal
            // to the transformed path, at either thread count.
            let tr = w.db.query_with(sql, &base).unwrap();
            let ni = check_ni_threads(&w, sql, "float-agg/ni").unwrap();
            assert_bit_identical("float-agg/ni vs tr", &ni.relation, &tr.relation);
        }
    });
}

/// WHERE drops a binding at the first non-TRUE conjunct, so a conjunct that
/// would raise a type error stays unevaluated behind one that is FALSE *or
/// UNKNOWN*. Generated statements put a type-mismatched conjunct behind a
/// comparison on a sometimes-NULL column, at top level and inside a
/// correlated inner block: where no row gets past the guard nested
/// iteration answers, where one does it raises — at every thread count,
/// after the same I/O. The oracle's `AND` evaluates past UNKNOWN, so it
/// raises at least as often: it must raise wherever nested iteration does
/// and agree on the rows wherever it answers. The split of the 40 seeded
/// statements is pinned.
#[test]
fn type_mismatch_behind_a_sometimes_null_conjunct() {
    on_both_backends(|cfg| {
        let mut rng = nsql_testkit::Rng::from_seed(DEFAULT_SEED);
        let schema = |t: &str| {
            Schema::new(vec![
                Column::qualified(t, "K", ColumnType::Int),
                Column::qualified(t, "V", ColumnType::Int),
                Column::qualified(t, "S", ColumnType::Str),
            ])
        };
        let mut db = cfg.database_with(6, 256);
        for (table, rows) in [("T", 90i64), ("U", 150)] {
            let mut rel = Relation::empty(schema(table));
            for i in 0..rows {
                let v = if rng.gen_bool(0.3) { Value::Null } else { Value::Int(rng.gen_range(0..6)) };
                rel.push(Tuple::new(vec![Value::Int(i % 30), v, Value::str(format!("s{}", i % 4))]))
                    .unwrap();
            }
            db.catalog_mut().load_table(table, &rel).expect("fresh catalog");
        }
        let w = Workload { db, spec: WorkloadSpec::small() };
        let oracle = oracle_of(&w, &["T", "U"]);
        let (mut answered, mut raised) = (0, 0);
        for case in 0..40 {
            let op = *rng.choose(&["=", "<", ">", "<>"]);
            // 9 is outside V's range: `V = 9` is never TRUE, `V <> 9` never FALSE.
            let bound = *rng.choose(&[0i64, 2, 5, 9]);
            let mismatch = *rng.choose(&["S = 3", "K = 'x'", "S IN (1, 2)", "NOT (S < 3)"]);
            let sql = if rng.gen_bool(0.5) {
                format!("SELECT K FROM T WHERE V {op} {bound} AND {mismatch}")
            } else {
                let inner = mismatch.replace("S ", "U.S ").replace("K ", "U.K ");
                format!(
                    "SELECT K FROM T WHERE V IN \
                     (SELECT V FROM U WHERE U.K = T.K AND U.V {op} {bound} AND {inner})"
                )
            };
            let name = format!("guarded-mismatch/{case}: {sql}");
            let reference = oracle.eval(&nsql_sql::parse_query(&sql).unwrap());
            match check_ni_threads(&w, &sql, &name) {
                Ok(got) => {
                    if let Ok(want) = reference {
                        assert!(got.relation.same_bag(&want), "{name}: nested iteration != oracle");
                    }
                    answered += 1;
                }
                Err(_) => {
                    assert!(reference.is_err(), "{name}: a row reached the mismatch");
                    raised += 1;
                }
            }
        }
        assert_eq!((answered, raised), (7, 33), "the pinned split of the seeded statements");
    });
}
