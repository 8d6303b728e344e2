//! Statements over the benchmark's generated workloads, held to
//! `nsql-oracle` (rows) and to each other (float bits): nested iteration
//! against the oracle on the Kim-scale tables, exact float aggregation on
//! both strategies, and nested iteration's short-circuit over a
//! sometimes-`NULL` conjunct.
//!
//! Every test runs on both storage backends ([`on_both_backends`]).

use nsql_bench::workload::{queries, WorkloadSpec, DEFAULT_SEED};
use nsql_bench::{RunConfig, Workload};
use nsql_db::{DbError, QueryOptions, QueryOutcome};
use nsql_oracle::Oracle;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// Run `body` with databases in memory, then with file-backed ones.
fn on_both_backends(body: impl Fn(&RunConfig)) {
    body(&RunConfig::default());
    let dir = TempDir::new("nsql-workload-oracle");
    body(&RunConfig { data_dir: Some(dir.path().to_path_buf()), ..RunConfig::default() });
}

/// Canonically sorted bitwise row comparison — floats via `to_bits`, so a
/// one-ULP divergence (or an Int/Float type flip) fails loudly.
fn assert_bit_identical(name: &str, a: &Relation, b: &Relation) {
    let canon = |r: &Relation| {
        let mut rows: Vec<Tuple> = r.tuples().to_vec();
        rows.sort_by(Tuple::total_cmp);
        rows
    };
    let (a, b) = (canon(a), canon(b));
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

/// One nested-iteration run.
fn run_ni(w: &Workload, sql: &str) -> Result<QueryOutcome, DbError> {
    w.db.query_with(sql, &QueryOptions::nested_iteration())
}

#[test]
fn nested_iteration_equals_the_oracle() {
    on_both_backends(|cfg| {
        for seed in [DEFAULT_SEED, 7] {
            let w = RunConfig { seed, ..cfg.clone() }.workload(WorkloadSpec::small());
            let oracle = oracle_of(&w, &["PARTS", "SUPPLY"]);
            for (name, sql) in QUERIES {
                let name = format!("ni/{name}/seed={seed}");
                let got = run_ni(&w, sql).unwrap_or_else(|e| panic!("{name}: {e}"));
                let want = oracle.eval(&nsql_sql::parse_query(sql).unwrap()).unwrap();
                assert!(got.relation.same_bag(&want), "{name}: nested iteration != oracle");
            }
        }
    });
}

/// Nested iteration and the transformed path fold `SUM`/`AVG` with the same
/// exact summation: bit-identical over mixed magnitudes, grouped and global.
#[test]
fn float_aggregates_are_bit_identical_across_strategies() {
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
            let tr = w.db.query_with(sql, &QueryOptions::transformed()).unwrap();
            let ni = run_ni(&w, sql).unwrap();
            assert_bit_identical("float-agg/ni vs tr", &ni.relation, &tr.relation);
        }
    });
}

/// WHERE drops a binding at the first non-TRUE conjunct, so a conjunct that
/// would raise a type error stays unevaluated behind one that is FALSE *or
/// UNKNOWN*. Generated statements put a type-mismatched conjunct behind a
/// comparison on a sometimes-NULL column, at top level and inside a
/// correlated inner block: where no row gets past the guard nested
/// iteration answers, where one does it raises. The oracle's `AND` evaluates past UNKNOWN, so it
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
            match run_ni(&w, &sql) {
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
