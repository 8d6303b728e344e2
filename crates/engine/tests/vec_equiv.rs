//! Nested iteration's one kernel against the oracle, at one thread and four.
//!
//! These statements used to cross-check the row kernel against a lane
//! kernel over column batches (hence the file name). The lane kernel is
//! gone; every statement stays, now held to `nsql-oracle` for its rows and
//! to the one-thread run for everything a thread count must not move —
//! nested iteration is serial and ignores it: result relations, error
//! values, I/O totals and buffer hit/miss splits.

use nsql_engine::fixtures::{suppliers_parts, Fixture};
use nsql_engine::provider::MemoryProvider;
use nsql_engine::NestedIter;
use nsql_oracle::Oracle;
use nsql_sql::parse_query;
use nsql_storage::{IoStats, Storage};
use nsql_types::{ColumnType, Relation, Schema, Tuple, Value};

/// Multi-page PARTS/SUPPLY with NULLs in both the membership column and
/// the correlation column, plus duplicate outer correlation values.
fn setup() -> (Storage, MemoryProvider, Oracle) {
    let storage = Storage::new(6, 256);
    let mut provider = MemoryProvider::new();
    let mut oracle = Oracle::new();
    let parts = Relation::new(
        Schema::of_table(
            "PARTS",
            &[
                ("PNUM", ColumnType::Int),
                ("QOH", ColumnType::Int),
                ("GRP", ColumnType::Int),
            ],
        ),
        (0..240)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i % 60),
                    if i % 17 == 0 { Value::Null } else { Value::Int((i * 13) % 9) },
                    Value::Int(i % 3),
                ])
            })
            .collect(),
    )
    .unwrap();
    let supply = Relation::new(
        Schema::of_table(
            "SUPPLY",
            &[("PNUM", ColumnType::Int), ("QUAN", ColumnType::Int)],
        ),
        (0..360)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i % 90),
                    if i % 23 == 0 { Value::Null } else { Value::Int((i * 7) % 9) },
                ])
            })
            .collect(),
    )
    .unwrap();
    provider.register("PARTS", storage.store_relation(&parts));
    provider.register("SUPPLY", storage.store_relation(&supply));
    oracle.load("PARTS", parts);
    oracle.load("SUPPLY", supply);
    storage.reset_stats();
    (storage, provider, oracle)
}

type RunOutcome = (Result<Relation, String>, IoStats, (u64, u64));

fn eval(storage: &Storage, provider: &MemoryProvider, sql: &str, threads: usize) -> RunOutcome {
    storage.clear_buffer();
    storage.reset_stats();
    let q = parse_query(sql).unwrap();
    let ni = NestedIter::new(provider, storage.clone());
    let res = ni.eval_query_threads(&q, threads).map_err(|e| format!("{e:?}"));
    (res, storage.io_stats(), storage.buffer_stats())
}

fn run(sql: &str, threads: usize) -> RunOutcome {
    let (storage, provider, _) = setup();
    eval(&storage, &provider, sql, threads)
}

fn run_fixture(make: fn() -> Fixture, sql: &str, threads: usize) -> RunOutcome {
    let f = make();
    eval(&f.storage, &f.provider, sql, threads)
}

/// The 4-thread run is indistinguishable from the serial one; returns the
/// serial result.
fn assert_threads_agree<F: Fn(usize) -> RunOutcome>(label: &str, go: F) -> Result<Relation, String> {
    let base = go(1);
    let par = go(4);
    assert_eq!(base.0, par.0, "{label} threads=4: results diverged");
    assert_eq!(base.1, par.1, "{label} threads=4: I/O diverged");
    assert_eq!(base.2, par.2, "{label} threads=4: buffer hit/miss diverged");
    base.0
}

fn assert_matches_oracle(oracle: &Oracle, sql: &str, got: &Relation) {
    let want = oracle.eval(&parse_query(sql).unwrap()).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert!(got.same_bag(&want), "{sql}\noracle:\n{want}\nnested iteration:\n{got}");
}

/// The paper's nesting types over the synthetic multi-page data:
/// type-J (correlated membership), type-JA (correlated aggregate),
/// type-N/A (uncorrelated), a multi-file FROM and plain selections with
/// NULL-heavy predicates.
const QUERIES: &[&str] = &[
    // Type-J with a simple outer conjunct.
    "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
     (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    // Type-JA correlated aggregate.
    "SELECT PNUM FROM PARTS WHERE QOH = \
     (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    // Type-N uncorrelated membership (materialised once, rescanned).
    "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE QUAN > 5)",
    // Type-A uncorrelated scalar.
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY)",
    // Multi-file FROM.
    "SELECT PARTS.PNUM FROM PARTS, SUPPLY \
     WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.QUAN > 6",
    // NULL-heavy three-valued connectives and IS NULL.
    "SELECT PNUM FROM PARTS WHERE QOH > 3 OR QOH IS NULL",
    "SELECT PNUM FROM PARTS WHERE NOT (QOH > 3 AND GRP = 1)",
    // Grouped aggregate over survivors of a simple predicate.
    "SELECT PNUM, COUNT(QUAN) FROM SUPPLY WHERE QUAN > 2 GROUP BY PNUM ORDER BY PNUM",
    // DISTINCT + ORDER BY on the survivors.
    "SELECT DISTINCT GRP FROM PARTS WHERE QOH > 1 ORDER BY GRP DESC",
];

#[test]
fn nested_iteration_matches_the_oracle_serial_and_parallel() {
    let (_, _, oracle) = setup();
    for sql in QUERIES {
        let rows = assert_threads_agree(sql, |t| run(sql, t)).unwrap();
        assert_matches_oracle(&oracle, sql, &rows);
    }
}

#[test]
fn errors_are_identical_serial_and_parallel() {
    // GRP = 0 admits bindings whose QOH comparison then type-errors; four
    // threads must report the same error after the same I/O.
    let bad = "SELECT PNUM FROM PARTS WHERE QOH IN \
               (SELECT QUAN FROM SUPPLY WHERE SUPPLY.QUAN > PARTS.PNUM AND SUPPLY.PNUM = 1-1-80)";
    let res = assert_threads_agree(bad, |t| run(bad, t));
    assert!(res.is_err(), "expected a type error from Int-vs-Date comparison");
}

/// WHERE drops a binding at the first non-TRUE conjunct, UNKNOWN included:
/// `QOH = 100` is FALSE or (for the NULL `QOH`s) UNKNOWN on every row, so
/// the type-mismatched conjunct behind it is never evaluated. (A kernel
/// that runs the conjuncts as one `AND`, whose operands are evaluated past
/// an UNKNOWN one, raises `Incomparable("int", "string")` here.)
#[test]
fn unknown_conjunct_hides_later_error() {
    for sql in [
        "SELECT PNUM FROM PARTS WHERE QOH = 100 AND PNUM = 'x'",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM \
          AND SUPPLY.QUAN = 100 AND SUPPLY.PNUM = 'x')",
    ] {
        let res = assert_threads_agree(sql, |t| run(sql, t));
        assert_eq!(res.map(|r| r.len()), Ok(0), "{sql}");
    }
    // The error is still raised where a row reaches it.
    let reached = "SELECT PNUM FROM PARTS WHERE QOH IS NULL AND PNUM = 'x'";
    assert!(assert_threads_agree(reached, |t| run(reached, t)).is_err());
}

#[test]
fn paper_fixture_matches_the_oracle() {
    // String correlation values.
    let f = suppliers_parts();
    let mut oracle = Oracle::new();
    for table in ["S", "SP", "P"] {
        let file = nsql_engine::TableProvider::get_table(&f.provider, table).unwrap();
        oracle.load(table, f.storage.load_relation(&file));
    }
    for sql in [
        "SELECT SNAME FROM S WHERE SNO IS IN \
         (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
        "SELECT SNO, PNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
    ] {
        let rows = assert_threads_agree(sql, |t| run_fixture(suppliers_parts, sql, t)).unwrap();
        assert_matches_oracle(&oracle, sql, &rows);
    }
}
