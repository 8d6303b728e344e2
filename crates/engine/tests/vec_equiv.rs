//! Vectorized-vs-row equivalence for nested iteration.
//!
//! The vectorized fast path (batch predicate kernels plus per-binding
//! memoization of fully-simple correlated blocks) must be invisible to
//! everything we measure: result relations, error values, I/O totals,
//! and buffer hit/miss splits, serial and morsel-parallel alike.

use nsql_engine::fixtures::{suppliers_parts, Fixture};
use nsql_engine::provider::MemoryProvider;
use nsql_engine::NestedIter;
use nsql_sql::parse_query;
use nsql_storage::{IoStats, Storage};
use nsql_types::{ColumnType, Relation, Schema, Tuple, Value};

/// Multi-page PARTS/SUPPLY with NULLs in both the membership column and
/// the correlation column, plus duplicate outer correlation values (the
/// case the memo must get right).
fn setup() -> (Storage, MemoryProvider) {
    let storage = Storage::new(6, 256);
    let mut provider = MemoryProvider::new();
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
    storage.reset_stats();
    (storage, provider)
}

type RunOutcome = (Result<Relation, String>, IoStats, (u64, u64));

fn run(sql: &str, vectorized: bool, threads: usize) -> RunOutcome {
    let (storage, provider) = setup();
    storage.clear_buffer();
    storage.reset_stats();
    let q = parse_query(sql).unwrap();
    let ni = NestedIter::new(&provider, storage.clone()).with_vectorized(vectorized);
    let res = ni.eval_query_threads(&q, threads).map_err(|e| format!("{e:?}"));
    (res, storage.io_stats(), storage.buffer_stats())
}

fn run_fixture(make: fn() -> Fixture, sql: &str, vectorized: bool, threads: usize) -> RunOutcome {
    let f = make();
    f.storage.clear_buffer();
    f.storage.reset_stats();
    let q = parse_query(sql).unwrap();
    let ni = NestedIter::new(&f.provider, f.storage.clone()).with_vectorized(vectorized);
    let res = ni.eval_query_threads(&q, threads).map_err(|e| format!("{e:?}"));
    (res, f.storage.io_stats(), f.storage.buffer_stats())
}

fn assert_modes_agree<F: Fn(bool, usize) -> RunOutcome>(label: &str, go: F) {
    let base = go(false, 1);
    for (vectorized, threads) in [(false, 4), (true, 1), (true, 4)] {
        let other = go(vectorized, threads);
        assert_eq!(
            base.0, other.0,
            "{label} vec={vectorized} threads={threads}: results diverged"
        );
        assert_eq!(
            base.1, other.1,
            "{label} vec={vectorized} threads={threads}: I/O diverged"
        );
        assert_eq!(
            base.2, other.2,
            "{label} vec={vectorized} threads={threads}: buffer hit/miss diverged"
        );
    }
}

/// The paper's nesting types over the synthetic multi-page data:
/// type-J (correlated membership — memoized fast path), type-JA
/// (correlated aggregate), type-N/A (uncorrelated), plus declined shapes
/// (multi-file FROM) and plain selections with NULL-heavy predicates.
const QUERIES: &[&str] = &[
    // Type-J with a simple outer conjunct — the headline fast path.
    "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
     (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    // Type-JA correlated aggregate.
    "SELECT PNUM FROM PARTS WHERE QOH = \
     (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    // Type-N uncorrelated membership (cached list, not the memo).
    "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE QUAN > 5)",
    // Type-A uncorrelated scalar.
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY)",
    // Multi-file FROM: the fast path declines, results must still agree.
    "SELECT PARTS.PNUM FROM PARTS, SUPPLY \
     WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.QUAN > 6",
    // NULL-heavy three-valued connectives and IS NULL.
    "SELECT PNUM FROM PARTS WHERE QOH > 3 OR QOH IS NULL",
    "SELECT PNUM FROM PARTS WHERE NOT (QOH > 3 AND GRP = 1)",
    // Grouped aggregate over survivors of a simple predicate.
    "SELECT PNUM, COUNT(QUAN) FROM SUPPLY WHERE QUAN > 2 GROUP BY PNUM ORDER BY PNUM",
    // DISTINCT + ORDER BY on the fast path's survivors.
    "SELECT DISTINCT GRP FROM PARTS WHERE QOH > 1 ORDER BY GRP DESC",
];

#[test]
fn vectorized_nested_iteration_matches_row_path() {
    for sql in QUERIES {
        assert_modes_agree(sql, |v, t| run(sql, v, t));
    }
}

#[test]
fn vectorized_errors_match_row_path() {
    // GRP = 0 admits bindings whose QOH comparison then type-errors;
    // both paths must report the same error after the same I/O.
    let bad = "SELECT PNUM FROM PARTS WHERE QOH IN \
               (SELECT QUAN FROM SUPPLY WHERE SUPPLY.QUAN > PARTS.PNUM AND SUPPLY.PNUM = 1-1-80)";
    assert_modes_agree(bad, |v, t| run(bad, v, t));
    let (res, _, _) = run(bad, true, 1);
    assert!(res.is_err(), "expected a type error from Int-vs-Date comparison");
}

/// WHERE drops a binding at the first non-TRUE conjunct, UNKNOWN included:
/// `QOH = 100` is FALSE or (for the NULL `QOH`s) UNKNOWN on every row, so
/// the type-mismatched conjunct behind it is never evaluated. The lane
/// kernel used to run the conjuncts as one `AND`, whose lanes stay active
/// after UNKNOWN, and raised `Incomparable("int", "string")`.
#[test]
fn unknown_conjunct_hides_later_error_in_both_modes() {
    for sql in [
        "SELECT PNUM FROM PARTS WHERE QOH = 100 AND PNUM = 'x'",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM \
          AND SUPPLY.QUAN = 100 AND SUPPLY.PNUM = 'x')",
    ] {
        assert_modes_agree(sql, |v, t| run(sql, v, t));
        for vectorized in [false, true] {
            let (res, _, _) = run(sql, vectorized, 1);
            assert_eq!(res.map(|r| r.len()), Ok(0), "{sql} vec={vectorized}");
        }
    }
    // The error is still raised where a row reaches it.
    let reached = "SELECT PNUM FROM PARTS WHERE QOH IS NULL AND PNUM = 'x'";
    assert_modes_agree(reached, |v, t| run(reached, v, t));
    assert!(run(reached, true, 1).0.is_err());
}

#[test]
fn vectorized_matches_row_path_on_paper_fixture() {
    // String correlation values exercise the dictionary columns and
    // string-keyed memoization.
    for sql in [
        "SELECT SNAME FROM S WHERE SNO IS IN \
         (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
        "SELECT SNO, PNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
    ] {
        assert_modes_agree(sql, |v, t| run_fixture(suppliers_parts, sql, v, t));
    }
}
