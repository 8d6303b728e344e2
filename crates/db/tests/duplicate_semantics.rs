//! The paper's Section 4 duplicates problem, demonstrated end-to-end and
//! resolved as an explicit choice (`UnnestOptions::preserve_duplicates`)
//! rather than a silent set-level comparison.
//!
//! Nested iteration evaluates `IN` as a membership *test*: each outer tuple
//! appears at most once per occurrence, however many inner rows match.
//! Kim's NEST-N-J replaces the test with a join, so the outer tuple is
//! repeated once per match. With duplicate outer tuples in play, no single
//! transformed plan reproduces the nested bag: Kim's join form (the option
//! off, the default) over-counts matches, the forced DISTINCT (the option on)
//! collapses legitimate outer duplicates. These tests pin down exactly which
//! equality each choice delivers.

use nsql_core::UnnestOptions;
use nsql_db::{Database, QueryOptions, Strategy};
use nsql_types::Value;

/// PARTS holds part 3 **twice** (a legitimate duplicate outer tuple) and
/// SUPPLY supplies part 3 **twice** (a non-key inner match column).
fn duplicates_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT);
         INSERT INTO PARTS VALUES (3), (3), (10), (7);
         INSERT INTO SUPPLY VALUES (3, 4), (3, 2), (10, 1), (8, 5);",
    )
    .unwrap();
    db
}

const Q: &str = "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)";

fn pnums(db: &Database, opts: &QueryOptions) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .query_with(Q, opts)
        .unwrap()
        .relation
        .tuples()
        .iter()
        .map(|t| match t.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected {other}"),
        })
        .collect();
    out.sort();
    out
}

#[test]
fn nested_iteration_is_the_ground_truth_bag() {
    let db = duplicates_db();
    // Membership is a per-tuple test: part 3 keeps both its occurrences
    // (one each), part 10 keeps one, part 7 has no match.
    assert_eq!(pnums(&db, &QueryOptions::nested_iteration()), vec![3, 3, 10]);
}

#[test]
fn kim_faithful_join_expansion_over_counts_matches() {
    let db = duplicates_db();
    let opts = QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { preserve_duplicates: false, ..Default::default() },
        cold_start: true,
        ..Default::default()
    };
    // Each of the two PARTS-3 rows joins both SUPPLY-3 rows: 2 × 2 = 4.
    assert_eq!(pnums(&db, &opts), vec![3, 3, 3, 3, 10]);

    // Set-level agreement with nested iteration still holds — the level
    // Kim's transformation actually promises for non-key inner columns.
    let ni = db.query_with(Q, &QueryOptions::nested_iteration()).unwrap().relation;
    let tr = db.query_with(Q, &opts).unwrap().relation;
    assert!(tr.same_set(&ni));
    assert!(!tr.same_bag(&ni), "the over-count must be visible at bag level");
}

#[test]
fn force_distinct_collapses_to_set_semantics() {
    let db = duplicates_db();
    let opts = QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { preserve_duplicates: true, ..Default::default() },
        cold_start: true,
        ..Default::default()
    };
    // Join-expansion duplicates are gone — but so is the legitimate
    // duplicate outer tuple: DISTINCT output, i.e. set semantics.
    assert_eq!(pnums(&db, &opts), vec![3, 10]);

    let ni = db.query_with(Q, &QueryOptions::nested_iteration()).unwrap().relation;
    let tr = db.query_with(Q, &opts).unwrap().relation;
    assert!(tr.same_set(&ni));
    assert!(!tr.same_bag(&ni), "collapsing the outer duplicate deviates at bag level");
}

#[test]
fn key_valued_inner_column_restores_bag_equality() {
    // When the merged inner column is key-valued (at most one match per
    // outer value), Kim's join expansion is multiplicity-exact and the
    // faithful transform is bag-equal to nested iteration — the condition
    // under which the paper's equivalence claim holds.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT);
         INSERT INTO PARTS VALUES (3), (3), (10), (7);
         INSERT INTO SUPPLY VALUES (3, 4), (10, 1), (8, 5);",
    )
    .unwrap();
    let ni = db.query_with(Q, &QueryOptions::nested_iteration()).unwrap().relation;
    let tr = db.query_with(Q, &QueryOptions::transformed()).unwrap().relation;
    assert!(tr.same_bag(&ni), "NI:\n{ni}\nTR:\n{tr}");
}
