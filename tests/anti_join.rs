//! `NOT IN`, `!= ALL` and `NOT EXISTS` on the default path: anti-joins of
//! the canonical query that return nested iteration's bag, NULLs included.
//!
//! Each block is correlated by an equality, the anti-join's key.
//! `x NOT IN (S)` is TRUE when `S` is empty, whatever `x` is; UNKNOWN when
//! `S` holds a NULL or `x` is NULL and `S` is not empty; otherwise TRUE iff
//! no element equals `x`. A null-aware anti-join keeps a row iff no row of
//! `S` makes `x = c` TRUE or UNKNOWN, which is the same thing. `NOT EXISTS`
//! keeps a row iff its block is empty for it — a NULL correlation key makes
//! it empty, so the row stays: the Section-8 COUNT rewrite, still what the
//! paper's literal plans run, loses it (its back-join cannot match a NULL).

use nested_query_opt::db::{Database, QueryOptions};
use nested_query_opt::types::{Relation, Tuple, Value};

/// `T(K, A, B)` and `S(K, C)`, whose `K = T.K` groups are: empty for
/// `K = 1` and for the NULL key, `{1}` for `K = 2`, `{1, NULL}` for `K = 3`.
fn groups() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE T (K INT, A INT, B INT);
         CREATE TABLE S (K INT, C INT);
         INSERT INTO T VALUES (1, 1, 10), (1, NULL, 11), (2, 1, 20), (2, 2, 21),
             (2, NULL, 22), (3, 2, 30), (3, 1, 31), (NULL, 5, 40);
         INSERT INTO S VALUES (2, 1), (2, 1), (3, 1), (3, NULL);",
    )
    .unwrap();
    db
}

/// The first column of each row, sorted (`None` for NULL).
fn column(rel: &Relation) -> Vec<Option<i64>> {
    let mut v: Vec<Option<i64>> = rel
        .tuples()
        .iter()
        .map(|t| match t.get(0) {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

/// The default path's answer, held to nested iteration's as a bag, and the
/// EXPLAIN lines that ran it.
fn default_is_nested_iteration(db: &Database, sql: &str) -> (Relation, Vec<String>) {
    let want = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
    let out = db.query_with(sql, &QueryOptions::default()).unwrap();
    let same = out.relation.same_bag(&want);
    assert!(same, "{sql}\nnested iteration:\n{want}\ndefault:\n{}", out.relation);
    (out.relation, out.explain)
}

#[test]
fn correlated_not_in_is_null_aware_per_group() {
    let db = groups();
    for form in ["T.A NOT IN (SELECT C FROM S {})", "T.A != ALL (SELECT C FROM S {})"] {
        let sql = format!("SELECT B FROM T WHERE {}", form.replace("{}", "WHERE S.K = T.K"));
        let (rel, explain) = default_is_nested_iteration(&db, &sql);
        // An empty group keeps every row, the NULL probe's too (10, 11, and
        // 40, whose NULL key makes its group empty); a NULL probe against a
        // non-empty group keeps none (22); a NULL in the group keeps none
        // (30, 31).
        assert_eq!(column(&rel), [Some(10), Some(11), Some(21), Some(40)], "{sql}");
        let step = |l: &String| l.contains(" anti-join (1 ") && l.contains("null-aware");
        assert!(explain.iter().any(step), "{sql}: {explain:#?}");
    }
}

/// Without a correlation equality the anti-join would have no key to hash
/// on, only the nested loop: `NOT IN` stays refused there, and nested
/// iteration answers it.
#[test]
fn uncorrelated_not_in_is_refused() {
    let db = groups();
    let sql = "SELECT B FROM T WHERE A NOT IN (SELECT C FROM S WHERE K = 2)";
    let refused = db.query_with(sql, &QueryOptions::default());
    assert!(matches!(refused, Err(nested_query_opt::db::DbError::Transform(_))), "{refused:?}");
    let rel = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
    assert_eq!(column(&rel), [Some(21), Some(30), Some(40)]);
}

#[test]
fn not_exists_keeps_a_row_whose_correlation_key_is_null() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT);
         INSERT INTO PARTS VALUES (1, 1), (NULL, 0), (2, 5);
         INSERT INTO SUPPLY VALUES (1, 3), (2, NULL);",
    )
    .unwrap();
    let sql = "SELECT QOH FROM PARTS WHERE NOT EXISTS \
               (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
    let (rel, explain) = default_is_nested_iteration(&db, sql);
    assert_eq!(rel.tuples(), &[Tuple::new(vec![Value::Int(0)])]);
    let anti = explain.iter().any(|l| l.starts_with("NOT EXISTS: anti-join with [SUPPLY]"));
    assert!(anti, "{explain:#?}");
    // The paper's literal plans: the COUNT rewrite's back-join drops it.
    let literal = db.query_with(sql, &QueryOptions::transformed()).unwrap().relation;
    assert!(literal.is_empty(), "{literal}");
    // NOT IN on the same data: QOH 5 meets the NULL quantity of part 2, and
    // the NULL part meets no shipment at all.
    let sql = "SELECT QOH FROM PARTS WHERE QOH NOT IN \
               (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
    let (rel, _) = default_is_nested_iteration(&db, sql);
    assert_eq!(column(&rel), [Some(0), Some(1)]);
}
