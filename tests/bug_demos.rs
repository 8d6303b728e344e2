//! Experiments E3–E8: the paper's Section 5–6 bug demonstrations,
//! cell-for-cell.
//!
//! Each test pins the three-way comparison the paper makes: the
//! nested-iteration ground truth, Kim's buggy NEST-JA output, and the
//! NEST-JA2 fix.

use nested_query_opt::core::{JaVariant, UnnestOptions};
use nested_query_opt::db::{Database, QueryOptions, Strategy};
use nested_query_opt::types::Value;

/// Kiessling's query Q2 (Section 5.1).
const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

/// Query Q5 (Section 5.3).
const Q5: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT MAX(QUAN) FROM SUPPLY \
     WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)";

fn kiessling_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
           (10, 2, 8-10-81), (8, 5, 5-7-83);",
    )
    .unwrap();
    db
}

fn section_5_3_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 0), (10, 4), (8, 4);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78), (9, 5, 3-2-79);",
    )
    .unwrap();
    db
}

fn section_5_4_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (3, 2), (10, 1), (10, 0), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 8/14/77), (3, 2, 11/11/78), (10, 1, 6/22/76);",
    )
    .unwrap();
    db
}

fn ints(db: &Database, sql: &str, opts: &QueryOptions) -> Vec<i64> {
    let out = db.query_with(sql, opts).unwrap();
    let mut vals: Vec<i64> = out
        .relation
        .tuples()
        .iter()
        .map(|t| match t.get(0) {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other}"),
        })
        .collect();
    vals.sort_unstable();
    vals
}

fn kim_opts() -> QueryOptions {
    QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { ja_variant: JaVariant::KimOriginal, ..UnnestOptions::faithful() },
        cold_start: true,
        ..Default::default()
    }
}

fn no_projection_opts() -> QueryOptions {
    QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { ja_variant: JaVariant::Ja2NoProjection, ..UnnestOptions::faithful() },
        cold_start: true,
        ..Default::default()
    }
}

// --------------------------------------------------------------------- E3

#[test]
fn e3_count_bug_three_way() {
    let db = kiessling_db();
    // Ground truth [KIE 84:4]: {10, 8}.
    assert_eq!(ints(&db, Q2, &QueryOptions::nested_iteration()), vec![8, 10]);
    // Kim's NEST-JA loses part 8 (COUNT can never be 0).
    assert_eq!(ints(&db, Q2, &kim_opts()), vec![10]);
    // NEST-JA2 restores it (E4).
    assert_eq!(ints(&db, Q2, &QueryOptions::transformed_merge()), vec![8, 10]);
}

#[test]
fn e4_temp3_contents_match_section_5_2() {
    // The paper's TEMP3: {(3, 2), (10, 1), (8, 0)}.
    let db = kiessling_db();
    let plan = db.plan(Q2, &UnnestOptions::faithful()).unwrap();
    assert_eq!(plan.temps.len(), 3);
    let exec = nested_query_opt::engine::Exec::new(db.storage().clone());
    let mut pe = nested_query_opt::db::plan_exec::PlanExecutor::new(
        exec,
        db.catalog(),
        nested_query_opt::db::JoinPolicy::ForceMergeJoin,
    );
    let rel = pe.execute_transform_plan(&plan, false).unwrap();
    // Inspect TEMP3 (the aggregate temporary).
    let temp3 = pe.temp("TEMP3").expect("TEMP3 registered");
    let mut rows: Vec<(i64, i64)> = temp3
        .file
        .scan(db.storage())
        .map(|t| {
            let Value::Int(p) = t.get(0) else { panic!() };
            let Value::Int(c) = t.get(1) else { panic!() };
            (*p, *c)
        })
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![(3, 2), (8, 0), (10, 1)]);
    let mut finals: Vec<String> = rel.tuples().iter().map(|t| t.get(0).to_string()).collect();
    finals.sort();
    assert_eq!(finals, vec!["10", "8"]);
}

// --------------------------------------------------------------------- E5

#[test]
fn e5_count_star_is_rewritten_to_join_column() {
    // Section 5.2.1: with COUNT(*), the temporary must count the join
    // column, or padded rows are counted as 1. Our COUNT(*) path must give
    // the same answer as COUNT(SHIPDATE).
    let db = kiessling_db();
    let q2_star = Q2.replace("COUNT(SHIPDATE)", "COUNT(*)");
    assert_eq!(ints(&db, &q2_star, &QueryOptions::nested_iteration()), vec![8, 10]);
    assert_eq!(ints(&db, &q2_star, &QueryOptions::transformed_merge()), vec![8, 10]);
}

// --------------------------------------------------------------------- E6

#[test]
fn e6_non_equality_bug_three_way() {
    let db = section_5_3_db();
    // Nested iteration: {8} (Section 5.3).
    assert_eq!(ints(&db, Q5, &QueryOptions::nested_iteration()), vec![8]);
    // Kim's NEST-JA: {10, 8} — aggregates per join-column value, not range.
    assert_eq!(ints(&db, Q5, &kim_opts()), vec![8, 10]);
    // NEST-JA2 joins over the range before aggregating: {8}.
    assert_eq!(ints(&db, Q5, &QueryOptions::transformed_merge()), vec![8]);
}

#[test]
fn e6_kim_temp5_contents() {
    // Kim's TEMP5 on the Section-5.3 data: {(3,4), (10,1), (9,5)}.
    let db = section_5_3_db();
    let q = nested_query_opt::sql::parse_query(Q5).unwrap();
    let plan = nested_query_opt::core::transform_query(
        db.catalog(),
        &q,
        &UnnestOptions { ja_variant: JaVariant::KimOriginal, ..UnnestOptions::faithful() },
    )
    .unwrap();
    let exec = nested_query_opt::engine::Exec::new(db.storage().clone());
    let mut pe = nested_query_opt::db::plan_exec::PlanExecutor::new(
        exec,
        db.catalog(),
        nested_query_opt::db::JoinPolicy::ForceMergeJoin,
    );
    let _ = pe.execute_transform_plan(&plan, false).unwrap();
    let temp = pe.temp("TEMP1").expect("Kim's temporary");
    let mut rows: Vec<(i64, i64)> = temp
        .file
        .scan(db.storage())
        .map(|t| {
            let Value::Int(p) = t.get(0) else { panic!() };
            let Value::Int(m) = t.get(1) else { panic!() };
            (*p, *m)
        })
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![(3, 4), (9, 5), (10, 1)]);
}

// --------------------------------------------------------------------- E7

#[test]
fn e7_duplicates_problem_three_way() {
    let db = section_5_4_db();
    // Nested iteration: {3, 10, 8} (Section 5.4).
    assert_eq!(ints(&db, Q2, &QueryOptions::nested_iteration()), vec![3, 8, 10]);
    // The outer-join fix *without* the projection step: duplicates in
    // PARTS.PNUM inflate the counts — result {8} only.
    assert_eq!(ints(&db, Q2, &no_projection_opts()), vec![8]);
    // Full NEST-JA2 (with the DISTINCT projection): correct.
    assert_eq!(ints(&db, Q2, &QueryOptions::transformed_merge()), vec![3, 8, 10]);
}

#[test]
fn e7_inflated_temp_counts_without_projection() {
    // Section 5.4's wrong TEMP3: {(3, 4), (10, 2), (8, 0)}.
    let db = section_5_4_db();
    let q = nested_query_opt::sql::parse_query(Q2).unwrap();
    let plan = nested_query_opt::core::transform_query(
        db.catalog(),
        &q,
        &UnnestOptions { ja_variant: JaVariant::Ja2NoProjection, ..UnnestOptions::faithful() },
    )
    .unwrap();
    let exec = nested_query_opt::engine::Exec::new(db.storage().clone());
    let mut pe = nested_query_opt::db::plan_exec::PlanExecutor::new(
        exec,
        db.catalog(),
        nested_query_opt::db::JoinPolicy::ForceMergeJoin,
    );
    let _ = pe.execute_transform_plan(&plan, false).unwrap();
    let temp3 = pe.temp("TEMP3").expect("TEMP3");
    let mut rows: Vec<(i64, i64)> = temp3
        .file
        .scan(db.storage())
        .map(|t| {
            let Value::Int(p) = t.get(0) else { panic!() };
            let Value::Int(c) = t.get(1) else { panic!() };
            (*p, *c)
        })
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![(3, 4), (8, 0), (10, 2)]);
}

// --------------------------------------------------------------------- E8

#[test]
fn e8_nest_ja2_walkthrough_temp_tables() {
    // Section 6.1's three steps on the duplicates data:
    // TEMP1 = {3, 10, 8}; TEMP3 = {(3,2), (10,1), (8,0)}; result {3,10,8}.
    let db = section_5_4_db();
    let plan = db.plan(Q2, &UnnestOptions::faithful()).unwrap();
    let exec = nested_query_opt::engine::Exec::new(db.storage().clone());
    let mut pe = nested_query_opt::db::plan_exec::PlanExecutor::new(
        exec,
        db.catalog(),
        nested_query_opt::db::JoinPolicy::ForceMergeJoin,
    );
    let rel = pe.execute_transform_plan(&plan, false).unwrap();

    let temp1 = pe.temp("TEMP1").expect("TEMP1");
    let mut t1: Vec<i64> = temp1
        .file
        .scan(db.storage())
        .map(|t| match t.get(0) {
            Value::Int(i) => *i,
            _ => panic!(),
        })
        .collect();
    t1.sort_unstable();
    assert_eq!(t1, vec![3, 8, 10], "TEMP1 must be the DISTINCT projection");

    let temp3 = pe.temp("TEMP3").expect("TEMP3");
    let mut t3: Vec<(i64, i64)> = temp3
        .file
        .scan(db.storage())
        .map(|t| {
            let Value::Int(p) = t.get(0) else { panic!() };
            let Value::Int(c) = t.get(1) else { panic!() };
            (*p, *c)
        })
        .collect();
    t3.sort_unstable();
    assert_eq!(t3, vec![(3, 2), (8, 0), (10, 1)]);

    let mut finals: Vec<String> = rel.tuples().iter().map(|t| t.get(0).to_string()).collect();
    finals.sort();
    assert_eq!(finals, vec!["10", "3", "8"]);
}

#[test]
fn bug_demos_are_policy_independent() {
    // The wrong answers come from the *transformation*, not the join
    // method: every physical policy reproduces the same (buggy or fixed)
    // result.
    use nested_query_opt::db::JoinPolicy;
    let db = kiessling_db();
    for policy in [JoinPolicy::ForceNestedLoop, JoinPolicy::ForceMergeJoin, JoinPolicy::CostBased]
    {
        let mut kim = kim_opts();
        kim.join_policy = policy;
        assert_eq!(ints(&db, Q2, &kim), vec![10], "{policy:?}");
        let ja2 = QueryOptions {
            strategy: Strategy::Transform,
            join_policy: policy,
            cold_start: true,
            ..Default::default()
        };
        assert_eq!(ints(&db, Q2, &ja2), vec![8, 10], "{policy:?}");
    }
}

// ------------------------------------------------------- edge-case demos

#[test]
fn count_bug_with_empty_inner_relation() {
    // The COUNT bug in its purest form: SUPPLY has no rows at all, so
    // *every* group is empty and every count is 0. Kim's NEST-JA produces
    // an empty temporary, and the join against it returns nothing — the
    // whole answer is lost, not just one row.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (10, 0), (8, 0);",
    )
    .unwrap();
    // Ground truth: the parts with QOH = 0.
    assert_eq!(ints(&db, Q2, &QueryOptions::nested_iteration()), vec![8, 10]);
    // Kim's NEST-JA: empty TEMP ⇒ empty result.
    assert_eq!(ints(&db, Q2, &kim_opts()), Vec::<i64>::new());
    // NEST-JA2's outer join pads every projected part with COUNT 0.
    assert_eq!(ints(&db, Q2, &QueryOptions::transformed_merge()), vec![8, 10]);
}

#[test]
fn null_outer_join_key_survives_the_outer_join_but_not_the_back_join() {
    // Companion to robustness.rs's documented divergence: with a NULL in
    // the outer join column, where exactly does NEST-JA2 lose the row?
    // Not at the outer join — TEMP3 carries the NULL-keyed group with
    // COUNT 0, exactly as the padding rule dictates — but at the final
    // back-join, whose equality predicate never matches a NULL key.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (NULL, 0), (10, 1);
         INSERT INTO SUPPLY VALUES (10, 7, 6-8-78);",
    )
    .unwrap();
    // Nested iteration keeps the NULL-keyed part (its COUNT is 0 = QOH).
    let ni = db.query_with(Q2, &QueryOptions::nested_iteration()).unwrap();
    assert_eq!(ni.relation.len(), 2, "{}", ni.relation);

    let plan = db.plan(Q2, &UnnestOptions::faithful()).unwrap();
    let exec = nested_query_opt::engine::Exec::new(db.storage().clone());
    let mut pe = nested_query_opt::db::plan_exec::PlanExecutor::new(
        exec,
        db.catalog(),
        nested_query_opt::db::JoinPolicy::ForceMergeJoin,
    );
    let rel = pe.execute_transform_plan(&plan, false).unwrap();
    let temp3 = pe.temp("TEMP3").expect("TEMP3");
    let mut rows: Vec<(Option<i64>, i64)> = temp3
        .file
        .scan(db.storage())
        .map(|t| {
            let p = match t.get(0) {
                Value::Int(i) => Some(*i),
                Value::Null => None,
                other => panic!("unexpected key {other}"),
            };
            let Value::Int(c) = t.get(1) else { panic!() };
            (p, *c)
        })
        .collect();
    rows.sort_unstable();
    assert_eq!(
        rows,
        vec![(None, 0), (Some(10), 1)],
        "the outer join must pad the NULL-keyed group with COUNT 0"
    );
    // …and yet the final answer has only part 10: the back-join's
    // PARTS.PNUM = TEMP3.PNUM is unknown for NULL = NULL.
    assert_eq!(rel.len(), 1, "{rel}");
}

#[test]
fn duplicate_outer_tuples_survive_the_back_join() {
    // The flip side of the Section-5.4 duplicates problem: the DISTINCT
    // projection that fixes the counts must not *lose* duplicates in the
    // final answer. The back-join runs against the original PARTS, so two
    // identical qualifying parts both appear — bag-equal to nested
    // iteration.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 2), (3, 2), (10, 0);
         INSERT INTO SUPPLY VALUES (3, 4, 7-3-79), (3, 2, 10-1-78);",
    )
    .unwrap();
    let ni = db.query_with(Q2, &QueryOptions::nested_iteration()).unwrap();
    let tr = db.query_with(Q2, &QueryOptions::transformed_merge()).unwrap();
    assert!(
        tr.relation.same_bag(&ni.relation),
        "NI:\n{}\nTR:\n{}",
        ni.relation,
        tr.relation
    );
    // Part 3 (COUNT = 2 = QOH) twice, part 10 (COUNT = 0 = QOH) once.
    assert_eq!(ints(&db, Q2, &QueryOptions::transformed_merge()), vec![3, 3, 10]);
}

// --------------------------------------------------------------------- §5.2 ordering warning

#[test]
fn restriction_after_join_kills_padded_rows_as_the_paper_warns() {
    // Section 5.2: "the condition which applies to only one relation
    // (SUPPLY.SHIPDATE < 1-1-80) must be applied before the join is
    // performed. Otherwise the join would not contain the last row, and
    // the result would be incorrect."
    let db = kiessling_db();
    let late = QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions {
            ja_variant: JaVariant::Ja2LateRestriction,
            ..UnnestOptions::faithful()
        },
        cold_start: true,
        ..Default::default()
    };
    // The broken ordering loses part 8 (its padded row is filtered away)
    // — the same wrong answer as Kim's NEST-JA, for a different reason.
    assert_eq!(ints(&db, Q2, &late), vec![10]);
    // The correct ordering (restrict first) keeps it.
    assert_eq!(ints(&db, Q2, &QueryOptions::transformed_merge()), vec![8, 10]);
}
