//! One SELECT phase: nested iteration and the plan executor map a block's
//! surviving rows to its result by one compiled select list, so a shape one
//! of them answers the other answers too.
//!
//! Each statement runs under nested iteration, under the default options
//! (`Database::query`) and under `Strategy::Transform` with every join
//! policy, with the paper's literal plans and without, against
//! `nsql-oracle`: rows as a bag, and in order where the statement has an
//! ORDER BY. Before the phase was shared the plan executor raised on all of
//! them: an ORDER BY key naming an aliased column, a literal select item of
//! a grouped block or of a global aggregate, and a `not in GROUP BY` error
//! raised with no group to emit.

use nsql_db::{Database, DbError, JoinPolicy, QueryOptions, Strategy};
use nsql_oracle::Oracle;
use nsql_sql::parse_query;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

fn relation(name: &str, cols: &[&str], rows: &[[i64; 2]]) -> Relation {
    let schema =
        Schema::new(cols.iter().map(|c| Column::qualified(name, *c, ColumnType::Int)).collect());
    let tuples = rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Tuple>()).collect();
    Relation::new(schema, tuples).unwrap()
}

fn load() -> (Database, Oracle) {
    let tables = [
        ("P", relation("P", &["PNUM", "QOH"], &[[1, 2], [2, 0], [3, 1], [3, 1]])),
        ("S", relation("S", &["PNUM", "QUAN"], &[[1, 5], [1, 6], [3, 7]])),
    ];
    let mut db = Database::with_storage(6, 128);
    let mut oracle = Oracle::new();
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, &rel).unwrap();
        oracle.load(name, rel);
    }
    (db, oracle)
}

/// Every path the statement must agree on: nested iteration (both forms),
/// the default options, and the transform under each join policy with the
/// literal plans on and off.
fn paths() -> Vec<(String, QueryOptions)> {
    let mut paths = vec![
        ("nested iteration".to_string(), QueryOptions::nested_iteration()),
        (
            "nested iteration (default)".to_string(),
            QueryOptions { strategy: Strategy::NestedIteration, ..QueryOptions::default() },
        ),
        ("Database::query".to_string(), QueryOptions::default()),
    ];
    for policy in [
        JoinPolicy::ForceNestedLoop,
        JoinPolicy::ForceMergeJoin,
        JoinPolicy::ForceHashJoin,
        JoinPolicy::CostBased,
    ] {
        for faithful in [false, true] {
            let mut opts = QueryOptions {
                strategy: Strategy::Transform,
                join_policy: policy,
                ..QueryOptions::default()
            };
            opts.unnest.faithful_1987 = faithful;
            paths.push((format!("transform {} faithful={faithful}", policy.name()), opts));
        }
    }
    paths
}

fn ints(rel: &Relation) -> Vec<Vec<Value>> {
    rel.tuples().iter().map(|t| t.values().to_vec()).collect()
}

/// Every path answers `sql` with `want`, as the oracle does: as a bag, and
/// row for row when `ordered`.
fn assert_answers(sql: &str, want: &[&[i64]], ordered: bool) {
    let (db, oracle) = load();
    let want: Vec<Vec<Value>> =
        want.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect();
    let reference = oracle.eval(&parse_query(sql).unwrap()).unwrap();
    assert_eq!(ints(&reference), want, "the oracle on {sql}");
    for (label, opts) in paths() {
        let got =
            db.query_with(sql, &opts).unwrap_or_else(|e| panic!("[{label}] {e}\n{sql}")).relation;
        assert!(got.same_bag(&reference), "[{label}] {sql}\noracle:\n{reference}\ngot:\n{got}");
        if ordered {
            assert_eq!(ints(&got), want, "[{label}] order of {sql}");
        }
    }
}

#[test]
fn a_literal_beside_a_global_aggregate() {
    assert_answers("SELECT COUNT(*), 5 FROM P", &[&[4, 5]], false);
}

#[test]
fn order_by_names_an_aliased_column_by_its_reference() {
    let sql = "SELECT P.PNUM AS X FROM P WHERE P.QOH = \
               (SELECT COUNT(S.QUAN) FROM S WHERE S.PNUM = P.PNUM) ORDER BY P.PNUM DESC";
    assert_answers(sql, &[&[3], &[3], &[2], &[1]], true);
}

#[test]
fn a_literal_in_a_grouped_block() {
    let sql = "SELECT P.PNUM, 7 FROM P WHERE P.PNUM IN (SELECT S.PNUM FROM S) GROUP BY P.PNUM";
    assert_answers(sql, &[&[1, 7], &[3, 7]], false);
}

#[test]
fn not_in_group_by_is_raised_only_when_a_group_is_emitted() {
    assert_answers("SELECT P.QOH FROM P WHERE P.QOH > 100 GROUP BY P.PNUM", &[], false);
    let sql = "SELECT P.QOH FROM P WHERE P.QOH > 0 GROUP BY P.PNUM";
    let (db, oracle) = load();
    let reference = oracle.eval(&parse_query(sql).unwrap()).unwrap_err().to_string();
    assert!(reference.contains("not in GROUP BY"), "the oracle: {reference}");
    for (label, opts) in paths() {
        let e = db.query_with(sql, &opts).map(|o| o.relation).unwrap_err();
        assert!(matches!(e, DbError::Engine(_)), "[{label}] {e:?}");
        assert_eq!(e.to_string(), reference, "[{label}]");
    }
}

/// `COUNT(P.QOH)` in a block over `S` aggregates an outer reference: the
/// transformation refuses it with a typed error (its temporaries have no
/// `P.QOH` to count), and the caller's retry by nested iteration answers.
#[test]
fn an_aggregate_over_an_outer_reference_is_refused_and_retried() {
    let sql = "SELECT P.PNUM FROM P WHERE P.QOH = \
               (SELECT COUNT(P.QOH) FROM S WHERE S.PNUM = P.PNUM)";
    let (db, oracle) = load();
    let reference = oracle.eval(&parse_query(sql).unwrap()).unwrap();
    assert_eq!(ints(&reference), [1, 2, 3, 3].map(|v| vec![Value::Int(v)]), "the oracle");
    for (label, opts) in paths() {
        let got = match db.query_with(sql, &opts) {
            Err(DbError::Transform(_)) if opts.strategy != Strategy::NestedIteration => {
                db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation
            }
            other => other.unwrap_or_else(|e| panic!("[{label}] {e}")).relation,
        };
        assert!(got.same_bag(&reference), "[{label}]\noracle:\n{reference}\ngot:\n{got}");
    }
    for variant in [nsql_core::JaVariant::Ja2, nsql_core::JaVariant::KimOriginal] {
        let mut opts = QueryOptions { strategy: Strategy::Transform, ..QueryOptions::default() };
        opts.unnest.ja_variant = variant;
        let e = db.query_with(sql, &opts).map(|o| o.relation).unwrap_err();
        assert!(matches!(e, DbError::Transform(_)), "{variant:?}: {e:?}");
        assert!(e.to_string().contains("P.QOH"), "{variant:?}: {e}");
    }
}
