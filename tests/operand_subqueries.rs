//! A scalar subquery where a column usually stands.
//!
//! The grammar allows `(SELECT …)` as the operand of `IS [NOT] NULL`, of
//! `IN (list)` and on the left of `op ANY / ALL`. Every layer that asks
//! "which blocks does this predicate hold" used to enumerate the positions
//! by hand, and all but the oracle missed those three: the analyzer skipped
//! the block, nested iteration judged the block around it uncorrelated
//! (`unknown column: PARTS.PNUM` when the one evaluation under the empty
//! scope reached the reference), and NEST-G passed the conjunct through as
//! "simple" for the plan executor to fail on with an untyped `Unsupported`.
//!
//! Here every form runs correlated at depth 1 and through an otherwise
//! uncorrelated middle block at depth 2, under nested iteration (1 and 2
//! threads) and the default path with the caller's retry protocol (on
//! `DbError::Transform`, rerun by nested iteration), against `nsql-oracle`.

use nsql_db::{Database, DbError, QueryOptions, Strategy};
use nsql_oracle::Oracle;
use nsql_sql::parse_query;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// The scalar block: NULL for a part with no (non-NULL) shipment.
const MAX_QUAN: &str = "(SELECT MAX(S2.QUAN) FROM SUPPLY S2 WHERE S2.PNUM = PARTS.PNUM)";

/// The operand-position forms, `{}` standing for the scalar block, each with
/// the fragment by which a transform refusal names it (the quantifier is
/// named as Section 8.2 rewrote it).
const FORMS: [(&str, &str, &str); 5] = [
    ("is-not-null", "{} IS NOT NULL", "IS NOT NULL"),
    ("is-null", "{} IS NULL", "IS NULL"),
    ("in-list", "{} IN (4, 5)", "IN (4, 5)"),
    ("not-in-list", "{} NOT IN (4, NULL)", "NOT IN (4, NULL)"),
    (
        "lt-any",
        "{} < ANY (SELECT S3.QUAN FROM SUPPLY S3 WHERE S3.PNUM < 6)",
        "< (SELECT MAX(S3.QUAN)",
    ),
];

fn depth_1(form: &str) -> String {
    format!("SELECT PNUM FROM PARTS WHERE {}", form.replace("{}", MAX_QUAN))
}

/// The middle block's only tie to `PARTS` is inside the operand block.
fn depth_2(form: &str) -> String {
    format!(
        "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE {})",
        form.replace("{}", MAX_QUAN)
    )
}

fn relation(name: &str, cols: &[&str], rows: Vec<Vec<Option<i64>>>) -> Relation {
    let schema = Schema::new(cols.iter().map(|c| Column::qualified(name, *c, ColumnType::Int)).collect());
    let tuples = rows
        .into_iter()
        .map(|r| r.into_iter().map(|v| v.map_or(Value::Null, Value::Int)).collect::<Tuple>())
        .collect();
    Relation::new(schema, tuples).unwrap()
}

/// Kiessling's PARTS / SUPPLY, as `.demo` loads them (dates left out).
fn demo() -> Vec<(&'static str, Relation)> {
    let parts = vec![vec![Some(3), Some(6)], vec![Some(10), Some(1)], vec![Some(8), Some(0)]];
    let supply = [(3, 4), (3, 2), (10, 1), (10, 2), (8, 5)];
    vec![
        ("PARTS", relation("PARTS", &["PNUM", "QOH"], parts)),
        (
            "SUPPLY",
            relation(
                "SUPPLY",
                &["PNUM", "QUAN"],
                supply.iter().map(|&(p, q)| vec![Some(p), Some(q)]).collect(),
            ),
        ),
    ]
}

/// Twelve parts over several 128-byte pages; parts 9 to 11 have no shipment, part 4's only shipment has a
/// NULL quantity.
fn paged() -> Vec<(&'static str, Relation)> {
    let parts = (0..12).map(|p| vec![Some(p), Some(p % 6)]).collect();
    let supply = (0..27)
        .map(|i| {
            let pnum = i % 9;
            let quan = if pnum == 4 { None } else { Some((i * 5) % 7) };
            vec![Some(pnum), quan]
        })
        .collect();
    vec![
        ("PARTS", relation("PARTS", &["PNUM", "QOH"], parts)),
        ("SUPPLY", relation("SUPPLY", &["PNUM", "QUAN"], supply)),
    ]
}

fn load(tables: &[(&'static str, Relation)]) -> (Database, Oracle) {
    let mut db = Database::with_storage(6, 128);
    let mut oracle = Oracle::new();
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, rel).unwrap();
        oracle.load(*name, rel.clone());
    }
    (db, oracle)
}

/// The caller protocol of the default path: a typed refusal is retried by
/// nested iteration; anything else is the answer.
fn default_with_retry(db: &Database, sql: &str) -> Result<Relation, DbError> {
    match db.query_with(sql, &QueryOptions::default()) {
        Err(DbError::Transform(_)) => {
            db.query_with(sql, &QueryOptions::nested_iteration()).map(|o| o.relation)
        }
        other => other.map(|o| o.relation),
    }
}

/// Every pipeline answers `sql` as the oracle does (as bags).
fn assert_agrees(db: &Database, oracle: &Oracle, label: &str, sql: &str) {
    let want = oracle.eval(&parse_query(sql).unwrap()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let pinned = |strategy, threads| QueryOptions {
        strategy,
        threads,
        cold_start: true,
        ..Default::default()
    };
    let runs = [
        ("ni", db.query_with(sql, &pinned(Strategy::NestedIteration, 1)).map(|o| o.relation)),
        ("ni-2", db.query_with(sql, &pinned(Strategy::NestedIteration, 2)).map(|o| o.relation)),
        ("default+retry", default_with_retry(db, sql)),
    ];
    for (pipeline, got) in runs {
        let got = got.unwrap_or_else(|e| panic!("[{label}] {pipeline}: {e}\n{sql}"));
        assert!(
            got.same_bag(&want),
            "[{label}] {pipeline} disagrees with the oracle\n{sql}\noracle:\n{want}\ngot:\n{got}"
        );
    }
}

/// The statement reproduced in the issue, on `.demo` data: the middle block
/// is correlated only through the operand of `IS NOT NULL`.
#[test]
fn middle_block_correlated_only_through_an_is_not_null_operand() {
    let (db, oracle) = load(&demo());
    let sql = "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
               (SELECT MAX(S2.QUAN) FROM SUPPLY S2 WHERE S2.PNUM = PARTS.PNUM) IS NOT NULL)";
    assert_agrees(&db, &oracle, "issue statement", sql);
    // The same query with the block in a position everybody knew about.
    let known = "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
                 0 < (SELECT MAX(S2.QUAN) FROM SUPPLY S2 WHERE S2.PNUM = PARTS.PNUM))";
    let opts = QueryOptions::nested_iteration();
    assert!(db
        .query_with(sql, &opts)
        .unwrap()
        .relation
        .same_bag(&db.query_with(known, &opts).unwrap().relation));
}

/// The analyzer enters operand-position blocks: an unresolvable column is
/// its `unresolved column`, under every strategy, not an engine error.
#[test]
fn unresolved_column_in_an_operand_block_is_an_analyzer_error() {
    let (db, _) = load(&demo());
    for sql in [
        "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) IS NULL",
        "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) IN (1)",
        "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) = ANY (SELECT QUAN FROM SUPPLY)",
    ] {
        for opts in [
            QueryOptions::nested_iteration(),
            QueryOptions::transformed(),
        ] {
            let e = db.query_with(sql, &opts).unwrap_err();
            assert!(matches!(e, DbError::Analyze(_)), "{sql} under {:?}: {e}", opts.strategy);
            assert!(e.to_string().contains("NOCOL"), "{e}");
        }
    }
}

/// The transformation refuses a block in an operand position with a typed
/// error that names the predicate — so the caller's retry protocol fires —
/// and the refusal is counted in `nsql_stat_statements`.
#[test]
fn transform_refuses_operand_blocks_with_a_typed_counted_error() {
    let (db, _) = load(&demo());
    let uncorrelated = "(SELECT MAX(QUAN) FROM SUPPLY)";
    let mut refused = 0;
    for (name, form, named) in FORMS {
        for sql in [
            format!("SELECT PNUM FROM PARTS WHERE {}", form.replace("{}", uncorrelated)),
            depth_1(form),
            depth_2(form),
        ] {
            match db.query_with(&sql, &QueryOptions::transformed()) {
                Err(DbError::Transform(e)) => {
                    assert!(e.to_string().contains(named), "[{name}] {e} does not name {named:?}");
                    refused += 1;
                }
                other => panic!("[{name}] expected a typed refusal, got {other:?}\n{sql}"),
            }
        }
    }
    let counted = db.query("SELECT REFUSALS FROM nsql_stat_statements WHERE REFUSALS > 0").unwrap();
    let total: i64 = counted
        .tuples()
        .iter()
        .map(|t| match t.get(0) {
            Value::Int(n) => *n,
            other => panic!("REFUSALS is an INT column: {other:?}"),
        })
        .sum();
    assert_eq!(total, refused);
}

#[test]
fn operand_blocks_correlated_at_depth_1() {
    for (data, tables) in [("demo", demo()), ("paged", paged())] {
        let (db, oracle) = load(&tables);
        for (name, form, _) in FORMS {
            assert_agrees(&db, &oracle, &format!("{data}/{name}"), &depth_1(form));
        }
    }
}

#[test]
fn operand_blocks_correlated_through_a_middle_block_at_depth_2() {
    for (data, tables) in [("demo", demo()), ("paged", paged())] {
        let (db, oracle) = load(&tables);
        for (name, form, _) in FORMS {
            assert_agrees(&db, &oracle, &format!("{data}/{name}"), &depth_2(form));
        }
    }
}

/// Two blocks in one predicate — a scalar on the left of a quantifier over a
/// correlated list — and a block under `OR`, where no conjunct-level
/// shortcut applies.
#[test]
fn operand_blocks_beside_other_blocks() {
    let (db, oracle) = load(&paged());
    for sql in [
        format!(
            "SELECT PNUM FROM PARTS WHERE {MAX_QUAN} >= ALL \
             (SELECT S3.QUAN FROM SUPPLY S3 WHERE S3.PNUM = PARTS.QOH)"
        ),
        format!("SELECT PNUM FROM PARTS WHERE QOH = 5 OR {MAX_QUAN} IS NULL"),
        format!(
            "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
             SUPPLY.PNUM < 3 OR {MAX_QUAN} IN (6, 1))"
        ),
    ] {
        assert_agrees(&db, &oracle, "mixed", &sql);
    }
}
