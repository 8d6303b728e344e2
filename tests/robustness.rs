//! Robustness: degenerate databases (empty tables, single rows, NULLs in
//! data), non-integer join columns, and error paths. Every case compares
//! the transformed execution against nested iteration or pins an exact
//! error.

use nested_query_opt::db::{Database, DbError, QueryOptions};

const Q_JA: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";

fn db_with(parts: &str, supply: &str) -> Database {
    let mut db = Database::new();
    db.execute_script(&format!(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT);
         {parts}{supply}"
    ))
    .unwrap();
    db
}

fn check(db: &Database, sql: &str) {
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
    let tr = db.query_with(sql, &QueryOptions::transformed_merge()).unwrap();
    assert!(
        tr.relation.same_bag(&ni.relation),
        "{sql}\nNI:\n{}\nTR:\n{}",
        ni.relation,
        tr.relation
    );
}

#[test]
fn both_tables_empty() {
    let db = db_with("", "");
    check(&db, Q_JA);
    let r = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    assert!(r.relation.is_empty());
}

#[test]
fn empty_inner_relation_gives_zero_counts() {
    // With no SUPPLY rows at all, every part's count is 0: parts with
    // QOH = 0 must survive — only possible via the outer join.
    let db = db_with("INSERT INTO PARTS VALUES (1, 0), (2, 3);", "");
    check(&db, Q_JA);
    let r = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    assert_eq!(r.relation.len(), 1, "{}", r.relation);
}

#[test]
fn empty_outer_relation() {
    let db = db_with("", "INSERT INTO SUPPLY VALUES (1, 5);");
    check(&db, Q_JA);
}

#[test]
fn single_row_each() {
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 1);",
        "INSERT INTO SUPPLY VALUES (1, 9);",
    );
    check(&db, Q_JA);
    let r = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    assert_eq!(r.relation.len(), 1);
}

#[test]
fn nulls_in_aggregated_column() {
    // COUNT(QUAN) ignores NULL QUANs; a part whose only shipments have
    // NULL quantities counts 0.
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 0), (2, 2);",
        "INSERT INTO SUPPLY VALUES (1, NULL), (2, 4), (2, 5), (1, NULL);",
    );
    check(&db, Q_JA);
    let r = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    // Part 1: COUNT = 0 = QOH ✓. Part 2: COUNT = 2 = QOH ✓.
    assert_eq!(r.relation.len(), 2, "{}", r.relation);
}

#[test]
fn null_outer_join_key_is_a_documented_divergence_for_count() {
    // A corner the paper never considers: a NULL in the *outer* join
    // column. Under nested iteration, the correlation is unknown for every
    // inner row, so COUNT = 0 and a QOH-0 outer tuple SURVIVES. NEST-JA2's
    // final equality join (TEMP3.PNUM = PARTS.PNUM) can never match a NULL
    // key, so the transformed query drops the row. The paper's algorithm
    // genuinely has this behaviour (a modern fix would use null-safe
    // equality); we pin it as a documented divergence, like the Section-8
    // ANY/ALL caveat. See DESIGN.md.
    let db = db_with(
        "INSERT INTO PARTS VALUES (NULL, 0), (1, 1);",
        "INSERT INTO SUPPLY VALUES (NULL, 9), (1, 9);",
    );
    let ni = db.query_with(Q_JA, &QueryOptions::nested_iteration()).unwrap();
    assert_eq!(ni.relation.len(), 2, "reference keeps the NULL-keyed row\n{}", ni.relation);
    let tr = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    assert_eq!(tr.relation.len(), 1, "transformed drops it\n{}", tr.relation);

    // With MAX the two strategies agree: MAX(∅) = NULL makes the
    // comparison unknown under nested iteration too, so the row is dropped
    // on both paths.
    check(
        &db,
        "SELECT PNUM FROM PARTS WHERE QOH = \
         (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    );
}

#[test]
fn string_join_columns() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE DEPT (DNAME CHAR(10), HEADCOUNT INT);
         CREATE TABLE EMP (DNAME CHAR(10), SAL INT);
         INSERT INTO DEPT VALUES ('SALES', 2), ('ENG', 0), ('OPS', 1);
         INSERT INTO EMP VALUES ('SALES', 10), ('SALES', 20), ('OPS', 30);",
    )
    .unwrap();
    let sql = "SELECT DNAME FROM DEPT WHERE HEADCOUNT = \
               (SELECT COUNT(SAL) FROM EMP WHERE EMP.DNAME = DEPT.DNAME)";
    check(&db, sql);
    let r = db.query_with(sql, &QueryOptions::transformed_merge()).unwrap();
    assert_eq!(r.relation.len(), 3, "{}", r.relation);
}

#[test]
fn date_join_predicate_in_inner_restriction() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE ORDERS (OID INT, PLACED DATE);
         CREATE TABLE EVENTS (OID INT, AT DATE);
         INSERT INTO ORDERS VALUES (1, 1-1-80), (2, 6-1-81);
         INSERT INTO EVENTS VALUES (1, 7-3-79), (1, 2-2-80), (2, 1-1-80);",
    )
    .unwrap();
    // Orders with exactly one event before they were placed (correlated on
    // a DATE comparison — a non-equality correlation on dates).
    let sql = "SELECT OID FROM ORDERS WHERE 1 = \
               (SELECT COUNT(OID) FROM EVENTS WHERE EVENTS.AT < ORDERS.PLACED \
                AND EVENTS.OID = ORDERS.OID)";
    check(&db, sql);
}

#[test]
fn unsupported_transform_is_a_clean_error_not_a_wrong_answer() {
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 1);",
        "INSERT INTO SUPPLY VALUES (1, 1);",
    );
    // Subquery under OR — outside the algorithms' class.
    let sql = "SELECT PNUM FROM PARTS WHERE QOH = 99 OR \
               PNUM IN (SELECT PNUM FROM SUPPLY)";
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
    assert_eq!(ni.relation.len(), 1);
    let tr = db.query_with(sql, &QueryOptions::transformed_merge());
    assert!(
        matches!(tr, Err(DbError::Transform(_))),
        "must refuse, not silently mis-evaluate"
    );
}

#[test]
fn arity_and_type_errors_are_reported() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE T (A INT, B CHAR(4));").unwrap();
    // Arity mismatch on INSERT.
    let e = db.execute_script("INSERT INTO T VALUES (1);");
    assert!(matches!(e, Err(DbError::Type(_))), "{e:?}");
    // Comparing string column to int literal is a type error at runtime.
    db.execute_script("INSERT INTO T VALUES (1, 'X');").unwrap();
    let e = db.query("SELECT A FROM T WHERE B = 1");
    assert!(e.is_err());
    // A value of the wrong class for its column is refused at the INSERT —
    // stored, it would fail every later comparison against the column — and
    // the statement's good rows are not stored either.
    let e = db.execute_script("INSERT INTO T VALUES (2, 'Y'), ('x', 'Z');");
    let want = nsql_types::TypeError::ColumnMismatch {
        column: "T.A".into(),
        declared: nsql_types::ColumnType::Int,
        found: nsql_types::ColumnType::Str,
    };
    assert_eq!(e, Err(DbError::Type(want)));
    assert_eq!(db.query("SELECT A FROM T WHERE A < 3").unwrap().len(), 1);
    // NULL fits any column.
    db.execute_script("INSERT INTO T VALUES (NULL, NULL);").unwrap();
}

#[test]
fn insert_into_missing_table_is_catalog_error() {
    let mut db = Database::new();
    let e = db.execute_script("INSERT INTO NOPE VALUES (1);");
    assert!(matches!(e, Err(DbError::Catalog(_))), "{e:?}");
}

#[test]
fn repeated_queries_are_deterministic() {
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 2), (2, 1), (3, 0);",
        "INSERT INTO SUPPLY VALUES (1, 5), (1, 6), (2, 7);",
    );
    let a = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    let b = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    assert!(a.relation.same_bag(&b.relation));
    assert_eq!(a.io, b.io, "cold-start runs must cost identically");
}

#[test]
fn no_disk_page_leak_across_queries() {
    // Temporary tables are dropped after each query; repeated runs must
    // not grow the live page count.
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 2), (2, 1);",
        "INSERT INTO SUPPLY VALUES (1, 5), (2, 7);",
    );
    let _ = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    let baseline = db.storage().io_stats();
    for _ in 0..5 {
        let _ = db.query_with(Q_JA, &QueryOptions::transformed_merge()).unwrap();
    }
    let after = db.storage().io_stats();
    // I/O per run is constant (checked above); this asserts the per-run
    // delta stays flat rather than growing with accumulated garbage.
    let per_run = (after.total() - baseline.total()) / 5;
    let single = baseline.total();
    assert!(per_run <= single, "per-run I/O {per_run} grew beyond first run {single}");
}

#[test]
fn ja_with_two_outer_tables() {
    // The outer block joins two tables; the correlation references one of
    // them while the compared operand comes from the other.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE A (X INT, V INT);
         CREATE TABLE B (X INT, K INT);
         CREATE TABLE C (K INT, W INT);
         INSERT INTO A VALUES (1, 2), (2, 0), (3, 1);
         INSERT INTO B VALUES (1, 10), (2, 20), (3, 30);
         INSERT INTO C VALUES (10, 5), (10, 6), (30, 7);",
    )
    .unwrap();
    let sql = "SELECT A.X FROM A, B WHERE A.X = B.X AND A.V = \
               (SELECT COUNT(W) FROM C WHERE C.K = B.K)";
    check(&db, sql);
    let r = db.query_with(sql, &QueryOptions::transformed_merge()).unwrap();
    // A(1): count over C.K=10 → 2 = V ✓; A(2): count over K=20 → 0 = V ✓;
    // A(3): count over K=30 → 1 = V ✓.
    assert_eq!(r.relation.len(), 3, "{}", r.relation);
}

#[test]
fn ja_outer_operand_expression_side_flipped() {
    // The scalar subquery written on the LEFT of the comparison.
    let db = db_with(
        "INSERT INTO PARTS VALUES (1, 1), (2, 5);",
        "INSERT INTO SUPPLY VALUES (1, 9), (2, 1), (2, 2);",
    );
    let sql = "SELECT PNUM FROM PARTS WHERE \
               (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM) = QOH";
    check(&db, sql);
}
