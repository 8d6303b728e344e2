//! Equivalence oracle: for a catalog of queries in the supported dialect,
//! the transformed execution must produce the same bag of rows as the
//! nested-iteration reference, across every join policy.
//!
//! Queries whose inner join column is not a key are run in
//! duplicate-preserving mode and compared as sets (the NEST-N-J caveat;
//! see DESIGN.md).

use nested_query_opt::core::UnnestOptions;
use nested_query_opt::db::{Database, JoinPolicy, QueryOptions, Strategy};

fn paper_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE S (SNO CHAR(4), SNAME CHAR(10), STATUS INT, CITY CHAR(10));
         CREATE TABLE P (PNO CHAR(4), PNAME CHAR(10), COLOR CHAR(8), WEIGHT INT, CITY CHAR(10));
         CREATE TABLE SP (SNO CHAR(4), PNO CHAR(4), QTY INT, ORIGIN CHAR(10));
         INSERT INTO S VALUES
           ('S1','SMITH',20,'LONDON'), ('S2','JONES',10,'PARIS'),
           ('S3','BLAKE',30,'PARIS'),  ('S4','CLARK',20,'LONDON'),
           ('S5','ADAMS',30,'ATHENS');
         INSERT INTO P VALUES
           ('P1','NUT','RED',12,'LONDON'),  ('P2','BOLT','GREEN',17,'PARIS'),
           ('P3','SCREW','BLUE',17,'ROME'), ('P4','SCREW','RED',14,'LONDON'),
           ('P5','CAM','BLUE',12,'PARIS'),  ('P6','COG','RED',19,'LONDON');
         INSERT INTO SP VALUES
           ('S1','P1',300,'LONDON'), ('S1','P2',200,'PARIS'),
           ('S1','P3',400,'ROME'),   ('S1','P4',200,'LONDON'),
           ('S1','P5',100,'PARIS'),  ('S1','P6',100,'LONDON'),
           ('S2','P1',300,'PARIS'),  ('S2','P2',400,'PARIS'),
           ('S3','P2',200,'PARIS'),  ('S4','P2',200,'LONDON'),
           ('S4','P4',300,'LONDON'), ('S4','P5',400,'LONDON');",
    )
    .unwrap();
    db
}

const POLICIES: [JoinPolicy; 4] = [
    JoinPolicy::ForceNestedLoop,
    JoinPolicy::ForceMergeJoin,
    JoinPolicy::ForceHashJoin,
    JoinPolicy::CostBased,
];

/// Queries where the inner join column is unique (key) — bag equivalence.
const KEYED_QUERIES: &[&str] = &[
    // Type-A (Query 2 style).
    "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
    "SELECT SNO FROM SP WHERE QTY > (SELECT AVG(QTY) FROM SP X)",
    "SELECT PNO FROM P WHERE WEIGHT = (SELECT MIN(WEIGHT) FROM P X)",
    // Type-N over a key (P.PNO is unique).
    "SELECT SNO, PNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
    "SELECT SNAME FROM S WHERE CITY IN (SELECT CITY FROM P WHERE COLOR = 'BLUE')",
    // Type-JA (Query 5 style).
    "SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
    "SELECT PNO FROM P WHERE WEIGHT > (SELECT AVG(QTY) FROM SP WHERE SP.PNO = P.PNO)",
    "SELECT SNO FROM S WHERE STATUS = (SELECT COUNT(PNO) FROM SP WHERE SP.SNO = S.SNO)",
    // Correlated COUNT against a constant-ish column.
    "SELECT SNAME FROM S WHERE 2 < (SELECT COUNT(PNO) FROM SP WHERE SP.SNO = S.SNO)",
    // Non-equality correlation with MAX.
    "SELECT PNO FROM P WHERE WEIGHT = (SELECT MAX(WEIGHT) FROM P X WHERE X.PNO < P.PNO)",
    // Multi-column equality correlation.
    "SELECT SNO FROM SP WHERE QTY = (SELECT MAX(QTY) FROM SP X \
       WHERE X.SNO = SP.SNO AND X.PNO = SP.PNO)",
    // Simple outer predicates restrict the projection (Section 6 step 1).
    "SELECT SNAME FROM S WHERE STATUS > 10 AND \
       STATUS = (SELECT COUNT(PNO) FROM SP WHERE SP.SNO = S.SNO)",
];

/// Queries where the inner join column has duplicates — set equivalence in
/// duplicate-preserving mode.
const UNKEYED_QUERIES: &[&str] = &[
    "SELECT SNAME FROM S WHERE SNO IS IN (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
    "SELECT SNAME FROM S WHERE CITY IN (SELECT ORIGIN FROM SP WHERE QTY >= 300)",
    "SELECT PNAME FROM P WHERE PNO IN (SELECT PNO FROM SP WHERE QTY > 250)",
    "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
       (SELECT PNO FROM P WHERE WEIGHT > 15))",
];

#[test]
fn keyed_queries_bag_equivalent_across_policies() {
    let db = paper_db();
    for sql in KEYED_QUERIES {
        let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
        for policy in POLICIES {
            let opts = QueryOptions {
                strategy: Strategy::Transform,
                join_policy: policy,
                cold_start: true,
                ..Default::default()
            };
            let tr = db.query_with(sql, &opts).unwrap();
            assert!(
                tr.relation.same_bag(&ni.relation),
                "{sql}\npolicy {policy:?}\nNI:\n{}\nTR:\n{}\nexplain:\n{}",
                ni.relation,
                tr.relation,
                tr.explain.join("\n")
            );
        }
    }
}

#[test]
fn unkeyed_queries_set_equivalent_in_preserving_mode() {
    let db = paper_db();
    for sql in UNKEYED_QUERIES {
        let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
        for policy in POLICIES {
            let opts = QueryOptions {
                strategy: Strategy::Transform,
                join_policy: policy,
                unnest: UnnestOptions { preserve_duplicates: true, ..Default::default() },
                cold_start: true,
                ..Default::default()
            };
            let tr = db.query_with(sql, &opts).unwrap();
            assert!(
                tr.relation.same_set(&ni.relation),
                "{sql}\npolicy {policy:?}\nNI:\n{}\nTR:\n{}",
                ni.relation,
                tr.relation
            );
        }
    }
}

#[test]
fn faithful_mode_can_duplicate_outer_tuples() {
    // The documented NEST-N-J caveat: without duplicate preservation, the
    // canonical join multiplies outer tuples by matching inner tuples.
    let db = paper_db();
    let sql = "SELECT SNAME FROM S WHERE CITY IN (SELECT ORIGIN FROM SP WHERE QTY >= 300)";
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
    let faithful = db.query_with(sql, &QueryOptions::transformed_merge()).unwrap();
    assert!(faithful.relation.len() > ni.relation.len());
    assert!(faithful.relation.same_set(&ni.relation));
}

#[test]
fn flat_queries_identical_under_both_strategies() {
    let db = paper_db();
    for sql in [
        "SELECT SNO FROM SP WHERE QTY > 150",
        "SELECT DISTINCT CITY FROM S",
        "SELECT SNO, COUNT(PNO), MAX(QTY) FROM SP GROUP BY SNO",
        "SELECT SNAME FROM S, SP WHERE S.SNO = SP.SNO AND QTY = 400",
        "SELECT COUNT(*) FROM SP",
        "SELECT SNO, PNO FROM SP ORDER BY SNO DESC, PNO",
    ] {
        let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
        let tr = db.query_with(sql, &QueryOptions::transformed()).unwrap();
        assert!(
            tr.relation.same_bag(&ni.relation),
            "{sql}\nNI:\n{}\nTR:\n{}",
            ni.relation,
            tr.relation
        );
    }
}

#[test]
fn order_by_is_respected_in_transformed_path() {
    let db = paper_db();
    let r = db
        .query_with(
            "SELECT SNO, QTY FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15) \
             ORDER BY QTY DESC, SNO",
            &QueryOptions::transformed(),
        )
        .unwrap()
        .relation;
    let qtys: Vec<String> = r.tuples().iter().map(|t| t.get(1).to_string()).collect();
    let mut sorted = qtys.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(qtys.len(), 6);
    assert!(qtys[0] >= qtys[qtys.len() - 1]);
}

/// Regression (found by the `diff_prop` differential harness, seed
/// 0x1f6274601e0ec59a): two correlation predicates referencing the *same*
/// outer column non-adjacently — here `PARTS.PNUM` on both sides of
/// `PARTS.QOH` — left a duplicate column in NEST-JA2's step-1 projection,
/// because `Vec::dedup` only removes consecutive repeats. The step-2b join
/// then failed with "join predicate … does not resolve" on the ambiguous
/// TEMP1 column. The projection must carry one column per *distinct* outer
/// correlation column.
#[test]
fn repeated_outer_correlation_column_resolves_in_ja2() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIP INT);
         INSERT INTO PARTS VALUES (3, 2), (5, 3), (8, 0), (10, 1);
         INSERT INTO SUPPLY VALUES
           (3, 1, 3), (3, 2, 3), (3, 5, 4), (5, 1, 5), (10, 1, 10), (7, 1, 7);",
    )
    .unwrap();
    // Correlations in order: PNUM (=), QOH (>=, via QUAN <=), PNUM (=).
    let sql = "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
               WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN <= PARTS.QOH AND SHIP = PARTS.PNUM)";
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
    // Part 8 has no supplies at all — COUNT over the empty group must be 0,
    // exercising the outer-join path of NEST-JA2 at the same time.
    let mut got: Vec<String> = ni.tuples().iter().map(|t| t.get(0).to_string()).collect();
    got.sort();
    assert_eq!(got, ["10", "3", "8"]);
    for policy in POLICIES {
        let opts = QueryOptions {
            strategy: Strategy::Transform,
            join_policy: policy,
            cold_start: true,
            ..Default::default()
        };
        let tr = db.query_with(sql, &opts).unwrap().relation;
        assert!(tr.same_bag(&ni), "policy {policy:?}\nNI:\n{ni}\nTR:\n{tr}");
    }
}

/// The rows and EXPLAIN lines of `sql` on the default path under `policy`.
fn default_path(db: &Database, sql: &str, policy: JoinPolicy) -> (Vec<String>, String) {
    let opts = QueryOptions {
        strategy: Strategy::Transform,
        join_policy: policy,
        cold_start: true,
        ..Default::default()
    };
    let out = db.query_with(sql, &opts).unwrap();
    let mut rows: Vec<String> = out.relation.tuples().iter().map(|t| t.to_string()).collect();
    rows.sort();
    (rows, out.explain.join("\n"))
}

/// A restricted column holding NULLs on each side of NEST-JA2's outer join.
/// `GRP = 0` is UNKNOWN on part 4 and `EPOCH < 50` on the only shipments of
/// parts 2 and 5, so restricting early drops those rows exactly as the
/// residual would have — and the outer join still pads part 2 (no shipment
/// left) and part 3 (none at all) so that their COUNT reads 0.
#[test]
fn null_bearing_restricted_columns_keep_zero_counts() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT, GRP INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, EPOCH INT);
         INSERT INTO PARTS VALUES
           (1, 2, 0), (2, 0, 0), (3, 0, 0), (4, 0, NULL), (5, 1, 0), (6, 0, 1);
         INSERT INTO SUPPLY VALUES
           (1, 7, 10), (1, 8, 20), (1, 9, 90), (2, 7, NULL), (5, 7, NULL), (5, 8, 30),
           (6, 7, 99), (NULL, 7, 10);",
    )
    .unwrap();
    let sql = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
               (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
    for policy in POLICIES {
        let (rows, explain) = default_path(&db, sql, policy);
        assert_eq!(rows, ["(1)", "(2)", "(3)", "(5)"], "policy {policy:?}\n{explain}");
        assert_eq!(rows.len(), ni.len());
        assert!(explain.contains("restrict+project PARTS: 4 tuples"), "{explain}");
    }
}

/// Duplicate outer rows go through a restricted, projected input with their
/// multiplicity: the projection below the join is not DISTINCT, so the two
/// copies of part 1 each meet both of its shipments, flat and nested alike.
#[test]
fn duplicate_outer_rows_survive_a_restricted_projected_input() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT, GRP INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, EPOCH INT);
         INSERT INTO PARTS VALUES (1, 2, 0), (1, 2, 0), (2, 1, 0), (3, 2, 1);
         INSERT INTO SUPPLY VALUES (1, 5, 10), (1, 6, 20), (2, 5, 10), (2, 6, 70), (3, 5, 10);",
    )
    .unwrap();
    let flat = "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY \
                WHERE PARTS.GRP = 0 AND PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50";
    let nested = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
                  (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
    let want_flat = ["(1, 5)", "(1, 5)", "(1, 6)", "(1, 6)", "(2, 5)"];
    let want_nested = ["(1)", "(1)", "(2)"];
    for (sql, want) in [(flat, &want_flat[..]), (nested, &want_nested[..])] {
        let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
        assert_eq!(ni.len(), want.len(), "{sql}");
        for policy in POLICIES {
            let (rows, explain) = default_path(&db, sql, policy);
            assert_eq!(rows, want, "{sql}\npolicy {policy:?}\n{explain}");
            assert!(explain.contains("restrict+project PARTS: 3 tuples"), "{explain}");
        }
    }
}

/// `sql` under every join policy on the default path and as the paper's
/// literal plans: both must return nested iteration's rows as a bag. Returns
/// the EXPLAIN lines of the two cost-based runs, (default, literal).
fn default_literal_and_nested_agree(db: &Database, sql: &str) -> (String, String) {
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap().relation;
    assert!(!ni.is_empty(), "{sql}: the statement must select something");
    let mut explains = (String::new(), String::new());
    for policy in POLICIES {
        for faithful_1987 in [false, true] {
            let opts = QueryOptions {
                strategy: Strategy::Transform,
                join_policy: policy,
                unnest: UnnestOptions { faithful_1987, ..Default::default() },
                cold_start: true,
                ..Default::default()
            };
            let out = db.query_with(sql, &opts).unwrap();
            let explain = out.explain.join("\n");
            assert!(
                out.relation.same_bag(&ni),
                "{sql}\npolicy {policy:?}, faithful_1987 {faithful_1987}\nNI:\n{ni}\nTR:\n{}\n{explain}",
                out.relation
            );
            if policy == JoinPolicy::CostBased {
                *(if faithful_1987 { &mut explains.1 } else { &mut explains.0 }) = explain;
            }
        }
    }
    explains
}

/// The restricted-column case one level down: a type-N block merged into the
/// aggregate block, so NEST-JA2's `TEMP2` ranges over SUPPLY and LOT. NULLs
/// sit in the merged relation's restricted column (`LOT.GRP`), on both sides
/// of the key the merge introduces (`SUPPLY.TAG = LOT.SERIAL`) and in the
/// correlation column. The default path restricts and projects LOT first and
/// joins on the key; the literal plan filters the stored cross product; part
/// 3 (no shipment) and part 2 (none with a lot of group 1) still count 0.
#[test]
fn null_bearing_columns_in_a_temporary_over_two_relations() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT, GRP INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, TAG INT);
         CREATE TABLE LOT (SERIAL INT, GRP INT);
         INSERT INTO PARTS VALUES
           (1, 2, 0), (2, 0, 0), (3, 0, 0), (4, 0, NULL), (5, 1, 0), (6, 1, 1);
         INSERT INTO SUPPLY VALUES
           (1, 7, 10), (1, 8, 11), (1, 9, 12), (1, 9, NULL), (2, 7, 13), (2, 7, 14),
           (5, 7, 10), (5, 8, NULL), (6, 7, 10), (NULL, 7, 10);
         INSERT INTO LOT VALUES (10, 1), (11, 1), (12, 0), (13, NULL), (NULL, 1), (15, 1);",
    )
    .unwrap();
    let sql = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
               (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND \
                SUPPLY.TAG IN (SELECT SERIAL FROM LOT WHERE LOT.GRP = 1))";
    let (default, literal) = default_literal_and_nested_agree(&db, sql);
    assert!(default.contains("restrict+project LOT: 4 tuples"), "{default}");
    assert!(!default.contains("(0 equality keys"), "{default}");
    assert!(literal.contains("(0 equality keys"), "{literal}");
    let (rows, _) = default_path(&db, sql, JoinPolicy::CostBased);
    assert_eq!(rows, ["(1)", "(2)", "(3)", "(5)"]);
}

/// Duplicate rows through a temporary over two relations: both copies of
/// part 1 and both copies of its shipment of 6 keep their multiplicity
/// through the restricted, projected LOT and the keyed join — under a
/// correlated MAX (NEST-JA2's inner join), a correlated COUNT (its outer
/// join) and an uncorrelated COUNT (the type-A temporary, an aggregate
/// straight over the two relations).
#[test]
fn duplicate_rows_survive_a_temporary_over_two_relations() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT, GRP INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, TAG INT);
         CREATE TABLE LOT (SERIAL INT, GRP INT);
         INSERT INTO PARTS VALUES (1, 6, 0), (1, 6, 0), (2, 5, 0), (3, 4, 0), (4, 3, 1);
         INSERT INTO SUPPLY VALUES
           (1, 6, 10), (1, 6, 10), (1, 9, 12), (2, 5, 11), (2, 8, 12), (3, 1, 10), (4, 3, 10);
         INSERT INTO LOT VALUES (10, 1), (11, 1), (12, 0);",
    )
    .unwrap();
    let lots = "SUPPLY.TAG IN (SELECT SERIAL FROM LOT WHERE LOT.GRP = 1)";
    for (head, want) in [
        ("QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND", 3),
        ("QOH > (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND", 4),
        ("QOH < (SELECT COUNT(QUAN) FROM SUPPLY WHERE", 1),
    ] {
        let sql = format!("SELECT PNUM FROM PARTS WHERE GRP = 0 AND {head} {lots})");
        let (default, _) = default_literal_and_nested_agree(&db, &sql);
        // The temporary's own lines: from LOT's restriction to `materialize`.
        let (_, temp) = default.split_once("restrict+project LOT: 2 tuples").expect(&default);
        let (temp, _) = temp.split_once("materialize ").expect(&default);
        // Joined on the one key, by the method the choice prices cheapest
        // on these few rows.
        let keyed = temp.lines().any(|l| l == "hash join (1 keys), build right");
        assert!(keyed && !temp.contains("(0 equality keys"), "{default}");
        assert_eq!(default_path(&db, &sql, JoinPolicy::CostBased).0.len(), want, "{sql}");
    }
}
