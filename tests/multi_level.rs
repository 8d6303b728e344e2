//! Experiment E9 companion: Section 9's recursive algorithm on queries
//! nested two and three levels deep, including type-JA nesting that spans
//! levels ("a join predicate reference must span a query block containing
//! an aggregate function for type-JA nesting to be present").

use nested_query_opt::db::{Database, QueryOptions};

fn db() -> Database {
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

fn check_set_equivalent(db: &Database, sql: &str) {
    let ni = db.query_with(sql, &QueryOptions::nested_iteration()).unwrap();
    let opts = QueryOptions {
        unnest: nested_query_opt::core::UnnestOptions {
            preserve_duplicates: true,
            ..nested_query_opt::core::UnnestOptions::faithful()
        },
        ..QueryOptions::transformed_merge()
    };
    let tr = db.query_with(sql, &opts).unwrap();
    assert!(
        tr.relation.same_set(&ni.relation),
        "{sql}\nNI:\n{}\nTR:\n{}\nexplain:\n{}",
        ni.relation,
        tr.relation,
        tr.explain.join("\n")
    );
}

#[test]
fn depth_two_n_over_j() {
    check_set_equivalent(
        &db(),
        "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
           (SELECT PNO FROM P WHERE P.CITY = S.CITY))",
    );
}

#[test]
fn depth_three_n_chain() {
    check_set_equivalent(
        &db(),
        "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
           (SELECT PNO FROM P WHERE WEIGHT > (SELECT MIN(WEIGHT) FROM P X)))",
    );
}

#[test]
fn ja_spanning_levels_like_figure_2() {
    // The aggregate block's correlation comes from a child merged into it:
    // exactly the Section-9 walkthrough.
    check_set_equivalent(
        &db(),
        "SELECT SNAME FROM S WHERE STATUS = \
           (SELECT MAX(QTY) FROM SP WHERE PNO IN \
              (SELECT PNO FROM P WHERE P.CITY = S.CITY)) ",
    );
}

#[test]
fn ja_inside_ja() {
    // Two aggregate levels: the inner JA reduces first, its temp joins
    // into the middle block, which then reduces against the root.
    check_set_equivalent(
        &db(),
        "SELECT SNO FROM S WHERE STATUS < \
           (SELECT SUM(QTY) FROM SP WHERE SP.SNO = S.SNO AND QTY = \
              (SELECT MAX(QTY) FROM SP X WHERE X.PNO = SP.PNO))",
    );
}

#[test]
fn two_nested_predicates_at_one_level() {
    check_set_equivalent(
        &db(),
        "SELECT SNAME FROM S \
         WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 200) \
           AND CITY IN (SELECT CITY FROM P WHERE WEIGHT > 15)",
    );
}

#[test]
fn mixed_types_at_one_level() {
    // One type-A predicate and one type-JA predicate side by side.
    check_set_equivalent(
        &db(),
        "SELECT SNO FROM SP \
         WHERE QTY > (SELECT AVG(QTY) FROM SP X) \
           AND QTY = (SELECT MAX(QTY) FROM SP Y WHERE Y.SNO = SP.SNO)",
    );
}

#[test]
fn figure_2_tree_renders_and_transforms() {
    let db = db();
    let sql = "SELECT SNAME FROM S WHERE \
                 SNO IN (SELECT SNO FROM SP WHERE \
                           QTY = (SELECT MAX(WEIGHT) FROM P WHERE \
                                    PNO IN (SELECT PNO FROM SP X WHERE X.ORIGIN = S.CITY))) \
                 AND CITY IN (SELECT CITY FROM P)";
    let tree = db.query_tree(sql).unwrap();
    assert_eq!(tree.block_count(), 5);
    assert_eq!(tree.depth(), 3);
    let rendered = tree.render();
    assert!(rendered.lines().count() >= 5, "{rendered}");
    // And it is still transformable + equivalent.
    check_set_equivalent(&db, sql);
}

#[test]
fn depth_is_bounded_only_by_the_query() {
    // A deeply-nested chain of memberships still flattens to one flat
    // query with all tables in the FROM clause.
    let db = db();
    let sql = "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
               (SELECT PNO FROM P WHERE PNO IN (SELECT PNO FROM SP X WHERE QTY > 100)))";
    let plan = db.plan(sql, &nested_query_opt::core::UnnestOptions::faithful()).unwrap();
    assert_eq!(plan.canonical.from.len(), 4);
    check_set_equivalent(&db, sql);
}
