//! Experiment E9 — Figure 2 and the Section-9.1 walkthrough: the query
//! tree, the postorder recursion, the upward inheritance of the
//! trans-aggregate join predicate, and the correctness of the result.
//!
//! ```sh
//! cargo run -p nsql-bench --bin figure2
//! ```

use crate::RunConfig;
use nsql_core::UnnestOptions;
use nsql_db::QueryOptions;

/// Figure 2 and the Section-9.1 walkthrough on the suppliers/parts data.
pub fn figure2(cfg: &RunConfig) -> String {
    let mut out = String::new();
    let mut db = cfg.database();
    db.execute_script(
        "CREATE TABLE S (SNO CHAR(4), SNAME CHAR(10), STATUS INT, CITY CHAR(10));
         CREATE TABLE P (PNO CHAR(4), PNAME CHAR(10), COLOR CHAR(8), WEIGHT INT, CITY CHAR(10));
         CREATE TABLE SP (SNO CHAR(4), PNO CHAR(4), QTY INT, ORIGIN CHAR(10));
         INSERT INTO S VALUES
           ('S1','SMITH',400,'LONDON'), ('S2','JONES',400,'PARIS'),
           ('S3','BLAKE',30,'PARIS'),   ('S4','CLARK',20,'LONDON'),
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
    .expect("fixture loads");

    // The Figure-2 shape: root A; B (aggregate) with descendants C and D
    // (D carries the join predicate referencing A's table — the
    // "trans-aggregate" reference); E is a second, independent child of A.
    let sql = "SELECT SNAME FROM S WHERE \
                 STATUS = (SELECT MAX(QTY) FROM SP WHERE PNO IN \
                             (SELECT PNO FROM P WHERE PNO IN \
                                (SELECT PNO FROM SP X WHERE X.ORIGIN = S.CITY))) \
                 AND CITY IN (SELECT CITY FROM P)";

    outln!(out, "query:\n  {sql}\n");
    let tree = db.query_tree(sql).expect("analyzable");
    outln!(out, "Figure 2 — the example query tree:\n{}", tree.render());
    outln!(out, "blocks: {}, max depth: {}\n", tree.block_count(), tree.depth());

    let plan = db.plan(sql, &UnnestOptions::faithful()).expect("transformable");
    outln!(out, "Section 9.1 — the recursion unwinds (postorder):");
    for (i, line) in plan.trace.iter().enumerate() {
        outln!(out, "  {}. {line}", i + 1);
    }
    outln!(out, "\ncanonical plan:\n{plan}\n");

    // Verify against nested iteration.
    let ni = db.query_with(sql, &cfg.opts(QueryOptions::nested_iteration())).expect("reference runs");
    let opts = cfg.opts(QueryOptions {
        unnest: UnnestOptions { preserve_duplicates: true, ..UnnestOptions::faithful() },
        ..QueryOptions::transformed()
    });
    let tr = db.query_with(sql, &opts).expect("transformed runs");
    assert!(tr.relation.same_set(&ni.relation), "strategies disagree");
    outln!(out,
        "both strategies agree; nested iteration {} vs transformed {}.",
        ni.io, tr.io
    );
    outln!(out, "\nresult:\n{}", ni.relation);
    out
}
