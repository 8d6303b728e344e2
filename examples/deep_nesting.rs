//! Section 9 live: a Figure-2-shaped query tree (root A, children on
//! multiple branches, a trans-aggregate join predicate spanning the
//! aggregate block), transformed by the recursive `nest_g` and verified
//! against nested iteration.
//!
//! ```sh
//! cargo run --example deep_nesting
//! ```

use nested_query_opt::core::UnnestOptions;
use nested_query_opt::db::{Database, QueryOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
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
    )?;

    // A four-level nested query shaped like Figure 2:
    //   A (root over S)
    //   ├── B (aggregate block over SP)  — type-JA once E's predicate is
    //   │   └── C (over P)               inherited upward
    //   │       └── D (over SP X, references S.CITY — the trans-aggregate
    //   │              join predicate spanning B)
    //   └── E (over P, uncorrelated)
    let sql = "SELECT SNAME FROM S WHERE \
                 STATUS = (SELECT MAX(QTY) FROM SP WHERE PNO IN \
                             (SELECT PNO FROM P WHERE PNO IN \
                                (SELECT PNO FROM SP X WHERE X.ORIGIN = S.CITY))) \
                 AND CITY IN (SELECT CITY FROM P)";

    println!("query:\n  {sql}\n");

    // 1. The query tree with classified edges.
    let tree = db.query_tree(sql)?;
    println!("query tree (Figure 2 style):\n{}", tree.render());
    println!(
        "blocks: {}, depth: {}, contains type-JA after inheritance: see trace below\n",
        tree.block_count(),
        tree.depth()
    );

    // 2. The recursive transformation, step by step.
    let plan = db.plan(sql, &UnnestOptions::faithful())?;
    println!("transformation trace (postorder nest_g):");
    for line in &plan.trace {
        println!("  · {line}");
    }
    println!("\nresulting plan:\n{plan}\n");

    // 3. Execute both ways and compare.
    let ni = db.query_with(sql, &QueryOptions::nested_iteration())?;
    let opts = QueryOptions {
        unnest: UnnestOptions { preserve_duplicates: true, ..UnnestOptions::faithful() },
        ..QueryOptions::transformed()
    };
    let tr = db.query_with(sql, &opts)?;
    assert!(tr.relation.same_set(&ni.relation), "strategies must agree");
    println!("nested iteration: {} | transformed: {}", ni.io, tr.io);
    println!("\nresult:\n{}", ni.relation);
    Ok(())
}
