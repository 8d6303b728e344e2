//! The paper's Section-1/2 walkthrough on the suppliers–parts database:
//! queries (1)–(5), one per nesting type, each classified, transformed,
//! and cross-checked against nested iteration.
//!
//! ```sh
//! cargo run --example suppliers_parts
//! ```

use nested_query_opt::analyzer::NestingType;
use nested_query_opt::db::{Database, QueryOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
    )?;

    let examples: &[(&str, &str, NestingType)] = &[
        (
            "Query (1): names of suppliers who supply part P2",
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')",
            NestingType::TypeN,
        ),
        (
            "Query (2): shipments of the highest-numbered part (type-A)",
            "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
            NestingType::TypeA,
        ),
        (
            "Query (3): shipments of parts heavier than 15 (type-N)",
            "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
            NestingType::TypeN,
        ),
        (
            "Query (4): suppliers shipping >100 from their own city (type-J)",
            "SELECT SNAME FROM S WHERE SNO IS IN \
             (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
            NestingType::TypeJ,
        ),
        (
            "Query (5): parts with the highest part number shipped from their city (type-JA)",
            "SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
            NestingType::TypeJA,
        ),
    ];

    for (title, sql, expected_type) in examples {
        println!("══ {title}");
        println!("   {sql}");

        // Classification per Kim's taxonomy.
        let tree = db.query_tree(sql)?;
        let (ty, _) = &tree.children[0];
        println!("   classified: {ty} (expected {expected_type})");
        assert_eq!(ty, expected_type);

        // Ground truth vs transformed.
        let ni = db.query_with(sql, &QueryOptions::nested_iteration())?;
        let opts = QueryOptions {
            unnest: nested_query_opt::core::UnnestOptions {
                preserve_duplicates: true,
                ..nested_query_opt::core::UnnestOptions::faithful()
            },
            ..QueryOptions::transformed()
        };
        let tr = db.query_with(sql, &opts)?;
        assert!(
            tr.relation.same_set(&ni.relation),
            "strategies disagree on {sql}"
        );
        println!(
            "   nested iteration: {:>4} page I/Os | transformed: {:>4} page I/Os",
            ni.io.total(),
            tr.io.total()
        );
        println!("{}", ni.relation);
        println!();
    }
    Ok(())
}
