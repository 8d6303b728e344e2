//! The Section-5 "bug museum": run Kiessling's Q2 and the paper's Q5 on
//! the exact example data, under the correct reference, Kim's buggy
//! NEST-JA, and the paper's NEST-JA2, printing the tables the way the
//! paper does.
//!
//! ```sh
//! cargo run --example shipments_audit
//! ```

use nested_query_opt::core::{JaVariant, UnnestOptions};
use nested_query_opt::db::{Database, QueryOptions, Strategy};

fn kim() -> QueryOptions {
    QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { ja_variant: JaVariant::KimOriginal, ..UnnestOptions::faithful() },
        cold_start: true,
        ..Default::default()
    }
}

fn no_projection() -> QueryOptions {
    QueryOptions {
        strategy: Strategy::Transform,
        unnest: UnnestOptions { ja_variant: JaVariant::Ja2NoProjection, ..UnnestOptions::faithful() },
        cold_start: true,
        ..Default::default()
    }
}

fn show(db: &Database, sql: &str, label: &str, opts: &QueryOptions) {
    match db.query_with(sql, opts) {
        Ok(out) => println!("— {label}:\n{}\n", out.relation),
        Err(e) => println!("— {label}: error: {e}\n"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Section 5.1: the COUNT bug --------------------------------
    println!("════ Section 5.1 — the COUNT bug ════\n");
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
           (10, 2, 8-10-81), (8, 5, 5-7-83);",
    )?;
    let q2 = "SELECT PNUM FROM PARTS WHERE QOH = \
              (SELECT COUNT(SHIPDATE) FROM SUPPLY \
               WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";
    println!("Query Q2 [KIE 84]: {q2}\n");
    show(&db, q2, "nested iteration (correct: 10, 8)", &QueryOptions::nested_iteration());
    show(&db, q2, "Kim's NEST-JA (loses part 8 — COUNT is never 0)", &kim());
    show(&db, q2, "NEST-JA2 (outer join restores the zero count)", &QueryOptions::transformed_merge());

    // ---- Section 5.3: relations other than equality -----------------
    println!("════ Section 5.3 — the non-equality-operator bug ════\n");
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 0), (10, 4), (8, 4);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78), (9, 5, 3-2-79);",
    )?;
    let q5 = "SELECT PNUM FROM PARTS WHERE QOH = \
              (SELECT MAX(QUAN) FROM SUPPLY \
               WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)";
    println!("Query Q5: {q5}\n");
    show(&db, q5, "nested iteration (correct: 8)", &QueryOptions::nested_iteration());
    show(&db, q5, "Kim's NEST-JA (wrong: 10, 8 — aggregates per value, not range)", &kim());
    show(&db, q5, "NEST-JA2 (joins over the range first)", &QueryOptions::transformed_merge());

    // ---- Section 5.4: duplicates in the outer join column ----------
    println!("════ Section 5.4 — the duplicates problem ════\n");
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (3, 2), (10, 1), (10, 0), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 8/14/77), (3, 2, 11/11/78), (10, 1, 6/22/76);",
    )?;
    println!("Same query Q2, duplicates in PARTS.PNUM\n");
    show(&db, q2, "nested iteration (correct: 3, 10, 8)", &QueryOptions::nested_iteration());
    show(
        &db,
        q2,
        "outer join WITHOUT the projection step (wrong: 8 — counts inflated)",
        &no_projection(),
    );
    show(&db, q2, "full NEST-JA2 (DISTINCT projection first)", &QueryOptions::transformed_merge());

    // ---- The transformation pipeline, narrated ----------------------
    println!("════ NEST-JA2 pipeline for Q2 (Section 6.1 walkthrough) ════\n");
    let out = db.query_with(q2, &QueryOptions::transformed_merge())?;
    for line in &out.explain {
        println!("  {line}");
    }
    println!("\nplan:\n{}", db.plan(q2, &UnnestOptions::faithful())?);
    Ok(())
}
