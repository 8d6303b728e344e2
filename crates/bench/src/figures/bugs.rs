//! Experiments E3–E8 — the Section 5–6 bug demonstrations, printed as the
//! paper prints them (every intermediate temporary and final result).
//!
//! ```sh
//! cargo run -p nsql-bench --bin bugs            # all demonstrations
//! cargo run -p nsql-bench --bin bugs -- count   # just the COUNT bug
//! ```
//!
//! Demonstration names: see [`DEMOS`].

use crate::RunConfig;
use nsql_core::{JaVariant, UnnestOptions};
use nsql_db::plan_exec::PlanExecutor;
use nsql_db::{Database, JoinPolicy, QueryOptions};
use nsql_engine::Exec;

const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

const Q5: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT MAX(QUAN) FROM SUPPLY \
     WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)";

fn kiessling_db(cfg: &RunConfig) -> Database {
    let mut db = cfg.database();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
           (10, 2, 8-10-81), (8, 5, 5-7-83);",
    )
    .expect("fixture loads");
    db
}

fn section_5_3_db(cfg: &RunConfig) -> Database {
    let mut db = cfg.database();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 0), (10, 4), (8, 4);
         INSERT INTO SUPPLY VALUES
           (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78), (9, 5, 3-2-79);",
    )
    .expect("fixture loads");
    db
}

fn section_5_4_db(cfg: &RunConfig) -> Database {
    let mut db = cfg.database();
    db.execute_script(
        "CREATE TABLE PARTS (PNUM INT, QOH INT);
         CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
         INSERT INTO PARTS VALUES (3, 6), (3, 2), (10, 1), (10, 0), (8, 0);
         INSERT INTO SUPPLY VALUES
           (3, 4, 8/14/77), (3, 2, 11/11/78), (10, 1, 6/22/76);",
    )
    .expect("fixture loads");
    db
}

/// Run a transformation, print each temporary table and the final result.
fn run_with_temps(out: &mut String, db: &Database, sql: &str, variant: JaVariant) {
    let q = nsql_sql::parse_query(sql).expect("valid SQL");
    let unnest = UnnestOptions { ja_variant: variant, ..UnnestOptions::faithful() };
    let plan = nsql_core::transform_query(db.catalog(), &q, &unnest).expect("transformable");
    outln!(out, "{plan}\n");
    let mut pe = PlanExecutor::new(Exec::new(db.storage().clone()), db.catalog(), JoinPolicy::ForceMergeJoin);
    pe.set_faithful(true);
    let rel = pe.execute_transform_plan(&plan, false).expect("executes");
    for temp in &plan.temps {
        let rows = &pe.temp(&temp.name).expect("registered").file;
        let file = rows.file().expect("the literal plans write every temporary");
        outln!(out, "{}:\n{}\n", temp.name, db.storage().load_relation(file));
    }
    outln!(out, "final result:\n{rel}\n");
}

fn demo_count(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E3 — the COUNT bug (Section 5.1) ════\n");
    let db = kiessling_db(cfg);
    outln!(out, "Query Q2 [KIE 84]: {Q2}\n");
    let ni = db.query_with(Q2, &cfg.opts(QueryOptions::nested_iteration())).unwrap();
    outln!(out, "nested iteration (ground truth):\n{}\n", ni.relation);
    outln!(out, "Kim's NEST-JA transformation:");
    run_with_temps(out, &db, Q2, JaVariant::KimOriginal);
    outln!(out,
        "→ TEMP's CT column can never be 0, so part 8 (QOH = 0) is lost.\n"
    );
}

fn demo_count_fix(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E4 — the outer-join fix (Section 5.2) ════\n");
    let db = kiessling_db(cfg);
    outln!(out, "NEST-JA2 on query Q2:");
    run_with_temps(out, &db, Q2, JaVariant::Ja2);
    outln!(out, "→ the LEFT OUTER JOIN manufactures the zero counts; {{10, 8}} as in the paper.\n");
}

fn demo_count_star(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E5 — COUNT(*) (Section 5.2.1) ════\n");
    let db = kiessling_db(cfg);
    let q2_star = Q2.replace("COUNT(SHIPDATE)", "COUNT(*)");
    outln!(out, "Q2 with COUNT(*): the temporary must count the *join column*, or the\n\
              NULL-padded rows of the outer join would each count as 1.\n");
    run_with_temps(out, &db, &q2_star, JaVariant::Ja2);
    let ni = db.query_with(&q2_star, &cfg.opts(QueryOptions::nested_iteration())).unwrap();
    outln!(out, "nested iteration agrees:\n{}\n", ni.relation);
}

fn demo_non_eq(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E6 — relations other than equality (Section 5.3) ════\n");
    let db = section_5_3_db(cfg);
    outln!(out, "Query Q5: {Q5}\n");
    let ni = db.query_with(Q5, &cfg.opts(QueryOptions::nested_iteration())).unwrap();
    outln!(out, "nested iteration (ground truth, MAX(∅) = NULL):\n{}\n", ni.relation);
    outln!(out, "Kim's NEST-JA (aggregates per join-column *value*):");
    run_with_temps(out, &db, Q5, JaVariant::KimOriginal);
    outln!(out, "NEST-JA2 (aggregates over the join-column *range*):");
    run_with_temps(out, &db, Q5, JaVariant::Ja2);
}

fn demo_duplicates(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E7 — the duplicates problem (Section 5.4) ════\n");
    let db = section_5_4_db(cfg);
    let ni = db.query_with(Q2, &cfg.opts(QueryOptions::nested_iteration())).unwrap();
    outln!(out, "PARTS has duplicate PNUMs. nested iteration:\n{}\n", ni.relation);
    outln!(out, "outer-join fix WITHOUT the projection step (counts inflated):");
    run_with_temps(out, &db, Q2, JaVariant::Ja2NoProjection);
    outln!(out, "full NEST-JA2 (DISTINCT projection of the outer join column first):");
    run_with_temps(out, &db, Q2, JaVariant::Ja2);
}

fn demo_late_restriction(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E5b — restriction ordering (Section 5.2) ════\n");
    let db = kiessling_db(cfg);
    outln!(out,
        "The paper: \"the condition which applies to only one relation\n\
         (SHIPDATE < 1-1-80) must be applied before the join is performed.\n\
         Otherwise the join would not contain the last row, and the result\n\
         would be incorrect.\"\n"
    );
    outln!(out, "restriction applied AFTER the outer join (broken ordering):");
    run_with_temps(out, &db, Q2, JaVariant::Ja2LateRestriction);
    outln!(out, "→ part 8's padded row is filtered away (NULL SHIPDATE), so its zero\n\
              count is lost — the same wrong answer as Kim's NEST-JA.\n");
    outln!(out, "restriction applied BEFORE the join (NEST-JA2 proper):");
    run_with_temps(out, &db, Q2, JaVariant::Ja2);
}

fn demo_ja2_trace(cfg: &RunConfig, out: &mut String) {
    outln!(out, "════ E8 — the NEST-JA2 three-step walkthrough (Section 6.1) ════\n");
    let db = section_5_4_db(cfg);
    let tr = db.query_with(Q2, &cfg.opts(QueryOptions::transformed())).unwrap();
    for line in &tr.explain {
        outln!(out, "  {line}");
    }
    outln!(out);
    run_with_temps(out, &db, Q2, JaVariant::Ja2);
}

/// The demonstrations by command-line name, in printing order.
pub const DEMOS: [(&str, fn(&RunConfig, &mut String)); 7] = [
    ("count", demo_count),
    ("count-fix", demo_count_fix),
    ("count-star", demo_count_star),
    ("non-eq", demo_non_eq),
    ("duplicates", demo_duplicates),
    ("late-restriction", demo_late_restriction),
    ("ja2-trace", demo_ja2_trace),
];

/// Render every demonstration.
pub fn bugs(cfg: &RunConfig) -> String {
    let mut out = String::new();
    for (_, demo) in DEMOS {
        demo(cfg, &mut out);
    }
    out
}

/// Render the demonstration called `name`, if there is one.
pub fn bug_demo(cfg: &RunConfig, name: &str) -> Option<String> {
    let (_, demo) = DEMOS.iter().find(|(n, _)| *n == name)?;
    let mut out = String::new();
    demo(cfg, &mut out);
    Some(out)
}
