//! Experiment E10 — the Section-8 predicate extensions: the rewrite table,
//! and end-to-end equivalence (plus the paper's own ANY/ALL caveat).
//!
//! ```sh
//! cargo run -p nsql-bench --bin extensions
//! ```

use crate::{table, RunConfig};
use nsql_core::rewrites::rewrite_extended;
use nsql_core::UnnestOptions;
use nsql_db::QueryOptions;
use nsql_sql::{parse_query, print_predicate};

/// E10: the Section-8 rewrite table, end-to-end equivalence and the ANY/ALL
/// caveat.
pub fn extensions(cfg: &RunConfig) -> String {
    let mut out = String::new();
    // ---- the rewrite table itself -------------------------------------
    let examples = [
        "EXISTS (SELECT B FROM U WHERE U.B = T.A)",
        "NOT EXISTS (SELECT B FROM U WHERE U.B = T.A)",
        "A < ANY (SELECT B FROM U)",
        "A <= ANY (SELECT B FROM U)",
        "A < ALL (SELECT B FROM U)",
        "A > ANY (SELECT B FROM U)",
        "A > ALL (SELECT B FROM U)",
        "A = ANY (SELECT B FROM U)",
        "A != ALL (SELECT B FROM U)",
        "A = ALL (SELECT B FROM U)",
    ];
    let mut rows = Vec::new();
    for src in examples {
        let q = parse_query(&format!("SELECT A FROM T WHERE {src}")).expect("parses");
        let mut trace = Vec::new();
        let rewritten = rewrite_extended(q.where_clause.expect("has WHERE"), &mut trace);
        rows.push(vec![src.to_string(), print_predicate(&rewritten)]);
    }
    table(&mut out, "E10 — Section 8 rewrites", &["original", "rewritten"], &rows);

    // ---- end-to-end on data --------------------------------------------
    let mut db = cfg.database();
    db.execute_script(
        "CREATE TABLE S (SNO CHAR(4), STATUS INT);
         CREATE TABLE SP (SNO CHAR(4), PNO CHAR(4), QTY INT);
         INSERT INTO S VALUES ('S1', 2), ('S2', 0), ('S3', 1);
         INSERT INTO SP VALUES
           ('S1','P1',300), ('S1','P2',200), ('S3','P2',100);",
    )
    .expect("fixture loads");

    let mut rows = Vec::new();
    for (label, sql) in [
        (
            "EXISTS",
            "SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM SP WHERE SP.SNO = S.SNO)",
        ),
        (
            "NOT EXISTS",
            "SELECT SNO FROM S WHERE NOT EXISTS (SELECT PNO FROM SP WHERE SP.SNO = S.SNO)",
        ),
        (
            "COUNT = column",
            "SELECT SNO FROM S WHERE STATUS = (SELECT COUNT(PNO) FROM SP WHERE SP.SNO = S.SNO)",
        ),
        (
            ">= ALL (correlated)",
            "SELECT SNO, PNO FROM SP WHERE QTY >= ALL (SELECT QTY FROM SP X WHERE X.SNO = SP.SNO)",
        ),
    ] {
        let ni = db.query_with(sql, &cfg.opts(QueryOptions::nested_iteration())).expect("reference");
        let tr = db
            .query_with(
                sql,
                &cfg.opts(QueryOptions {
                    unnest: UnnestOptions { preserve_duplicates: true, ..UnnestOptions::faithful() },
                    ..QueryOptions::transformed_merge()
                }),
            )
            .expect("transformed");
        let agree = tr.relation.same_set(&ni.relation);
        assert!(agree, "{label} must agree");
        rows.push(vec![
            label.to_string(),
            ni.relation.len().to_string(),
            tr.relation.len().to_string(),
            "yes".to_string(),
        ]);
    }
    table(&mut out,
        "E10 — end-to-end equivalence after rewriting",
        &["predicate", "reference rows", "transformed rows", "agree"],
        &rows,
    );

    // ---- the paper's own caveat ----------------------------------------
    outln!(out, "── the documented ANY/ALL empty-set divergence (Section 8.2)");
    let sql = "SELECT SNO FROM S WHERE STATUS < ALL (SELECT QTY FROM SP WHERE QTY > 9000)";
    let ni = db.query_with(sql, &cfg.opts(QueryOptions::nested_iteration())).expect("reference");
    let tr = db.query_with(sql, &cfg.opts(QueryOptions::transformed_merge())).expect("transformed");
    outln!(out, "  query: {sql}");
    outln!(out, "  SQL semantics (ALL over ∅ is TRUE):        {} rows", ni.relation.len());
    outln!(out, "  paper rewrite (x < MIN(∅) = NULL, UNKNOWN): {} rows", tr.relation.len());
    outln!(out,
        "  → the paper calls its rewrite \"logically (but not necessarily\n\
         semantically) equivalent\"; this is that divergence, reproduced."
    );
    out
}
