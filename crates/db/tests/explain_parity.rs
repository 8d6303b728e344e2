//! Plain `EXPLAIN` and `EXPLAIN ANALYZE` must tell the same story.
//!
//! The plain report predicts; the ANALYZE report executes. For both
//! executable strategies — nested iteration and the NEST-* transformation —
//! the two reports must agree on the decision-shaped lines: the strategy
//! header and the chosen algorithm. A drift here means EXPLAIN is
//! describing a plan the executor does not run.
//!
//! The two-way strategy-cost block is also pinned: every nested query —
//! correlated or not — must render predicted costs for both strategies
//! plus the planner's pick, identically in both reports and
//! regardless of which strategy the options force. Only flat queries
//! (no subquery, hence no strategy choice) omit the block.

use nsql_db::{Database, QueryOptions, Strategy};
use nsql_engine::cost::StrategyKind;
use nsql_obs::ProfileNode;

const SETUP: &str = "CREATE TABLE PARTS (PNUM INT, QOH INT);
     CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
     INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
     INSERT INTO SUPPLY VALUES
       (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
       (10, 2, 8-10-81), (8, 5, 5-7-83);";

/// Kiessling's Q2 — correlated type-JA nesting (the COUNT-bug query).
const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

/// Q2 with a simple predicate on the outer relation for the canonical query
/// to restrict first.
const Q_RESTRICTED: &str = "SELECT PNUM FROM PARTS WHERE PARTS.PNUM > 5 AND QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

/// Q2 with a type-N block inside the aggregate block: NEST-N-J merges `P2`
/// into it, so NEST-JA2's `TEMP2` ranges over two relations.
const Q_MERGED: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN IN \
       (SELECT QOH FROM PARTS P2 WHERE P2.PNUM > 5))";

/// An uncorrelated type-A query: still nested, so it still gets the
/// two-way cost block.
const Q_TYPE_A: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT MAX(QUAN) FROM SUPPLY)";

/// A flat query: no subquery, no strategy choice, no cost block.
const Q_FLAT: &str = "SELECT PNUM FROM PARTS WHERE QOH = 0";

fn mem_db() -> Database {
    let mut db = Database::new();
    db.execute_script(SETUP).unwrap();
    db
}

fn strategies() -> [(&'static str, Strategy); 2] {
    [("nested-iteration", Strategy::NestedIteration), ("transform", Strategy::Transform)]
}

fn opts(strategy: &Strategy) -> QueryOptions {
    QueryOptions {
        strategy: *strategy,
        cold_start: true,
        ..QueryOptions::default()
    }
}

/// The first `strategy:` line of a report's strategy log.
fn strategy_line(lines: &[String]) -> &String {
    lines
        .iter()
        .find(|l| l.starts_with("strategy:"))
        .expect("every report logs a strategy line")
}

/// Plain EXPLAIN and EXPLAIN ANALYZE agree on the strategy header and the
/// chosen algorithm, under every strategy.
#[test]
fn plain_and_analyze_reports_agree_on_decision_lines() {
    let db = mem_db();
    for (name, strategy) in strategies() {
        let o = opts(&strategy);
        let plain = db.explain_query(Q2, false, &o).unwrap();
        let analyzed = db.explain_query(Q2, true, &o).unwrap();

        assert_eq!(
            strategy_line(&plain.strategy),
            strategy_line(&analyzed.strategy),
            "[{name}] strategy header drifted between EXPLAIN and ANALYZE"
        );
        assert_eq!(
            plain.chosen, analyzed.chosen,
            "[{name}] chosen algorithm drifted between EXPLAIN and ANALYZE"
        );
    }
}

/// The plan-shapes line names the one switch's setting, identically in both
/// reports, exactly where plans are built (the correlated strategies build
/// none); and under the default shapes ANALYZE shows what they did — each
/// restricted input on a line (here streamed into the hash join, whose
/// operator node does its work), the pages and the priced total on the
/// join-choice line — where the literal plans show neither.
#[test]
fn the_plan_shapes_line_names_what_ran() {
    let db = mem_db();
    let shapes = |r: &nsql_db::ExplainReport| {
        r.strategy.iter().find(|l| l.starts_with("plan shapes:")).cloned()
    };
    for (name, strategy) in strategies() {
        for (faithful_1987, line) in
            [(false, "plan shapes: restricted inputs"), (true, "plan shapes: literal (1987)")]
        {
            let unnest = nsql_core::UnnestOptions { faithful_1987, ..Default::default() };
            let o = QueryOptions { unnest, ..opts(&strategy) };
            let want = (strategy == Strategy::Transform).then(|| line.to_string());
            let plain = db.explain_query(Q_RESTRICTED, false, &o).unwrap();
            let analyzed = db.explain_query(Q_RESTRICTED, true, &o).unwrap();
            assert_eq!(shapes(&plain), want, "[{name}] plain");
            assert_eq!(shapes(&analyzed), want, "[{name}] ANALYZE");
            if strategy != Strategy::Transform {
                continue;
            }
            let text = analyzed.render_lines().join("\n");
            let restricted =
                text.contains("restrict+project PARTS: 2 tuples, streamed into hash join (2 keys)");
            let two_terms = text.contains(" pages + ") && text.contains(" µs / mj ");
            assert_eq!(restricted, !faithful_1987, "{text}");
            assert_eq!(two_terms, !faithful_1987, "{text}");
            // The restricted input streams into the hash join: its work is
            // the join's node, and it has none of its own.
            let obs = analyzed.obs.expect("ANALYZE collects a profile");
            let node = |name| obs.profile.iter().any(|root| has_node(root, name));
            assert!(!node("restrict+project PARTS"), "{:#?}", obs.profile);
            assert_eq!(node("hash join (2 keys)"), !faithful_1987, "{:#?}", obs.profile);
        }
    }
}

/// The correlated strategies say, per correlated block, where its tuples
/// come from and why: the same line in both reports (the choice is made
/// from counts before anything runs), none under the 1987 switch (nothing to
/// choose) and none under the transformation (no block is iterated).
#[test]
fn access_path_lines_are_the_same_in_both_reports() {
    let db = mem_db();
    let blocks = |r: &nsql_db::ExplainReport| -> Vec<String> {
        r.strategy.iter().filter(|l| l.starts_with("block ")).cloned().collect()
    };
    for (name, strategy) in strategies() {
        for faithful_1987 in [false, true] {
            let unnest = nsql_core::UnnestOptions { faithful_1987, ..Default::default() };
            let o = QueryOptions { unnest, ..opts(&strategy) };
            let plain = blocks(&db.explain_query(Q2, false, &o).unwrap());
            let analyzed = blocks(&db.explain_query(Q2, true, &o).unwrap());
            assert_eq!(plain, analyzed, "[{name}] faithful_1987={faithful_1987}");
            let want: &[&str] = if strategy == Strategy::Transform || faithful_1987 {
                &[]
            } else {
                // Three parts, five shipments on one page, read once: nothing
                // repays a build.
                &["block SUPPLY: scan — est. 3 evaluations: scan 0.3 µs vs build 0.7 + probes \
                   0.5 µs (chose scan)"]
            };
            assert_eq!(plain, want, "[{name}] faithful_1987={faithful_1987}");
        }
    }
}

/// A temporary over several relations is planned where it runs: nothing
/// rewrites its plan in the transform phase (no `rule …` trace line, no
/// `logical rules` profile node), and under the default shapes the keyed
/// join is an operator node under the temporary's `materialize` node, the
/// restricted input streaming into it — where the literal plans have the
/// key-less join.
#[test]
fn a_temporary_over_two_relations_is_planned_under_its_materialize_node() {
    let db = mem_db();
    // (the join's node, whether P2 is restricted first): the default plans
    // key the join, and price the hash join cheapest on these few rows.
    for (faithful_1987, join, restricted) in
        [(false, "hash join (1 keys)", true), (true, "nested-loop join (0 keys)", false)]
    {
        let unnest = nsql_core::UnnestOptions { faithful_1987, ..Default::default() };
        let o = QueryOptions { unnest, ..opts(&Strategy::Transform) };
        let plain = db.explain_query(Q_MERGED, false, &o).unwrap();
        let analyzed = db.explain_query(Q_MERGED, true, &o).unwrap();
        for report in [&plain, &analyzed] {
            assert!(!report.strategy.iter().any(|l| l.starts_with("rule ")), "{:#?}", report.strategy);
        }
        let obs = analyzed.obs.expect("ANALYZE collects a profile");
        assert!(!obs.profile.iter().any(|root| has_node(root, "logical rules")));
        let temp2 = obs
            .profile
            .iter()
            .find_map(|root| root.find("materialize TEMP2"))
            .unwrap_or_else(|| panic!("{:#?}", obs.profile));
        assert!(has_node(temp2, join), "faithful_1987 = {faithful_1987}: {temp2:#?}");
        // The restriction runs inside the join it streams into: no node of
        // its own, and its line says where its rows went.
        assert!(!has_node(temp2, "restrict+project P2"), "{temp2:#?}");
        let streamed = |l: &String| {
            l.starts_with("restrict+project P2: ") && l.ends_with(&format!("streamed into {join}"))
        };
        assert_eq!(analyzed.strategy.iter().any(streamed), restricted, "{:#?}", analyzed.strategy);
    }
}

fn has_node(node: &nsql_obs::ProfileNode, name: &str) -> bool {
    node.name == name || node.children.iter().any(|c| has_node(c, name))
}

/// A correlated query renders the two-way cost block — both strategies
/// finite, a pick marked — in both reports, for every pinned strategy, and
/// the numbers are identical everywhere (the cost model consults the
/// catalog, not the executor).
#[test]
fn correlated_queries_render_two_way_costs_under_every_strategy() {
    let db = mem_db();
    let mut seen = Vec::new();
    for (name, strategy) in strategies() {
        let o = opts(&strategy);
        for analyze in [false, true] {
            let report = db.explain_query(Q2, analyze, &o).unwrap();
            let sc = report.strategy_costs.unwrap_or_else(|| {
                panic!("[{name}, analyze={analyze}] correlated query lost its strategy costs")
            });
            for kind in [StrategyKind::NestedIteration, StrategyKind::Transform] {
                assert!(
                    sc.of(kind).is_finite() && sc.of(kind) >= 0.0,
                    "[{name}] {} cost must be a finite non-negative page count",
                    kind.name()
                );
            }
            let rendered = report.render_lines().join("\n");
            assert!(
                rendered.contains("strategy costs (two-way, page I/Os):"),
                "[{name}] rendered report lost the cost block"
            );
            assert!(
                rendered.contains(&format!("planner pick: {}", sc.pick().name())),
                "[{name}] rendered report lost the planner pick"
            );
            seen.push((sc.of(StrategyKind::NestedIteration), sc.pick()));
        }
    }
    // The cost block is a property of the query and catalog, not of the
    // pinned strategy or of whether the query ran.
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "two-way costs drifted across strategies/analyze: {seen:?}"
    );
}

/// An uncorrelated (type-A) query is still nested, so it still renders the
/// two-way block, finite and present. A flat query renders none.
#[test]
fn uncorrelated_nested_queries_render_costs_flat_queries_do_not() {
    let db = mem_db();
    for (name, strategy) in strategies() {
        let o = opts(&strategy);
        for analyze in [false, true] {
            let report = db.explain_query(Q_TYPE_A, analyze, &o).unwrap();
            let sc = report.strategy_costs.unwrap_or_else(|| {
                panic!("[{name}, analyze={analyze}] uncorrelated nested query lost its cost block")
            });
            for kind in [StrategyKind::NestedIteration, StrategyKind::Transform] {
                assert!(
                    sc.of(kind).is_finite() && sc.of(kind) >= 0.0,
                    "[{name}] {} cost must be a finite non-negative page count",
                    kind.name()
                );
            }

            let flat = db.explain_query(Q_FLAT, analyze, &o).unwrap();
            assert!(
                flat.strategy_costs.is_none(),
                "[{name}, analyze={analyze}] flat query grew a cost block"
            );
        }
    }
}

/// The JSON export of EXPLAIN ANALYZE keeps its schema for one query of
/// each transformable nesting type: every top-level key, every node key of
/// the profile tree and every per-operator key on its operator nodes
/// survive a round trip through the in-tree parser, the decision names the
/// algorithm the type calls for, the strategy costs name both strategies and
/// the pick, and a type-JA report prices all four Section-7 join-method
/// variants.
#[test]
fn analyze_json_keeps_its_schema_for_every_nesting_type() {
    use nsql_obs::Json;
    let db = mem_db();
    let cases = [
        (
            "type-N",
            "SELECT PNUM FROM PARTS WHERE QOH IN \
             (SELECT QUAN FROM SUPPLY WHERE SHIPDATE < 1-1-80)",
            "NEST-N-J",
        ),
        (
            "type-J",
            "SELECT PNUM FROM PARTS WHERE QOH IN \
             (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
            "NEST-N-J",
        ),
        ("type-JA", Q2, "NEST-JA2"),
    ];
    for (name, sql, algorithm) in cases {
        let report = db.explain_query(sql, true, &QueryOptions::default()).unwrap();
        let json = Json::parse(&report.to_json().to_string())
            .unwrap_or_else(|e| panic!("[{name}] exporter emitted unparseable JSON: {e}"));
        let require = |j: &Json, key: &str| {
            j.get(key).unwrap_or_else(|| panic!("[{name}] JSON lost key `{key}`")).clone()
        };
        for key in [
            "sql", "analyze", "chosen", "tree", "strategy", "predicted", "strategy_costs", "io",
            "rows", "obs",
        ] {
            require(&json, key);
        }
        let costs = require(&json, "strategy_costs");
        for key in ["nested_iteration", "transform", "pick"] {
            require(&costs, key);
        }
        assert!(costs.get("batched").is_none(), "[{name}] {costs}");
        assert_eq!(require(&json, "analyze"), Json::Bool(true), "[{name}] analyze flag");
        let chosen = require(&json, "chosen");
        assert!(
            chosen.as_str().is_some_and(|c| c.contains(algorithm)),
            "[{name}] chose {chosen}, want {algorithm}"
        );
        // One tree: every node keeps the span keys, and the operator nodes
        // among them keep the per-operator keys.
        let obs = require(&json, "obs");
        let roots = require(&obs, "profile");
        let mut stack: Vec<Json> = roots.as_arr().expect("profile is an array").to_vec();
        assert!(!stack.is_empty(), "[{name}] no lifecycle spans recorded");
        let mut operators = 0;
        while let Some(node) = stack.pop() {
            require(&node, "name");
            require(&node, "wall_ns");
            let io = require(&node, "io");
            for key in ["reads", "writes", "hits", "misses"] {
                require(&io, key);
            }
            let op = require(&node, "op");
            if op != Json::Null {
                operators += 1;
                for key in ["rows_in", "rows_out", "build_ns", "probe_ns"] {
                    require(&op, key);
                }
                assert!(op.get("morsels_per_worker").is_none(), "[{name}] {op}");
            }
            stack.extend(require(&node, "children").as_arr().expect("children is an array").to_vec());
        }
        assert!(operators > 0, "[{name}] no per-operator metrics");
        if name == "type-JA" {
            let predicted = require(&json, "predicted");
            let predicted = predicted.as_arr().expect("predicted is an array");
            assert_eq!(predicted.len(), 4, "[{name}] want 4 Section-7 cost variants");
            for p in predicted {
                for key in [
                    "temp_method", "final_method", "outer_projection", "temp_creation",
                    "final_join", "total",
                ] {
                    require(p, key);
                }
            }
        }
    }
}

/// Under the default shapes every intermediate's line says where its rows
/// went — written, held for the consumer that holds them anyway, or
/// streamed into the one that reads a restriction as it runs — and a
/// hash join that partitions names the bytes of the narrowed rows it
/// spills on its operator line. The literal plans write every temporary
/// and their lines say only what they hold.
#[test]
fn every_intermediate_says_where_its_rows_went() {
    let db = mem_db();
    let intermediate = |l: &&String| {
        let named = ["restrict+project ", "materialize ", "join "].iter().any(|p| l.starts_with(p));
        named && l.contains(" tuples, ")
    };
    for q in [Q_RESTRICTED, Q_MERGED] {
        for faithful_1987 in [false, true] {
            let unnest = nsql_core::UnnestOptions { faithful_1987, ..Default::default() };
            let o = QueryOptions { unnest, ..opts(&Strategy::Transform) };
            let report = db.explain_query(q, true, &o).unwrap();
            let lines: Vec<&String> = report.strategy.iter().filter(intermediate).collect();
            assert!(!lines.is_empty(), "{:#?}", report.strategy);
            for l in lines {
                let ends = [", written", ", held for ", ", streamed into "];
                let says = ends.iter().any(|end| l.contains(end));
                assert_eq!(says, !faithful_1987, "{l}");
            }
        }
    }

    // Thirty 34-byte rows a side on 128-byte pages: ten pages each against
    // a 4-page pool, so the forced hash join partitions, spilling `A.K, A.X`
    // (2 + 16 bytes) and `B.K` (2 + 8). No partition count leaves a page of
    // that pool to a resident table: the pass is Grace's, three ways (the
    // line said `, 3 partitions` before the pass was hybrid).
    let mut db = Database::with_storage(4, 128);
    let rows = |n: i64| {
        let rows: Vec<String> = (0..n).map(|i| format!("({}, {i}, {i}, {i})", i % 7)).collect();
        rows.join(", ")
    };
    let script = format!(
        "CREATE TABLE A (K INT, X INT, Y INT, Z INT); CREATE TABLE B (K INT, X INT, Y INT, Z INT);
         INSERT INTO A VALUES {}; INSERT INTO B VALUES {};",
        rows(30),
        rows(30)
    );
    db.execute_script(&script).unwrap();
    let join_policy = nsql_db::JoinPolicy::ForceHashJoin;
    let o = QueryOptions { join_policy, ..opts(&Strategy::Transform) };
    let report = db.explain_query("SELECT A.X FROM A, B WHERE A.K = B.K", true, &o).unwrap();
    let line = "hash join (1 keys), build right, 3 partitions spilled, 0 of 10 pages resident";
    assert!(report.strategy.iter().any(|l| l == line), "{:#?}", report.strategy);
    let obs = report.obs.expect("ANALYZE collects a profile");
    let node = "hash join (1 keys), partition rows 18 + 10 bytes";
    assert!(obs.profile.iter().any(|root| has_node(root, node)), "{:#?}", obs.profile);
}

/// A restricted input the hash join builds on fixes its split as it runs,
/// and the join's operator node says what ran: the bytes of a partition
/// row of each side where its table overflowed and the pass split, nothing
/// where the table fit, whatever the choice priced at the input's bound
/// expected.
#[test]
fn a_streamed_build_side_names_the_partition_rows_it_spilled() {
    // Sixty 34-byte rows of A to thirty of B on 128-byte pages: twenty
    // pages to ten, against a 4-page pool.
    let mut db = Database::with_storage(4, 128);
    let rows = |n: i64| {
        let rows: Vec<String> = (0..n).map(|i| format!("({}, {i}, {i}, {i})", i % 7)).collect();
        rows.join(", ")
    };
    let script = format!(
        "CREATE TABLE A (K INT, X INT, Y INT, Z INT); CREATE TABLE B (K INT, X INT, Y INT, Z INT);
         INSERT INTO A VALUES {}; INSERT INTO B VALUES {};",
        rows(60),
        rows(30)
    );
    db.execute_script(&script).unwrap();
    let join_policy = nsql_db::JoinPolicy::ForceHashJoin;
    let o = QueryOptions { join_policy, ..opts(&Strategy::Transform) };
    for (below, split) in [(3, false), (30, true)] {
        let sql = format!("SELECT A.X FROM A, B WHERE A.K = B.K AND B.Y < {below}");
        let report = db.explain_query(&sql, true, &o).unwrap();
        let streamed = "restrict+project B: ";
        let line = report.strategy.iter().find(|l| l.starts_with(streamed));
        let line = line.unwrap_or_else(|| panic!("{:#?}", report.strategy));
        assert!(line.ends_with(", streamed into hash join (1 keys)"), "{line}");
        let join = report.strategy.iter().find(|l| l.starts_with("hash join (1 keys), build"));
        let join = join.unwrap_or_else(|| panic!("{:#?}", report.strategy));
        assert_eq!(join.contains("spilled"), split, "{join}");
        let obs = report.obs.expect("ANALYZE collects a profile");
        let any = |is: &dyn Fn(&ProfileNode) -> bool| obs.profile.iter().any(|n| find_node(n, is));
        let named = any(&|n| n.name.starts_with("hash join (1 keys), partition rows "));
        assert_eq!(named, split, "{join}: {:#?}", obs.profile);
        let plain = any(&|n| n.name == "hash join (1 keys)");
        assert_eq!(plain, !split, "{join}: {:#?}", obs.profile);
    }
}

/// Whether `node` or a node below it is one `is` accepts.
fn find_node(node: &ProfileNode, is: &dyn Fn(&ProfileNode) -> bool) -> bool {
    is(node) || node.children.iter().any(|c| find_node(c, is))
}
