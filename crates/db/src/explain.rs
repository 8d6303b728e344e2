//! `EXPLAIN` / `EXPLAIN ANALYZE` reports.
//!
//! An [`ExplainReport`] places the *transform decision* (which unnesting
//! algorithm fired and why, via the Figure-2 query tree and the NEST-G
//! trace) next to the *Section-7 predicted costs* — all four NEST-JA2
//! method combinations plus the nested-iteration baseline — and, under
//! `ANALYZE`, the *measured* profile: one tree from the lifecycle phases
//! down to the operators, each node with wall time and pages, operators
//! with rows.
//!
//! Predicted costs use measured temporary sizes when the query actually
//! ran (`ANALYZE`); plain `EXPLAIN` falls back to crude upper bounds from
//! catalog page counts (`Pt2 ≤ Pi`, `Pt3 ≤ Pj`), mirroring what an
//! optimizer without statistics would assume.

use crate::options::{QueryOptions, Strategy};
use crate::{Catalog, Database, Result};
use nsql_analyzer::{query_tree, NestingType};
use nsql_engine::cost::{
    ja2_costs, nested_iteration_cost_j, transformed_merge_join_cost, Ja2Cost, Ja2Params,
    JoinMethod, StrategyCosts, StrategyKind,
};
use nsql_engine::nested_iter::BlockAccess;
use nsql_engine::{NestedIter, TableProvider};
use nsql_index::BTreeIndex;
use nsql_obs::{Json, ProfileNode};
use nsql_sql::QueryBlock;
use nsql_storage::{HeapFile, IoStats};
use std::sync::Arc;

/// Size of one materialized temporary, reported by the plan executor.
#[derive(Debug, Clone)]
pub struct TempStat {
    /// Temporary table name (e.g. `TEMP1`).
    pub name: String,
    /// Tuple count.
    pub tuples: usize,
    /// Page count.
    pub pages: usize,
}

/// Observability data collected during one observed query execution.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// The query's profile: the lifecycle phases (parse → analyze →
    /// transform → execute) as root nodes, each with wall time and page-I/O
    /// delta, the physical operators nested under the phase that ran them.
    pub profile: Vec<ProfileNode>,
}

impl ObsReport {
    /// JSON form: `{profile: [node, ..]}`, node as in
    /// [`ProfileNode::to_json`].
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "profile",
            Json::Arr(self.profile.iter().map(ProfileNode::to_json).collect()),
        )])
    }
}

/// Section-7 cost of NEST-JA2 under one of the four method combinations.
#[derive(Debug, Clone, Copy)]
pub struct PredictedCost {
    /// Join method at the temporary-creation join (step 2).
    pub temp_method: JoinMethod,
    /// Join method at the final join (step 3).
    pub final_method: JoinMethod,
    /// Page I/Os of the three steps.
    pub cost: Ja2Cost,
}

impl PredictedCost {
    /// Total predicted page I/Os.
    pub fn total(&self) -> f64 {
        self.cost.total()
    }

    /// One-line rendering for EXPLAIN output.
    pub fn render(&self) -> String {
        format!(
            "NEST-JA2 [temp={}, final={}]: {:.1} + {:.1} + {:.1} = {:.1}",
            self.temp_method.name(),
            self.final_method.name(),
            self.cost.outer_projection,
            self.cost.temp_creation,
            self.cost.final_join,
            self.total()
        )
    }

    /// JSON form with the step breakdown.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("temp_method", Json::str(self.temp_method.name())),
            ("final_method", Json::str(self.final_method.name())),
            ("outer_projection", Json::num(self.cost.outer_projection)),
            ("temp_creation", Json::num(self.cost.temp_creation)),
            ("final_join", Json::num(self.cost.final_join)),
            ("total", Json::num(self.total())),
        ])
    }
}

/// A full `EXPLAIN` / `EXPLAIN ANALYZE` report.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The query, printed back in canonical dialect form.
    pub sql: String,
    /// Whether the query was executed (`EXPLAIN ANALYZE`).
    pub analyze: bool,
    /// Rendered Figure-2 query tree with per-block classification.
    pub tree: String,
    /// The transformation algorithm that fired (e.g. `NEST-JA2`).
    pub chosen: String,
    /// Strategy, transformation trace, canonical form, and physical-join
    /// log lines, in decision order.
    pub strategy: Vec<String>,
    /// Section-7 predicted costs for the four NEST-JA2 method
    /// combinations. Empty unless the query tree contains type-JA nesting.
    pub predicted: Vec<PredictedCost>,
    /// Worst-case nested-iteration cost of the same query (the paper's
    /// baseline), when the tree has a correlated (J/JA) block.
    pub predicted_nested_iteration: Option<f64>,
    /// Predicted cost of each executable strategy — nested iteration and
    /// transform — plus the planner's pick, for every nested
    /// query (correlated or not; `None` only for flat queries, which have
    /// no strategy choice). Rendered whatever strategy the options pin,
    /// so EXPLAIN always shows what the cost model *would* choose.
    pub strategy_costs: Option<StrategyCosts>,
    /// Measured page I/O (ANALYZE only).
    pub io: Option<IoStats>,
    /// Result cardinality (ANALYZE only).
    pub rows: Option<usize>,
    /// The profile tree (ANALYZE only).
    pub obs: Option<ObsReport>,
}

impl ExplainReport {
    /// Render the report as indented text lines — the body of the
    /// relation `EXPLAIN` returns and the CLI's output.
    pub fn render_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "{}: {}",
            if self.analyze { "EXPLAIN ANALYZE" } else { "EXPLAIN" },
            self.sql
        ));
        out.push("query tree:".to_string());
        for l in self.tree.lines() {
            out.push(format!("  {l}"));
        }
        out.push(format!("transform decision: {}", self.chosen));
        for l in &self.strategy {
            out.push(format!("  · {l}"));
        }
        if !self.predicted.is_empty() || self.predicted_nested_iteration.is_some() {
            out.push("predicted cost (Section 7 model, page I/Os):".to_string());
            if let Some(ni) = self.predicted_nested_iteration {
                out.push(format!("  nested iteration (worst case): {ni:.1}"));
            }
            let best = self
                .predicted
                .iter()
                .map(PredictedCost::total)
                .fold(f64::INFINITY, f64::min);
            for p in &self.predicted {
                let marker = if p.total() == best { "  * " } else { "    " };
                out.push(format!("{marker}{}", p.render()));
            }
        }
        if let Some(sc) = &self.strategy_costs {
            out.push("strategy costs (two-way, page I/Os):".to_string());
            let pick = sc.pick();
            for kind in [StrategyKind::NestedIteration, StrategyKind::Transform] {
                let marker = if kind == pick { "  * " } else { "    " };
                out.push(format!("{marker}{}: {:.1}", kind.name(), sc.of(kind)));
            }
            out.push(format!("planner pick: {}", pick.name()));
        }
        if self.analyze {
            out.push("measured:".to_string());
            if let (Some(io), Some(rows)) = (&self.io, self.rows) {
                out.push(format!("  rows: {rows}, io: {io}"));
            }
            if let Some(obs) = &self.obs {
                for node in &obs.profile {
                    node.render_into(1, &mut out);
                }
            }
        }
        out
    }

    /// Machine-readable form (schema pinned by `tests/explain_parity.rs`).
    pub fn to_json(&self) -> Json {
        let io = match &self.io {
            Some(io) => Json::obj([
                ("reads", Json::num(io.reads as f64)),
                ("writes", Json::num(io.writes as f64)),
                ("total", Json::num(io.total() as f64)),
            ]),
            None => Json::Null,
        };
        let obs = self.obs.as_ref().map(ObsReport::to_json).unwrap_or(Json::Null);
        Json::obj([
            ("sql", Json::str(&self.sql)),
            ("analyze", Json::Bool(self.analyze)),
            ("chosen", Json::str(&self.chosen)),
            ("tree", Json::str(&self.tree)),
            (
                "strategy",
                Json::Arr(self.strategy.iter().map(|s| Json::str(s)).collect()),
            ),
            (
                "predicted",
                Json::Arr(self.predicted.iter().map(PredictedCost::to_json).collect()),
            ),
            (
                "predicted_nested_iteration",
                match self.predicted_nested_iteration {
                    Some(c) => Json::num(c),
                    None => Json::Null,
                },
            ),
            (
                "strategy_costs",
                match &self.strategy_costs {
                    Some(sc) => Json::obj([
                        ("nested_iteration", Json::num(sc.of(StrategyKind::NestedIteration))),
                        ("transform", Json::num(sc.of(StrategyKind::Transform))),
                        ("pick", Json::str(sc.pick().name())),
                    ]),
                    None => Json::Null,
                },
            ),
            ("io", io),
            (
                "rows",
                match self.rows {
                    Some(r) => Json::num(r as f64),
                    None => Json::Null,
                },
            ),
            ("obs", obs),
        ])
    }
}

impl Database {
    /// Build an `EXPLAIN` (`analyze = false`) or `EXPLAIN ANALYZE`
    /// (`analyze = true`) report for one SELECT under `opts`.
    pub fn explain_query(
        &self,
        sql: &str,
        analyze: bool,
        opts: &QueryOptions,
    ) -> Result<ExplainReport> {
        let q = nsql_sql::parse_query(sql)?;
        self.explain_block(&q, analyze, opts)
    }

    /// [`explain_query`](Database::explain_query) over a parsed block
    /// (the `EXPLAIN` statement path).
    pub fn explain_block(
        &self,
        q: &QueryBlock,
        analyze: bool,
        opts: &QueryOptions,
    ) -> Result<ExplainReport> {
        let tree = query_tree(self.catalog(), q)?;
        let is_ja = tree.contains(NestingType::TypeJA);
        let correlated = is_ja || tree.contains(NestingType::TypeJ);

        // Run (ANALYZE) or transform-only (plain EXPLAIN).
        let (strategy, temps, io, rows, obs) = if analyze {
            let run_opts = QueryOptions { observe: true, ..opts.clone() };
            let out = self.run_query(q, &run_opts)?;
            (out.explain, out.temps, Some(out.io), Some(out.relation.len()), out.obs)
        } else {
            // Plain EXPLAIN opens with the header lines an ANALYZE run would.
            let strategy = match opts.strategy {
                Strategy::NestedIteration => {
                    let mut lines = header_lines(opts, 0);
                    lines.extend(self.access_paths(q, opts)?.into_iter().map(|a| a.line));
                    lines
                }
                Strategy::Transform | Strategy::Auto => {
                    let plan = nsql_core::transform_query(self.catalog(), q, &opts.unnest)?;
                    let mut lines = header_lines(opts, plan.temp_count());
                    lines.extend(plan.trace.clone());
                    lines.push(format!(
                        "canonical: {}",
                        nsql_sql::print_query(&plan.canonical)
                    ));
                    lines
                }
            };
            (strategy, Vec::new(), None, None, None)
        };

        let chosen = match opts.strategy {
            Strategy::NestedIteration => "nested iteration (System R baseline)".to_string(),
            Strategy::Transform | Strategy::Auto => chosen_from_trace(&strategy),
        };

        // The first nested block and its Section-7 parameters, derived once
        // for the three renderings below.
        let inner = first_subquery(q);
        let params = inner.and_then(|inner| self.ja2_params_for(q, inner, &temps));
        let predicted = params
            .filter(|_| is_ja)
            .map(|p| ja2_costs(&p))
            .unwrap_or_default()
            .into_iter()
            .map(|(temp_method, final_method, cost)| PredictedCost {
                temp_method,
                final_method,
                cost,
            })
            .collect();
        let predicted_nested_iteration = params
            .filter(|_| correlated)
            .map(|p| nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni));
        // Every nested query gets the two-way comparison, uncorrelated
        // blocks too. Flat queries have no strategy choice and render no
        // block.
        let strategy_costs = inner
            .zip(params)
            .and_then(|(inner, p)| self.strategy_costs_for(q, inner, &p, is_ja, opts));

        Ok(ExplainReport {
            sql: nsql_sql::print_query(q),
            analyze,
            tree: tree.render(),
            chosen,
            strategy,
            predicted,
            predicted_nested_iteration,
            strategy_costs,
            io,
            rows,
            obs,
        })
    }

    /// What nested iteration under `opts` would do with each correlated block
    /// of `q`, asked of the evaluator itself — over a view of the catalog
    /// that keeps no access statistics, since planning scans nothing.
    fn access_paths<'q>(
        &self,
        q: &'q QueryBlock,
        opts: &QueryOptions,
    ) -> Result<Vec<BlockAccess<'q>>> {
        struct Unobserved<'c>(&'c Catalog);
        impl TableProvider for Unobserved<'_> {
            fn get_table(&self, table: &str) -> Option<HeapFile> {
                // (The statistics views are not catalog tables; they are
                // served, uncounted themselves, by the counting seam.)
                self.0.table(table).cloned().or_else(|| self.0.get_table(table))
            }

            fn get_indexes(&self, table: &str) -> Vec<Arc<BTreeIndex>> {
                self.0.get_indexes(table)
            }
        }
        let tables = Unobserved(self.catalog());
        let evaluator = NestedIter::new(&tables, self.storage().clone())
            .with_faithful(opts.unnest.faithful_1987);
        Ok(evaluator.access_paths(q)?)
    }

    /// Section-7 parameters for `inner_block`, the (first) nested block of
    /// `q`. Measured temporary sizes are used when available (`ANALYZE`);
    /// otherwise the crude statistics-free upper bounds `Pt2 ≤ Pi`,
    /// `Pt3 ≤ Pj`.
    fn ja2_params_for(
        &self,
        q: &QueryBlock,
        inner_block: &QueryBlock,
        temps: &[TempStat],
    ) -> Option<Ja2Params> {
        let outer = self.catalog().table(&q.from.first()?.table)?;
        let inner = self.catalog().table(&inner_block.from.first()?.table)?;
        let pi = outer.page_count() as f64;
        let pj = inner.page_count() as f64;
        let fi_ni = outer.tuple_count() as f64;
        let b = self.storage().buffer_pages() as f64;
        // The three NEST-JA2 temporaries in creation order map onto the
        // paper's Rt2, Rt3, Rt; Rt4 is never materialized here (the GROUP
        // BY is fused onto the join), so it is bounded by its inputs.
        let mut sorted: Vec<&TempStat> = temps.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let (pt2, nt2, pt3, pt) = match sorted.as_slice() {
            [t1, t2, t3, ..] => (
                t1.pages as f64,
                t1.tuples as f64,
                t2.pages as f64,
                t3.pages as f64,
            ),
            _ => (pi, fi_ni, pj, pi),
        };
        let pt4 = pt3.max(pt);
        Some(Ja2Params { pi, pj, pt2, nt2, pt3, pt4, pt, b, fi_ni, ri_sorted: false })
    }

    /// Predicted cost of both executable strategies on `inner_block`, `q`'s
    /// (first) nested block, with Section-7 parameters `p`. Transform is the
    /// cheapest NEST-JA2 method combination for type-JA shapes and the
    /// canonical merge join otherwise.
    fn strategy_costs_for(
        &self,
        q: &QueryBlock,
        inner_block: &QueryBlock,
        p: &Ja2Params,
        is_ja: bool,
        opts: &QueryOptions,
    ) -> Option<StrategyCosts> {
        // What nested iteration would do to the block: the evaluator's own
        // arithmetic (`nested_access_costs`) where it has a choice, the
        // paper's worst case where it has none — a block that cannot probe,
        // an uncorrelated one, any block under the 1987 switch.
        let access = self.access_paths(q, opts).ok()?;
        let nested_iteration = access
            .iter()
            .find(|a| std::ptr::eq(a.block, inner_block))
            .and_then(|a| a.costs)
            .map_or_else(
                || nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni),
                |costs| p.pi + costs.chosen(),
            );
        let transform = if is_ja {
            ja2_costs(p).iter().map(|(_, _, c)| c.total()).fold(f64::INFINITY, f64::min)
        } else {
            transformed_merge_join_cost(p.pi, p.pj, p.b)
        };
        Some(StrategyCosts { nested_iteration, transform })
    }
}

/// The decision lines every report opens with — strategy, plan shapes, exec
/// mode — built here for plain `EXPLAIN` and for the executing path alike,
/// so the two cannot drift. `temps` is the transform plan's temporary
/// count; the correlated strategies ignore it.
pub(crate) fn header_lines(opts: &QueryOptions, temps: usize) -> Vec<String> {
    let mut lines = vec![match opts.strategy {
        Strategy::NestedIteration => "strategy: nested iteration (System R)".to_string(),
        Strategy::Transform | Strategy::Auto => format!(
            "strategy: transform ({temps} temp table{}), join policy: {}",
            if temps == 1 { "" } else { "s" },
            opts.join_policy.name()
        ),
    }];
    if matches!(opts.strategy, Strategy::Transform | Strategy::Auto) {
        lines.push(format!("plan shapes: {}", plan_shapes(opts)));
    }
    lines
}

/// What the one switch `unnest.faithful_1987` selects, as EXPLAIN names it.
fn plan_shapes(opts: &QueryOptions) -> &'static str {
    if opts.unnest.faithful_1987 {
        "literal (1987)"
    } else {
        "restricted inputs"
    }
}

/// Name the algorithm that fired, from the NEST-G trace.
fn chosen_from_trace(lines: &[String]) -> String {
    let has = |pat: &str| lines.iter().any(|l| l.contains(pat));
    if has("NEST-JA2") {
        "NEST-JA2 (Ganski-Wong)".to_string()
    } else if has("Kim") {
        "NEST-JA (Kim original, known COUNT bug)".to_string()
    } else if has("type-J nesting") {
        "NEST-N-J (type-J)".to_string()
    } else if has("type-N nesting") {
        "NEST-N-J (type-N)".to_string()
    } else if has("type-A") {
        "type-A constant folding".to_string()
    } else {
        "none (query already flat)".to_string()
    }
}

/// First subquery block reachable from `q`'s WHERE clause.
fn first_subquery(q: &QueryBlock) -> Option<&QueryBlock> {
    q.child_blocks().into_iter().next()
}
