//! The `Database` facade.

use crate::catalog::Catalog;

use crate::explain::{header_lines, ObsReport, TempStat};
use crate::options::{QueryOptions, Strategy};
use crate::plan_exec::{observed, PlanExecutor};
use crate::Result;
use nsql_analyzer::{query_fingerprint, query_tree, validate_query, QueryTree};
use nsql_core::{transform_query, transform_query_traced, TransformPlan, UnnestOptions};
use nsql_engine::{Exec, NestedIter};
use nsql_obs::stats::{SlowQuery, StatementSample, StatsRegistry};
use nsql_obs::{IoDelta, Profile, ProfileNode};
use nsql_sql::{parse_statements, QueryBlock, Statement};
use nsql_storage::{IoStats, RecoveryReport, Storage};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Result of a query plus its observability data.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The rows.
    pub relation: Relation,
    /// Page I/Os consumed by this query (reads + writes).
    pub io: IoStats,
    /// EXPLAIN-style description: transformation trace, temp-table sizes,
    /// and physical join decisions.
    pub explain: Vec<String>,
    /// Sizes of the materialized temporaries (transform strategy only) —
    /// the measured inputs to the Section-7 cost comparison.
    pub temps: Vec<TempStat>,
    /// The query's profile tree, when [`QueryOptions::observe`] was set.
    pub obs: Option<ObsReport>,
}

/// What [`Database::open`] found and did while bringing a file-backed
/// database back up: the storage layer's crash-recovery report, catalog
/// shape, and the recovery lifecycle profile.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// WAL/page-file recovery outcome from the storage layer.
    pub recovery: RecoveryReport,
    /// Tables restored from the committed catalog snapshot.
    pub tables: usize,
    /// B+tree indexes restored from the snapshot.
    pub indexes: usize,
    /// Lifecycle spans: `"open"` with children `"open: recover store"` and
    /// `"open: restore catalog"`.
    pub spans: Vec<ProfileNode>,
}

/// An embedded single-session database over the simulated storage engine.
pub struct Database {
    catalog: Catalog,
    open_report: Option<OpenReport>,
}

impl Database {
    /// In-memory database over a default-sized storage (`B = 6` buffer
    /// pages, 512-byte pages). [`Database::open`] is the file-backed one;
    /// page-I/O counts are identical on the two by construction.
    pub fn new() -> Database {
        Database { catalog: Catalog::new(Storage::with_defaults()), open_report: None }
    }

    /// In-memory database with an explicit buffer size and page size.
    pub fn with_storage(buffer_pages: usize, page_size: usize) -> Database {
        Database { catalog: Catalog::new(Storage::new(buffer_pages, page_size)), open_report: None }
    }

    /// Open (or create) a file-backed database rooted at `dir` with default
    /// buffer/page sizes, running crash recovery and restoring the catalog
    /// from the last committed snapshot.
    pub fn open(dir: &Path) -> Result<Database> {
        Self::open_with(
            nsql_storage::DEFAULT_BUFFER_PAGES,
            nsql_storage::DEFAULT_PAGE_SIZE,
            dir,
        )
    }

    /// [`Database::open`] with explicit buffer and page sizes. (`page_size`
    /// only seeds a fresh store; an existing store keeps its recorded page
    /// size.) The [`OpenReport`] is retained on the database —
    /// [`Database::open_report`].
    pub fn open_with(
        buffer_pages: usize,
        page_size: usize,
        dir: &Path,
    ) -> Result<Database> {
        // Wall time only: there is no store to probe until it is recovered.
        let profile = Profile::with_probe(IoDelta::default);
        let outer = profile.begin("open");
        let span = profile.begin("open: recover store");
        let (storage, recovery) = Storage::file_backed(buffer_pages, page_size, dir)
            .map_err(|e| crate::error::DbError::Engine(e.into()))?;
        profile.end(span);
        let span = profile.begin("open: restore catalog");
        let snapshot = storage.durable().and_then(|s| s.committed_meta());
        let catalog = Catalog::restore(storage, snapshot.as_deref())?;
        profile.end(span);
        profile.end(outer);
        let report = OpenReport {
            recovery,
            tables: catalog.table_names().len(),
            indexes: catalog.index_count(),
            spans: profile.finish(),
        };
        Ok(Database { catalog, open_report: Some(report) })
    }

    /// The recovery/restore report, when this database came up via
    /// [`Database::open`].
    pub fn open_report(&self) -> Option<&OpenReport> {
        self.open_report.as_ref()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (bulk-loading fixtures and workloads).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The storage handle (I/O counters, buffer control).
    pub fn storage(&self) -> &Storage {
        self.catalog.storage()
    }

    /// The engine-wide cumulative statistics registry (shared with the
    /// catalog, which serves it through the `nsql_stat_*` system views).
    pub fn stats(&self) -> Arc<StatsRegistry> {
        self.catalog.stats_registry()
    }

    /// Run a `;`-separated SQL script: `CREATE TABLE` / `INSERT` /
    /// `SELECT`. Returns the result of the last SELECT, if any; SELECTs use
    /// the default (transform, cost-based) options.
    pub fn execute_script(&mut self, sql: &str) -> Result<Option<Relation>> {
        let mut last = None;
        for stmt in parse_statements(sql)? {
            match stmt {
                Statement::CreateTable { name, columns } => {
                    let schema = Schema::new(
                        columns.iter().map(|(n, t)| Column::new(n, *t)).collect(),
                    );
                    self.catalog.create_table(&name, schema)?;
                }
                Statement::Insert { table, rows } => {
                    let tuples: Vec<Tuple> =
                        rows.into_iter().map(Tuple::new).collect();
                    self.catalog.insert(&table, tuples)?;
                }
                Statement::Select(q) => {
                    last = Some(self.run_query(&q, &QueryOptions::default())?.relation);
                }
                Statement::Explain { analyze, query } => {
                    let report =
                        self.explain_block(&query, analyze, &QueryOptions::default())?;
                    let rows: Vec<Tuple> = report
                        .render_lines()
                        .into_iter()
                        .map(|l| Tuple::new(vec![Value::Str(l)]))
                        .collect();
                    let schema =
                        Schema::new(vec![Column::new("EXPLAIN", ColumnType::Str)]);
                    last = Some(Relation::new(schema, rows)?);
                }
            }
        }
        Ok(last)
    }

    /// Run one SELECT with default options.
    pub fn query(&self, sql: &str) -> Result<Relation> {
        Ok(self.query_with(sql, &QueryOptions::default())?.relation)
    }

    /// Run one SELECT under explicit options, reporting I/O and EXPLAIN.
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryOutcome> {
        let profile = self.profile_for(opts);
        let span = profile.begin("parse");
        let q = parse_one_select(sql)?;
        profile.end(span);
        self.run_observed(&q, opts, &profile)
    }

    /// Run a parsed query block under explicit options.
    pub fn run_query(&self, q: &QueryBlock, opts: &QueryOptions) -> Result<QueryOutcome> {
        self.run_observed(q, opts, &self.profile_for(opts))
    }

    /// The profile of one query: disabled unless [`QueryOptions::observe`].
    /// Its I/O probe is a pure load of the storage counters — observation
    /// never perturbs what it measures.
    fn profile_for(&self, opts: &QueryOptions) -> Profile {
        if !opts.observe {
            return Profile::default();
        }
        let storage = self.storage().clone();
        Profile::with_probe(move || {
            let s = storage.io_snapshot();
            IoDelta { reads: s.reads, writes: s.writes, hits: s.hits, misses: s.misses }
        })
    }

    /// Statement-level wrapper around [`Database::run_strategy`]: refreshes
    /// any referenced `nsql_stat_*` views to a consistent snapshot, runs
    /// the query, then folds the completed call (success *or* failure) into
    /// the statistics registry and — past the configured threshold — the
    /// slow-query log. Every observation here is a pure load of storage
    /// counters or registry side-state: counted I/O never moves.
    fn run_observed(
        &self,
        q: &QueryBlock,
        opts: &QueryOptions,
        profile: &Profile,
    ) -> Result<QueryOutcome> {
        let registry = self.catalog.stats_registry();
        if !registry.enabled() {
            let mut refusals = 0;
            return self.run_strategy(q, opts, profile, &mut refusals);
        }
        // One snapshot per statement: every scan of a stat view inside this
        // statement (nested blocks included) sees the same materialization.
        let referenced = q.referenced_tables();
        self.catalog.refresh_stat_views(referenced.iter().map(String::as_str));
        let t0 = Instant::now();
        let io0 = self.catalog.storage().io_snapshot();
        let mut refusals = 0;
        let result = self.run_strategy(q, opts, profile, &mut refusals);
        let micros = t0.elapsed().as_micros() as u64;
        let d = self.catalog.storage().io_snapshot().since(&io0);
        let strategy = opts.strategy.resolve().name().to_string();
        let fingerprint = query_fingerprint(q);
        registry.record_statement(&StatementSample {
            fingerprint: fingerprint.clone(),
            micros,
            reads: d.reads,
            writes: d.writes,
            strategy: strategy.clone(),
            error: result.is_err(),
            refusals,
            ..StatementSample::default()
        });
        if let Some(threshold_us) = opts.slow_query_ms.map(|ms| ms.saturating_mul(1000)) {
            if micros >= threshold_us {
                let explain = match &result {
                    Ok(out) => out.explain.clone(),
                    Err(e) => vec![format!("error: {e}")],
                };
                registry.record_slow(SlowQuery {
                    seq: 0,
                    sql: nsql_sql::print_query(q),
                    fingerprint,
                    micros,
                    strategy,
                    reads: d.reads,
                    writes: d.writes,
                    explain,
                });
            }
        }
        result
    }

    fn run_strategy(
        &self,
        q: &QueryBlock,
        opts: &QueryOptions,
        profile: &Profile,
        refusals: &mut u64,
    ) -> Result<QueryOutcome> {
        let span = profile.begin("analyze");
        let analyzed = validate_query(&self.catalog, q);
        profile.end(span);
        analyzed?;
        let storage = self.catalog.storage();
        if opts.cold_start {
            storage.clear_buffer();
        }
        let before = storage.io_stats();
        let mut temps = Vec::new();
        let (relation, explain) = match opts.strategy {
            Strategy::NestedIteration => self.run_correlated(q, opts, profile)?,
            Strategy::Transform | Strategy::Auto => {
                let span = profile.begin("transform");
                let plan = transform_query_traced(&self.catalog, q, &opts.unnest, profile);
                profile.end(span);
                // A transformation error is a *refusal*: the strategy
                // declined the query shape. The fingerprint aggregates
                // count it separately from ordinary errors.
                let plan = plan.map_err(|e| {
                    *refusals += 1;
                    e
                })?;
                let mut explain = header_lines(opts, plan.temp_count());
                explain.extend(plan.trace.iter().cloned());
                explain.push(format!("canonical: {}", nsql_sql::print_query(&plan.canonical)));
                let exec = Exec::new(storage.clone()).with_obs(profile.clone());
                let mut pe = PlanExecutor::new(exec, &self.catalog, opts.join_policy);
                pe.set_index_use(opts.index_use);
                pe.set_faithful(opts.unnest.faithful_1987);
                let span = profile.begin("execute plan");
                let rel =
                    pe.execute_transform_plan(&plan, plan.needs_distinct_for_semantics);
                profile.end(span);
                let rel = rel?;
                explain.extend(pe.log.iter().cloned());
                temps = pe.temp_stats();
                (rel, explain)
            }
        };
        let io = storage.io_stats().since(&before);
        let obs = opts.observe.then(|| ObsReport { profile: profile.finish() });
        Ok(QueryOutcome { relation, io, explain, temps, obs })
    }

    /// Nested iteration: one row kernel, serial. Returns the rows and the
    /// EXPLAIN lines: the header, then each correlated block's access path.
    fn run_correlated(
        &self,
        q: &QueryBlock,
        opts: &QueryOptions,
        profile: &Profile,
    ) -> Result<(Relation, Vec<String>)> {
        let mut explain = header_lines(opts, 0);
        let evaluator = NestedIter::new(&self.catalog, self.catalog.storage().clone())
            .with_faithful(opts.unnest.faithful_1987)
            .with_obs(profile.clone());
        let access = evaluator.access_paths(q)?;
        let rel = observed(
            profile,
            || "execute: nested iteration".to_string(),
            0,
            |rel: &Relation| rel.len() as u64,
            || evaluator.eval_query(q),
        );
        explain.extend(access.into_iter().map(|a| a.line));
        Ok((rel?, explain))
    }

    /// Transform a query under `unnest` without executing it (EXPLAIN-only).
    pub fn plan(&self, sql: &str, unnest: &UnnestOptions) -> Result<TransformPlan> {
        let q = parse_one_select(sql)?;
        validate_query(&self.catalog, &q)?;
        Ok(transform_query(&self.catalog, &q, unnest)?)
    }

    /// The Figure-2 query tree of a SQL query.
    pub fn query_tree(&self, sql: &str) -> Result<QueryTree> {
        let q = parse_one_select(sql)?;
        Ok(query_tree(&self.catalog, &q)?)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

fn parse_one_select(sql: &str) -> Result<QueryBlock> {
    Ok(nsql_sql::parse_query(sql)?)
}

/// Convenience constructor for building schemas in examples and tests.
pub fn col(name: &str, ty: ColumnType) -> Column {
    Column::new(name, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::options::JoinPolicy;

    fn kiessling_db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE PARTS (PNUM INT, QOH INT);
             CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
             INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
             INSERT INTO SUPPLY VALUES
               (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
               (10, 2, 8-10-81), (8, 5, 5-7-83);",
        )
        .unwrap();
        db
    }

    const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
        (SELECT COUNT(SHIPDATE) FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

    /// The operator nodes of a profile, wherever they nest, with their
    /// counters.
    fn operators(obs: &ObsReport) -> Vec<(&ProfileNode, &nsql_obs::OpStats)> {
        let mut stack: Vec<&ProfileNode> = obs.profile.iter().collect();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.extend(n.op.as_ref().map(|op| (n, op)));
            stack.extend(&n.children);
        }
        out
    }

    #[test]
    fn script_roundtrip() {
        let db = kiessling_db();
        let r = db.query("SELECT PNUM FROM PARTS WHERE QOH > 0").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn nested_iteration_matches_paper() {
        let db = kiessling_db();
        let out = db.query_with(Q2, &QueryOptions::nested_iteration()).unwrap();
        let mut vals: Vec<String> =
            out.relation.tuples().iter().map(|t| t.get(0).to_string()).collect();
        vals.sort();
        assert_eq!(vals, vec!["10", "8"]);
        assert!(out.io.total() > 0, "I/O must be accounted");
    }

    #[test]
    fn ja2_transform_matches_nested_iteration_on_q2() {
        let db = kiessling_db();
        let ni = db.query_with(Q2, &QueryOptions::nested_iteration()).unwrap();
        for policy in [
            JoinPolicy::ForceNestedLoop,
            JoinPolicy::ForceMergeJoin,
            JoinPolicy::CostBased,
        ] {
            let opts = QueryOptions {
                strategy: Strategy::Transform,
                join_policy: policy,
                cold_start: true,
                ..Default::default()
            };
            let tr = db.query_with(Q2, &opts).unwrap();
            assert!(
                tr.relation.same_bag(&ni.relation),
                "policy {policy:?}:\nNI:\n{}\nTR:\n{}\nexplain: {:#?}",
                ni.relation,
                tr.relation,
                tr.explain
            );
        }
    }

    #[test]
    fn buggy_kim_variant_loses_part_8_on_q2() {
        // The COUNT bug: COUNT can never be zero in Kim's temporary, so
        // part 8 (QOH = 0, no qualifying shipments) is lost; part 10
        // (QOH = 1 = its count) survives.
        let db = kiessling_db();
        let opts = QueryOptions {
            strategy: Strategy::Transform,
            unnest: UnnestOptions {
                ja_variant: nsql_core::JaVariant::KimOriginal,
                ..UnnestOptions::faithful()
            },
            cold_start: true,
            ..Default::default()
        };
        let out = db.query_with(Q2, &opts).unwrap();
        let vals: Vec<String> =
            out.relation.tuples().iter().map(|t| t.get(0).to_string()).collect();
        assert_eq!(vals, vec!["10"], "{}", out.relation);
    }

    #[test]
    fn explain_shows_pipeline() {
        let db = kiessling_db();
        let out = db.query_with(Q2, &QueryOptions::transformed_merge()).unwrap();
        let text = out.explain.join("\n");
        assert!(text.contains("NEST-JA2"), "{text}");
        assert!(text.contains("canonical:"), "{text}");
        assert!(text.contains("merge join"), "{text}");
    }

    #[test]
    fn query_tree_renders() {
        let db = kiessling_db();
        let t = db.query_tree(Q2).unwrap();
        assert_eq!(t.block_count(), 2);
        assert!(t.render().contains("type-JA"));
    }

    #[test]
    fn explain_analyze_q2_shows_decision_costs_and_actuals() {
        let db = kiessling_db();
        let opts = QueryOptions::transformed();
        let report = db.explain_query(Q2, true, &opts).unwrap();
        // Transform decision: NEST-JA2 must fire on a type-JA query.
        assert!(report.chosen.contains("NEST-JA2"), "{}", report.chosen);
        // Predicted Section-7 cost for all four join-method variants.
        assert_eq!(report.predicted.len(), 4, "{:#?}", report.predicted);
        for p in &report.predicted {
            assert!(p.total() > 0.0, "{:#?}", p);
        }
        // Measured per-operator actuals from the same run.
        let obs = report.obs.as_ref().expect("ANALYZE collects a profile");
        let ops = operators(obs);
        assert!(ops.iter().any(|(n, _)| n.name.contains("join")), "{ops:#?}");
        assert!(ops.iter().any(|(_, op)| op.rows_out > 0), "{ops:#?}");
        assert!(ops.iter().any(|(n, _)| n.io.reads + n.io.hits + n.io.misses > 0), "{ops:#?}");
        // Section 7's terms are `execute plan`'s direct children — outer
        // projection, the inner restriction, temp creation (the step-2b
        // join and its group-by beneath it), final join — and their pages
        // add up to the statement's.
        let execute = obs.profile.iter().find(|n| n.name == "execute plan").expect("lifecycle");
        let names: Vec<&str> = execute.children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["materialize TEMP1", "materialize TEMP2", "materialize TEMP3", "nested-loop join (2 keys)"]
        );
        let beneath: Vec<&str> =
            execute.children[2].children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(beneath, ["nested-loop join (1 keys)", "group-by"]);
        let pages = |f: fn(&ProfileNode) -> u64| execute.children.iter().map(f).sum::<u64>();
        assert_eq!((pages(|n| n.io.reads), pages(|n| n.io.writes)), (7, 5));
        assert_eq!(report.io.map(|io| (io.reads, io.writes)), Some((7, 5)));
        let text = report.render_lines().join("\n");
        assert!(text.contains("transform decision:"), "{text}");
        assert!(text.contains("predicted cost"), "{text}");
        assert!(text.contains("measured:"), "{text}");
        assert_eq!(report.rows, Some(2));
    }

    #[test]
    fn explain_json_roundtrips_through_parser() {
        let db = kiessling_db();
        let report = db.explain_query(Q2, true, &QueryOptions::default()).unwrap();
        let text = report.to_json().to_string();
        let parsed = nsql_obs::Json::parse(&text).unwrap();
        let sql = parsed.get("sql").and_then(|j| j.as_str()).unwrap();
        assert!(sql.starts_with("SELECT PNUM FROM PARTS"), "{sql}");
        assert_eq!(
            parsed.get("predicted").and_then(|j| j.as_arr()).map(|a| a.len()),
            Some(4)
        );
        let roots = parsed
            .get("obs")
            .and_then(|o| o.get("profile"))
            .and_then(|j| j.as_arr())
            .expect("obs.profile present");
        assert!(!roots.is_empty());
        for node in roots {
            for key in ["name", "wall_ns", "io", "op", "children"] {
                assert!(node.get(key).is_some(), "missing {key} in {node}");
            }
        }
    }

    #[test]
    fn explain_statement_runs_through_script_path() {
        let mut db = kiessling_db();
        let rel = db
            .execute_script(&format!("EXPLAIN ANALYZE {Q2}"))
            .unwrap()
            .expect("EXPLAIN yields a relation");
        let text: Vec<String> =
            rel.tuples().iter().map(|t| t.get(0).to_string()).collect();
        let text = text.join("\n");
        assert!(text.contains("NEST-JA2"), "{text}");
        assert!(text.contains("measured:"), "{text}");
    }

    #[test]
    fn observe_does_not_change_io_or_results() {
        let db = kiessling_db();
        let base = QueryOptions { cold_start: true, ..Default::default() };
        let s0 = db.catalog.storage().io_snapshot();
        let plain = db.query_with(Q2, &base).unwrap();
        let s1 = db.catalog.storage().io_snapshot();
        let observed = db
            .query_with(Q2, &QueryOptions { observe: true, ..base.clone() })
            .unwrap();
        let s2 = db.catalog.storage().io_snapshot();
        assert!(plain.relation.same_bag(&observed.relation));
        assert_eq!(plain.io.reads, observed.io.reads);
        assert_eq!(plain.io.writes, observed.io.writes);
        // Full four-counter trace must be byte-identical between the runs.
        assert_eq!(s1.since(&s0), s2.since(&s1));
        assert!(plain.obs.is_none());
        assert!(observed.obs.is_some());
    }

    #[test]
    fn unknown_table_is_caught_before_execution() {
        let db = Database::new();
        assert!(matches!(
            db.query("SELECT X FROM NOPE"),
            Err(DbError::Analyze(_))
        ));
    }
}
