//! Physical execution of transformation output.
//!
//! Executes the [`LogicalPlan`] temporaries and the canonical flat query of
//! a [`TransformPlan`], choosing join methods per [`JoinPolicy`] — the
//! paper's point is precisely that after transformation "the query
//! optimizer can choose a merge join method in implementing the joins".
//!
//! Sort-order metadata rides along with every intermediate so the executor
//! can harvest the savings Section 7.4 enumerates: `Rt2` is created in join
//! column order; a merge join emits its result in key order, so the GROUP
//! BY above it needs no sort; `Rt` leaves the GROUP BY in join-column order
//! and meets the final merge join pre-sorted.

use crate::error::DbError;
use crate::explain::TempStat;
use crate::options::{IndexUse, JoinPolicy};
use crate::result_cache::{replay_temp, temp_keys, CacheCtx, TempKey};
use crate::Result;
use nsql_cache::{judge_rewrite, RewriteJudgement, TempEntry};
use nsql_core::cost::{index_nested_join_cost, index_restrict_cost, sort_cost};
use nsql_core::{JoinPred, LogicalJoinKind, LogicalPlan, TransformPlan};
use nsql_engine::{AggSpec, CExpr, CPred, Exec, JoinKind, Projector, TableProvider};
use nsql_index::{BTreeIndex, KeyBound};
use nsql_obs::Profile;
use nsql_storage::sort::SortKey;
use nsql_storage::HeapFile;
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, Operand, Predicate, QueryBlock, ScalarExpr, SortDir,
};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Run `f` inside an operator node of `profile` named `label` (a plain
/// call when the profile is disabled).
///
/// Wall time and page I/O are the node's own; engine internals (row counts,
/// morsel claims, hash build/probe phases) record into its counters while it
/// is the innermost open node. `rows_in`/`rows` only apply when the engine
/// recorded nothing itself, so nothing is double-counted.
pub(crate) fn observed<R, E>(
    profile: &Profile,
    label: impl FnOnce() -> String,
    rows_in: u64,
    rows: impl FnOnce(&R) -> u64,
    f: impl FnOnce() -> std::result::Result<R, E>,
) -> std::result::Result<R, E> {
    let node = profile.begin_op(label);
    let Some(op) = profile.current_op() else { return f() };
    let out = f();
    if op.rows_in.total() == 0 && rows_in > 0 {
        op.rows_in.add(0, rows_in);
    }
    if let Ok(r) = &out {
        if op.rows_out.total() == 0 {
            op.rows_out.add(0, rows(r));
        }
    }
    profile.end(node);
    out
}

/// A heap file plus the (prefix) column indices it is sorted by.
#[derive(Clone)]
pub struct PlanOutput {
    /// The materialized data.
    pub file: HeapFile,
    /// Output column indices forming the current sort-order prefix
    /// (empty = unknown order).
    pub sorted_by: Vec<usize>,
    /// B+tree indexes still valid for this output. Non-empty only for
    /// unmodified base-table scans (requalifying by an alias keeps column
    /// positions, so the indexes survive it); every transforming operator
    /// clears it.
    pub indexes: Vec<Arc<BTreeIndex>>,
}

/// Executor for logical plans and canonical queries over a base provider
/// plus an overlay of temporary tables.
pub struct PlanExecutor<T: TableProvider> {
    exec: Exec,
    base: T,
    temps: HashMap<String, PlanOutput>,
    policy: JoinPolicy,
    index_use: IndexUse,
    cache: Option<CacheCtx>,
    /// EXPLAIN-style log of physical decisions.
    pub log: Vec<String>,
}

impl<T: TableProvider> PlanExecutor<T> {
    /// New executor over `base` with the given join policy.
    pub fn new(exec: Exec, base: T, policy: JoinPolicy) -> Self {
        let mut log = Vec::new();
        if exec.vectorized() {
            log.push(
                "exec mode: vectorized (batch kernels, per-operator row fallback)"
                    .to_string(),
            );
        }
        PlanExecutor {
            exec,
            base,
            temps: HashMap::new(),
            policy,
            index_use: IndexUse::default(),
            cache: None,
            log,
        }
    }

    /// Change whether index paths may be taken (default: cost-based).
    pub fn set_index_use(&mut self, index_use: IndexUse) {
        self.index_use = index_use;
    }

    /// Attach the cross-query result cache for temp materializations.
    pub fn set_cache(&mut self, ctx: CacheCtx) {
        self.cache = Some(ctx);
    }

    /// The underlying operator executor.
    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Change the join policy mid-plan — the Section-7.4 ablation (E11)
    /// chooses the temp-creation join method and the final join method
    /// independently.
    pub fn set_policy(&mut self, policy: JoinPolicy) {
        self.policy = policy;
    }

    /// Register a temporary table.
    pub fn register_temp(&mut self, name: &str, out: PlanOutput) {
        self.temps.insert(name.to_ascii_uppercase(), out);
    }

    /// A registered temporary, if present.
    pub fn temp(&self, name: &str) -> Option<&PlanOutput> {
        self.temps.get(&name.to_ascii_uppercase())
    }

    /// Drop all temporary tables, freeing their pages.
    pub fn drop_temps(&mut self) {
        for (_, out) in self.temps.drain() {
            out.file.drop_pages(self.exec.storage());
        }
    }

    /// Sizes of the registered temporaries in name order — the measured
    /// inputs to the Section-7 predicted-vs-actual cost comparison.
    pub fn temp_stats(&self) -> Vec<TempStat> {
        let mut v: Vec<TempStat> = self
            .temps
            .iter()
            .map(|(name, out)| TempStat {
                name: name.clone(),
                tuples: out.file.tuple_count(),
                pages: out.file.page_count(),
            })
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    fn lookup(&self, name: &str) -> Result<PlanOutput> {
        let key = name.to_ascii_uppercase();
        if let Some(t) = self.temps.get(&key) {
            return Ok(t.clone());
        }
        match self.base.get_table(&key) {
            Some(file) => Ok(PlanOutput {
                file,
                sorted_by: vec![],
                indexes: self.base.get_indexes(&key),
            }),
            None => Err(DbError::Engine(nsql_engine::EngineError::UnknownTable(key))),
        }
    }

    // ----------------------------------------------------------- TransformPlan

    /// Execute a full transformation plan: materialize the temporaries in
    /// order, then run the canonical query. Set `force_distinct` to apply a
    /// final duplicate elimination (duplicate-preserving mode).
    pub fn execute_transform_plan(
        &mut self,
        plan: &TransformPlan,
        force_distinct: bool,
    ) -> Result<Relation> {
        match self.cache.clone() {
            Some(ctx) if !plan.temps.is_empty() => {
                self.materialize_temps_cached(&ctx, plan)?
            }
            _ => self.materialize_temps(plan, None)?,
        }
        self.execute_flat_query(&plan.canonical, force_distinct)
    }

    /// Cold materialization of every temp, optionally recording each
    /// one's page-event trace and publishing it afterwards (the cache-miss
    /// path). Recording piggybacks on the unchanged execution — a miss is
    /// byte-identical to running with the cache off by construction.
    fn materialize_temps(
        &mut self,
        plan: &TransformPlan,
        publish: Option<(&CacheCtx, &[TempKey])>,
    ) -> Result<()> {
        // Published entry ids by uppercased temp name, recorded into
        // dependents' `deps` so a later hit only accepts this exact set.
        let mut published: HashMap<String, u64> = HashMap::new();
        for (i, temp) in plan.temps.iter().enumerate() {
            let exec = self.exec.clone();
            if publish.is_some() {
                exec.storage().start_recording();
            }
            let out = observed(
                exec.obs(),
                || format!("materialize {}", temp.name),
                0,
                |o: &PlanOutput| o.file.tuple_count() as u64,
                || self.run_plan(&temp.plan),
            );
            let trace = publish.is_some().then(|| exec.storage().take_recording());
            let out = out?;
            let schema = out.file.schema().requalify(&temp.name);
            let file = out.file.with_schema(schema);
            self.log_materialize(&temp.name, &file, &out.sorted_by);
            if let Some((ctx, keys)) = publish {
                let key = &keys[i];
                let output_pages = file
                    .page_ids()
                    .iter()
                    .map(|&pid| (pid, exec.storage().read_page_tuples_uncounted(pid)))
                    .collect();
                let deps = key
                    .dep_names
                    .iter()
                    .map(|n| (n.clone(), published[n]))
                    .collect();
                let id = ctx.cache.publish_temp(TempEntry {
                    text: key.text.clone(),
                    fingerprint: ctx.fingerprint.clone(),
                    bases: key.bases.clone(),
                    epoch: ctx.epoch,
                    schema: file.schema().clone(),
                    output_pages,
                    tuple_count: file.tuple_count(),
                    sorted_by: out.sorted_by.clone(),
                    trace: trace.unwrap_or_default(),
                    deps,
                    view: key.view.clone(),
                });
                published.insert(temp.name.to_ascii_uppercase(), id);
                self.log.push(format!(
                    "cache: miss {} (recorded and published)",
                    temp.name
                ));
            }
            self.register_temp(
                &temp.name,
                PlanOutput { file, sorted_by: out.sorted_by, indexes: vec![] },
            );
        }
        Ok(())
    }

    /// The cache consult: exact hit on all temps → replay; otherwise
    /// (rewrite mode) derived hit on all temps → rebuild; otherwise report
    /// any sound-rewrite declines and fall through to record + publish.
    fn materialize_temps_cached(&mut self, ctx: &CacheCtx, plan: &TransformPlan) -> Result<()> {
        let Some(keys) = temp_keys(&plan.temps, |t| self.base.table_generation(t)) else {
            // A base table without a generation stamp can't be invalidated
            // soundly; run uncached.
            return self.materialize_temps(plan, None);
        };

        // All-or-nothing: a recorded trace references the page ids its
        // materialization saw, so mixing one temp's replay with another's
        // live run would charge reads against pages that no longer line
        // up. Either every temp replays or every temp runs and records.
        if let Some(selected) = self.select_entries(ctx, &keys, false) {
            ctx.cache.note_hits(keys.len() as u64);
            return self.replay_selected(plan, &selected);
        }

        if ctx.rewrite {
            // Same computation recorded under a different options
            // fingerprint: contents are fingerprint-independent, the
            // recorded I/O is not — rebuild from the cached tuples
            // (counted writes only) instead of replaying.
            if let Some(selected) = self.select_entries(ctx, &keys, true) {
                ctx.cache.note_hits(keys.len() as u64);
                return self.rebuild_selected(plan, &selected);
            }
            self.log_declines(ctx, &keys);
        }

        ctx.cache.note_misses(keys.len() as u64);
        self.materialize_temps(plan, Some((ctx, &keys)))
    }

    /// Pick a consistent entry per temp, in creation order. Each entry's
    /// recorded dependencies must name exactly the entries selected for
    /// the earlier temps; any mismatch (or any missing temp) fails the
    /// whole consult.
    fn select_entries(
        &self,
        ctx: &CacheCtx,
        keys: &[TempKey],
        any_fingerprint: bool,
    ) -> Option<Vec<Arc<TempEntry>>> {
        let mut chosen: HashMap<String, u64> = HashMap::new();
        let mut selected = Vec::with_capacity(keys.len());
        for key in keys {
            let (id, entry) = if any_fingerprint {
                ctx.cache.find_temp_any_fingerprint(
                    &key.text,
                    &ctx.fingerprint,
                    &key.bases,
                    ctx.epoch,
                )?
            } else {
                ctx.cache.find_temp(&key.text, &ctx.fingerprint, &key.bases, ctx.epoch)?
            };
            if !entry.deps.iter().all(|(n, did)| chosen.get(n) == Some(did)) {
                return None;
            }
            chosen.insert(key.name.to_ascii_uppercase(), id);
            selected.push(entry);
        }
        Some(selected)
    }

    /// Exact-hit path: recharge each temp's recorded page-event sequence
    /// and register the rebuilt (replayed-page) file. `pid_map` spans the
    /// whole plan so later temps' recorded reads of earlier temps land on
    /// their replayed pages.
    fn replay_selected(&mut self, plan: &TransformPlan, selected: &[Arc<TempEntry>]) -> Result<()> {
        let mut pid_map: HashMap<nsql_storage::PageId, nsql_storage::PageId> = HashMap::new();
        for (temp, entry) in plan.temps.iter().zip(selected) {
            let exec = self.exec.clone();
            let file = observed(
                exec.obs(),
                || format!("materialize {}", temp.name),
                0,
                |f: &HeapFile| f.tuple_count() as u64,
                || -> Result<HeapFile> {
                    Ok(replay_temp(exec.storage(), entry, &mut pid_map))
                },
            )?;
            self.log_materialize(&temp.name, &file, &entry.sorted_by);
            self.log.push(format!(
                "cache: hit {} (exact; replayed {} page events)",
                temp.name,
                entry.trace.len()
            ));
            self.register_temp(
                &temp.name,
                PlanOutput { file, sorted_by: entry.sorted_by.clone(), indexes: vec![] },
            );
        }
        Ok(())
    }

    /// Derived-hit path (rewrite mode): rewrite the cached tuples into a
    /// fresh heap file. Stored tuple order is the recorded output order,
    /// so the entry's sort metadata stays physically true.
    fn rebuild_selected(&mut self, plan: &TransformPlan, selected: &[Arc<TempEntry>]) -> Result<()> {
        for (temp, entry) in plan.temps.iter().zip(selected) {
            let exec = self.exec.clone();
            let file = observed(
                exec.obs(),
                || format!("materialize {}", temp.name),
                0,
                |f: &HeapFile| f.tuple_count() as u64,
                || -> Result<HeapFile> {
                    let tuples: Vec<Tuple> = entry
                        .output_pages
                        .iter()
                        .flat_map(|(_, ts)| ts.iter().cloned())
                        .collect();
                    Ok(HeapFile::from_tuples(exec.storage(), entry.schema.clone(), tuples))
                },
            )?;
            self.log_materialize(&temp.name, &file, &entry.sorted_by);
            self.log.push(format!(
                "cache: derived hit {} (rebuilt from cached aggregate view; I/O differs from a cold run)",
                temp.name
            ));
            self.register_temp(
                &temp.name,
                PlanOutput { file, sorted_by: entry.sorted_by.clone(), indexes: vec![] },
            );
        }
        Ok(())
    }

    /// Report why cached aggregate views could *not* answer this plan's
    /// aggregate temps — the Cohen-style soundness check in the negative.
    /// Declines are always sound: nothing is served here.
    fn log_declines(&mut self, ctx: &CacheCtx, keys: &[TempKey]) {
        for key in keys {
            let Some(requested) = &key.view else { continue };
            for cand in ctx.cache.agg_views(ctx.epoch) {
                let Some(view) = &cand.view else { continue };
                match judge_rewrite(requested, view) {
                    RewriteJudgement::Decline(reason) => {
                        ctx.cache.note_decline();
                        self.log.push(format!("cache: decline {}: {reason}", key.name));
                        break;
                    }
                    RewriteJudgement::Sound if cand.text != key.text => {
                        ctx.cache.note_decline();
                        self.log.push(format!(
                            "cache: decline {}: view shape matches a cached aggregate, \
                             but the plan texts differ; exact-text policy declines the rewrite",
                            key.name
                        ));
                        break;
                    }
                    _ => {}
                }
            }
        }
    }

    fn log_materialize(&mut self, name: &str, file: &HeapFile, sorted_by: &[usize]) {
        self.log.push(format!(
            "materialize {}: {} tuples, {} pages{}",
            name,
            file.tuple_count(),
            file.page_count(),
            if sorted_by.is_empty() { "" } else { " (sorted)" }
        ));
    }

    // ----------------------------------------------------------- LogicalPlan

    /// Execute a logical plan to a materialized heap file.
    pub fn run_plan(&mut self, plan: &LogicalPlan) -> Result<PlanOutput> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let out = self.lookup(table)?;
                let name = alias.as_deref().unwrap_or(table);
                let schema = out.file.schema().requalify(name);
                Ok(PlanOutput {
                    file: out.file.with_schema(schema),
                    sorted_by: out.sorted_by,
                    indexes: out.indexes,
                })
            }
            LogicalPlan::Filter { input, pred } => {
                // Fuse a filter over an *inner* join into the join's
                // residual. Not valid for outer joins: a residual that
                // fails pads the left tuple, whereas a filter above the
                // join drops the padded row — exactly the distinction
                // behind the paper's §5.2 restriction-ordering warning.
                if let LogicalPlan::Join { left, right, kind: LogicalJoinKind::Inner, on } =
                    input.as_ref()
                {
                    return self.run_join(left, right, LogicalJoinKind::Inner, on, Some(pred));
                }
                let child = self.run_plan(input)?;
                if let Some(out) = self.try_index_restrict(&child, pred)? {
                    return Ok(out);
                }
                let cpred = CPred::compile(child.file.schema(), pred)?;
                let file = self.exec.filter(&child.file, &cpred)?;
                let drop_input = matches!(input.as_ref(), LogicalPlan::Scan { .. });
                if !drop_input {
                    child.file.drop_pages(self.exec.storage());
                }
                Ok(PlanOutput { file, sorted_by: child.sorted_by, indexes: vec![] })
            }
            LogicalPlan::Project { input, items, distinct } => {
                // Fuse Project(Filter(x)) into one restrict+project pass.
                let (src_plan, pred) = match input.as_ref() {
                    LogicalPlan::Filter { input: inner, pred } => (inner.as_ref(), Some(pred)),
                    other => (other, None),
                };
                let mut child = self.run_plan(src_plan)?;
                let mut drop_child = !matches!(src_plan, LogicalPlan::Scan { .. });
                let mut pred = pred;
                if let Some(p) = pred {
                    // The fused filter may route through an index first; the
                    // index pass applies the whole predicate, so the
                    // projection then runs unfiltered.
                    if let Some(filtered) = self.try_index_restrict(&child, p)? {
                        child = filtered;
                        drop_child = true;
                        pred = None;
                    }
                }
                let (exprs, out_schema) = compile_projection(child.file.schema(), items)?;
                let cpred = match pred {
                    Some(p) => CPred::compile(child.file.schema(), p)?,
                    None => CPred::always_true(),
                };
                let file = self.exec.restrict_project(
                    &child.file,
                    &cpred,
                    &exprs,
                    out_schema,
                    *distinct,
                )?;
                if drop_child {
                    child.file.drop_pages(self.exec.storage());
                }
                let sorted_by = if *distinct {
                    // Distinct projection leaves the file whole-tuple sorted.
                    (0..file.schema().arity()).collect()
                } else {
                    remap_sort(&child.sorted_by, &exprs)
                };
                Ok(PlanOutput { file, sorted_by, indexes: vec![] })
            }
            LogicalPlan::Join { left, right, kind, on } => {
                self.run_join(left, right, *kind, on, None)
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let child = self.run_plan(input)?;
                let schema = child.file.schema().clone();
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|c| schema.resolve(c.table.as_deref(), &c.column))
                    .collect::<std::result::Result<_, _>>()?;
                let mut specs = Vec::with_capacity(aggs.len());
                let mut out_cols: Vec<Column> = group_idx
                    .iter()
                    .map(|&i| {
                        let c = &schema.columns()[i];
                        Column::new(&c.name, c.ty)
                    })
                    .collect();
                for a in aggs {
                    let (spec, ty) = match &a.arg {
                        AggArg::Star => (AggSpec::count_star(), ColumnType::Int),
                        AggArg::Column(c) => {
                            let i = schema.resolve(c.table.as_deref(), &c.column)?;
                            let ty = match a.func {
                                AggFunc::Count => ColumnType::Int,
                                AggFunc::Avg => ColumnType::Float,
                                _ => schema.columns()[i].ty,
                            };
                            (AggSpec::on(a.func, i), ty)
                        }
                    };
                    specs.push(spec);
                    out_cols.push(Column::new(&a.alias, ty));
                }
                let presorted = !group_idx.is_empty()
                    && child.sorted_by.len() >= group_idx.len()
                    && child.sorted_by[..group_idx.len()] == group_idx[..];
                if !group_idx.is_empty() {
                    self.log.push(format!(
                        "group-by: {}",
                        if presorted { "input pre-sorted, no sort pass" } else { "sorting input" }
                    ));
                }
                let rows_in = child.file.tuple_count() as u64;
                let file = observed(
                    self.exec.obs(),
                    || "group-by".to_string(),
                    rows_in,
                    |f: &HeapFile| f.tuple_count() as u64,
                    || {
                        self.exec.group_aggregate(
                            &child.file,
                            &group_idx,
                            &specs,
                            Schema::new(out_cols),
                            presorted,
                        )
                    },
                )?;
                if !matches!(input.as_ref(), LogicalPlan::Scan { .. }) {
                    child.file.drop_pages(self.exec.storage());
                }
                Ok(PlanOutput {
                    file,
                    sorted_by: (0..group_idx.len()).collect(),
                    indexes: vec![],
                })
            }
        }
    }

    fn run_join(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
    ) -> Result<PlanOutput> {
        let l = self.run_plan(left)?;
        let r = self.run_plan(right)?;
        let out = self.join_outputs(&l, &r, kind, on, residual, true)?;
        if !matches!(left, LogicalPlan::Scan { .. }) {
            l.file.drop_pages(self.exec.storage());
        }
        if !matches!(right, LogicalPlan::Scan { .. }) {
            r.file.drop_pages(self.exec.storage());
        }
        Ok(out)
    }

    /// Join two materialized inputs. With `materialize` false the result is
    /// returned in memory instead (final join of a canonical query).
    #[allow(clippy::too_many_arguments)]
    fn join_outputs(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
        materialize: bool,
    ) -> Result<PlanOutput> {
        let rel = self.join_to_rows(l, r, kind, on, residual, materialize)?;
        match rel {
            JoinResult::File(out) => Ok(out),
            JoinResult::Rows(_) => unreachable!("materialize=true returns a file"),
        }
    }

    fn join_collect(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
    ) -> Result<Relation> {
        match self.join_to_rows(l, r, kind, on, residual, false)? {
            JoinResult::Rows(rel) => Ok(rel),
            JoinResult::File(_) => unreachable!("materialize=false returns rows"),
        }
    }

    fn join_to_rows(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
        materialize: bool,
    ) -> Result<JoinResult> {
        let combined = l.file.schema().join(r.file.schema());
        let jkind = match kind {
            LogicalJoinKind::Inner => JoinKind::Inner,
            LogicalJoinKind::LeftOuter => JoinKind::LeftOuter,
        };
        // Split `on` into merge-able equality keys and the rest.
        let mut lkeys = Vec::new();
        let mut rkeys = Vec::new();
        let mut rest: Vec<Predicate> = Vec::new();
        for p in on {
            let li = l.file.schema().try_resolve(p.left.table.as_deref(), &p.left.column);
            let ri = r.file.schema().try_resolve(p.right.table.as_deref(), &p.right.column);
            match (li, ri, p.op) {
                (Some(li), Some(ri), CompareOp::Eq) => {
                    lkeys.push(li);
                    rkeys.push(ri);
                }
                (Some(_), Some(_), _) => rest.push(Predicate::Compare {
                    left: Operand::Column(p.left.clone()),
                    op: p.op,
                    right: Operand::Column(p.right.clone()),
                }),
                _ => {
                    return Err(DbError::Engine(nsql_engine::EngineError::Internal(format!(
                        "join predicate {p} does not resolve against the join inputs"
                    ))))
                }
            }
        }
        if let Some(p) = residual {
            rest.push(p.clone());
        }
        let residual_pred = if rest.is_empty() {
            None
        } else {
            Some(CPred::compile(&combined, &Predicate::and(rest))?)
        };

        // §7.3 extension: an inner equi-join whose probe side is an
        // unmodified base table with a B+tree on the join key can run as an
        // index nested-loop join — NEST-JA2's back-join without a full
        // inner scan per outer tuple.
        if jkind == JoinKind::Inner && !lkeys.is_empty() {
            if let Some((ki, ix)) = self.pick_index_join(l, r, &lkeys, &rkeys) {
                return self.index_nl_join(
                    l,
                    r,
                    ix,
                    ki,
                    &lkeys,
                    &rkeys,
                    residual_pred,
                    materialize,
                );
            }
        }
        let method = if lkeys.is_empty() {
            PhysicalJoin::NestedLoop
        } else {
            self.pick_method(l, r, &lkeys, &rkeys)
        };
        let rows_in = (l.file.tuple_count() + r.file.tuple_count()) as u64;
        if method == PhysicalJoin::Hash {
            let label = || format!("hash join ({} keys)", lkeys.len());
            self.log.push(format!("hash join ({} keys) [modern extension]", lkeys.len()));
            return if materialize {
                let file =
                    observed(self.exec.obs(), label, rows_in, |f: &HeapFile| f.tuple_count() as u64, || {
                        self.exec.hash_join(
                            &l.file,
                            &r.file,
                            &lkeys,
                            &rkeys,
                            residual_pred.as_ref(),
                            jkind,
                        )
                    })?;
                // Hash probe preserves the left input's order.
                Ok(JoinResult::File(PlanOutput {
                    file,
                    sorted_by: l.sorted_by.clone(),
                    indexes: vec![],
                }))
            } else {
                let rel =
                    observed(self.exec.obs(), label, rows_in, |rel: &Relation| rel.len() as u64, || {
                        self.exec.hash_join_collect(
                            &l.file,
                            &r.file,
                            &lkeys,
                            &rkeys,
                            residual_pred.as_ref(),
                            jkind,
                        )
                    })?;
                Ok(JoinResult::Rows(rel))
            };
        }
        if method == PhysicalJoin::Merge {
            let l_presorted = sorted_on(&l.sorted_by, &lkeys);
            let r_presorted = sorted_on(&r.sorted_by, &rkeys);
            self.log.push(format!(
                "merge join ({} keys){}{}",
                lkeys.len(),
                if l_presorted { ", left pre-sorted" } else { "" },
                if r_presorted { ", right pre-sorted" } else { "" },
            ));
            let label = || format!("merge join ({} keys)", lkeys.len());
            if materialize {
                let file =
                    observed(self.exec.obs(), label, rows_in, |f: &HeapFile| f.tuple_count() as u64, || {
                        self.exec.merge_join(
                            &l.file,
                            &r.file,
                            &lkeys,
                            &rkeys,
                            residual_pred.as_ref(),
                            jkind,
                            l_presorted,
                            r_presorted,
                        )
                    })?;
                Ok(JoinResult::File(PlanOutput { file, sorted_by: lkeys, indexes: vec![] }))
            } else {
                let rel =
                    observed(self.exec.obs(), label, rows_in, |rel: &Relation| rel.len() as u64, || {
                        self.exec.merge_join_collect(
                            &l.file,
                            &r.file,
                            &lkeys,
                            &rkeys,
                            residual_pred.as_ref(),
                            jkind,
                            l_presorted,
                            r_presorted,
                        )
                    })?;
                Ok(JoinResult::Rows(rel))
            }
        } else {
            self.log.push(format!(
                "nested-loop join ({} equality keys folded into predicate)",
                lkeys.len()
            ));
            // Fold the keys back into the predicate.
            let mut preds: Vec<CPred> = Vec::new();
            for (li, ri) in lkeys.iter().zip(&rkeys) {
                preds.push(CPred::Cmp {
                    left: CExpr::Col(*li),
                    op: CompareOp::Eq,
                    right: CExpr::Col(l.file.schema().arity() + ri),
                });
            }
            if let Some(p) = residual_pred {
                preds.push(p);
            }
            let on_pred =
                if preds.is_empty() { CPred::always_true() } else { CPred::And(preds) };
            let label = || format!("nested-loop join ({} keys)", lkeys.len());
            if materialize {
                let file =
                    observed(self.exec.obs(), label, rows_in, |f: &HeapFile| f.tuple_count() as u64, || {
                        self.exec.nl_join(&l.file, &r.file, &on_pred, jkind)
                    })?;
                // NL join preserves the left input's order.
                Ok(JoinResult::File(PlanOutput {
                    file,
                    sorted_by: l.sorted_by.clone(),
                    indexes: vec![],
                }))
            } else {
                let rel =
                    observed(self.exec.obs(), label, rows_in, |rel: &Relation| rel.len() as u64, || {
                        self.exec.nl_join_collect(&l.file, &r.file, &on_pred, jkind)
                    })?;
                Ok(JoinResult::Rows(rel))
            }
        }
    }

    /// Decide the physical method for an equi-join per the policy. The
    /// cost-based choice considers only the paper's two methods; hash join
    /// is a forced-only modern extension.
    fn pick_method(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        lkeys: &[usize],
        rkeys: &[usize],
    ) -> PhysicalJoin {
        match self.policy {
            JoinPolicy::ForceNestedLoop => PhysicalJoin::NestedLoop,
            JoinPolicy::ForceMergeJoin => PhysicalJoin::Merge,
            JoinPolicy::ForceHashJoin => PhysicalJoin::Hash,
            JoinPolicy::CostBased => {
                let (nl, mj) = self.classic_join_costs(l, r, lkeys, rkeys);
                if mj < nl {
                    PhysicalJoin::Merge
                } else {
                    PhysicalJoin::NestedLoop
                }
            }
        }
    }

    /// Section-7 page costs for the paper's two join methods on these
    /// inputs: (nested loop, merge join).
    fn classic_join_costs(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        lkeys: &[usize],
        rkeys: &[usize],
    ) -> (f64, f64) {
        let b = self.exec.storage().buffer_pages() as f64;
        let (lp, rp) = (l.file.page_count() as f64, r.file.page_count() as f64);
        let nl = if rp <= b - 1.0 {
            lp + rp
        } else {
            lp + l.file.tuple_count() as f64 * rp
        };
        let l_sort = if sorted_on(&l.sorted_by, lkeys) { 0.0 } else { sort_cost(lp, b) };
        let r_sort = if sorted_on(&r.sorted_by, rkeys) { 0.0 } else { sort_cost(rp, b) };
        (nl, l_sort + r_sort + lp + rp)
    }

    /// Whether an index nested-loop join applies and wins on this join
    /// step: the right side carries a B+tree whose key is one of the
    /// equi-join keys (of a comparable type class), and the policy/cost
    /// picture favors probing it. Returns the key position and index.
    fn pick_index_join(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        lkeys: &[usize],
        rkeys: &[usize],
    ) -> Option<(usize, Arc<BTreeIndex>)> {
        if r.indexes.is_empty() {
            return None;
        }
        match (self.index_use, self.policy) {
            (IndexUse::Never, _) => return None,
            (IndexUse::Prefer, _) => {}
            // Cost-based index use only composes with the cost-based join
            // policy — forced classic policies stay forced.
            (IndexUse::CostBased, JoinPolicy::CostBased) => {}
            (IndexUse::CostBased, _) => return None,
        }
        let (ki, ix) = rkeys.iter().enumerate().find_map(|(ki, &rk)| {
            r.indexes
                .iter()
                .find(|ix| ix.key_col() == rk)
                .map(|ix| (ki, Arc::clone(ix)))
        })?;
        // Probe values must order identically in the index (total_cmp) and
        // in predicate evaluation (sql_cmp); mixed incomparable classes
        // would turn a type error into a silent empty result.
        let lty = l.file.schema().columns()[lkeys[ki]].ty;
        let rty = r.file.schema().columns()[rkeys[ki]].ty;
        if !lty.same_class(rty) {
            return None;
        }
        let st = ix.stats();
        let leaves_per_probe = if st.distinct_keys == 0 {
            1.0
        } else {
            (st.leaf_pages as f64 / st.distinct_keys as f64).ceil().max(1.0)
        };
        let icost = index_nested_join_cost(
            l.file.page_count() as f64,
            l.file.tuple_count() as f64,
            st.height as f64,
            leaves_per_probe,
        );
        let (nl, mj) = self.classic_join_costs(l, r, lkeys, rkeys);
        let use_ix = self.index_use == IndexUse::Prefer || icost < nl.min(mj);
        self.log.push(format!(
            "index join candidate {}: cost {:.1} vs nl {:.1} / mj {:.1} ({})",
            ix.name(),
            icost,
            nl,
            mj,
            if use_ix { "chose index" } else { "rejected" }
        ));
        use_ix.then_some((ki, ix))
    }

    /// Inner join by probing the right side's B+tree once per left tuple.
    /// Preserves the left input's order; join keys other than the probe
    /// key and any residual are applied to each candidate pair.
    #[allow(clippy::too_many_arguments)]
    fn index_nl_join(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        ix: Arc<BTreeIndex>,
        ki: usize,
        lkeys: &[usize],
        rkeys: &[usize],
        residual: Option<CPred>,
        materialize: bool,
    ) -> Result<JoinResult> {
        let combined = l.file.schema().join(r.file.schema());
        let mut preds: Vec<CPred> = Vec::new();
        for (j, (li, ri)) in lkeys.iter().zip(rkeys).enumerate() {
            if j == ki {
                continue;
            }
            preds.push(CPred::Cmp {
                left: CExpr::Col(*li),
                op: CompareOp::Eq,
                right: CExpr::Col(l.file.schema().arity() + ri),
            });
        }
        if let Some(p) = residual {
            preds.push(p);
        }
        let extra = if preds.is_empty() { CPred::always_true() } else { CPred::And(preds) };
        self.log.push(format!(
            "index nested-loop join via {} ({} probes)",
            ix.name(),
            l.file.tuple_count()
        ));
        let label = || format!("index-nl join ({})", ix.name());
        let storage = self.exec.storage().clone();
        let probe_col = lkeys[ki];
        let rows_in = l.file.tuple_count() as u64;
        note_index_probes(&self.base, &ix, rows_in);
        let gen_rows = || -> Result<Vec<Tuple>> {
            let mut rows = Vec::new();
            for lt in l.file.scan(&storage) {
                let key = lt.get(probe_col);
                if matches!(key, Value::Null) {
                    continue; // NULL never equals anything
                }
                for rt in ix.probe_eq(&storage, key) {
                    let mut vals = lt.values().to_vec();
                    vals.extend(rt.values().iter().cloned());
                    let t = Tuple::new(vals);
                    if extra.accepts(&t)? {
                        rows.push(t);
                    }
                }
            }
            Ok(rows)
        };
        if materialize {
            let file = observed(
                self.exec.obs(),
                label,
                rows_in,
                |f: &HeapFile| f.tuple_count() as u64,
                || {
                    let rows = gen_rows()?;
                    Ok::<_, DbError>(HeapFile::from_tuples(&storage, combined, rows))
                },
            )?;
            Ok(JoinResult::File(PlanOutput {
                file,
                sorted_by: l.sorted_by.clone(),
                indexes: vec![],
            }))
        } else {
            let rel = observed(
                self.exec.obs(),
                label,
                rows_in,
                |rel: &Relation| rel.len() as u64,
                || Relation::new(combined.clone(), gen_rows()?).map_err(DbError::from),
            )?;
            Ok(JoinResult::Rows(rel))
        }
    }

    /// Try to satisfy `pred` over `out` (a base-table scan with live
    /// indexes) through a B+tree range scan: find a sargable conjunct on an
    /// index key, cost the index path against the full scan, and — when
    /// chosen — return the fully filtered, key-ordered materialization.
    fn try_index_restrict(
        &mut self,
        out: &PlanOutput,
        pred: &Predicate,
    ) -> Result<Option<PlanOutput>> {
        if self.index_use == IndexUse::Never || out.indexes.is_empty() {
            return Ok(None);
        }
        let schema = out.file.schema();
        for conj in pred.conjuncts() {
            let Some((col, op, lit)) = sargable_conjunct(schema, conj) else { continue };
            let Some(ix) = out.indexes.iter().find(|ix| ix.key_col() == col) else {
                continue;
            };
            let ix = Arc::clone(ix);
            let (lo, hi) = bounds_for(op, lit);
            let st = ix.stats();
            let sel = ix.est_selectivity(&lo, &hi);
            let icost = index_restrict_cost(st.height as f64, st.leaf_pages as f64, sel);
            let scan = out.file.page_count() as f64;
            let use_ix = self.index_use == IndexUse::Prefer || icost < scan;
            self.log.push(format!(
                "index restrict via {}: est sel {:.3}, cost {:.1} vs scan {:.0} ({})",
                ix.name(),
                sel,
                icost,
                scan,
                if use_ix { "chose index" } else { "chose full scan" }
            ));
            if !use_ix {
                return Ok(None);
            }
            note_index_probes(&self.base, &ix, 1);
            // The whole predicate is re-applied to the range-scan output,
            // so the index only has to deliver a superset of the matches.
            let cpred = CPred::compile(schema, pred)?;
            let storage = self.exec.storage().clone();
            let out_schema = schema.clone();
            let key_col = ix.key_col();
            let file = observed(
                self.exec.obs(),
                || format!("index scan {}", ix.name()),
                0,
                |f: &HeapFile| f.tuple_count() as u64,
                || -> Result<HeapFile> {
                    let mut rows = Vec::new();
                    for t in ix.range_scan(&storage, &lo, &hi) {
                        if cpred.accepts(&t)? {
                            rows.push(t);
                        }
                    }
                    Ok(HeapFile::from_tuples(&storage, out_schema, rows))
                },
            )?;
            return Ok(Some(PlanOutput {
                file,
                sorted_by: vec![key_col],
                indexes: vec![],
            }));
        }
        Ok(None)
    }

    // ------------------------------------------------------ canonical query

    /// Execute a flat (subquery-free) query block: left-deep joins in FROM
    /// order with extracted equi-keys, residual predicates inline, final
    /// projection / aggregation / DISTINCT / ORDER BY in memory.
    pub fn execute_flat_query(
        &mut self,
        q: &QueryBlock,
        force_distinct: bool,
    ) -> Result<Relation> {
        if q.from.is_empty() {
            return Err(DbError::Engine(nsql_engine::EngineError::Unsupported(
                "query with empty FROM".into(),
            )));
        }
        // Resolve inputs.
        let mut inputs: Vec<PlanOutput> = q
            .from
            .iter()
            .map(|t| {
                let out = self.lookup(&t.table)?;
                let schema = out.file.schema().requalify(t.effective_name());
                Ok(PlanOutput {
                    file: out.file.with_schema(schema),
                    sorted_by: out.sorted_by,
                    indexes: out.indexes,
                })
            })
            .collect::<Result<_>>()?;

        // Partition conjuncts into per-step join keys and residuals.
        let mut remaining: Vec<Predicate> = q
            .where_clause
            .as_ref()
            .map(|p| p.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();

        // Push single-table restrictions down into an index range scan
        // where one applies and wins (the §7 extension: NEST-JA2's
        // outer-column restriction takes the index path instead of riding
        // along as a join residual). Inner-join-only pipeline, so early
        // restriction is semantics-preserving.
        if self.index_use != IndexUse::Never {
            for (i, inp) in inputs.iter_mut().enumerate() {
                if inp.indexes.is_empty() {
                    continue;
                }
                let name = q.from[i].effective_name();
                let only_mine = |p: &Predicate| {
                    let refs = nsql_analyzer::resolve::predicate_column_refs(p);
                    !refs.is_empty()
                        && refs.iter().all(|c| c.table.as_deref() == Some(name))
                };
                let mine: Vec<Predicate> =
                    remaining.iter().filter(|p| only_mine(p)).cloned().collect();
                if mine.is_empty() {
                    continue;
                }
                if let Some(out) = self.try_index_restrict(inp, &Predicate::and(mine))? {
                    remaining.retain(|p| !only_mine(p));
                    // Register the filtered scan as a temporary so its
                    // pages are reclaimed with the others after the query.
                    let temp_name = format!("IXR_{name}");
                    self.register_temp(&temp_name, out.clone());
                    *inp = out;
                }
            }
        }

        let grouped = !q.group_by.is_empty() || q.has_aggregate_select();

        let mut acc = inputs[0].clone();
        let mut acc_names: Vec<String> = vec![q.from[0].effective_name().to_string()];
        for (step, next) in inputs.iter().enumerate().skip(1) {
            let next_name = q.from[step].effective_name().to_string();
            let is_last = step + 1 == inputs.len();
            // Pull out the predicates usable at this step.
            let mut keys: Vec<JoinPred> = Vec::new();
            let mut residual: Vec<Predicate> = Vec::new();
            let mut rest: Vec<Predicate> = Vec::new();
            for p in remaining.drain(..) {
                match classify_conjunct(&p, &acc_names, &next_name) {
                    ConjunctUse::JoinKey(jp) => keys.push(jp),
                    ConjunctUse::Residual => residual.push(p),
                    ConjunctUse::Later => rest.push(p),
                }
            }
            remaining = rest;
            let residual_pred =
                if residual.is_empty() { None } else { Some(Predicate::and(residual)) };
            let out = if is_last && !grouped && q.order_by.is_empty() && !q.distinct
                && !force_distinct && self.can_stream_final(q)
            {
                // Stream the final join straight into the projection.
                let rel = self.join_collect(
                    &acc,
                    next,
                    LogicalJoinKind::Inner,
                    &keys,
                    residual_pred.as_ref(),
                )?;
                return self.project_relation(q, rel, force_distinct);
            } else {
                self.join_outputs(
                    &acc,
                    next,
                    LogicalJoinKind::Inner,
                    &keys,
                    residual_pred.as_ref(),
                    true,
                )?
            };
            if step > 1 {
                // Intermediate accumulators are temporary files.
                acc.file.drop_pages(self.exec.storage());
            }
            acc = out;
            acc_names.push(next_name);
        }

        // Single-table case or non-streamable tail: apply leftover
        // predicates, then the SELECT phase.
        let leftover =
            if remaining.is_empty() { None } else { Some(Predicate::and(remaining)) };
        if grouped {
            return self.finish_grouped(q, acc, leftover, force_distinct);
        }
        let rel = match leftover {
            Some(p) => {
                let cpred = CPred::compile(acc.file.schema(), &p)?;
                let filtered = self.exec.filter(&acc.file, &cpred)?;
                let rel = self.exec.collect(&filtered);
                filtered.drop_pages(self.exec.storage());
                rel
            }
            None => self.exec.collect(&acc.file),
        };
        self.project_relation(q, rel, force_distinct)
    }

    fn can_stream_final(&self, q: &QueryBlock) -> bool {
        // Streaming projection needs plain column/literal select items.
        q.select.iter().all(|s| !matches!(s.expr, ScalarExpr::Aggregate(..)))
    }

    /// SELECT-phase over an in-memory join result (no aggregates).
    fn project_relation(
        &mut self,
        q: &QueryBlock,
        rel: Relation,
        force_distinct: bool,
    ) -> Result<Relation> {
        let schema = rel.schema().clone();
        let (exprs, out_schema) = compile_projection(&schema, &q.select)?;
        let projector = Projector::new(&exprs);
        let mut rows: Vec<Tuple> =
            rel.tuples().iter().map(|t| projector.apply_ref(t)).collect();
        if q.distinct || force_distinct {
            rows.sort_by(Tuple::total_cmp);
            rows.dedup();
        }
        let mut out = Relation::new(out_schema, rows)?;
        if !q.order_by.is_empty() {
            out = sort_relation(out, &q.order_by)?;
        }
        Ok(out)
    }

    /// SELECT-phase with aggregation / GROUP BY.
    fn finish_grouped(
        &mut self,
        q: &QueryBlock,
        acc: PlanOutput,
        leftover: Option<Predicate>,
        force_distinct: bool,
    ) -> Result<Relation> {
        let working = match leftover {
            Some(p) => {
                let cpred = CPred::compile(acc.file.schema(), &p)?;
                self.exec.filter(&acc.file, &cpred)?
            }
            None => acc.file.clone(),
        };
        let schema = working.schema().clone();
        let group_idx: Vec<usize> = q
            .group_by
            .iter()
            .map(|c| schema.resolve(c.table.as_deref(), &c.column))
            .collect::<std::result::Result<_, _>>()?;
        // Aggregates in select order; group columns mapped by position.
        let mut specs = Vec::new();
        let mut out_cols = Vec::new();
        // Layout: [group cols..., aggs in select order]; then reorder to
        // select order.
        for &i in &group_idx {
            let c = &schema.columns()[i];
            out_cols.push(Column::new(&c.name, c.ty));
        }
        let mut select_slots: Vec<usize> = Vec::new(); // output index per select item
        for item in &q.select {
            match &item.expr {
                ScalarExpr::Column(c) => {
                    let i = schema.resolve(c.table.as_deref(), &c.column)?;
                    let pos = group_idx.iter().position(|&g| g == i).ok_or_else(|| {
                        DbError::Engine(nsql_engine::EngineError::Unsupported(format!(
                            "column {c} in SELECT is not in GROUP BY"
                        )))
                    })?;
                    select_slots.push(pos);
                }
                ScalarExpr::Aggregate(func, arg) => {
                    let (spec, ty) = match arg {
                        AggArg::Star => (AggSpec::count_star(), ColumnType::Int),
                        AggArg::Column(c) => {
                            let i = schema.resolve(c.table.as_deref(), &c.column)?;
                            let ty = match func {
                                AggFunc::Count => ColumnType::Int,
                                AggFunc::Avg => ColumnType::Float,
                                _ => schema.columns()[i].ty,
                            };
                            (AggSpec::on(*func, i), ty)
                        }
                    };
                    select_slots.push(group_idx.len() + specs.len());
                    specs.push(spec);
                    out_cols.push(Column::new(
                        item.alias.clone().unwrap_or_else(|| func.name().to_string()),
                        ty,
                    ));
                }
                ScalarExpr::Literal(_) => {
                    return Err(DbError::Engine(nsql_engine::EngineError::Unsupported(
                        "literal select items in grouped queries".into(),
                    )))
                }
            }
        }
        let presorted = !group_idx.is_empty()
            && acc.sorted_by.len() >= group_idx.len()
            && acc.sorted_by[..group_idx.len()] == group_idx[..];
        let grouped = observed(
            self.exec.obs(),
            || "group-by".to_string(),
            working.tuple_count() as u64,
            |rel: &Relation| rel.len() as u64,
            || {
                self.exec.group_aggregate_collect(
                    &working,
                    &group_idx,
                    &specs,
                    Schema::new(out_cols.clone()),
                    presorted,
                )
            },
        )?;
        // Reorder columns to select order and rename per aliases.
        let mut final_cols = Vec::with_capacity(q.select.len());
        for (item, &slot) in q.select.iter().zip(&select_slots) {
            let base = &out_cols[slot];
            let name = item.alias.clone().unwrap_or_else(|| base.name.clone());
            final_cols.push(Column::new(name, base.ty));
        }
        let slot_exprs: Vec<CExpr> = select_slots.iter().map(|&s| CExpr::Col(s)).collect();
        let projector = Projector::new(&slot_exprs);
        let mut rows: Vec<Tuple> =
            grouped.tuples().iter().map(|t| projector.apply_ref(t)).collect();
        if q.distinct || force_distinct {
            rows.sort_by(Tuple::total_cmp);
            rows.dedup();
        }
        let mut out = Relation::new(Schema::new(final_cols), rows)?;
        if !q.order_by.is_empty() {
            out = sort_relation(out, &q.order_by)?;
        }
        Ok(out)
    }
}

enum JoinResult {
    File(PlanOutput),
    Rows(Relation),
}

/// Physical join algorithm chosen for one join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhysicalJoin {
    NestedLoop,
    Merge,
    Hash,
}

/// How one conjunct participates in a join step.
enum ConjunctUse {
    JoinKey(JoinPred),
    Residual,
    Later,
}

/// Classify a conjunct relative to a join step combining `acc_names` (left)
/// with `next_name` (right).
fn classify_conjunct(p: &Predicate, acc_names: &[String], next_name: &str) -> ConjunctUse {
    let refs = nsql_analyzer::resolve::predicate_column_refs(p);
    let available = |c: &ColumnRef| {
        c.table
            .as_deref()
            .is_some_and(|t| t == next_name || acc_names.iter().any(|n| n == t))
    };
    if !refs.iter().all(|c| available(c)) {
        return ConjunctUse::Later;
    }
    // Equality column-column across the two sides becomes a join key.
    if let Predicate::Compare {
        left: Operand::Column(a),
        op,
        right: Operand::Column(b),
    } = p
    {
        let a_left = a.table.as_deref().is_some_and(|t| acc_names.iter().any(|n| n == t));
        let b_left = b.table.as_deref().is_some_and(|t| acc_names.iter().any(|n| n == t));
        if *op == CompareOp::Eq {
            if a_left && b.table.as_deref() == Some(next_name) {
                return ConjunctUse::JoinKey(JoinPred {
                    left: a.clone(),
                    op: *op,
                    right: b.clone(),
                });
            }
            if b_left && a.table.as_deref() == Some(next_name) {
                return ConjunctUse::JoinKey(JoinPred {
                    left: b.clone(),
                    op: op.flip(),
                    right: a.clone(),
                });
            }
        }
    }
    ConjunctUse::Residual
}

/// Compile a projection list to expressions and an output schema.
fn compile_projection(
    schema: &Schema,
    items: &[nsql_sql::SelectItem],
) -> Result<(Vec<CExpr>, Schema)> {
    let mut exprs = Vec::with_capacity(items.len());
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        match &item.expr {
            ScalarExpr::Column(c) => {
                let i = schema.resolve(c.table.as_deref(), &c.column)?;
                let base = &schema.columns()[i];
                exprs.push(CExpr::Col(i));
                cols.push(Column::new(
                    item.alias.clone().unwrap_or_else(|| base.name.clone()),
                    base.ty,
                ));
            }
            ScalarExpr::Literal(v) => {
                exprs.push(CExpr::Lit(v.clone()));
                cols.push(Column::new(
                    item.alias.clone().unwrap_or_else(|| "LITERAL".into()),
                    v.column_type().unwrap_or(ColumnType::Int),
                ));
            }
            ScalarExpr::Aggregate(..) => {
                return Err(DbError::Engine(nsql_engine::EngineError::Unsupported(
                    "aggregate in plain projection".into(),
                )))
            }
        }
    }
    Ok((exprs, Schema::new(cols)))
}

/// New sort-prefix after projecting through `exprs`.
fn remap_sort(sorted_by: &[usize], exprs: &[CExpr]) -> Vec<usize> {
    let mut out = Vec::new();
    for &src in sorted_by {
        match exprs.iter().position(|e| matches!(e, CExpr::Col(i) if *i == src)) {
            Some(j) => out.push(j),
            None => break, // prefix broken
        }
    }
    out
}

fn sorted_on(sorted_by: &[usize], keys: &[usize]) -> bool {
    sorted_by.len() >= keys.len() && sorted_by[..keys.len()] == keys[..]
}

/// Extract the sargable shape `column op literal` (either orientation) from
/// one conjunct: the column resolving in `schema`, the op a range predicate
/// (`=`, `<`, `<=`, `>`, `>=` — not `<>`), the literal class-compatible.
fn sargable_conjunct(
    schema: &Schema,
    p: &Predicate,
) -> Option<(usize, CompareOp, Value)> {
    let Predicate::Compare { left, op, right } = p else { return None };
    if *op == CompareOp::Ne {
        return None;
    }
    let (c, op, v) = match (left, right) {
        (Operand::Column(c), Operand::Literal(v)) => (c, *op, v),
        (Operand::Literal(v), Operand::Column(c)) => (c, op.flip(), v),
        _ => return None,
    };
    let i = schema.try_resolve(c.table.as_deref(), &c.column)?;
    schema.columns()[i].ty.admits(v).then(|| (i, op, v.clone()))
}

/// Report a taken index path to the provider's statistics, resolving the
/// indexed table from the index's (qualified) schema. Pure side-state.
fn note_index_probes<T: TableProvider>(base: &T, ix: &BTreeIndex, probes: u64) {
    if let Some(table) = ix.schema().columns().first().and_then(|c| c.table.as_deref()) {
        base.note_index_probes(table, probes);
    }
}

/// Key-range bounds equivalent to `key op literal`.
fn bounds_for(op: CompareOp, v: Value) -> (KeyBound, KeyBound) {
    match op {
        CompareOp::Eq => (KeyBound::Incl(v.clone()), KeyBound::Incl(v)),
        CompareOp::Lt => (KeyBound::Unbounded, KeyBound::Excl(v)),
        CompareOp::Le => (KeyBound::Unbounded, KeyBound::Incl(v)),
        CompareOp::Gt => (KeyBound::Excl(v), KeyBound::Unbounded),
        CompareOp::Ge => (KeyBound::Incl(v), KeyBound::Unbounded),
        CompareOp::Ne => unreachable!("rejected by sargable_conjunct"),
    }
}

/// In-memory ORDER BY against the output schema.
fn sort_relation(rel: Relation, keys: &[nsql_sql::OrderKey]) -> Result<Relation> {
    let schema = rel.schema().clone();
    let mut idx: Vec<(usize, SortDir)> = Vec::new();
    for k in keys {
        let i = schema
            .try_resolve(None, &k.column.column)
            .or_else(|| schema.try_resolve(k.column.table.as_deref(), &k.column.column))
            .ok_or_else(|| {
                DbError::Type(nsql_types::TypeError::UnknownColumn(k.column.to_string()))
            })?;
        idx.push((i, k.dir));
    }
    let mut rows = rel.into_tuples();
    rows.sort_by(|a, b| {
        for &(i, dir) in &idx {
            let o = a.get(i).total_cmp(b.get(i));
            let o = if dir == SortDir::Desc { o.reverse() } else { o };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    Relation::new(schema, rows).map_err(DbError::from)
}

// SortKey is pulled in for potential external sorting of large final
// results; the in-memory sort above suffices for result delivery.
#[allow(unused_imports)]
use SortKey as _SortKeyUnused;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use nsql_core::AggItem;
    use nsql_storage::Storage;
    use nsql_sql::parse_query;
    use nsql_types::Value;

    fn catalog() -> Catalog {
        let storage = Storage::with_defaults();
        let mut cat = Catalog::new(storage);
        let schema = Schema::new(vec![
            Column::new("K", ColumnType::Int),
            Column::new("V", ColumnType::Int),
        ]);
        let mut rel = Relation::empty(schema.clone());
        for (k, v) in [(3i64, 30), (1, 10), (2, 20), (1, 11)] {
            rel.push(Tuple::new(vec![Value::Int(k), Value::Int(v)])).unwrap();
        }
        cat.create_table("T", schema).unwrap();
        cat.insert(
            "T",
            rel.tuples().to_vec(),
        )
        .unwrap();
        cat
    }

    fn executor(cat: &Catalog, policy: JoinPolicy) -> PlanExecutor<&Catalog> {
        PlanExecutor::new(Exec::new(cat.storage().clone()), cat, policy)
    }

    #[test]
    fn distinct_projection_reports_full_sort_order() {
        let cat = catalog();
        let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::scan("T")),
            items: vec![nsql_sql::SelectItem::column(ColumnRef::qualified("T", "K"))],
            distinct: true,
        };
        let out = pe.run_plan(&plan).unwrap();
        assert_eq!(out.sorted_by, vec![0]);
        assert_eq!(out.file.tuple_count(), 3, "deduplicated");
    }

    #[test]
    fn merge_join_output_is_sorted_on_left_keys() {
        let cat = catalog();
        let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("A".into()) }),
            right: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("B".into()) }),
            kind: LogicalJoinKind::Inner,
            on: vec![JoinPred {
                left: ColumnRef::qualified("A", "K"),
                op: CompareOp::Eq,
                right: ColumnRef::qualified("B", "K"),
            }],
        };
        let out = pe.run_plan(&plan).unwrap();
        assert_eq!(out.sorted_by, vec![0]);
        // 1 matches 1,1 (4 combos: 2x2), 2 matches 2, 3 matches 3 → 2*2+1+1.
        assert_eq!(out.file.tuple_count(), 6);
    }

    #[test]
    fn aggregate_over_merge_join_skips_the_sort_pass() {
        let cat = catalog();
        let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("A".into()) }),
                right: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("B".into()) }),
                kind: LogicalJoinKind::Inner,
                on: vec![JoinPred {
                    left: ColumnRef::qualified("A", "K"),
                    op: CompareOp::Eq,
                    right: ColumnRef::qualified("B", "K"),
                }],
            }),
            group_by: vec![ColumnRef::qualified("A", "K")],
            aggs: vec![AggItem {
                func: AggFunc::Count,
                arg: AggArg::Column(ColumnRef::qualified("B", "V")),
                alias: "CT".into(),
            }],
        };
        let out = pe.run_plan(&plan).unwrap();
        assert_eq!(out.file.tuple_count(), 3);
        let log = pe.log.join("\n");
        assert!(
            log.contains("input pre-sorted, no sort pass"),
            "GROUP BY over merge-join output must skip its sort:\n{log}"
        );
    }

    #[test]
    fn cost_based_prefers_nl_when_inner_is_buffer_resident() {
        let cat = catalog(); // T is 1 page — far below B-1
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        let l = pe.run_plan(&LogicalPlan::Scan { table: "T".into(), alias: Some("A".into()) }).unwrap();
        let r = pe.run_plan(&LogicalPlan::Scan { table: "T".into(), alias: Some("B".into()) }).unwrap();
        let picked = pe.pick_method(&l, &r, &[0], &[0]);
        assert_eq!(picked, PhysicalJoin::NestedLoop);
    }

    #[test]
    fn forced_policies_pick_their_method() {
        let cat = catalog();
        let l_r = {
            let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
            let l = pe.run_plan(&LogicalPlan::Scan { table: "T".into(), alias: Some("A".into()) }).unwrap();
            let r = pe.run_plan(&LogicalPlan::Scan { table: "T".into(), alias: Some("B".into()) }).unwrap();
            (l, r)
        };
        for (policy, want) in [
            (JoinPolicy::ForceNestedLoop, PhysicalJoin::NestedLoop),
            (JoinPolicy::ForceMergeJoin, PhysicalJoin::Merge),
            (JoinPolicy::ForceHashJoin, PhysicalJoin::Hash),
        ] {
            let pe = executor(&cat, policy);
            assert_eq!(pe.pick_method(&l_r.0, &l_r.1, &[0], &[0]), want, "{policy:?}");
        }
    }

    #[test]
    fn filter_over_outer_join_is_not_fused() {
        // The §5.2 distinction: a filter above a LEFT OUTER join must run
        // after padding, not as a join residual.
        let cat = catalog();
        let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("A".into()) }),
            right: Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some("B".into()) }),
            kind: LogicalJoinKind::LeftOuter,
            on: vec![JoinPred {
                left: ColumnRef::qualified("A", "K"),
                op: CompareOp::Eq,
                right: ColumnRef::qualified("B", "K"),
            }],
        };
        // Predicate on the right side: padded rows (NULL B.V) must be
        // dropped by the filter — which only happens if it is NOT fused.
        let q = parse_query("SELECT A.K FROM A, B WHERE B.V > 100").unwrap();
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            pred: q.where_clause.unwrap(),
        };
        let out = pe.run_plan(&plan).unwrap();
        // No B.V exceeds 100, so the result must be empty — if the filter
        // were fused as an outer-join residual, every left row would
        // survive padded.
        assert_eq!(out.file.tuple_count(), 0);
    }
}
