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
//! and meets the final merge join pre-sorted. On the default path that GROUP
//! BY and the join under it may be one groupjoin instead
//! ([`Exec::hash_groupjoin`]), which keeps `Rt2`'s order.
//!
//! Whatever a step materializes is owned by the [`PlanOutput`] it returns
//! and freed when that value is dropped (DESIGN.md, "Execution model and
//! the I/O-accounting invariant"): nothing here frees a page by hand.

use crate::error::DbError;
use crate::explain::TempStat;
use crate::options::{IndexUse, JoinPolicy};
use crate::Result;
use nsql_core::{AggItem, JoinPred, LogicalJoinKind, LogicalPlan, TransformPlan};
use nsql_engine::cost::{
    classic_join_costs, groupjoin_cost, groupjoin_table_pages, hash_join_cost, hash_partitions,
    index_join_cost, index_restrict_cost, HashShape, JoinInput,
};
use nsql_engine::pred::cannot_raise;
use nsql_engine::{
    AggSpec, CExpr, CPred, Exec, JoinEmit, JoinKind, Joined, Projector, TableProvider,
};
use nsql_index::{BTreeIndex, KeyBound};
use nsql_obs::Profile;
use nsql_storage::sort::SortKey;
use nsql_storage::{HeapFile, Storage, TempFile};
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
/// hash build/probe phases) record into its counters while it
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
///
/// An output either *views* a file someone else owns — a base table, a
/// registered temporary — or *is* what a plan step materialized, and then
/// dropping the output frees the file's pages.
pub struct PlanOutput {
    /// The materialized data.
    pub file: HeapFile,
    /// Output column indices forming the current sort-order prefix
    /// (empty = unknown order).
    pub sorted_by: Vec<usize>,
    /// No two rows are equal: set by a DISTINCT projection and by the
    /// groupjoin, whose rows are those of a duplicate-free input. Unknown
    /// (`false`) anywhere else.
    pub duplicate_free: bool,
    /// B+tree indexes still valid for this output. Non-empty only for
    /// unmodified base-table scans (requalifying by an alias keeps column
    /// positions, so the indexes survive it); every transforming operator
    /// clears it.
    pub indexes: Vec<Arc<BTreeIndex>>,
    /// Owns `file`'s pages when a plan step materialized them; `None` on a
    /// view. Only the pages matter: the guard's copy of the schema is not
    /// read.
    _owner: Option<TempFile>,
}

impl PlanOutput {
    /// What a plan step just materialized: unindexed, freed with the value.
    fn stored(storage: &Storage, file: HeapFile, sorted_by: Vec<usize>) -> PlanOutput {
        let _owner = Some(TempFile::new(storage, file.clone()));
        PlanOutput { file, sorted_by, duplicate_free: false, indexes: vec![], _owner }
    }

    /// The same pages with their columns requalified by `name` — how a scan
    /// sees a table under its alias, how a temporary goes by its name.
    /// Order, indexes and ownership carry over.
    fn requalified(self, name: &str) -> PlanOutput {
        let schema = self.file.schema().requalify(name);
        PlanOutput { file: self.file.with_schema(schema), ..self }
    }
}

/// Executor for logical plans and canonical queries over a base provider
/// plus an overlay of temporary tables. Dropping the executor frees the
/// temporaries still registered with it.
pub struct PlanExecutor<T: TableProvider> {
    exec: Exec,
    base: T,
    temps: HashMap<String, PlanOutput>,
    policy: JoinPolicy,
    index_use: IndexUse,
    /// Run the paper's literal plans ([`PlanExecutor::set_faithful`]).
    faithful: bool,
    /// EXPLAIN-style log of physical decisions.
    pub log: Vec<String>,
}

impl<T: TableProvider> PlanExecutor<T> {
    /// New executor over `base` with the given join policy.
    pub fn new(exec: Exec, base: T, policy: JoinPolicy) -> Self {
        PlanExecutor {
            exec,
            base,
            temps: HashMap::new(),
            policy,
            index_use: IndexUse::default(),
            faithful: false,
            log: Vec::new(),
        }
    }

    /// Change whether index paths may be taken (default: cost-based).
    pub fn set_index_use(&mut self, index_use: IndexUse) {
        self.index_use = index_use;
    }

    /// Run the paper's literal plans (`UnnestOptions::faithful_1987`): the
    /// canonical query joins whole base tables, every stored join result
    /// carries every column, and the join method is chosen on Section 7's
    /// page counts alone. Default off: each FROM input with conjuncts of
    /// its own is restricted and projected first, stored join results carry
    /// the columns somebody reads, and the choice prices CPU as well.
    pub fn set_faithful(&mut self, faithful: bool) {
        self.faithful = faithful;
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

    /// Register `out` as the temporary table `name`, its columns
    /// requalified by that name. The executor owns its pages from here on.
    pub fn register_temp(&mut self, name: &str, out: PlanOutput) {
        let out = PlanOutput { indexes: vec![], ..out.requalified(name) };
        self.temps.insert(name.to_ascii_uppercase(), out);
    }

    /// A registered temporary, if present.
    pub fn temp(&self, name: &str) -> Option<&PlanOutput> {
        self.temps.get(&name.to_ascii_uppercase())
    }

    /// Drop all temporary tables, freeing their pages (as dropping the
    /// executor does).
    pub fn drop_temps(&mut self) {
        self.temps.clear();
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

    /// A view of the registered temporary or base table `name`, with its
    /// columns requalified by `seen_as`.
    fn lookup(&self, name: &str, seen_as: &str) -> Result<PlanOutput> {
        let key = name.to_ascii_uppercase();
        let (file, sorted_by, duplicate_free, indexes) = if let Some(t) = self.temps.get(&key) {
            (t.file.clone(), t.sorted_by.clone(), t.duplicate_free, t.indexes.clone())
        } else if let Some(file) = self.base.get_table(&key) {
            (file, vec![], false, self.base.get_indexes(&key))
        } else {
            return Err(DbError::Engine(nsql_engine::EngineError::UnknownTable(key)));
        };
        let out = PlanOutput { file, sorted_by, duplicate_free, indexes, _owner: None };
        Ok(out.requalified(seen_as))
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
        for temp in &plan.temps {
            let exec = self.exec.clone();
            let out = observed(
                exec.obs(),
                || format!("materialize {}", temp.name),
                0,
                stored_rows,
                || self.run_plan(&temp.plan),
            );
            self.register_temp(&temp.name, out?);
            let PlanOutput { file, sorted_by, .. } = &self.temps[&temp.name.to_ascii_uppercase()];
            self.log.push(materialize_line(&temp.name, file, sorted_by));
        }
        self.execute_flat_query(&plan.canonical, force_distinct)
    }

    // ----------------------------------------------------------- LogicalPlan

    /// Execute a logical plan to a materialized heap file. The children a
    /// step materialized are freed when the step has read them for the
    /// last time: where its arm ends.
    pub fn run_plan(&mut self, plan: &LogicalPlan) -> Result<PlanOutput> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                self.lookup(table, alias.as_deref().unwrap_or(table))
            }
            LogicalPlan::Filter { input, pred } => {
                if let Some(out) = self.run_joined(plan, None)? {
                    return Ok(out);
                }
                // The literal shape of a filter over an *inner* join: the
                // join's residual. Not valid for outer joins: a residual that
                // fails pads the left tuple, whereas a filter above the
                // join drops the padded row — exactly the distinction
                // behind the paper's §5.2 restriction-ordering warning.
                if let LogicalPlan::Join { left, right, kind: LogicalJoinKind::Inner, on } =
                    input.as_ref()
                {
                    return self.run_join(left, right, LogicalJoinKind::Inner, on, Some(pred));
                }
                let child = self.run_plan(input)?;
                if let Some(out) = self.try_index_restrict(&child, pred, None)? {
                    return Ok(out);
                }
                let cpred = CPred::compile(child.file.schema(), pred)?;
                let file = self.exec.filter(&child.file, &cpred)?;
                Ok(PlanOutput::stored(self.exec.storage(), file, child.sorted_by))
            }
            LogicalPlan::Project { input, items, distinct } => {
                let reads = items.iter().filter_map(|item| match &item.expr {
                    ScalarExpr::Column(c) => Some(c),
                    _ => None,
                });
                let joined = self.run_joined(input, Some(reads.collect()))?;
                // Over one relation, Project(Filter(x)) is one
                // restrict+project pass.
                let (mut child, mut pred) = match (joined, input.as_ref()) {
                    (Some(joined), _) => (joined, None),
                    (None, LogicalPlan::Filter { input: inner, pred }) => {
                        (self.run_plan(inner)?, Some(pred))
                    }
                    (None, other) => (self.run_plan(other)?, None),
                };
                if let Some(p) = pred {
                    // The fused filter may route through an index first; the
                    // index pass applies the whole predicate, so the
                    // projection then runs unfiltered.
                    if let Some(filtered) = self.try_index_restrict(&child, p, None)? {
                        child = filtered;
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
                let sorted_by = if *distinct {
                    // Distinct projection leaves the file whole-tuple sorted.
                    (0..file.schema().arity()).collect()
                } else {
                    remap_sort(&child.sorted_by, |src| projected_at(&exprs, src))
                };
                let out = PlanOutput::stored(self.exec.storage(), file, sorted_by);
                Ok(PlanOutput { duplicate_free: *distinct, ..out })
            }
            LogicalPlan::Join { left, right, kind, on } => match self.run_joined(plan, None)? {
                Some(out) => Ok(out),
                None => self.run_join(left, right, *kind, on, None),
            },
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let args = aggs.iter().filter_map(|a| match &a.arg {
                    AggArg::Column(c) => Some(c),
                    AggArg::Star => None,
                });
                let reads = group_by.iter().chain(args).collect();
                let child = match (self.run_joined(input, Some(reads))?, input.as_ref()) {
                    (Some(joined), _) => joined,
                    (None, LogicalPlan::Join { left, right, kind, on }) => {
                        let l = self.run_plan(left)?;
                        let r = self.run_plan(right)?;
                        let groupjoin = self.choose_groupjoin(&l, &r, *kind, on, group_by, aggs)?;
                        if let Some(gj) = groupjoin {
                            return self.groupjoin(&l, &r, gj);
                        }
                        let joined = self.join(&l, &r, *kind, on, None, None, stored_rows, store)?;
                        // Left before right, as `run_join` frees them.
                        drop(l);
                        drop(r);
                        joined
                    }
                    (None, _) => self.run_plan(input)?,
                };
                let mut step = GroupStep::new(child.file.schema(), &child.sorted_by, group_by)?;
                for a in aggs {
                    step.push_agg(a.func, &a.arg, &a.alias)?;
                }
                if !step.group_idx.is_empty() {
                    let how =
                        if step.presorted { "input pre-sorted, no sort pass" } else { "sorting input" };
                    self.log.push(format!("group-by: {how}"));
                }
                let sorted_by = (0..step.group_idx.len()).collect();
                step.run(&self.exec, &child.file, self.faithful, stored_rows, |rel| {
                    store(&self.exec, rel, sorted_by)
                })
            }
        }
    }

    /// The default plans' way through a temporary over several relations.
    /// When the maximal subtree of filters and inner joins rooted at `plan`
    /// joins two inputs or more under a filter — an inner block other blocks
    /// were merged into arrives as one filter over a key-less join tree
    /// (Section 9) — its leaves are executed and handed, with every conjunct
    /// of its filters and `on` lists, to the join pipeline of the canonical
    /// query ([`join_inputs`](Self::join_inputs)); `reads` is what the node
    /// above reads of the result, `None` for every column. A left outer
    /// join or an aggregate is a leaf of such a subtree, executed whole
    /// before any conjunct above it is looked at: the barrier Section 5.2
    /// asks for, by construction. `None` when there is nothing to decide —
    /// one input, or joins whose `on` lists are all there is (NEST-JA2's
    /// `TEMP1 ⋈ TEMP2`) — and under the literal plans, which run the tree
    /// node by node.
    fn run_joined(
        &mut self,
        plan: &LogicalPlan,
        reads: Option<Vec<&ColumnRef>>,
    ) -> Result<Option<PlanOutput>> {
        if self.faithful {
            return Ok(None);
        }
        let (mut leaves, mut conjuncts, mut filters) = (Vec::new(), Vec::new(), Vec::new());
        flatten(plan, &mut leaves, &mut conjuncts, &mut filters);
        if leaves.len() < 2 || filters.is_empty() {
            return Ok(None);
        }
        conjuncts.append(&mut filters);
        let mut inputs: Vec<PlanOutput> =
            leaves.into_iter().map(|leaf| self.run_plan(leaf)).collect::<Result<_>>()?;
        self.join_inputs(&mut inputs, &mut conjuncts, reads, stored_rows, store)
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
        let out = self.join(&l, &r, kind, on, residual, None, stored_rows, store)?;
        // Left before right, where the trace of record has them.
        drop(l);
        drop(r);
        Ok(out)
    }

    /// Join two inputs by the method [`choose_join`](Self::choose_join)
    /// picks, inside one operator node, and hand the rows and the order
    /// they lie in to `deliver` while that node is still open — so a sink
    /// that stores them has its page writes counted on the join, and one
    /// that keeps them in memory (the final join of a canonical query)
    /// writes nothing. `rows` counts what `deliver` made, for the node.
    ///
    /// `reads` lists the columns anything after this step reads: the rows
    /// are built with those columns only, in the order of the concatenated
    /// schema ([`JoinEmit`]). `None` emits every column.
    #[allow(clippy::too_many_arguments)]
    fn join<R>(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
        reads: Option<&[&ColumnRef]>,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(&Exec, Relation, Vec<usize>) -> R,
    ) -> Result<R> {
        let combined = l.file.schema().join(r.file.schema());
        let cols = reads.map(|reads| columns_read(&combined, reads));
        let cols = cols.as_deref();
        let jkind = join_kind(kind);
        let JoinKeys { lkeys, rkeys, residual } = join_keys(l, r, on, residual)?;

        let method = self.choose_join(l, r, jkind, &lkeys, &rkeys);
        let probes = l.file.tuple_count();
        self.log.push(method.explain(lkeys.len(), probes));
        let (probe_key, rows_in) = match &method {
            JoinMethod::IndexProbe { key, index } => {
                note_index_probes(&self.base, index, probes as u64);
                (Some(*key), probes)
            }
            _ => (None, probes + r.file.tuple_count()),
        };
        // What the methods without a key comparison of their own evaluate
        // on a candidate pair: the equality keys (but the one an index
        // probe has already matched) folded in front of the residual.
        let folded = || {
            let split = l.file.schema().arity();
            let mut preds: Vec<CPred> = (0..lkeys.len())
                .filter(|&j| Some(j) != probe_key)
                .map(|j| CPred::Cmp {
                    left: CExpr::Col(lkeys[j]),
                    op: CompareOp::Eq,
                    right: CExpr::Col(split + rkeys[j]),
                })
                .collect();
            preds.extend(residual.clone());
            if preds.is_empty() { CPred::always_true() } else { CPred::And(preds) }
        };
        let exec = &self.exec;
        observed(exec.obs(), || method.label(lkeys.len()), rows_in as u64, rows, || {
            let (lf, rf, residual) = (&l.file, &r.file, residual.as_ref());
            let rel = match &method {
                JoinMethod::Hash(_) => {
                    exec.hash_join_cols(lf, rf, &lkeys, &rkeys, residual, jkind, cols)?
                }
                JoinMethod::Merge { left_presorted, right_presorted } => exec.merge_join_cols(
                    lf,
                    rf,
                    &lkeys,
                    &rkeys,
                    residual,
                    jkind,
                    *left_presorted,
                    *right_presorted,
                    cols,
                )?,
                JoinMethod::NestedLoop => exec.nl_join_cols(lf, rf, &folded(), jkind, cols)?,
                JoinMethod::IndexProbe { key, index } => {
                    let (storage, extra) = (exec.storage(), folded());
                    let emit = JoinEmit::new(rf.schema(), cols);
                    let mut rows = Vec::new();
                    for lt in lf.scan(storage) {
                        let probe = lt.get(lkeys[*key]);
                        if matches!(probe, Value::Null) {
                            continue; // NULL never equals anything
                        }
                        for rt in index.probe_eq(storage, probe) {
                            if extra.accepts_row(&Joined::new(&lt, &rt))? {
                                rows.push(emit.pair(&lt, &rt));
                            }
                        }
                    }
                    Relation::new(emit.schema(lf.schema(), rf.schema()), rows)?
                }
            };
            // A merge join emits in key order; a hash join that built on the
            // left or partitioned in no order; the other methods keep the
            // left input's.
            let sorted_by = match method {
                JoinMethod::Merge { .. } => &lkeys,
                JoinMethod::Hash(shape) if !shape.keeps_left_order() => &Vec::new(),
                _ => &l.sorted_by,
            };
            let sorted_by = match cols {
                Some(cols) => remap_sort(sorted_by, |src| cols.iter().position(|&c| c == src)),
                None => sorted_by.clone(),
            };
            Ok(deliver(exec, rel, sorted_by))
        })
    }

    /// Decide how one join step runs. Without an equality key only the
    /// nested loop applies. Otherwise: §7.3's extension first — an inner
    /// equi-join whose right side is an unmodified base table with a B+tree
    /// on a join key (of a comparable type class) can probe it once per
    /// left tuple, NEST-JA2's back-join without a full inner scan, when the
    /// index policy and the cost picture favour that — then the join
    /// policy. The cost-based choice takes the cheapest of the nested loop,
    /// the merge join and the hash join (ties in that order), each priced
    /// whole at `cost::PRICES`, and the probe must be cheaper than all three;
    /// under the literal plans (`faithful_1987`) only the paper's two methods
    /// compete, by their page I/Os.
    fn choose_join(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: JoinKind,
        lkeys: &[usize],
        rkeys: &[usize],
    ) -> JoinMethod {
        let choice = self.price_join(l, r, kind, lkeys, rkeys);
        self.log.extend(choice.explain);
        choice.method
    }

    /// [`choose_join`](Self::choose_join)'s decision, what the method it
    /// takes costs (in the unit the choice compares) and the EXPLAIN lines
    /// that say why, without logging them.
    fn price_join(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: JoinKind,
        lkeys: &[usize],
        rkeys: &[usize],
    ) -> JoinChoice {
        let mut explain = Vec::new();
        if lkeys.is_empty() {
            return JoinChoice { method: JoinMethod::NestedLoop, cost: f64::INFINITY, explain };
        }
        let (l_sorted, r_sorted) = (sorted_on(&l.sorted_by, lkeys), sorted_on(&r.sorted_by, rkeys));
        let input = |side: &PlanOutput, sorted| JoinInput {
            pages: side.file.page_count() as f64,
            rows: side.file.tuple_count() as f64,
            sorted,
        };
        // Under the default plans each method is priced whole, in
        // microseconds; under the literal ones by its page I/Os alone.
        let (outer, inner) = (input(l, l_sorted), input(r, r_sorted));
        let b = self.exec.storage().buffer_pages() as f64;
        let priced = !self.faithful;
        let (nl, mj) = classic_join_costs(outer, inner, b, priced);
        let left_outer = kind == JoinKind::LeftOuter;
        let hj = hash_join_cost(outer, inner, left_outer, b, priced);
        // What the cheapest method the cost-based choice may take costs.
        let classic = nl.total().min(mj.total());
        let best = if priced { classic.min(hj.total()) } else { classic };
        let may_probe = kind == JoinKind::Inner
            && match (self.index_use, self.policy) {
                (IndexUse::Never, _) => false,
                (IndexUse::Prefer, _) => true,
                // Cost-based index use only composes with the cost-based join
                // policy — forced classic policies stay forced.
                (IndexUse::CostBased, policy) => policy == JoinPolicy::CostBased,
            };
        // The first join key the right side has an index on. Probe values
        // must order identically in the index (total_cmp) and in predicate
        // evaluation (sql_cmp); mixed incomparable classes would turn a type
        // error into a silent empty result.
        let candidate = rkeys
            .iter()
            .enumerate()
            .find_map(|(key, &rk)| {
                let index = r.indexes.iter().find(|ix| ix.key_col() == rk)?;
                Some((key, Arc::clone(index)))
            })
            .filter(|(key, _)| {
                let lty = l.file.schema().columns()[lkeys[*key]].ty;
                let rty = r.file.schema().columns()[rkeys[*key]].ty;
                may_probe && lty.same_class(rty)
            });
        if let Some((key, index)) = candidate {
            let st = index.stats();
            let (height, leaves) = (st.height as f64, st.leaves_per_probe() as f64);
            let ix = index_join_cost(outer, height, leaves, priced);
            let use_ix = self.index_use == IndexUse::Prefer || ix.total() < best;
            let and_hj = if priced { format!(" / hj {hj}") } else { String::new() };
            explain.push(format!(
                "index join candidate {}: cost {ix} vs nl {nl} / mj {mj}{and_hj} ({})",
                index.name(),
                if use_ix { "chose index" } else { "rejected" }
            ));
            if use_ix {
                let method = JoinMethod::IndexProbe { key, index };
                return JoinChoice { method, cost: ix.total(), explain };
            }
        }
        if priced {
            explain.push(format!("join choice: nl {nl} / mj {mj} / hj {hj}"));
        }
        let merge = JoinMethod::Merge { left_presorted: l_sorted, right_presorted: r_sorted };
        let hash = JoinMethod::Hash(HashShape::of(outer.pages, inner.pages, left_outer, b));
        let (method, cost) = match self.policy {
            JoinPolicy::ForceNestedLoop => (JoinMethod::NestedLoop, nl),
            JoinPolicy::ForceMergeJoin => (merge, mj),
            JoinPolicy::ForceHashJoin => (hash, hj),
            JoinPolicy::CostBased => {
                let hash_wins = priced && hj.total() < classic;
                if hash_wins {
                    (hash, hj)
                } else if mj.total() < nl.total() {
                    (merge, mj)
                } else {
                    (JoinMethod::NestedLoop, nl)
                }
            }
        };
        JoinChoice { method, cost: cost.total(), explain }
    }

    /// Whether the aggregate step over the join of `l` and `r` is done as
    /// one groupjoin ([`Exec::hash_groupjoin`]) rather than the join and a
    /// GROUP BY: NEST-JA2's `TEMP3`, a GROUP BY over `TEMP1 [LEFT OUTER]
    /// JOIN TEMP2` where `TEMP1` is a DISTINCT projection. It may when the
    /// join has an equality key, `l` is duplicate-free (so every left row is
    /// a group of its own), the GROUP BY is exactly `l`'s columns, every
    /// aggregate argument is a column of `r`, and the join policy is the
    /// cost-based one of the default plans; it does when it costs at most
    /// what the join method the choice would take costs, as the join and
    /// GROUP BY together cost at least that. The EXPLAIN line says both.
    fn choose_groupjoin(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: LogicalJoinKind,
        on: &[JoinPred],
        group_by: &[ColumnRef],
        aggs: &[AggItem],
    ) -> Result<Option<Groupjoin>> {
        if self.faithful || self.policy != JoinPolicy::CostBased || !l.duplicate_free {
            return Ok(None);
        }
        let JoinKeys { lkeys, rkeys, residual } = join_keys(l, r, on, None)?;
        if lkeys.is_empty() {
            return Ok(None);
        }
        let combined = l.file.schema().join(r.file.schema());
        let mut step = GroupStep::new(&combined, &[], group_by)?;
        for a in aggs {
            step.push_agg(a.func, &a.arg, &a.alias)?;
        }
        let split = l.file.schema().arity();
        let on_the_left = step.group_idx.iter().copied().eq(0..split);
        if !on_the_left || step.specs.iter().any(|s| s.arg.is_some_and(|i| i < split)) {
            return Ok(None);
        }
        let kind = join_kind(kind);
        let join = self.price_join(l, r, kind, &lkeys, &rkeys).cost;
        let input = |side: &PlanOutput| JoinInput {
            pages: side.file.page_count() as f64,
            rows: side.file.tuple_count() as f64,
            sorted: false,
        };
        let (groups, rows) = (input(l), input(r));
        let storage = self.exec.storage();
        let (b, page_size) = (storage.buffer_pages() as f64, storage.page_size());
        let table = groupjoin_table_pages(groups.pages, groups.rows, aggs.len(), page_size);
        let cost = groupjoin_cost(groups, rows, table, b);
        let chosen = cost.total() <= join;
        let partitions = hash_partitions(table, b);
        self.log.push(format!(
            "groupjoin ({} keys){}: {cost} vs join {join:.1} µs (chose {})",
            lkeys.len(),
            if partitions > 0 { format!(", {partitions} partitions") } else { String::new() },
            if chosen { "groupjoin" } else { "join" },
        ));
        let aggs = step.specs.iter().map(|s| AggSpec { arg: s.arg.map(|i| i - split), ..*s });
        Ok(chosen.then(|| Groupjoin {
            lkeys,
            rkeys,
            residual,
            kind,
            aggs: aggs.collect(),
            schema: Schema::new(step.out_cols),
            partitions,
        }))
    }

    /// Run the groupjoin [`choose_groupjoin`](Self::choose_groupjoin) took,
    /// in an operator node of its own: one row per row of `l`, stored. In
    /// memory it keeps `l`'s order — NEST-JA2's `TEMP3` meets the final join
    /// pre-sorted, as the GROUP BY's output does — and partitioned none.
    fn groupjoin(&self, l: &PlanOutput, r: &PlanOutput, gj: Groupjoin) -> Result<PlanOutput> {
        let exec = &self.exec;
        let rows_in = (l.file.tuple_count() + r.file.tuple_count()) as u64;
        let label = || format!("groupjoin ({} keys)", gj.lkeys.len());
        observed(exec.obs(), label, rows_in, stored_rows, || {
            let (lkeys, rkeys, residual) = (&gj.lkeys, &gj.rkeys, gj.residual.as_ref());
            let (lf, rf) = (&l.file, &r.file);
            let rel =
                exec.hash_groupjoin(lf, rf, lkeys, rkeys, residual, gj.kind, &gj.aggs, gj.schema)?;
            let sorted_by = if gj.partitions == 0 { l.sorted_by.clone() } else { Vec::new() };
            Ok(PlanOutput { duplicate_free: true, ..store(exec, rel, sorted_by) })
        })
    }

    /// Try to satisfy `pred` over `out` (a base-table scan with live
    /// indexes) through a B+tree range scan: find a sargable conjunct on an
    /// index key, cost the index path against the full scan, and — when
    /// chosen — return the fully filtered, key-ordered materialization, of
    /// the columns `keep` only when given.
    fn try_index_restrict(
        &mut self,
        out: &PlanOutput,
        pred: &Predicate,
        keep: Option<&[usize]>,
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
            let out_schema = keep.map_or_else(|| schema.clone(), |keep| schema.project(keep));
            let sorted_by = match keep {
                Some(keep) => keep.iter().position(|&c| c == ix.key_col()).into_iter().collect(),
                None => vec![ix.key_col()],
            };
            let file = observed(
                self.exec.obs(),
                || format!("index scan {}", ix.name()),
                0,
                |f: &HeapFile| f.tuple_count() as u64,
                || -> Result<HeapFile> {
                    let mut rows = Vec::new();
                    for t in ix.range_scan(&storage, &lo, &hi) {
                        if cpred.accepts(&t)? {
                            rows.push(match keep {
                                Some(keep) => t.project(keep),
                                None => t,
                            });
                        }
                    }
                    Ok(HeapFile::from_tuples(&storage, out_schema, rows))
                },
            )?;
            return Ok(Some(PlanOutput::stored(&storage, file, sorted_by)));
        }
        Ok(None)
    }

    /// One pass of the paper's own first step — "restriction and
    /// projection" of a relation, priced `P + Pt` — over the join input
    /// `name`: the rows `pred` accepts, their columns `keep`, stored as an
    /// intermediate of this statement with an operator node and an EXPLAIN
    /// line of its own.
    fn restrict_project(
        &mut self,
        name: &str,
        inp: &PlanOutput,
        pred: &Predicate,
        keep: &[usize],
    ) -> Result<PlanOutput> {
        let schema = inp.file.schema();
        let cpred = CPred::compile(schema, pred)?;
        let exprs: Vec<CExpr> = keep.iter().map(|&c| CExpr::Col(c)).collect();
        let exec = &self.exec;
        let file = observed(
            exec.obs(),
            || format!("restrict+project {name}"),
            0,
            |f: &HeapFile| f.tuple_count() as u64,
            || exec.restrict_project(&inp.file, &cpred, &exprs, schema.project(keep), false),
        )?;
        self.log.push(format!(
            "restrict+project {name}: {} tuples, {} pages",
            file.tuple_count(),
            file.page_count()
        ));
        let sorted_by = remap_sort(&inp.sorted_by, |src| projected_at(&exprs, src));
        Ok(PlanOutput::stored(exec.storage(), file, sorted_by))
    }

    // -------------------------------------------------------- join pipeline

    /// Join `inputs` left-deep in the order given under the conjuncts
    /// `remaining`, and hand the last join's rows to `deliver` (`rows` and
    /// `deliver` as for [`join`](Self::join)): the FROM list of the
    /// canonical query, and the relations of a temporary's inner block. The
    /// one place that decides where a conjunct is applied, which conjuncts
    /// are join keys and which columns a stored join result carries.
    ///
    /// An input goes by the qualifiers of its columns. One with conjuncts of
    /// its own is first replaced, in `inputs`, by its restriction (and, under
    /// the default plans, projection onto the columns read later); each join
    /// step then takes the equalities between its two sides as keys and
    /// whatever else has become evaluable as residual; the last step takes
    /// all that is left. `reads` lists the columns the caller reads of the
    /// result. `None` when there is one input and so no join: `remaining`
    /// then holds the conjuncts that were not applied.
    fn join_inputs<R>(
        &mut self,
        inputs: &mut [PlanOutput],
        remaining: &mut Vec<Predicate>,
        reads: Option<Vec<&ColumnRef>>,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(&Exec, Relation, Vec<usize>) -> R,
    ) -> Result<Option<R>> {
        let names: Vec<Vec<String>> =
            inputs.iter().map(|inp| qualifiers(inp.file.schema())).collect();

        // What the caller reads of the join result; with the conjuncts
        // still pending at a step, everything later steps read. `None`
        // carries every column: the literal plans, and a statement with an
        // unqualified reference (whose input cannot be told here).
        let qualified = |c: &&ColumnRef| c.table.is_some();
        let tail_reads = reads.filter(|reads| {
            !self.faithful
                && reads.iter().all(qualified)
                && remaining.iter().flat_map(refs_of).all(|c| qualified(&c))
        });

        // Restrict before the join. Inner-join-only pipeline, so early
        // restriction is semantics-preserving, and a projection that keeps
        // duplicates keeps every multiplicity.
        for (inp, names) in inputs.iter_mut().zip(&names) {
            let only_mine = |p: &Predicate| {
                let refs = refs_of(p);
                !refs.is_empty()
                    && refs.iter().all(|c| c.table.as_ref().is_some_and(|t| names.contains(t)))
            };
            // Under the default plans a conjunct moves below the join only
            // if it cannot raise there on a row the join would never have
            // paired; one that can stays a residual.
            let schema = inp.file.schema();
            let declared = |c: &ColumnRef| {
                schema.try_resolve(c.table.as_deref(), &c.column).map(|i| schema.columns()[i].ty)
            };
            let pushable = |p: &Predicate| {
                only_mine(p) && (tail_reads.is_none() || cannot_raise(p, &declared))
            };
            let pushed: Vec<Predicate> =
                remaining.iter().filter(|p| pushable(p)).cloned().collect();
            // An input without a conjunct to take stays the base table,
            // indexes intact: copying it costs more than its narrower rows
            // save.
            if pushed.is_empty() {
                continue;
            }
            let keep = tail_reads.as_ref().map(|tail| {
                let later = remaining.iter().filter(|p| !pushable(p)).flat_map(refs_of);
                let reads: Vec<&ColumnRef> = tail.iter().copied().chain(later).collect();
                columns_read(inp.file.schema(), &reads)
            });
            let pred = Predicate::and(pushed);
            let out = match (self.try_index_restrict(inp, &pred, keep.as_deref())?, &keep) {
                (Some(out), _) => out,
                (None, Some(keep)) => self.restrict_project(&names.join("+"), inp, &pred, keep)?,
                // The paper's shape: whole tables into the join but for the
                // §7 extension, a restriction an index range scan takes and
                // wins on; otherwise it rides along as a join residual.
                (None, None) => continue,
            };
            remaining.retain(|p| !pushable(p));
            *inp = out;
        }

        // The join accumulator; the first input stands in until a step ran.
        let mut acc: Option<PlanOutput> = None;
        let mut acc_names: Vec<String> = names[0].clone();
        let last = inputs.len() - 1;
        let mut sink = Some((rows, deliver));
        for (step, next) in inputs.iter().enumerate().skip(1) {
            // Pull out the predicates usable at this step.
            let mut keys: Vec<JoinPred> = Vec::new();
            let mut residual: Vec<Predicate> = Vec::new();
            let mut rest: Vec<Predicate> = Vec::new();
            for p in remaining.drain(..) {
                match classify_conjunct(&p, &acc_names, &names[step]) {
                    ConjunctUse::JoinKey(jp) => keys.push(jp),
                    ConjunctUse::Later if step < last => rest.push(p),
                    ConjunctUse::Residual | ConjunctUse::Later => residual.push(p),
                }
            }
            *remaining = rest;
            let residual =
                if residual.is_empty() { None } else { Some(Predicate::and(residual)) };
            let left = acc.as_ref().unwrap_or(&inputs[0]);
            let (kind, residual) = (LogicalJoinKind::Inner, residual.as_ref());
            let reads: Option<Vec<&ColumnRef>> = tail_reads.as_ref().map(|tail| {
                tail.iter().copied().chain(remaining.iter().flat_map(refs_of)).collect()
            });
            let reads = reads.as_deref();
            if step == last {
                let (rows, deliver) = sink.take().expect("one last step");
                return self.join(left, next, kind, &keys, residual, reads, rows, deliver).map(Some);
            }
            // Replacing the accumulator frees the previous step's file.
            acc =
                Some(self.join(left, next, kind, &keys, residual, reads, stored_rows, store)?);
            acc_names.extend_from_slice(&names[step]);
        }
        Ok(None)
    }

    // ------------------------------------------------------ canonical query

    /// Execute a flat (subquery-free) query block: its FROM list through the
    /// join pipeline, then the final projection / aggregation / DISTINCT /
    /// ORDER BY in memory.
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
        // Resolve inputs. Whatever this statement materializes — a
        // restricted input, the last join's result — lives until the
        // function returns, past the statement's last page read.
        let mut inputs: Vec<PlanOutput> = q
            .from
            .iter()
            .map(|t| self.lookup(&t.table, t.effective_name()))
            .collect::<Result<_>>()?;
        let mut remaining: Vec<Predicate> = q
            .where_clause
            .as_ref()
            .map(|p| p.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        let reads = Some(select_phase_refs(q));

        let grouped = !q.group_by.is_empty() || q.has_aggregate_select();
        // Streaming projection needs plain column/literal select items.
        let streamable = !grouped
            && q.order_by.is_empty()
            && !q.distinct
            && !force_distinct
            && q.select.iter().all(|s| !matches!(s.expr, ScalarExpr::Aggregate(..)));
        let joined = if streamable {
            // Stream the final join straight into the projection.
            let rows = |rel: &Relation| rel.len() as u64;
            let keep = |_: &Exec, rel, _| rel;
            if let Some(rel) = self.join_inputs(&mut inputs, &mut remaining, reads, rows, keep)? {
                return project_relation(q, &rel, force_distinct);
            }
            None
        } else {
            self.join_inputs(&mut inputs, &mut remaining, reads, stored_rows, store)?
        };
        let acc = joined.as_ref().unwrap_or(&inputs[0]);

        // Single-table case: apply leftover predicates. Then the SELECT
        // phase.
        let filtered = if remaining.is_empty() {
            None
        } else {
            let cpred = CPred::compile(acc.file.schema(), &Predicate::and(remaining))?;
            Some(TempFile::new(self.exec.storage(), self.exec.filter(&acc.file, &cpred)?))
        };
        let working = filtered.as_deref().unwrap_or(&acc.file);
        if grouped {
            return self.finish_grouped(q, working, &acc.sorted_by, force_distinct);
        }
        project_relation(q, &self.exec.collect(working), force_distinct)
    }

    /// SELECT-phase with aggregation / GROUP BY over `working`, which lies
    /// in `sorted_by` order.
    fn finish_grouped(
        &mut self,
        q: &QueryBlock,
        working: &HeapFile,
        sorted_by: &[usize],
        force_distinct: bool,
    ) -> Result<Relation> {
        let schema = working.schema();
        let mut step = GroupStep::new(schema, sorted_by, &q.group_by)?;
        // Output slot of each select item: a group column by its position,
        // an aggregate behind them in select order.
        let mut select_slots: Vec<usize> = Vec::new();
        for item in &q.select {
            match &item.expr {
                ScalarExpr::Column(c) => {
                    let i = schema.resolve(c.table.as_deref(), &c.column)?;
                    let pos = step.group_idx.iter().position(|&g| g == i).ok_or_else(|| {
                        DbError::Engine(nsql_engine::EngineError::Unsupported(format!(
                            "column {c} in SELECT is not in GROUP BY"
                        )))
                    })?;
                    select_slots.push(pos);
                }
                ScalarExpr::Aggregate(func, arg) => {
                    select_slots.push(step.out_cols.len());
                    step.push_agg(*func, arg, item.alias.as_deref().unwrap_or(func.name()))?;
                }
                ScalarExpr::Literal(_) => {
                    return Err(DbError::Engine(nsql_engine::EngineError::Unsupported(
                        "literal select items in grouped queries".into(),
                    )))
                }
            }
        }
        let rows = |rel: &Relation| rel.len() as u64;
        let grouped = step.run(&self.exec, working, self.faithful, rows, |rel| rel)?;
        // Reorder columns to select order and rename per aliases.
        let final_cols = q
            .select
            .iter()
            .zip(&select_slots)
            .map(|(item, &slot)| {
                let base = &step.out_cols[slot];
                Column::new(item.alias.clone().unwrap_or_else(|| base.name.clone()), base.ty)
            })
            .collect();
        let slot_exprs: Vec<CExpr> = select_slots.iter().map(|&s| CExpr::Col(s)).collect();
        select_tail(q, force_distinct, grouped.tuples(), &slot_exprs, Schema::new(final_cols))
    }
}

/// SELECT-phase over an in-memory join result (no aggregates).
fn project_relation(q: &QueryBlock, rel: &Relation, force_distinct: bool) -> Result<Relation> {
    let (exprs, out_schema) = compile_projection(rel.schema(), &q.select)?;
    select_tail(q, force_distinct, rel.tuples(), &exprs, out_schema)
}

/// The end of every SELECT phase, in memory: `rows` projected through
/// `exprs` onto `schema`, then DISTINCT, then ORDER BY.
fn select_tail(
    q: &QueryBlock,
    force_distinct: bool,
    rows: &[Tuple],
    exprs: &[CExpr],
    schema: Schema,
) -> Result<Relation> {
    let projector = Projector::new(exprs);
    let mut rows: Vec<Tuple> = rows.iter().map(|t| projector.apply_ref(t)).collect();
    if q.distinct || force_distinct {
        rows.sort_by(Tuple::total_cmp);
        rows.dedup();
    }
    let out = Relation::new(schema, rows)?;
    if q.order_by.is_empty() {
        Ok(out)
    } else {
        sort_relation(out, &q.order_by)
    }
}

/// What one GROUP BY step hands `Exec::group_aggregate*`: the output layout
/// is `[group columns..., aggregates...]`.
struct GroupStep<'a> {
    schema: &'a Schema,
    group_idx: Vec<usize>,
    specs: Vec<AggSpec>,
    out_cols: Vec<Column>,
    /// The input already lies in group-column order: no sort pass.
    presorted: bool,
}

impl<'a> GroupStep<'a> {
    /// Grouping by `group_by` over an input of `schema` lying in
    /// `sorted_by` order; no aggregate yet.
    fn new(
        schema: &'a Schema,
        sorted_by: &[usize],
        group_by: &[ColumnRef],
    ) -> Result<GroupStep<'a>> {
        let group_idx: Vec<usize> = group_by
            .iter()
            .map(|c| schema.resolve(c.table.as_deref(), &c.column))
            .collect::<std::result::Result<_, _>>()?;
        let out_cols = group_idx
            .iter()
            .map(|&i| {
                let c = &schema.columns()[i];
                Column::new(&c.name, c.ty)
            })
            .collect();
        let presorted = !group_idx.is_empty() && sorted_on(sorted_by, &group_idx);
        Ok(GroupStep { schema, group_idx, specs: Vec::new(), out_cols, presorted })
    }

    /// Add `func(arg)` as the next output column, called `name`.
    fn push_agg(&mut self, func: AggFunc, arg: &AggArg, name: &str) -> Result<()> {
        let (spec, ty) = match arg {
            AggArg::Star => (AggSpec::count_star(), ColumnType::Int),
            AggArg::Column(c) => {
                let i = self.schema.resolve(c.table.as_deref(), &c.column)?;
                let ty = match func {
                    AggFunc::Count => ColumnType::Int,
                    AggFunc::Avg => ColumnType::Float,
                    _ => self.schema.columns()[i].ty,
                };
                (AggSpec::on(func, i), ty)
            }
        };
        self.specs.push(spec);
        self.out_cols.push(Column::new(name, ty));
        Ok(())
    }

    /// Run the step over `input` inside one operator node; `rows` and
    /// `deliver` as for [`PlanExecutor::join`]. The aggregate folds the
    /// sort's last merge pass as it is merged; under the paper's literal
    /// plans (`faithful`) the sort writes its file and the fold reads it
    /// back, the pages Section 7 counts.
    fn run<R>(
        &self,
        exec: &Exec,
        input: &HeapFile,
        faithful: bool,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(Relation) -> R,
    ) -> Result<R> {
        observed(exec.obs(), || "group-by".to_string(), input.tuple_count() as u64, rows, || {
            let schema = Schema::new(self.out_cols.clone());
            let sorted = (faithful && !self.presorted && !self.group_idx.is_empty()).then(|| {
                let keys: Vec<SortKey> = self.group_idx.iter().map(|&i| SortKey::asc(i)).collect();
                TempFile::new(exec.storage(), exec.sort(input, &keys, false))
            });
            let (input, presorted) = match &sorted {
                Some(file) => (&**file, true),
                None => (input, self.presorted),
            };
            let (group, specs) = (&self.group_idx, &self.specs);
            let rel = exec.group_aggregate_collect(input, group, specs, schema, presorted)?;
            // Freed after the fold's last page read, before a result page is written.
            drop(sorted);
            Ok(deliver(rel))
        })
    }
}

/// The sink of a step whose rows become a stored intermediate lying in
/// `sorted_by` order: one counted write per page.
fn store(exec: &Exec, rel: Relation, sorted_by: Vec<usize>) -> PlanOutput {
    let schema = rel.schema().clone();
    let file = HeapFile::from_tuples(exec.storage(), schema, rel.into_tuples());
    PlanOutput::stored(exec.storage(), file, sorted_by)
}

/// The rows of a stored intermediate, for its operator node.
fn stored_rows(out: &PlanOutput) -> u64 {
    out.file.tuple_count() as u64
}

/// A join's `on` list against its two inputs: the equality keys, paired
/// positionally, and the rest (with any residual of the caller's) as one
/// predicate over the concatenated row.
struct JoinKeys {
    lkeys: Vec<usize>,
    rkeys: Vec<usize>,
    residual: Option<CPred>,
}

/// Split `on` into merge-able equality keys and the rest, `residual` added.
fn join_keys(
    l: &PlanOutput,
    r: &PlanOutput,
    on: &[JoinPred],
    residual: Option<&Predicate>,
) -> Result<JoinKeys> {
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
    let residual = if rest.is_empty() {
        None
    } else {
        let combined = l.file.schema().join(r.file.schema());
        Some(CPred::compile(&combined, &Predicate::and(rest))?)
    };
    Ok(JoinKeys { lkeys, rkeys, residual })
}

fn join_kind(kind: LogicalJoinKind) -> JoinKind {
    match kind {
        LogicalJoinKind::Inner => JoinKind::Inner,
        LogicalJoinKind::LeftOuter => JoinKind::LeftOuter,
    }
}

/// What [`PlanExecutor::price_join`] decided.
struct JoinChoice {
    method: JoinMethod,
    /// The method's cost, in the unit the choice compares.
    cost: f64,
    /// The EXPLAIN lines of the decision.
    explain: Vec<String>,
}

/// The groupjoin an aggregate step takes: the join's keys and residual, the
/// aggregates over the right input's columns, the output schema (the left's
/// columns, then the aggregates) and the partitions of its first Grace pass.
struct Groupjoin {
    lkeys: Vec<usize>,
    rkeys: Vec<usize>,
    residual: Option<CPred>,
    kind: JoinKind,
    aggs: Vec<AggSpec>,
    schema: Schema,
    partitions: usize,
}

/// How one join step runs, with what that method needs beyond the keys.
enum JoinMethod {
    /// Probe the right side's B+tree on equality key number `key` once per
    /// left tuple (inner joins only).
    IndexProbe { key: usize, index: Arc<BTreeIndex> },
    /// Which input the table holds, and how many partitions the first
    /// Grace pass makes.
    Hash(HashShape),
    /// Sort-merge; an input already in key order skips its sort.
    Merge { left_presorted: bool, right_presorted: bool },
    NestedLoop,
}

impl JoinMethod {
    /// The EXPLAIN line of a step with `keys` equality keys and `probes`
    /// left tuples.
    fn explain(&self, keys: usize, probes: usize) -> String {
        match self {
            JoinMethod::IndexProbe { index, .. } => {
                format!("index nested-loop join via {} ({probes} probes)", index.name())
            }
            JoinMethod::Hash(HashShape { build_left, partitions }) => format!(
                "hash join ({keys} keys), build {}{}",
                if *build_left { "left" } else { "right" },
                if *partitions > 0 { format!(", {partitions} partitions") } else { String::new() },
            ),
            JoinMethod::Merge { left_presorted, right_presorted } => format!(
                "merge join ({keys} keys){}{}",
                if *left_presorted { ", left pre-sorted" } else { "" },
                if *right_presorted { ", right pre-sorted" } else { "" },
            ),
            JoinMethod::NestedLoop => {
                format!("nested-loop join ({keys} equality keys folded into predicate)")
            }
        }
    }

    /// The step's operator label in the query profile.
    fn label(&self, keys: usize) -> String {
        match self {
            JoinMethod::IndexProbe { index, .. } => format!("index-nl join ({})", index.name()),
            JoinMethod::Hash(_) => format!("hash join ({keys} keys)"),
            JoinMethod::Merge { .. } => format!("merge join ({keys} keys)"),
            JoinMethod::NestedLoop => format!("nested-loop join ({keys} keys)"),
        }
    }
}

/// The EXPLAIN line of a temporary that was just materialized.
fn materialize_line(name: &str, file: &HeapFile, sorted_by: &[usize]) -> String {
    format!(
        "materialize {}: {} tuples, {} pages{}",
        name,
        file.tuple_count(),
        file.page_count(),
        if sorted_by.is_empty() { "" } else { " (sorted)" }
    )
}

/// How one conjunct participates in a join step.
enum ConjunctUse {
    JoinKey(JoinPred),
    Residual,
    Later,
}

/// Classify a conjunct relative to a join step combining the inputs that go
/// by `acc_names` (left) with the one that goes by `next_names` (right).
fn classify_conjunct(p: &Predicate, acc_names: &[String], next_names: &[String]) -> ConjunctUse {
    let among =
        |c: &ColumnRef, names: &[String]| c.table.as_ref().is_some_and(|t| names.contains(t));
    if !refs_of(p).iter().all(|c| among(c, acc_names) || among(c, next_names)) {
        return ConjunctUse::Later;
    }
    // Equality column-column across the two sides becomes a join key.
    if let Predicate::Compare {
        left: Operand::Column(a),
        op: op @ CompareOp::Eq,
        right: Operand::Column(b),
    } = p
    {
        if among(a, acc_names) && among(b, next_names) {
            return ConjunctUse::JoinKey(JoinPred { left: a.clone(), op: *op, right: b.clone() });
        }
        if among(b, acc_names) && among(a, next_names) {
            let (left, right) = (b.clone(), a.clone());
            return ConjunctUse::JoinKey(JoinPred { left, op: op.flip(), right });
        }
    }
    ConjunctUse::Residual
}

/// The inputs and conjuncts of the maximal subtree of filters and inner
/// joins rooted at `plan`, bottom-up: its leaves left to right, the `on`
/// predicates of its joins, the conjuncts of its filters.
fn flatten<'p>(
    plan: &'p LogicalPlan,
    leaves: &mut Vec<&'p LogicalPlan>,
    on: &mut Vec<Predicate>,
    filters: &mut Vec<Predicate>,
) {
    match plan {
        LogicalPlan::Filter { input, pred } => {
            flatten(input, leaves, on, filters);
            filters.extend(pred.conjuncts().into_iter().cloned());
        }
        LogicalPlan::Join { left, right, kind: LogicalJoinKind::Inner, on: preds } => {
            flatten(left, leaves, on, filters);
            flatten(right, leaves, on, filters);
            let compare = |p: &JoinPred| Predicate::col_cmp(p.left.clone(), p.op, p.right.clone());
            on.extend(preds.iter().map(compare));
        }
        leaf => leaves.push(leaf),
    }
}

/// The names the columns of `schema` are qualified by, in column order.
fn qualifiers(schema: &Schema) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for t in schema.columns().iter().filter_map(|c| c.table.as_ref()) {
        if !names.contains(t) {
            names.push(t.clone());
        }
    }
    names
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

/// The column references of one predicate.
fn refs_of(p: &Predicate) -> Vec<&ColumnRef> {
    nsql_analyzer::resolve::predicate_column_refs(p)
}

/// What the SELECT phase of a flat query reads of its join result: select
/// items and aggregate arguments, GROUP BY and ORDER BY keys.
fn select_phase_refs(q: &QueryBlock) -> Vec<&ColumnRef> {
    let items = q.select.iter().filter_map(|item| match &item.expr {
        ScalarExpr::Column(c) | ScalarExpr::Aggregate(_, AggArg::Column(c)) => Some(c),
        _ => None,
    });
    items.chain(&q.group_by).chain(q.order_by.iter().map(|k| &k.column)).collect()
}

/// New sort-prefix after a projection that delivers input column `src` as
/// output column `position(src)`: the prefix ends at the first sort column
/// the projection drops.
fn remap_sort(sorted_by: &[usize], position: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
    sorted_by.iter().map_while(|&src| position(src)).collect()
}

/// Position of input column `src` among the plain columns of `exprs`.
fn projected_at(exprs: &[CExpr], src: usize) -> Option<usize> {
    exprs.iter().position(|e| matches!(e, CExpr::Col(i) if *i == src))
}

/// The columns of `schema` that some reference in `reads` names, ascending.
/// A reference to another input simply does not resolve here. Never empty:
/// a result nobody reads a column of (`COUNT(*)` over a join) keeps its
/// first, so that its rows still exist.
fn columns_read(schema: &Schema, reads: &[&ColumnRef]) -> Vec<usize> {
    let mut cols: Vec<usize> = reads
        .iter()
        .filter_map(|c| schema.try_resolve(c.table.as_deref(), &c.column))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    if cols.is_empty() {
        cols.push(0);
    }
    cols
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

    fn aliased(alias: &str) -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Scan { table: "T".into(), alias: Some(alias.into()) })
    }

    fn on_k(l: &str, r: &str) -> Vec<JoinPred> {
        vec![JoinPred {
            left: ColumnRef::qualified(l, "K"),
            op: CompareOp::Eq,
            right: ColumnRef::qualified(r, "K"),
        }]
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
            left: aliased("A"),
            right: aliased("B"),
            kind: LogicalJoinKind::Inner,
            on: on_k("A", "B"),
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
                left: aliased("A"),
                right: aliased("B"),
                kind: LogicalJoinKind::Inner,
                on: on_k("A", "B"),
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
        // A base table may hold duplicates: no groupjoin is considered.
        assert!(!log.contains("groupjoin"), "{log}");
        assert!(
            log.contains("input pre-sorted, no sort pass"),
            "GROUP BY over merge-join output must skip its sort:\n{log}"
        );
    }

    fn scan(pe: &mut PlanExecutor<&Catalog>, alias: &str) -> PlanOutput {
        pe.run_plan(&aliased(alias)).unwrap()
    }

    /// An inner of one page, far below `B − 1`: by the paper's pages the
    /// nested loop ties the others and takes it; priced, the hash join does
    /// what the nested loop's key index does without a visit to the inner
    /// page per outer tuple, and takes it.
    #[test]
    fn a_buffer_resident_inner_goes_to_the_nested_loop_by_pages_alone() {
        let cat = catalog();
        let picks = [(true, "nested-loop join (1 keys)"), (false, "hash join (1 keys)")];
        for (faithful, want) in picks {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            pe.set_faithful(faithful);
            let (l, r) = (scan(&mut pe, "A"), scan(&mut pe, "B"));
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
            assert_eq!(picked.label(1), want, "{:?}", pe.log);
        }
    }

    /// 800 outer rows against an indexed inner of 4 000 in a 64-page pool of
    /// 512-byte pages. Priced, 800 probes beat the nested loop, which
    /// rereads the inner per outer row, and the merge join, which sorts both
    /// sides — the two methods they were once weighed against — and lose to
    /// the hash join, which holds the outer in memory and streams the inner
    /// past it once. By the paper's pages the merge join beats the probes.
    #[test]
    fn the_index_probe_is_priced_against_all_three_methods() {
        let mut cat = Catalog::new(Storage::new(64, 512));
        let schema =
            Schema::new(vec![Column::new("K", ColumnType::Int), Column::new("V", ColumnType::Int)]);
        for (name, rows) in [("L", 800i64), ("R", 4000)] {
            let row = |i| Tuple::new(vec![Value::Int(i * 7 % 3000), Value::Int(i)]);
            let tuples = (0..rows).map(row);
            let rel = Relation::new(schema.clone(), tuples.collect()).unwrap();
            cat.load_table(name, &rel).unwrap();
        }
        cat.create_index("R", "K").unwrap();
        for (faithful, want) in [(true, "merge join (1 keys)"), (false, "hash join (1 keys)")] {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            pe.set_faithful(faithful);
            let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
            assert_eq!(picked.label(1), want, "faithful = {faithful}: {:?}", pe.log);
            let line = &pe.log[0];
            assert!(line.starts_with("index join candidate IX_R_K: cost "), "{line}");
            assert_eq!(line.contains(" / hj "), !faithful, "{line}");
            assert!(line.ends_with("(rejected)"), "{line}");
        }
        // The probes' price lies between the hash join's and the other two.
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
        pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
        let micros = |method: &str| -> f64 {
            let at = pe.log[0].find(method).unwrap_or_else(|| panic!("{method}: {:?}", pe.log));
            let rest = &pe.log[0][at..];
            let total = &rest[rest.find(" = ").unwrap() + 3..rest.find(" µs").unwrap()];
            total.parse().unwrap()
        };
        let (ix, hj) = (micros("cost "), micros("/ hj "));
        let (nl, mj) = (micros("vs nl "), micros("/ mj "));
        assert!(hj < ix && ix < nl.min(mj), "ix {ix} nl {nl} mj {mj} hj {hj}");
    }

    /// An inner of 40 pages in a 64-page pool under 2 000 outer rows: the
    /// page formula says the nested loop costs `Pl + Pr` and takes it; the
    /// default choice also counts its 80 000 buffer visits, and of the two
    /// methods that read each input once without them — the merge join,
    /// which sorts both, and the hash join, which builds its table on the
    /// 40 pages in memory — takes the hash join.
    #[test]
    fn a_resident_inner_of_many_pages_is_not_free() {
        let mut cat = Catalog::new(Storage::new(64, 512));
        let schema =
            Schema::new(vec![Column::new("K", ColumnType::Int), Column::new("V", ColumnType::Int)]);
        for (name, rows) in [("L", 2000i64), ("R", 1100)] {
            let tuples = (0..rows).map(|i| Tuple::new(vec![Value::Int(i % 997), Value::Int(i)]));
            cat.load_table(name, &Relation::new(schema.clone(), tuples.collect()).unwrap()).unwrap();
        }
        let inner_pages = cat.table("R").unwrap().page_count();
        assert!((20..=63).contains(&inner_pages), "{inner_pages} pages: resident, and many");
        let picks = [(true, "nested-loop join (1 keys)"), (false, "hash join (1 keys)")];
        for (faithful, want) in picks {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            pe.set_faithful(faithful);
            let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
            assert_eq!(picked.label(1), want, "faithful = {faithful}: {:?}", pe.log);
            let built_right = picked.explain(1, 0).starts_with("hash join (1 keys), build right");
            assert_eq!(built_right, !faithful);
        }
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
        pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
        // The work is pinned; its price follows `cost::PRICES`.
        let unpriced: Vec<String> = pe.log[0]
            .split(" µs")
            .map(|part| part.rsplit_once(" = ").map_or(part, |(work, _)| work).to_string())
            .collect();
        assert_eq!(
            unpriced.join(""),
            "join choice: nl 112.0 pages + 80000 visits + 3100 rows hashed / mj 331.9 pages + \
             5100 rows sorted / hj 112.0 pages + 3100 rows hashed"
        );
    }

    #[test]
    fn forced_policies_pick_their_method() {
        let cat = catalog();
        for (policy, want) in [
            (JoinPolicy::ForceNestedLoop, "nested-loop join (1 keys)"),
            (JoinPolicy::ForceMergeJoin, "merge join (1 keys)"),
            (JoinPolicy::ForceHashJoin, "hash join (1 keys)"),
        ] {
            let mut pe = executor(&cat, policy);
            let (l, r) = (scan(&mut pe, "A"), scan(&mut pe, "B"));
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0]);
            assert_eq!(picked.label(1), want, "{policy:?}");
            // Without an equality key every policy is left the nested loop.
            let keyless = pe.choose_join(&l, &r, JoinKind::Inner, &[], &[]);
            assert!(matches!(keyless, JoinMethod::NestedLoop), "{policy:?}");
        }
    }

    fn filtered(input: LogicalPlan, conjuncts: &str) -> LogicalPlan {
        let q = parse_query(&format!("SELECT A.K FROM A WHERE {conjuncts}")).unwrap();
        LogicalPlan::Filter { input: Box::new(input), pred: q.where_clause.unwrap() }
    }

    fn project_a_k(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(input),
            items: vec![nsql_sql::SelectItem::column(ColumnRef::qualified("A", "K"))],
            distinct: false,
        }
    }

    /// A temporary over two relations as NEST-G emits it — one filter over a
    /// key-less join — run both ways: the literal plan stores the cross
    /// product and filters it; the default one restricts and projects each
    /// input and joins on the equality. Same rows.
    #[test]
    fn a_filter_over_a_keyless_join_goes_through_the_join_pipeline() {
        let cat = catalog();
        let cross = LogicalPlan::Join {
            left: aliased("A"),
            right: aliased("B"),
            kind: LogicalJoinKind::Inner,
            on: vec![],
        };
        let plan = project_a_k(filtered(cross, "B.V > 10 AND A.K = B.K AND A.V < 30"));
        let mut rows = Vec::new();
        for faithful in [true, false] {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            pe.set_faithful(faithful);
            let out = pe.run_plan(&plan).unwrap();
            let log = pe.log.join("\n");
            // Only a keyed join step has methods to choose between.
            assert_eq!(log.contains("(0 equality keys"), faithful, "{log}");
            assert_eq!(log.contains("join choice: "), !faithful, "{log}");
            assert_eq!(log.contains("restrict+project B: 3 tuples"), !faithful, "{log}");
            let mut got = pe.exec().collect(&out.file).into_tuples();
            got.sort_by(Tuple::total_cmp);
            rows.push(got);
        }
        // A.K = 1 twice (V 10 and 11) meets B.K = 1 once (V 11), A.K = 2 once.
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[0], rows[1]);
    }

    #[test]
    fn filter_over_outer_join_is_not_fused() {
        // The §5.2 distinction: a filter above a LEFT OUTER join must run
        // after padding, not as a join residual.
        let cat = catalog();
        let mut pe = executor(&cat, JoinPolicy::ForceMergeJoin);
        let join = LogicalPlan::Join {
            left: aliased("A"),
            right: aliased("B"),
            kind: LogicalJoinKind::LeftOuter,
            on: on_k("A", "B"),
        };
        // Predicate on the right side: padded rows (NULL B.V) must be
        // dropped by the filter — which only happens if it is NOT fused.
        let plan = filtered(join, "B.V > 100");
        let out = pe.run_plan(&plan).unwrap();
        // No B.V exceeds 100, so the result must be empty — if the filter
        // were fused as an outer-join residual, every left row would
        // survive padded.
        assert_eq!(out.file.tuple_count(), 0);
    }

    /// The COUNT-bug barrier where the join pipeline could cross it: a
    /// conjunct over the NULL-extended side of NEST-JA2's outer join sits
    /// above it, inside a subtree of filters and inner joins the default
    /// path hands to the pipeline. The outer join is a leaf of that subtree
    /// — executed whole, padding included — so the conjunct restricts its
    /// *output*: no `B.V` exceeds 100 and a padded one is NULL, nothing is
    /// left. Applied to `B` below the outer join it would have emptied `B`,
    /// padded all four rows of `A`, and let six rows through the join with
    /// `C`.
    #[test]
    fn a_conjunct_over_the_padded_side_is_applied_above_the_outer_join() {
        let cat = catalog();
        let outer = LogicalPlan::Join {
            left: aliased("A"),
            right: aliased("B"),
            kind: LogicalJoinKind::LeftOuter,
            on: on_k("A", "B"),
        };
        let with_c = LogicalPlan::Join {
            left: Box::new(outer),
            right: aliased("C"),
            kind: LogicalJoinKind::Inner,
            on: on_k("A", "C"),
        };
        let plan = project_a_k(filtered(with_c, "B.V > 100"));
        for faithful in [false, true] {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            pe.set_faithful(faithful);
            let out = pe.run_plan(&plan).unwrap();
            let log = pe.log.join("\n");
            assert_eq!(out.file.tuple_count(), 0, "faithful = {faithful}:\n{log}");
            // The default path did restrict early: the outer join's output.
            assert_eq!(log.contains("restrict+project A+B: 0 tuples"), !faithful, "{log}");
        }
    }

    /// An integer table: name, columns, rows.
    type IntTable<'a> = (&'a str, &'a [&'a str], Vec<Vec<i64>>);

    /// A catalog on a `pool`-page pool of `page`-byte pages holding
    /// `tables`, and the oracle holding the same.
    fn loaded(pool: usize, page: usize, tables: &[IntTable]) -> (Catalog, nsql_oracle::Oracle) {
        let mut cat = Catalog::new(Storage::new(pool, page));
        let mut oracle = nsql_oracle::Oracle::new();
        for (name, cols, rows) in tables {
            let cols = cols.iter().map(|c| Column::new(*c, ColumnType::Int)).collect();
            let schema = Schema::new(cols);
            let tuples = rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect();
            let rel = Relation::new(schema, tuples).unwrap();
            cat.load_table(name, &rel).unwrap();
            oracle.load(*name, rel);
        }
        (cat, oracle)
    }

    /// `SELECT DISTINCT AK FROM A`: sorted on `AK`, which it leaves
    /// unqualified.
    fn distinct_ak() -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::scan("A")),
            items: vec![nsql_sql::SelectItem::column(ColumnRef::qualified("A", "AK"))],
            distinct: true,
        })
    }

    fn on(left: ColumnRef, right: ColumnRef) -> Vec<JoinPred> {
        vec![JoinPred { left, op: CompareOp::Eq, right }]
    }

    /// A hash join that builds on its left input emits in the right
    /// input's order, not the left's: over a left sorted on the group
    /// column, the GROUP BY above it must still sort. Taking the left's
    /// order on trust splits every group into one per run of its key.
    #[test]
    fn a_hash_join_built_on_the_left_feeds_a_group_by_that_sorts() {
        let b_rows = (0..200).map(|i| vec![i % 10, i]).collect();
        let (cat, oracle) = loaded(
            64,
            256,
            &[("A", &["AK"], (0..10).map(|k| vec![k]).collect()), ("B", &["BK", "BV"], b_rows)],
        );
        let mut pe = executor(&cat, JoinPolicy::ForceHashJoin);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: distinct_ak(),
                right: Box::new(LogicalPlan::scan("B")),
                kind: LogicalJoinKind::Inner,
                on: on(ColumnRef::bare("AK"), ColumnRef::qualified("B", "BK")),
            }),
            group_by: vec![ColumnRef::bare("AK")],
            aggs: vec![AggItem {
                func: AggFunc::Count,
                arg: AggArg::Column(ColumnRef::qualified("B", "BV")),
                alias: "CT".into(),
            }],
        };
        let out = pe.run_plan(&plan).unwrap();
        let log = pe.log.join("\n");
        // A forced join policy keeps the join and the GROUP BY, though the
        // left is a DISTINCT projection a groupjoin could fold into.
        assert!(!log.contains("groupjoin"), "{log}");
        assert!(log.contains("hash join (1 keys), build left\n"), "{log}");
        assert!(log.contains("group-by: sorting input"), "{log}");
        let q = parse_query("SELECT A.AK, COUNT(B.BV) FROM A, B WHERE A.AK = B.BK GROUP BY A.AK");
        let want = oracle.eval(&q.unwrap()).unwrap();
        let got = pe.exec().collect(&out.file);
        assert!(got.same_bag(&want), "got:\n{got}\noracle:\n{want}");
    }

    /// NEST-JA2's `TEMP3` on the default path: `TEMP2` is folded into a
    /// table of `TEMP1`'s rows — a DISTINCT projection, so each is a group
    /// of its own — and their counts, with no join rows and no GROUP BY. The
    /// groupjoin keeps `TEMP1`'s order, so `TEMP3` meets the final join
    /// pre-sorted, as the GROUP BY's output did; the answer is the oracle's.
    #[test]
    fn temp3_keeps_temp1s_order_into_the_final_join() {
        let a_rows = (0..40).map(|i| vec![(i * 5) % 13, i]).collect();
        let b_rows = (0..120).map(|i| vec![i * 7 % 17, i]).collect();
        let (cat, oracle) =
            loaded(6, 256, &[("A", &["AK", "AV"], a_rows), ("B", &["BK", "BV"], b_rows)]);
        let sql = "SELECT A.AV FROM A WHERE A.AV > (SELECT COUNT(B.BV) FROM B WHERE B.BK = A.AK)";
        let q = parse_query(sql).unwrap();
        let plan = nsql_core::transform_query(&cat, &q, &nsql_core::UnnestOptions::default());
        let plan = plan.unwrap();
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        for temp in &plan.temps {
            let out = pe.run_plan(&temp.plan).unwrap();
            pe.register_temp(&temp.name, out);
        }
        let groupjoins: Vec<&String> =
            pe.log.iter().filter(|l| l.starts_with("groupjoin (1 keys): ")).collect();
        let took = groupjoins.len() == 1 && groupjoins[0].ends_with("(chose groupjoin)");
        assert!(took, "{:?}", pe.log);
        assert!(!pe.log.iter().any(|l| l.starts_with("group-by")), "{:?}", pe.log);
        let temp3 = pe.temp("TEMP3").unwrap();
        assert_eq!((temp3.sorted_by.as_slice(), temp3.duplicate_free), (&[0][..], true));
        let rows = pe.exec().collect(&temp3.file);
        let keys: Vec<&Value> = rows.tuples().iter().map(|t| t.get(0)).collect();
        let want: Vec<Value> = (0..13).map(Value::Int).collect();
        assert!(keys.iter().copied().eq(&want), "every TEMP1 row, in order: {keys:?}");
        // A merge join into the final join sorts only the outer relation.
        pe.set_policy(JoinPolicy::ForceMergeJoin);
        let got = pe.execute_flat_query(&plan.canonical, false).unwrap();
        assert_eq!(pe.log.last().unwrap(), "merge join (1 keys), right pre-sorted", "{:?}", pe.log);
        let want = oracle.eval(&q).unwrap();
        assert!(!want.is_empty() && got.same_bag(&want), "got:\n{got}\noracle:\n{want}");
    }

    /// A Grace-partitioned hash join emits partition after partition: over
    /// a left sorted on the join key, a merge join on that key above it
    /// must still sort its left input. Taking the left's order on trust
    /// merges two sorted runs as one, and loses every match of the second.
    #[test]
    fn a_grace_partitioned_hash_join_feeds_a_merge_join_that_sorts() {
        let b_rows = (0..24).map(|i| vec![i % 12, i]).collect();
        let c_rows = (0..30).map(|i| vec![i % 15, 100 + i]).collect();
        let (cat, oracle) = loaded(
            3,
            64,
            &[
                ("A", &["AK"], (0..60).map(|k| vec![k]).collect()),
                ("B", &["BK", "BV"], b_rows),
                ("C", &["CK", "CV"], c_rows),
            ],
        );
        let mut pe = executor(&cat, JoinPolicy::ForceHashJoin);
        let joined = pe
            .run_plan(&LogicalPlan::Join {
                left: distinct_ak(),
                right: Box::new(LogicalPlan::scan("B")),
                kind: LogicalJoinKind::Inner,
                on: on(ColumnRef::bare("AK"), ColumnRef::qualified("B", "BK")),
            })
            .unwrap();
        let partitioned =
            pe.log.iter().any(|l| l.starts_with("hash join (1 keys), build right, 2 partitions"));
        assert!(partitioned, "{:?}", pe.log);
        assert!(joined.sorted_by.is_empty());
        pe.register_temp("J", joined);
        pe.set_policy(JoinPolicy::ForceMergeJoin);
        let out = pe
            .run_plan(&LogicalPlan::Join {
                left: Box::new(LogicalPlan::scan("J")),
                right: Box::new(LogicalPlan::scan("C")),
                kind: LogicalJoinKind::Inner,
                on: on(ColumnRef::qualified("J", "AK"), ColumnRef::qualified("C", "CK")),
            })
            .unwrap();
        assert_eq!(pe.log.last().unwrap(), "merge join (1 keys)", "{:?}", pe.log);
        let q = "SELECT A.AK, B.BK, B.BV, C.CK, C.CV FROM A, B, C \
                 WHERE A.AK = B.BK AND A.AK = C.CK";
        let q = parse_query(q);
        let want = oracle.eval(&q.unwrap()).unwrap();
        let got = pe.exec().collect(&out.file);
        assert!(!want.is_empty() && got.same_bag(&want), "got:\n{got}\noracle:\n{want}");
    }
}
