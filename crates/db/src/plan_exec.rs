//! Physical execution of transformation output.
//!
//! Executes the [`LogicalPlan`] temporaries of a [`TransformPlan`] and then
//! its root, the canonical query lowered to the same IR, choosing join
//! methods per [`JoinPolicy`] — the paper's point is precisely that after
//! transformation "the query optimizer can choose a merge join method in
//! implementing the joins". [`PlanExecutor::run_plan`] is the one
//! interpreter of those trees; a flat block in them runs through one join
//! pipeline (`PlanExecutor::join_inputs`).
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
//!
//! On the default plans a step's output of at most `B` pages is *held*
//! rather than written ([`Rows::Held`]): its one consumer holds it in
//! memory anyway when it is a hash table's build side or a groupjoin's
//! table that fits `B − 2` pages, or a GROUP BY input that sorts in memory,
//! and it runs before any other join, groupjoin or sort does
//! ([`PlanExecutor::hand_off`]); any other consumer has it written first,
//! the pages it would have been written as. A temporary two plans read is
//! written when it is registered.
//!
//! A restriction of a stored file is not run where it is made: it is a
//! [`Pipe`] — a FROM input's restrict+project in the join pipeline, and a
//! temporary one plan reads whose plan restricts and projects one file
//! (NEST-JA2's `TEMP2`). Its consumer decides. A join step with a pipe on
//! either side or both is priced at the pipe's bound (the source's rows,
//! its pages narrowed to the columns kept); when that choice is a hash join,
//! of any shape, every pipe of the step streams into it: the pass reads the
//! source once and restricts and projects each tuple where it reads it, and
//! nothing is written but the partitions a pass spills. A pipe build side
//! is built in memory until its table first overflows `B − 2` pages, when
//! the pass fixes its split on what it has made and the bound on the rest;
//! EXPLAIN prints the shape that ran. A groupjoin chosen at the bound
//! streams a pipe right side likewise; its table side is drained. Every
//! other consumer — a merge join, a nested loop, an index probe, a GROUP BY,
//! a filter — drains the pipe first ([`PlanExecutor::drain`]): the
//! restriction runs there as it would have where it was made, the step is
//! chosen on exact sizes, and the pipe's EXPLAIN line names the reader it
//! was written for. Under the paper's literal plans nothing is a pipe and
//! everything is written.

use crate::error::DbError;
use crate::explain::TempStat;
use crate::options::{IndexUse, JoinPolicy};
use crate::Result;
use nsql_core::{AggItem, JoinPred, LogicalJoinKind, LogicalPlan, TransformPlan};
use nsql_engine::cost::{
    classic_join_costs, groupjoin_cost, groupjoin_passes, groupjoin_table_pages, hash_join_cost,
    index_join_cost, index_restrict_cost, narrowed_pages, narrowed_width, HashShape, JoinInput,
};
use nsql_engine::ops::join_reads;
use nsql_engine::pred::cannot_raise;
use nsql_engine::{
    AggSpec, CExpr, CPred, Exec, HashInput, JoinEmit, JoinKind, Joined, KeySet, Restriction,
    SelectList, TableProvider, Unjoined,
};
use nsql_index::{BTreeIndex, KeyBound};
use nsql_obs::Profile;
use nsql_storage::sort::SortKey;
use nsql_storage::{HeapFile, HoldingWriter, Rows, RowsRef, Storage, TempFile};
use nsql_sql::{AggArg, ColumnRef, CompareOp, Operand, OrderKey, Predicate, ScalarExpr, SelectItem};
use nsql_types::{Relation, Schema, Tuple, Value};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
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
        op.rows_in.add(rows_in);
    }
    if let Ok(r) = &out {
        if op.rows_out.total() == 0 {
            op.rows_out.add(rows(r));
        }
    }
    profile.end(node);
    out
}

/// What a step hands on: rows it made or views ([`Rows`]), or a [`Pipe`],
/// rows not made yet.
pub enum Data {
    /// A heap file, or rows held for their one consumer.
    Rows(Rows),
    /// A restriction of a stored file that its consumer runs.
    Pipe(Box<Pipe>),
}

impl Data {
    /// The tuple schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Data::Rows(rows) => rows.schema(),
            Data::Pipe(pipe) => pipe.restriction.schema(),
        }
    }

    /// Pages: the rows', or a pipe's bound, what a choice made before it
    /// runs prices it at.
    pub fn page_count(&self) -> usize {
        match self {
            Data::Rows(rows) => rows.page_count(),
            Data::Pipe(pipe) => pipe.restriction.page_count(),
        }
    }

    /// Rows: the rows', or a pipe's bound.
    pub fn tuple_count(&self) -> usize {
        match self {
            Data::Rows(rows) => rows.tuple_count(),
            Data::Pipe(pipe) => pipe.restriction.tuple_count(),
        }
    }

    /// The rows made, and the pages they fill or would fill: a pipe's once
    /// its consumer ran it, its bound before.
    pub fn sizes(&self) -> (usize, usize) {
        match self {
            Data::Pipe(pipe) => pipe.ran.get(),
            Data::Rows(_) => None,
        }
        .unwrap_or((self.tuple_count(), self.page_count()))
    }

    /// The rows made. A pipe has none: its consumer drains it first
    /// ([`PlanExecutor::drain`]).
    pub fn rows(&self) -> &Rows {
        match self {
            Data::Rows(rows) => rows,
            Data::Pipe(pipe) => panic!("{}: a pipe is drained before its rows are read", pipe.what),
        }
    }

    /// Every row: a file's through the buffer pool, held ones from memory.
    pub fn scan(&self, storage: &Storage) -> Box<dyn Iterator<Item = Tuple> + '_> {
        self.rows().scan(storage)
    }

    /// The heap file, unless the rows are held or not made.
    pub fn file(&self) -> Option<&HeapFile> {
        match self {
            Data::Rows(rows) => rows.file(),
            Data::Pipe(_) => None,
        }
    }

    /// What a hash pass reads of it.
    fn input(&self) -> HashInput<'_> {
        match self {
            Data::Rows(rows) => rows.into(),
            Data::Pipe(pipe) => (&pipe.restriction).into(),
        }
    }

    /// The same under `schema` (of the same arity; no I/O).
    fn with_schema(self, schema: Schema) -> Data {
        match self {
            Data::Rows(rows) => Data::Rows(rows.with_schema(schema)),
            Data::Pipe(pipe) => {
                let restriction = pipe.restriction.with_schema(schema);
                Data::Pipe(Box::new(Pipe { restriction, ..*pipe }))
            }
        }
    }
}

/// A restriction and projection of a stored file that has not run
/// ([`Restriction`]): what `join_inputs` makes of a FROM input with
/// conjuncts of its own, and what a temporary one plan reads is when its
/// plan restricts and projects one stored file (NEST-JA2's `TEMP2`). Its
/// consumer decides: a hash join streams it on either side, a groupjoin as
/// its right side, and any other consumer drains it first, as the
/// restriction would have run where it was made ([`PlanExecutor::drain`]).
pub struct Pipe {
    restriction: Restriction,
    /// The head of its EXPLAIN line (`restrict+project PARTS`,
    /// `materialize TEMP2`), which its consumer completes.
    what: String,
    /// What follows the pages on the line when it is drained: ` (sorted)`
    /// for a temporary that lies in order.
    tag: &'static str,
    /// Pages of its rows held rather than written when it is drained.
    cap: usize,
    /// The rows it made and the pages they fill, once it ran; shared by
    /// the views of a registered temporary.
    ran: Rc<Cell<Option<(usize, usize)>>>,
}

impl Pipe {
    /// The same pipe, seen again: what it reports is shared.
    fn view(&self) -> Pipe {
        Pipe {
            restriction: self.restriction.clone(),
            what: self.what.clone(),
            tag: self.tag,
            cap: self.cap,
            ran: Rc::clone(&self.ran),
        }
    }
}

/// A step's rows plus the (prefix) column indices they are sorted by.
///
/// An output either *views* rows someone else owns — a base table, a
/// registered temporary — or *is* what a plan step produced, and then
/// dropping the output frees the pages it wrote (or, for a pipe, the pages
/// of the source it owns).
pub struct PlanOutput {
    /// The rows: a heap file, rows held for their one consumer, or a pipe.
    pub file: Data,
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
    /// The EXPLAIN line that reported these rows, which their consumer
    /// completes with what became of them.
    line: Option<usize>,
    /// [`PlanExecutor::passes`] when the rows were made: held rows go
    /// unwritten only to a consumer that no other pass ran before.
    made_at: usize,
    /// Owns `file`'s pages when a plan step materialized them — a pipe's
    /// source's, when a step made that — and `None` on a view and on held
    /// rows. Only the pages matter: the guard's copy of the schema is not
    /// read.
    _owner: Option<TempFile>,
}

impl PlanOutput {
    /// The rows in memory, read from their file if they are stored.
    pub fn relation(&self, storage: &Storage) -> Result<Relation> {
        Ok(Relation::new(self.file.schema().clone(), self.file.scan(storage).collect())?)
    }

    /// The same rows, owned by someone else.
    fn view(&self) -> PlanOutput {
        let file = match &self.file {
            Data::Rows(rows) => Data::Rows(rows.clone()),
            Data::Pipe(pipe) => Data::Pipe(Box::new(pipe.view())),
        };
        PlanOutput {
            file,
            sorted_by: self.sorted_by.clone(),
            duplicate_free: self.duplicate_free,
            indexes: self.indexes.clone(),
            line: self.line,
            made_at: self.made_at,
            _owner: None,
        }
    }

    /// These rows as the cost model prices a join input, `spill` pages when
    /// narrowed to what the join reads.
    fn priced(&self, sorted: bool, spill: f64) -> JoinInput {
        let (pages, rows) = (self.file.page_count() as f64, self.file.tuple_count() as f64);
        JoinInput { pages, rows, sorted, spill }
    }

    /// Write these rows if they are held; from here on this output owns
    /// the file. Order, freedom from duplicates and EXPLAIN line stay.
    fn write(&mut self, storage: &Storage) {
        if let Data::Rows(Rows::Held(held)) = &self.file {
            let file = held.write(storage).keep();
            self._owner = Some(TempFile::new(storage, file.clone()));
            self.file = Data::Rows(Rows::File(file));
        }
    }

    /// The same pages with their columns requalified by `name` — how a scan
    /// sees a table under its alias, how a temporary goes by its name.
    /// Order, indexes and ownership carry over.
    fn requalified(self, name: &str) -> PlanOutput {
        let schema = self.file.schema().requalify(name);
        PlanOutput { file: self.file.with_schema(schema), ..self }
    }
}

/// Executor for logical plans over a base provider plus an overlay of
/// temporary tables. Dropping the executor frees the
/// temporaries still registered with it.
pub struct PlanExecutor<T: TableProvider> {
    exec: Exec,
    base: T,
    temps: HashMap<String, PlanOutput>,
    policy: JoinPolicy,
    index_use: IndexUse,
    /// Run the paper's literal plans ([`PlanExecutor::set_faithful`]).
    faithful: bool,
    /// Passes begun over the buffer pool: joins, groupjoins, GROUP BY and
    /// DISTINCT sorts ([`pass`](Self::pass)). Held rows made before the
    /// last one began are written for whoever reads them
    /// ([`hand_off`](Self::hand_off)).
    passes: usize,
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
            passes: 0,
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
    /// inputs to the Section-7 predicted-vs-actual cost comparison. A
    /// temporary its reader streamed reports the rows it made and the pages
    /// they would have filled.
    pub fn temp_stats(&self) -> Vec<TempStat> {
        let mut v: Vec<TempStat> = self
            .temps
            .iter()
            .map(|(name, out)| {
                let (tuples, pages) = out.file.sizes();
                TempStat { name: name.clone(), tuples, pages }
            })
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// A view of the registered temporary or base table `name`, with its
    /// columns requalified by `seen_as`.
    fn lookup(&self, name: &str, seen_as: &str) -> Result<PlanOutput> {
        let key = name.to_ascii_uppercase();
        let out = if let Some(t) = self.temps.get(&key) {
            t.view()
        } else if let Some(file) = self.base.get_table(&key) {
            let (file, indexes) = (Data::Rows(Rows::File(file)), self.base.get_indexes(&key));
            let (sorted_by, duplicate_free, line, made_at) = (vec![], false, None, 0);
            PlanOutput { file, sorted_by, duplicate_free, indexes, line, made_at, _owner: None }
        } else {
            return Err(DbError::Engine(nsql_engine::EngineError::UnknownTable(key)));
        };
        Ok(out.requalified(seen_as))
    }

    // ----------------------------------------------------------- TransformPlan

    /// Execute a full transformation plan: materialize the temporaries in
    /// order, then run its root ([`run_root`](Self::run_root)). A temporary
    /// one plan reads that restricts and projects one stored file is
    /// registered as a pipe, which its reader runs. The root's DISTINCT
    /// already holds `needs_distinct_for_semantics`; `force_distinct` adds a
    /// final duplicate elimination (duplicate-preserving mode).
    pub fn execute_transform_plan(
        &mut self,
        plan: &TransformPlan,
        force_distinct: bool,
    ) -> Result<Relation> {
        for (i, temp) in plan.temps.iter().enumerate() {
            // Held rows go to one reader; a temporary two plans read is
            // written for both.
            let later = plan.temps[i + 1..].iter().map(|t| scans_of(&t.plan, &temp.name));
            let readers = later.sum::<usize>() + scans_of(&plan.root, &temp.name);
            if readers == 1 {
                if let Some(pipe) = self.piped_temp(&temp.plan, &temp.name)? {
                    self.register_temp(&temp.name, pipe);
                    continue;
                }
            }
            let exec = self.exec.clone();
            let mut out = observed(
                exec.obs(),
                || format!("materialize {}", temp.name),
                0,
                stored_rows,
                || self.run_plan(&temp.plan),
            )?;
            if readers > 1 {
                out.write(self.exec.storage());
            }
            let (tuples, pages) = (out.file.tuple_count(), out.file.page_count());
            let sorted = if out.sorted_by.is_empty() { "" } else { " (sorted)" };
            let name = &temp.name;
            let mut line = format!("materialize {name}: {tuples} tuples, {pages} pages{sorted}");
            if !self.faithful && matches!(out.file, Data::Rows(Rows::File(_))) {
                line.push_str(", written");
            }
            self.log.push(line);
            let line = held(&out).then(|| self.log.len() - 1);
            self.register_temp(&temp.name, PlanOutput { line, ..out });
        }
        self.run_root(&plan.root, force_distinct)
    }

    /// Run a plan's root, the temporaries it reads registered, to the rows
    /// of the statement: the SELECT phase `lower` puts there hands them to
    /// the caller as they are, in memory. `force_distinct` adds a final
    /// duplicate elimination.
    pub fn run_root(&mut self, root: &LogicalPlan, force_distinct: bool) -> Result<Relation> {
        let LogicalPlan::Select { input, items, group_by, order_by, distinct } = root else {
            let mut out = self.run_plan(root)?;
            self.drain(&mut out)?;
            return out.relation(self.exec.storage());
        };
        self.select(input, items, group_by, order_by, *distinct || force_distinct)
    }

    /// The pipe a temporary `name` one plan reads is, when its plan
    /// restricts and projects one stored file and keeps its duplicates
    /// (NEST-JA2's `TEMP2`): `None` under the literal plans, for any other
    /// plan, for held rows, and where a B+tree on the file could serve a
    /// conjunct — the range scan runs where it is made.
    fn piped_temp(&mut self, plan: &LogicalPlan, name: &str) -> Result<Option<PlanOutput>> {
        let LogicalPlan::Project { input, items, distinct: false } = plan else { return Ok(None) };
        if self.faithful {
            return Ok(None);
        }
        let (scan, pred) = match input.as_ref() {
            LogicalPlan::Filter { input, pred } => (input.as_ref(), Some(pred)),
            scan => (scan, None),
        };
        let LogicalPlan::Scan { table, alias } = scan else { return Ok(None) };
        let key = table.to_ascii_uppercase();
        // Decided before the file is looked up, which counts a scan.
        let stored = match (self.temps.get(&key), self.base.schema_of(&key)) {
            (Some(temp), _) => matches!(temp.file, Data::Rows(Rows::File(_))),
            (None, Some(schema)) => {
                let indexes = self.base.get_indexes(&key);
                let schema = schema.requalify(alias.as_deref().unwrap_or(table));
                let conjuncts = pred.iter().flat_map(|p| p.conjuncts());
                let mut sargable = conjuncts.filter_map(|c| sargable_conjunct(&schema, c));
                self.index_use == IndexUse::Never
                    || !sargable.any(|(col, _, _)| indexes.iter().any(|ix| ix.key_col() == col))
            }
            (None, None) => false,
        };
        if !stored {
            return Ok(None);
        }
        let mut source = self.lookup(table, alias.as_deref().unwrap_or(table))?;
        let list = SelectList::compile(source.file.schema(), items, &[], &[], false)?;
        let cpred = match pred {
            Some(p) => CPred::compile(source.file.schema(), p)?,
            None => CPred::always_true(),
        };
        let exprs = list.projection()?;
        let sorted_by = remap_sort(&source.sorted_by, |src| projected_at(&exprs, src));
        let tag = if sorted_by.is_empty() { "" } else { " (sorted)" };
        let what = format!("materialize {name}");
        let (cap, schema) = (self.hold_cap(), list.schema().clone());
        Ok(Some(self.pipe(&mut source, cpred, exprs, schema, what, tag, cap, sorted_by)))
    }

    /// A pipe restricting the stored file `source` by `pred` and projecting
    /// it onto `exprs`, rows of `schema` lying in `sorted_by` order, which
    /// owns `source`'s pages from here on: its EXPLAIN line is reserved
    /// here, headed `what`, and completed by its consumer. It is priced at
    /// the source's rows and its pages narrowed to the columns kept.
    #[allow(clippy::too_many_arguments)]
    fn pipe(
        &mut self,
        source: &mut PlanOutput,
        pred: CPred,
        exprs: Vec<CExpr>,
        schema: Schema,
        what: String,
        tag: &'static str,
        cap: usize,
        sorted_by: Vec<usize>,
    ) -> PlanOutput {
        let file = source.file.file().expect("a pipe reads a stored file").clone();
        let kept: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                CExpr::Col(c) => Some(*c),
                _ => None,
            })
            .collect();
        let (pages, rows) = (file.page_count() as f64, file.tuple_count() as f64);
        let page_size = self.exec.storage().page_size();
        let bound = match kept {
            Some(mut kept) => {
                kept.sort_unstable();
                kept.dedup();
                narrowed_pages(file.schema(), &kept, pages, rows, page_size)
            }
            None => pages,
        };
        let restriction = Restriction::new(file, pred, exprs, schema, bound as usize, page_size);
        self.log.push(what.clone());
        let ran = Rc::default();
        PlanOutput {
            file: Data::Pipe(Box::new(Pipe { restriction, what, tag, cap, ran })),
            sorted_by,
            duplicate_free: false,
            indexes: vec![],
            line: Some(self.log.len() - 1),
            made_at: self.passes,
            _owner: source._owner.take(),
        }
    }

    /// Run `out` where it is if it is a pipe: the restriction its maker
    /// would have run ([`Exec::drain`]), its rows held up to the pipe's cap,
    /// in an operator node of its own; its EXPLAIN line says what it made,
    /// and its reader completes it with what became of the rows
    /// ([`hand_off`](Self::hand_off)). The pipe's source is freed once it is
    /// read.
    fn drain(&mut self, out: &mut PlanOutput) -> Result<()> {
        let Data::Pipe(pipe) = &out.file else { return Ok(()) };
        let exec = &self.exec;
        let rows = observed(
            exec.obs(),
            || pipe.what.clone(),
            0,
            |rows: &Rows| rows.tuple_count() as u64,
            || exec.drain(&pipe.restriction, pipe.cap),
        )?;
        let (tuples, pages) = (rows.tuple_count(), rows.page_count());
        pipe.ran.set(Some((tuples, pages)));
        let written = if let Rows::File(_) = rows { ", written" } else { "" };
        let line = out.line.expect("a pipe reserves its EXPLAIN line");
        self.log[line] = format!("{}: {tuples} tuples, {pages} pages{}{written}", pipe.what, pipe.tag);
        let drained = self.output(rows, std::mem::take(&mut out.sorted_by));
        *out = PlanOutput { line: Some(line), ..drained };
        Ok(())
    }

    /// Complete the EXPLAIN line of `out` if it was a pipe `reader` streamed:
    /// the rows it made, and the pages they would have filled for its
    /// registered temporary.
    fn streamed(&mut self, out: &PlanOutput, reader: &str) {
        let Data::Pipe(pipe) = &out.file else { return };
        let (tuples, pages) = pipe.restriction.made();
        pipe.ran.set(Some((tuples, pages)));
        if let Some(line) = out.line {
            self.log[line] = format!("{}: {tuples} tuples, streamed into {reader}", pipe.what);
        }
    }

    // ----------------------------------------------------------- LogicalPlan

    /// Execute a logical plan below the root to its output: a heap file,
    /// rows held for their consumer, or — a scan of a piped temporary — a
    /// pipe. The children a step materialized are freed when the step has
    /// read them for the last time: where its arm ends. A SELECT phase runs
    /// at the root only ([`run_root`](Self::run_root)).
    pub fn run_plan(&mut self, plan: &LogicalPlan) -> Result<PlanOutput> {
        let cap = self.hold_cap();
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
                    return self.run_join(left, right, &LogicalJoinKind::Inner, on, Some(pred));
                }
                let mut child = self.run_plan(input)?;
                self.drain(&mut child)?;
                if let Some(out) = self.try_index_restrict(&child, pred, None, cap)? {
                    return Ok(out);
                }
                let schema = child.file.schema().clone();
                let cpred = CPred::compile(&schema, pred)?;
                let every: Vec<CExpr> = (0..schema.arity()).map(CExpr::Col).collect();
                self.hand_off(&mut child, false, "filter");
                let rows = child.file.rows();
                let rows = self.exec.restrict_project_rows(rows, &cpred, &every, schema, false, cap)?;
                Ok(self.output(rows, child.sorted_by.clone()))
            }
            LogicalPlan::Project { input, items, distinct } => {
                let joined = self.run_joined(input, Some(items_read(items).collect()))?;
                // Over one relation, Project(Filter(x)) is one
                // restrict+project pass.
                let (mut child, mut pred) = match (joined, input.as_ref()) {
                    (Some(joined), _) => (joined, None),
                    (None, LogicalPlan::Filter { input: inner, pred }) => {
                        (self.run_plan(inner)?, Some(pred))
                    }
                    (None, other) => (self.run_plan(other)?, None),
                };
                self.drain(&mut child)?;
                if let Some(p) = pred {
                    // The fused filter may route through an index first; the
                    // index pass applies the whole predicate, so the
                    // projection then runs unfiltered.
                    if let Some(filtered) = self.try_index_restrict(&child, p, None, cap)? {
                        child = filtered;
                        pred = None;
                    }
                }
                let list = SelectList::compile(child.file.schema(), items, &[], &[], false)?;
                let exprs = list.projection()?;
                let cpred = match pred {
                    Some(p) => CPred::compile(child.file.schema(), p)?,
                    None => CPred::always_true(),
                };
                let schema = list.schema().clone();
                self.hand_off(&mut child, false, "restrict+project");
                if *distinct {
                    // The duplicate elimination sorts.
                    self.pass();
                }
                let rows = child.file.rows();
                let rows =
                    self.exec.restrict_project_rows(rows, &cpred, &exprs, schema, *distinct, cap)?;
                let sorted_by = if *distinct {
                    // Distinct projection leaves the rows whole-tuple sorted.
                    (0..rows.schema().arity()).collect()
                } else {
                    remap_sort(&child.sorted_by, |src| projected_at(&exprs, src))
                };
                Ok(PlanOutput { duplicate_free: *distinct, ..self.output(rows, sorted_by) })
            }
            LogicalPlan::Join { left, right, kind, on } => match self.run_joined(plan, None)? {
                Some(out) => Ok(out),
                None => self.run_join(left, right, kind, on, None),
            },
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let joined = self.run_joined(input, Some(aggregate_reads(group_by, aggs)))?;
                let mut child = match (joined, input.as_ref()) {
                    (Some(joined), _) => joined,
                    (None, LogicalPlan::Join { left, right, kind, on }) => {
                        let mut l = self.run_plan(left)?;
                        let mut r = self.run_plan(right)?;
                        let groupjoin =
                            self.choose_groupjoin(&mut l, &mut r, kind, on, group_by, aggs)?;
                        if let Some(gj) = groupjoin {
                            return self.groupjoin(&mut l, &mut r, gj);
                        }
                        // The default plans' join carries what the GROUP BY
                        // reads.
                        let reads = aggregate_reads(group_by, aggs);
                        let reads = (!self.faithful).then_some(reads.as_slice());
                        let (kind, rows) = (join_kind(kind)?, stored_rows);
                        let joined =
                            self.join(&mut l, &mut r, kind, on, None, None, reads, rows, store)?;
                        // Left before right, as `run_join` frees them.
                        drop(l);
                        drop(r);
                        joined
                    }
                    (None, _) => self.run_plan(input)?,
                };
                self.drain(&mut child)?;
                let list = aggregate_list(child.file.schema(), group_by, aggs)?;
                let step = GroupStep::new(&list, &child.sorted_by)?;
                if !step.group_idx.is_empty() {
                    let how =
                        if step.presorted { "input pre-sorted, no sort pass" } else { "sorting input" };
                    self.log.push(format!("group-by: {how}"));
                }
                let sorted_by = (0..step.group_idx.len()).collect();
                let holds = self.sorts_in_memory(&child);
                self.hand_off(&mut child, holds, "group-by");
                let faithful = self.faithful;
                step.run(&self.pass(), &child, faithful, stored_rows, |sink, rel| {
                    store(sink, rel, sorted_by)
                })
            }
            LogicalPlan::Apply { outer, outer_name, kept, inner, keys, correlation, aggs } => {
                let mut l = self.run_plan(outer)?.requalified(outer_name);
                let mut r = self.run_plan(inner)?;
                self.drain(&mut l)?;
                self.drain(&mut r)?;
                let mut gj = self.per_row_groupjoin(&l, &r, keys, correlation, aggs)?;
                let schema = l.file.schema();
                let mut keep = Vec::new();
                for c in kept {
                    keep.push(schema.resolve(Some(outer_name), c)?);
                }
                keep.extend(schema.arity()..gj.schema.arity());
                gj.keep = Some(keep);
                self.groupjoin(&mut l, &mut r, gj)
            }
            LogicalPlan::Select { .. } => Err(DbError::Engine(nsql_engine::EngineError::Internal(
                "a SELECT phase runs at the root (PlanExecutor::run_root)".into(),
            ))),
        }
    }

    /// Pages of output a step of the default plans holds for its consumer
    /// rather than writing: `B`, what the largest in-memory consumer (a sort
    /// that needs no run) holds; 0 under the literal plans, which write all.
    fn hold_cap(&self) -> usize {
        if self.faithful {
            0
        } else {
            self.exec.storage().buffer_pages()
        }
    }

    /// Whether a GROUP BY over `out` sorts it in memory: held rows of at
    /// most `B` pages.
    fn sorts_in_memory(&self, out: &PlanOutput) -> bool {
        let b = self.exec.storage().buffer_pages();
        matches!(&out.file, Data::Rows(Rows::Held(held)) if held.page_count() <= b)
    }

    /// Begin a pass over the buffer pool — a join, a groupjoin, a GROUP BY
    /// or DISTINCT sort — which may take all of it: rows held before it
    /// began are written for whoever reads them later. Where its output
    /// goes.
    fn pass(&mut self) -> Sink<'_> {
        self.passes += 1;
        self.sink(self.hold_cap())
    }

    /// Where a step's output goes now: held up to `cap` pages.
    fn sink(&self, cap: usize) -> Sink<'_> {
        Sink { exec: &self.exec, cap, made_at: self.passes }
    }

    /// What a step that made `rows` in order `sorted_by` hands on.
    fn output(&self, rows: Rows, sorted_by: Vec<usize>) -> PlanOutput {
        self.sink(self.hold_cap()).output(rows, sorted_by)
    }

    /// Hand `out` to `reader`. Held rows stay in memory when the reader
    /// holds them anyway (`holds`) and no pass has begun since they were
    /// made: nothing else needed the pool while they waited, so a `B`-page
    /// system that runs the reader right after their producer keeps them
    /// too. Otherwise they are written now, the pages their producer would
    /// have written; a write goes around the buffer pool, so that it happens
    /// later changes no count. The intermediate's EXPLAIN line says which,
    /// and a drained pipe's that was written says for which reader.
    fn hand_off(&mut self, out: &mut PlanOutput, holds: bool, reader: &str) {
        let Data::Rows(rows) = &out.file else { return };
        let held = matches!(rows, Rows::Held(_));
        let holds = held && holds && out.made_at == self.passes;
        if let Some(line) = out.line.take() {
            let what = match (held, holds) {
                (false, _) => "",
                (true, true) => ", held",
                (true, false) => ", written",
            };
            self.log[line].push_str(&format!("{what} for {reader}"));
        }
        if held && !holds {
            out.write(self.exec.storage());
        }
    }

    /// The default plans' way through a temporary over several relations.
    /// When the maximal subtree of filters and inner joins rooted at `plan`
    /// joins two inputs or more under a filter — an inner block other blocks
    /// were merged into arrives as one filter over a key-less join tree
    /// (Section 9) — its leaves are executed and handed, with every conjunct
    /// of its filters and `on` lists, to the join pipeline the root's flat
    /// block runs through ([`join_inputs`](Self::join_inputs)); `reads` is
    /// what the node above reads of the result, `None` for every column. A
    /// left outer join or an aggregate is a leaf of such a subtree, executed
    /// whole before any conjunct above it is looked at: the barrier Section
    /// 5.2 asks for, by construction. `None` when there is nothing to decide
    /// — one input, or joins whose `on` lists are all there is (NEST-JA2's
    /// `TEMP1 ⋈ TEMP2`) — and under the literal plans, which run a tree below
    /// the root node by node.
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
        let mut inputs = self.run_leaves(leaves)?;
        let cap = self.hold_cap();
        self.join_inputs(&mut inputs, &mut conjuncts, reads, cap, stored_rows, store)
    }

    /// Run the inputs of a join pipeline.
    fn run_leaves<'p>(
        &mut self,
        leaves: Vec<Leaf<'p, &'p LogicalPlan>>,
    ) -> Result<Vec<Leaf<'p, PlanOutput>>> {
        let run = |l: Leaf<'p, _>| Ok(Leaf { input: self.run_plan(l.input)?, anti: l.anti });
        leaves.into_iter().map(run).collect()
    }

    fn run_join(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: &LogicalJoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
    ) -> Result<PlanOutput> {
        let kind = join_kind(kind)?;
        let mut l = self.run_plan(left)?;
        let mut r = self.run_plan(right)?;
        let out = self.join(&mut l, &mut r, kind, on, residual, None, None, stored_rows, store)?;
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
    /// schema ([`JoinEmit`]). `None` emits every column; an anti-join
    /// emits only columns of `l`, every one when `None`.
    ///
    /// `null_aware` is an anti-join's comparison `x = c` (`NOT IN`'s): a
    /// pair matches where the keys and the residual are `TRUE` and it is
    /// `TRUE` or `UNKNOWN` ([`CPred::NotFalse`], last in the residual).
    #[allow(clippy::too_many_arguments)]
    fn join<R>(
        &mut self,
        l: &mut PlanOutput,
        r: &mut PlanOutput,
        jkind: JoinKind,
        on: &[JoinPred],
        residual: Option<&Predicate>,
        null_aware: Option<&Predicate>,
        reads: Option<&[&ColumnRef]>,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(&Sink<'_>, Relation, Vec<usize>) -> R,
    ) -> Result<R> {
        let combined = l.file.schema().join(r.file.schema());
        let cols = match (reads, jkind) {
            (Some(reads), _) => Some(columns_read(&combined, reads)),
            (None, JoinKind::Anti) => Some((0..l.file.schema().arity()).collect()),
            (None, _) => None,
        };
        let cols = cols.as_deref();
        let JoinKeys { lkeys, rkeys, mut residual } = join_keys(l, r, on, residual)?;
        if let Some(p) = null_aware {
            let aware = CPred::NotFalse(Box::new(CPred::compile(&combined, p)?));
            residual = Some(match residual {
                None => aware,
                Some(CPred::And(mut ps)) => {
                    ps.push(aware);
                    CPred::And(ps)
                }
                Some(strict) => CPred::And(vec![strict, aware]),
            });
        }

        let (method, spill) = self.join_method(l, r, jkind, &lkeys, &rkeys, residual.as_ref(), cols)?;
        let probes = l.file.tuple_count();
        let what = JoinWhat { kind: jkind, keys: lkeys.len(), null_aware: null_aware.is_some() };
        let line = self.log.len();
        self.log.push(method.explain(&what, probes));
        let (probe_key, rows_in) = match &method {
            JoinMethod::IndexProbe { key, index } => {
                note_index_probes(&self.base, index, probes as u64);
                (Some(*key), probes)
            }
            _ => (None, probes + r.file.tuple_count()),
        };
        // A hash table's build side that fits `B − 2` pages is the one
        // input a method holds in memory anyway.
        let reader = method.label(&what);
        let table = match &method {
            JoinMethod::Hash(shape) if shape.spilled == 0 => Some(shape.build_left),
            _ => None,
        };
        self.hand_off(l, table == Some(true), &reader);
        self.hand_off(r, table == Some(false), &reader);
        let (l, r) = (&*l, &*r);
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
        let sink = self.pass();
        let exec = sink.exec;
        // The shape a hash join's first pass ran.
        let mut ran = None;
        let delivered = observed(exec.obs(), || reader.clone(), rows_in as u64, rows, || {
            let residual = residual.as_ref();
            // Only a hash pass takes held rows or a pipe; the other methods
            // read files.
            fn file(out: &PlanOutput) -> &HeapFile {
                out.file.file().expect("held rows and pipes go to a hash table")
            }
            let (lf, rf) = (|| file(l), || file(r));
            let rel = match &method {
                JoinMethod::Hash(_) => {
                    let (lrows, rrows) = (l.file.input(), r.file.input());
                    let (rel, shape) =
                        exec.hash_join_cols(lrows, rrows, &lkeys, &rkeys, residual, jkind, cols)?;
                    // A pass that split names the bytes of a partition row
                    // of each side.
                    if shape.spilled > 0 {
                        let [lw, rw] = spill.map(|(_, width)| width);
                        let label = || format!("{reader}, partition rows {lw:.0} + {rw:.0} bytes");
                        exec.obs().rename_current(label);
                    }
                    ran = Some(shape);
                    rel
                }
                JoinMethod::Merge { left_presorted, right_presorted } => exec.merge_join_cols(
                    lf(),
                    rf(),
                    &lkeys,
                    &rkeys,
                    residual,
                    jkind,
                    *left_presorted,
                    *right_presorted,
                    cols,
                )?,
                JoinMethod::NestedLoop => exec.nl_join_cols(lf(), rf(), &folded(), jkind, cols)?,
                JoinMethod::IndexProbe { key, index } => {
                    let (storage, extra, lf, rf) = (exec.storage(), folded(), lf(), rf());
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
            // A merge join emits in key order; a hash join that partitioned,
            // or built an inner join's table on the left, in no order; the
            // other methods keep the left input's.
            let anti = jkind == JoinKind::Anti;
            let sorted_by = match (&method, ran) {
                (JoinMethod::Merge { .. }, _) => &lkeys,
                (_, Some(shape)) if shape.spilled > 0 || shape.build_left && !anti => &Vec::new(),
                _ => &l.sorted_by,
            };
            let sorted_by = match cols {
                Some(cols) => remap_sort(sorted_by, |src| cols.iter().position(|&c| c == src)),
                None => sorted_by.clone(),
            };
            Ok(deliver(&sink, rel, sorted_by))
        });
        if let Some(shape) = ran {
            self.log[line] = JoinMethod::Hash(shape).explain(&what, probes);
        }
        self.streamed(l, &reader);
        self.streamed(r, &reader);
        delivered
    }

    /// How a join step of `l` and `r` runs, and each input narrowed to the
    /// columns it reads ([`spill`](Self::spill)). When either input is a
    /// pipe, the choice is priced at the pipes' bounds; if it takes the hash
    /// join, every pipe streams into it, on whichever side. Otherwise — a
    /// merge join, a nested loop or an index probe — every pipe is drained
    /// first and the step chosen on exact sizes.
    #[allow(clippy::too_many_arguments)]
    fn join_method(
        &mut self,
        l: &mut PlanOutput,
        r: &mut PlanOutput,
        kind: JoinKind,
        lkeys: &[usize],
        rkeys: &[usize],
        residual: Option<&CPred>,
        cols: Option<&[usize]>,
    ) -> Result<(JoinMethod, [(f64, f64); 2])> {
        let piped = |out: &PlanOutput| matches!(out.file, Data::Pipe(_));
        if piped(l) || piped(r) {
            let spill = self.spill(l, r, lkeys, rkeys, residual, cols);
            let choice = self.price_join(l, r, kind, lkeys, rkeys, spill.map(|(pages, _)| pages));
            if let JoinMethod::Hash(_) = choice.method {
                self.log.extend(choice.explain.into_iter().map(|line| line + ON_A_BOUND));
                return Ok((choice.method, spill));
            }
        }
        self.drain(l)?;
        self.drain(r)?;
        let spill = self.spill(l, r, lkeys, rkeys, residual, cols);
        let method = self.choose_join(l, r, kind, lkeys, rkeys, spill.map(|(pages, _)| pages));
        Ok((method, spill))
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
        spill: [f64; 2],
    ) -> JoinMethod {
        let choice = self.price_join(l, r, kind, lkeys, rkeys, spill);
        self.log.extend(choice.explain);
        choice.method
    }

    /// [`choose_join`](Self::choose_join)'s decision, what the method it
    /// takes costs (in the unit the choice compares) and the EXPLAIN lines
    /// that say why, without logging them. `spill` is the pages of each
    /// input narrowed to the columns the join reads ([`Self::spill`]).
    fn price_join(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: JoinKind,
        lkeys: &[usize],
        rkeys: &[usize],
        spill: [f64; 2],
    ) -> JoinChoice {
        let mut explain = Vec::new();
        if lkeys.is_empty() {
            return JoinChoice { method: JoinMethod::NestedLoop, cost: f64::INFINITY, explain };
        }
        let (l_sorted, r_sorted) = (sorted_on(&l.sorted_by, lkeys), sorted_on(&r.sorted_by, rkeys));
        // Under the default plans each method is priced whole, in
        // microseconds; under the literal ones by its page I/Os alone.
        let (outer, inner) = (l.priced(l_sorted, spill[0]), r.priced(r_sorted, spill[1]));
        let b = self.exec.storage().buffer_pages() as f64;
        let priced = !self.faithful;
        let (nl, mj) = classic_join_costs(outer, inner, b, priced);
        let hj = hash_join_cost(outer, inner, kind, b, priced);
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
        let hash = JoinMethod::Hash(HashShape::of(outer.pages, inner.pages, kind, b));
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

    /// Each input of a join step of `l` and `r` narrowed to the columns it
    /// reads ([`join_reads`]; `cols` of the concatenated row emitted, every
    /// column when `None`): the pages a spilled partition or a sort run of it
    /// fills, and the bytes of one of its rows, as `cost::narrowed_pages`
    /// estimates them.
    fn spill(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        lkeys: &[usize],
        rkeys: &[usize],
        residual: Option<&CPred>,
        cols: Option<&[usize]>,
    ) -> [(f64, f64); 2] {
        let (la, ra) = (l.file.schema().arity(), r.file.schema().arity());
        let [lkeep, rkeep] = join_reads(la, ra, lkeys, rkeys, residual, cols);
        let page_size = self.exec.storage().page_size();
        let side = |out: &PlanOutput, keep: &[usize]| {
            let (schema, pages) = (out.file.schema(), out.file.page_count() as f64);
            let rows = out.file.tuple_count() as f64;
            let width = narrowed_width(schema, keep, pages, rows, page_size);
            (narrowed_pages(schema, keep, pages, rows, page_size), width)
        };
        [side(l, &lkeep), side(r, &rkeep)]
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
    ///
    /// Its table is `l`'s rows, so a pipe there is drained. A pipe `r` is
    /// priced at its bound: it streams into the groupjoin when that still
    /// wins, whether its table fits `B − 2` pages or is partitioned, and is
    /// drained otherwise, the step then chosen on its exact sizes.
    fn choose_groupjoin(
        &mut self,
        l: &mut PlanOutput,
        r: &mut PlanOutput,
        kind: &LogicalJoinKind,
        on: &[JoinPred],
        group_by: &[ColumnRef],
        aggs: &[AggItem],
    ) -> Result<Option<Groupjoin>> {
        self.drain(l)?;
        let bound = if let Data::Pipe(_) = r.file { ON_A_BOUND } else { "" };
        let Some(mut priced) = self.price_groupjoin(l, r, kind, on, group_by, aggs, bound)? else {
            return Ok(None);
        };
        // No pipe, or one that streams into the groupjoin.
        let settled = bound.is_empty() || priced.chosen;
        if !settled {
            self.drain(r)?;
            let exact = self.price_groupjoin(l, r, kind, on, group_by, aggs, "")?;
            priced = exact.expect("a drained pipe keeps its schema");
        }
        self.log.push(priced.line);
        Ok(priced.chosen.then_some(priced.gj))
    }

    /// [`choose_groupjoin`](Self::choose_groupjoin)'s decision on the sizes
    /// `l` and `r` report, and its EXPLAIN line, `bound` after the prices;
    /// `None` where no groupjoin may run.
    #[allow(clippy::too_many_arguments)]
    fn price_groupjoin(
        &self,
        l: &PlanOutput,
        r: &PlanOutput,
        kind: &LogicalJoinKind,
        on: &[JoinPred],
        group_by: &[ColumnRef],
        aggs: &[AggItem],
        bound: &str,
    ) -> Result<Option<PricedGroupjoin>> {
        if self.faithful || self.policy != JoinPolicy::CostBased || !l.duplicate_free {
            return Ok(None);
        }
        let JoinKeys { lkeys, rkeys, residual } = join_keys(l, r, on, None)?;
        if lkeys.is_empty() {
            return Ok(None);
        }
        let combined = l.file.schema().join(r.file.schema());
        let step = GroupStep::new(&aggregate_list(&combined, group_by, aggs)?, &[])?;
        let split = l.file.schema().arity();
        let on_the_left = step.group_idx.iter().copied().eq(0..split);
        if !on_the_left || step.specs.iter().any(|s| s.arg.is_some_and(|i| i < split)) {
            return Ok(None);
        }
        let kind = join_kind(kind)?;
        // The join it stands in for emits what the GROUP BY reads.
        let cols = columns_read(&combined, &aggregate_reads(group_by, aggs));
        let spill = self.spill(l, r, &lkeys, &rkeys, residual.as_ref(), Some(&cols));
        let join = self.price_join(l, r, kind, &lkeys, &rkeys, spill.map(|(p, _)| p)).cost;
        // Its partitions carry the left's rows whole, and of the right's the
        // keys, the residual's columns and the aggregates' arguments.
        let args = step.specs.iter().filter_map(|s| s.arg);
        let emitted: Vec<usize> = (0..split).chain(args).collect();
        let ra = r.file.schema().arity();
        let [_, rkeep] = join_reads(split, ra, &lkeys, &rkeys, residual.as_ref(), Some(&emitted));
        let (rp, rn) = (r.file.page_count() as f64, r.file.tuple_count() as f64);
        let page_size = self.exec.storage().page_size();
        let rspill = narrowed_pages(r.file.schema(), &rkeep, rp, rn, page_size);
        let lp = l.file.page_count() as f64;
        let (groups, rows) = (l.priced(false, lp), r.priced(false, rspill));
        let b = self.exec.storage().buffer_pages() as f64;
        let table = groupjoin_table_pages(groups.pages, groups.rows, aggs.len(), page_size);
        let cost = groupjoin_cost(groups, rows, table, 1, b);
        let chosen = cost.total() <= join;
        let shape = HashShape::built_on(true, table, b);
        let line = format!(
            "groupjoin ({} keys){}: {cost} vs join {join:.1} µs{bound} (chose {})",
            lkeys.len(),
            spilled_note(&shape),
            if chosen { "groupjoin" } else { "join" },
        );
        let aggs = step.specs.iter().map(|s| AggSpec { arg: s.arg.map(|i| i - split), ..*s });
        let unjoined = match kind {
            JoinKind::LeftOuter => Unjoined::Padded,
            _ => Unjoined::Dropped,
        };
        let gj = Groupjoin {
            keys: vec![KeySet { left: lkeys, right: rkeys }],
            residual,
            unjoined,
            aggs: aggs.collect(),
            schema: step.schema,
            fits: shape.spilled == 0,
            keep: None,
        };
        Ok(Some(PricedGroupjoin { gj, chosen, line }))
    }

    /// The groupjoin of an Apply ([`LogicalPlan::Apply`]): every row of `l`
    /// a group, the rows of `r` folded in where `correlation` is TRUE, found
    /// through one hash chain per list of `keys`, and a group nothing joined
    /// the value of an empty one. No other method evaluates a disjunction
    /// per row, so it runs whatever it costs; its EXPLAIN line gives the
    /// price and the passes over `r` a table over `B − 2` pages takes.
    fn per_row_groupjoin(
        &mut self,
        l: &PlanOutput,
        r: &PlanOutput,
        keys: &[Vec<JoinPred>],
        correlation: &Predicate,
        aggs: &[AggItem],
    ) -> Result<Groupjoin> {
        let keys = keys
            .iter()
            .map(|set| {
                let JoinKeys { lkeys, rkeys, .. } = join_keys(l, r, set, None)?;
                Ok(KeySet { left: lkeys, right: rkeys })
            })
            .collect::<Result<Vec<_>>>()?;
        let combined = l.file.schema().join(r.file.schema());
        let residual = CPred::compile(&combined, correlation)?;
        let columns = l.file.schema().columns().iter();
        let group_by: Vec<ColumnRef> =
            columns.map(|c| ColumnRef { table: c.table.clone(), column: c.name.clone() }).collect();
        let step = GroupStep::new(&aggregate_list(&combined, &group_by, aggs)?, &[])?;
        let whole = |side: &PlanOutput| side.priced(false, side.file.page_count() as f64);
        let (groups, rows) = (whole(l), whole(r));
        let storage = self.exec.storage();
        let (b, page_size) = (storage.buffer_pages() as f64, storage.page_size());
        let table = groupjoin_table_pages(groups.pages, groups.rows, aggs.len(), page_size);
        let cost = groupjoin_cost(groups, rows, table, keys.len(), b);
        let passes = groupjoin_passes(table, b);
        self.log.push(format!("groupjoin ({} key sets), {passes} passes: {cost}", keys.len()));
        let split = l.file.schema().arity();
        let aggs = step.specs.iter().map(|s| AggSpec { arg: s.arg.map(|i| i - split), ..*s });
        Ok(Groupjoin {
            keys,
            residual: Some(residual),
            unjoined: Unjoined::Empty,
            aggs: aggs.collect(),
            schema: step.schema,
            fits: passes == 1,
            keep: None,
        })
    }

    /// Run the groupjoin [`choose_groupjoin`](Self::choose_groupjoin) took,
    /// or an Apply's ([`per_row_groupjoin`](Self::per_row_groupjoin)), in an
    /// operator node of its own: one row per row of `l`, stored. In memory,
    /// or in chunks over several key sets, it keeps `l`'s order — NEST-JA2's
    /// `TEMP3` meets the final join pre-sorted, as the GROUP BY's output
    /// does — and partitioned none.
    fn groupjoin(
        &mut self,
        l: &mut PlanOutput,
        r: &mut PlanOutput,
        gj: Groupjoin,
    ) -> Result<PlanOutput> {
        let rows_in = (l.file.tuple_count() + r.file.tuple_count()) as u64;
        let label = match gj.keys.as_slice() {
            [one] => format!("groupjoin ({} keys)", one.left.len()),
            sets => format!("groupjoin ({} key sets)", sets.len()),
        };
        // Its table is the left input's rows, which it holds when they fit;
        // a pipe on the right streams past it.
        self.hand_off(l, gj.fits, &label);
        self.hand_off(r, false, &label);
        let sink = self.pass();
        let exec = sink.exec;
        let reader = label.clone();
        let out = observed(exec.obs(), || label, rows_in, stored_rows, || {
            let (keys, residual) = (&gj.keys, gj.residual.as_ref());
            let (lf, rf) = (l.file.input(), r.file.input());
            let rel =
                exec.hash_groupjoin(lf, rf, keys, residual, gj.unjoined, &gj.aggs, gj.schema)?;
            // A table over `B − 2` pages is partitioned on one key set, and
            // taken in chunks in scan order on several.
            let ordered = gj.fits || gj.keys.len() > 1;
            let mut sorted_by = if ordered { l.sorted_by.clone() } else { Vec::new() };
            let mut duplicate_free = l.duplicate_free;
            // Project the rows in memory, so that what is stored is what is
            // read; rows that differed only in a dropped column become equal.
            let rel = match &gj.keep {
                Some(keep) => {
                    let at = |c: &usize| keep.iter().position(|k| k == c);
                    sorted_by = sorted_by.iter().map_while(at).collect();
                    duplicate_free = false;
                    let rows = rel.tuples().iter().map(|t| t.project(keep)).collect();
                    Relation::new(rel.schema().project(keep), rows)?
                }
                None => rel,
            };
            Ok(PlanOutput { duplicate_free, ..store(&sink, rel, sorted_by) })
        });
        self.streamed(r, &reader);
        out
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
        cap: usize,
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
            let storage = self.exec.storage();
            let out_schema = keep.map_or_else(|| schema.clone(), |keep| schema.project(keep));
            let sorted_by = match keep {
                Some(keep) => keep.iter().position(|&c| c == ix.key_col()).into_iter().collect(),
                None => vec![ix.key_col()],
            };
            let rows = observed(
                self.exec.obs(),
                || format!("index scan {}", ix.name()),
                0,
                |rows: &Rows| rows.tuple_count() as u64,
                || -> Result<Rows> {
                    let mut rows = HoldingWriter::new(storage, out_schema, cap);
                    for t in ix.range_scan(storage, &lo, &hi) {
                        if cpred.accepts(&t)? {
                            let t = match keep {
                                Some(keep) => t.project(keep),
                                None => t,
                            };
                            rows.push(storage, t);
                        }
                    }
                    Ok(rows.finish(storage))
                },
            )?;
            return Ok(Some(self.output(rows, sorted_by)));
        }
        Ok(None)
    }

    /// The join input `name` restricted by `pred`, of its columns `keep`: by
    /// a B+tree range scan that wins, run here, else by one pass of the
    /// paper's own first step — "restriction and projection", priced `P +
    /// Pt` — a pipe its consumer runs when the input is a stored file on the
    /// default plans, and otherwise run here, streaming held rows where they
    /// are, with an operator node and an EXPLAIN line of its own. `None`
    /// when neither runs (`keep` `None`: whole tables).
    fn restrict_project(
        &mut self,
        name: &str,
        inp: &mut PlanOutput,
        pred: &Predicate,
        keep: Option<&[usize]>,
        cap: usize,
    ) -> Result<Option<PlanOutput>> {
        self.drain(inp)?;
        let indexed = self.try_index_restrict(inp, pred, keep, cap)?;
        let (None, Some(keep)) = (&indexed, keep) else { return Ok(indexed) };
        let schema = inp.file.schema().clone();
        let cpred = CPred::compile(&schema, pred)?;
        let exprs: Vec<CExpr> = keep.iter().map(|&c| CExpr::Col(c)).collect();
        let sorted_by = remap_sort(&inp.sorted_by, |src| projected_at(&exprs, src));
        let (what, out_schema) = (format!("restrict+project {name}"), schema.project(keep));
        if !self.faithful && inp.file.file().is_some() {
            return Ok(Some(self.pipe(inp, cpred, exprs, out_schema, what, "", cap, sorted_by)));
        }
        self.hand_off(inp, true, "restrict+project");
        let exec = &self.exec;
        let rows = observed(
            exec.obs(),
            || what.clone(),
            0,
            |rows: &Rows| rows.tuple_count() as u64,
            || exec.restrict_project_rows(inp.file.rows(), &cpred, &exprs, out_schema, false, cap),
        )?;
        let out = self.output(rows, sorted_by);
        Ok(Some(self.reported(out, what)))
    }

    /// `out` with an EXPLAIN line of its own: `what`, its size, and — when
    /// it was written rather than held — that it was. Whoever reads held
    /// rows completes the line ([`hand_off`](Self::hand_off)).
    fn reported(&mut self, out: PlanOutput, what: String) -> PlanOutput {
        let (tuples, pages) = (out.file.tuple_count(), out.file.page_count());
        let written = if held(&out) { "" } else { ", written" };
        self.log.push(format!("{what}: {tuples} tuples, {pages} pages{written}"));
        let line = held(&out).then(|| self.log.len() - 1);
        PlanOutput { line, ..out }
    }

    // -------------------------------------------------------- join pipeline

    /// Join the leaves `inputs` of a flat block in tree order under the
    /// conjuncts `remaining`, and hand the last step's rows to `deliver`
    /// (`rows` and `deliver` as for [`join`](Self::join)): the one place that
    /// decides where a conjunct is applied, which conjuncts are join keys and
    /// which columns a stored join result carries.
    ///
    /// An input goes by the qualifiers of its columns. One joined with
    /// conjuncts of its own is first replaced, in `inputs`, by its
    /// restriction (and, under the default plans, projection onto the columns
    /// read later); each join step then takes the equalities between its two
    /// sides as keys and whatever else has become evaluable as residual; the
    /// last join step takes all that is left. An anti-join's relation is
    /// restricted when its step comes by its conjuncts over it alone; of the
    /// others, the equalities across are keys. Before an anti-join of the one
    /// input, that input takes every conjunct. `reads` lists the columns the
    /// caller reads of the result. `None` when there is no step: `remaining`
    /// then holds the conjuncts not applied, and the restricted input, which
    /// goes to the caller, is held up to `last_cap` pages.
    fn join_inputs<'p, R>(
        &mut self,
        inputs: &mut [Leaf<'p, PlanOutput>],
        remaining: &mut Vec<Predicate>,
        reads: Option<Vec<&'p ColumnRef>>,
        last_cap: usize,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(&Sink<'_>, Relation, Vec<usize>) -> R,
    ) -> Result<Option<R>> {
        let names: Vec<Vec<String>> =
            inputs.iter().map(|inp| qualifiers(inp.input.file.schema())).collect();
        let steps = inputs.len() - 1;
        let cap = if steps == 0 { last_cap } else { self.hold_cap() };
        let lone = inputs.iter().filter(|inp| inp.anti.is_none()).count() == 1 && steps > 0;
        let anti_reads: Vec<&ColumnRef> = inputs.iter().flat_map(Leaf::anti_refs).collect();

        // What the caller reads of the join result; with the conjuncts
        // still pending at a step and the anti-joins still to run,
        // everything later steps read. `None` carries every column: the
        // literal plans, and a statement with an unqualified reference
        // (whose input cannot be told here).
        let qualified = |c: &&ColumnRef| c.table.is_some();
        let tail_reads = reads.filter(|reads| {
            !self.faithful
                && reads.iter().all(qualified)
                && remaining.iter().flat_map(refs_of).all(|c| qualified(&c))
                && anti_reads.iter().all(qualified)
        });

        // Restrict before the join. Inner-join-only pipeline, so early
        // restriction is semantics-preserving, and a projection that keeps
        // duplicates keeps every multiplicity.
        for (leaf, names) in inputs.iter_mut().zip(&names) {
            if leaf.anti.is_some() {
                continue;
            }
            let inp = &mut leaf.input;
            let only_mine = |p: &Predicate| {
                let refs = refs_of(p);
                (lone || !refs.is_empty())
                    && refs.iter().all(|c| c.table.as_ref().is_some_and(|t| names.contains(t)))
            };
            // Under the default plans a conjunct moves below the join only
            // if it cannot raise there on a row the join would never have
            // paired; one that can stays a residual. An anti-join pairs
            // every row of the one input it keeps.
            let schema = inp.file.schema().clone();
            let declared = |c: &ColumnRef| {
                schema.try_resolve(c.table.as_deref(), &c.column).map(|i| schema.columns()[i].ty)
            };
            let pushable = |p: &Predicate| {
                only_mine(p) && (tail_reads.is_none() || lone || cannot_raise(p, &declared))
            };
            let pushed: Vec<Predicate> =
                remaining.iter().filter(|p| pushable(p)).cloned().collect();
            // An input without a conjunct to take stays the base table,
            // indexes intact: copying it costs more than its narrower rows
            // save.
            if pushed.is_empty() {
                continue;
            }
            let keep = match &tail_reads {
                Some(tail) => {
                    let later = remaining.iter().filter(|p| !pushable(p)).flat_map(refs_of);
                    let anti = anti_reads.iter().copied();
                    let reads: Vec<&ColumnRef> =
                        tail.iter().copied().chain(later).chain(anti).collect();
                    Some(columns_read(inp.file.schema(), &reads))
                }
                None if lone => Some((0..inp.file.schema().arity()).collect()),
                None => None,
            };
            // The paper's shape: whole tables into the join but for the §7
            // extension, a restriction an index range scan takes and wins
            // on; otherwise it rides along as a join residual.
            let (name, pred) = (names.join("+"), Predicate::and(pushed));
            let Some(out) = self.restrict_project(&name, inp, &pred, keep.as_deref(), cap)? else {
                continue;
            };
            remaining.retain(|p| !pushable(p));
            *inp = out;
        }

        // The join accumulator; the first input stands in until a step ran.
        let mut acc: Option<PlanOutput> = None;
        let mut acc_names: Vec<String> = names[0].clone();
        let last_join = inputs.iter().rposition(|inp| inp.anti.is_none());
        let mut sink = Some((rows, deliver));
        for (at, next_names) in names.iter().enumerate().skip(1) {
            let (done, rest) = inputs.split_at_mut(at);
            let (next, later) = rest.split_first_mut().expect("a step per input but the first");
            let left = match &mut acc {
                Some(acc) => acc,
                None => &mut done[0].input,
            };
            let (mut keys, mut residual): (Vec<JoinPred>, Vec<Predicate>) = (vec![], vec![]);
            let right = &mut next.input;
            let (kind, null_aware) = match next.anti {
                None => {
                    // Pull out the predicates usable at this step.
                    let mut rest_later: Vec<Predicate> = Vec::new();
                    for p in remaining.drain(..) {
                        match classify_conjunct(&p, &acc_names, next_names) {
                            ConjunctUse::JoinKey(jp) => keys.push(jp),
                            ConjunctUse::Later if Some(at) != last_join => rest_later.push(p),
                            ConjunctUse::Residual | ConjunctUse::Later => residual.push(p),
                        }
                    }
                    *remaining = rest_later;
                    (JoinKind::Inner, None)
                }
                Some((conjuncts, null_aware)) => {
                    // The block's conjuncts over its relation alone restrict
                    // it; of the others, the equalities across are keys.
                    let mut local = Vec::new();
                    for p in conjuncts {
                        if refs_of(p).iter().all(|c| c.table.as_ref() == Some(&next_names[0])) {
                            local.push(p.clone());
                            continue;
                        }
                        match classify_conjunct(p, &acc_names, next_names) {
                            ConjunctUse::JoinKey(jp) => keys.push(jp),
                            ConjunctUse::Residual | ConjunctUse::Later => residual.push(p.clone()),
                        }
                    }
                    if !local.is_empty() {
                        let read = residual.iter().chain(null_aware).flat_map(refs_of);
                        let keys = keys.iter().map(|k| &k.right);
                        let read: Vec<&ColumnRef> = read.chain(keys).collect();
                        let keep = columns_read(right.file.schema(), &read);
                        let (pred, cap) = (Predicate::and(local), self.hold_cap());
                        let name = &next_names[0];
                        let out = self.restrict_project(name, right, &pred, Some(&keep), cap)?;
                        *right = out.expect("a projection is always made");
                    }
                    (JoinKind::Anti, null_aware)
                }
            };
            let residual = (!residual.is_empty()).then(|| Predicate::and(residual));
            let residual = residual.as_ref();
            let reads: Option<Vec<&ColumnRef>> = tail_reads.as_ref().map(|tail| {
                let pending = later.iter().flat_map(Leaf::anti_refs);
                let conjuncts = remaining.iter().flat_map(refs_of);
                tail.iter().copied().chain(conjuncts).chain(pending).collect()
            });
            let reads = reads.as_deref();
            if at == steps {
                let (rows, deliver) = sink.take().expect("one last step");
                return self
                    .join(left, right, kind, &keys, residual, null_aware, reads, rows, deliver)
                    .map(Some);
            }
            let joined = self.join(
                left, right, kind, &keys, residual, null_aware, reads, stored_rows, store,
            )?;
            let what = match kind {
                JoinKind::Anti => {
                    format!("anti-join {} with {}", acc_names.join("+"), next_names[0])
                }
                _ => {
                    acc_names.extend_from_slice(next_names);
                    format!("join {}", acc_names.join("+"))
                }
            };
            // Replacing the accumulator frees the previous step's file.
            acc = Some(match self.faithful {
                true => joined,
                false => self.reported(joined, what),
            });
        }
        Ok(None)
    }

    /// The root's SELECT phase over the flat block `input`: its inputs and
    /// anti-joins through the join pipeline, whatever the plan shapes, then
    /// the projection / aggregation / DISTINCT / ORDER BY in memory.
    fn select(
        &mut self,
        input: &LogicalPlan,
        items: &[SelectItem],
        group_by: &[ColumnRef],
        order_by: &[OrderKey],
        distinct: bool,
    ) -> Result<Relation> {
        let (mut leaves, mut remaining, mut filters) = (Vec::new(), Vec::new(), Vec::new());
        flatten(input, &mut leaves, &mut remaining, &mut filters);
        remaining.append(&mut filters);
        // Whatever this statement materializes — a restricted input, the
        // last join's result — lives until the function returns, past the
        // statement's last page read.
        let mut inputs = self.run_leaves(leaves)?;
        let keys = group_by.iter().chain(order_by.iter().map(|k| &k.column));
        let reads = Some(items_read(items).chain(keys).collect());

        let grouped = !group_by.is_empty() || items.iter().any(|s| s.expr.as_aggregate().is_some());
        let select =
            |scope: &Schema| SelectList::compile(scope, items, group_by, order_by, distinct);
        // Streaming projection needs a plain select list, unsorted.
        let streamable = !grouped && order_by.is_empty() && !distinct;
        // A one-table statement's restricted input goes straight to the
        // result, which is in memory whatever its size, or to a GROUP BY,
        // which holds what fits the pool.
        let cap = self.hold_cap();
        let last_cap = if grouped || cap == 0 { cap } else { usize::MAX };
        let mut joined = if streamable {
            // Stream the final join straight into the projection.
            let rows = |rel: &Relation| rel.len() as u64;
            let keep = |_: &Sink<'_>, rel, _| rel;
            let inputs = &mut inputs;
            if let Some(rel) =
                self.join_inputs(inputs, &mut remaining, reads, last_cap, rows, keep)?
            {
                return Ok(select(rel.schema())?.finish(rel.tuples(), false)?);
            }
            None
        } else {
            let (inputs, remaining) = (&mut inputs, &mut remaining);
            self.join_inputs(inputs, remaining, reads, last_cap, stored_rows, store)?
        };
        let acc = match &mut joined {
            Some(joined) => joined,
            None => &mut inputs[0].input,
        };
        self.drain(acc)?;

        // Single-table case: apply leftover predicates, streamed from held
        // rows where they lie, into the consumer the restricted input would
        // have gone to. Then the SELECT phase.
        let reader = if grouped { "group-by" } else { "the result" };
        let mut filtered = None;
        if !remaining.is_empty() {
            let schema = acc.file.schema().clone();
            let cpred = CPred::compile(&schema, &Predicate::and(remaining))?;
            let every: Vec<CExpr> = (0..schema.arity()).map(CExpr::Col).collect();
            self.hand_off(acc, true, reader);
            let rows = acc.file.rows();
            let rows =
                self.exec.restrict_project_rows(rows, &cpred, &every, schema, false, last_cap)?;
            filtered = Some(self.output(rows, acc.sorted_by.clone()));
        }
        let working = filtered.as_mut().unwrap_or(acc);
        let list = select(working.file.schema())?;
        if !list.grouped() {
            self.hand_off(working, true, reader);
            let rows: Vec<Tuple> = working.file.scan(self.exec.storage()).collect();
            return Ok(list.finish(&rows, false)?);
        }
        let step = GroupStep::new(&list, &working.sorted_by)?;
        let rows = |rel: &Relation| rel.len() as u64;
        let holds = self.sorts_in_memory(working);
        self.hand_off(working, holds, reader);
        let faithful = self.faithful;
        let groups = step.run(&self.pass(), working, faithful, rows, |_, rel| rel)?;
        Ok(list.finish(groups.tuples(), false)?)
    }
}

/// The select list of an aggregate step: its GROUP BY columns, then its
/// aggregates under their aliases — the layout of the step's output.
fn aggregate_list(scope: &Schema, group_by: &[ColumnRef], aggs: &[AggItem]) -> Result<SelectList> {
    let keys = group_by.iter().map(|c| SelectItem::column(c.clone()));
    let aggs = aggs.iter().map(|a| SelectItem {
        expr: ScalarExpr::Aggregate(a.func, a.arg.clone()),
        alias: Some(a.alias.clone()),
    });
    let items: Vec<SelectItem> = keys.chain(aggs).collect();
    Ok(SelectList::compile(scope, &items, group_by, &[], false)?)
}

/// What one GROUP BY step hands `Exec::group_aggregate*`, taken from a
/// [`SelectList`]: the key columns, the aggregates and the group-row
/// schema `[keys…, aggregates…]`.
struct GroupStep {
    group_idx: Vec<usize>,
    specs: Vec<AggSpec>,
    schema: Schema,
    /// The input already lies in group-column order: no sort pass.
    presorted: bool,
}

impl GroupStep {
    /// Grouping as `list` does over an input lying in `sorted_by` order.
    fn new(list: &SelectList, sorted_by: &[usize]) -> Result<GroupStep> {
        let group_idx = list.group_by().to_vec();
        let presorted = !group_idx.is_empty() && sorted_on(sorted_by, &group_idx);
        let (specs, schema) = (list.agg_specs()?, list.group_schema().clone());
        Ok(GroupStep { group_idx, specs, schema, presorted })
    }

    /// Run the step, the pass `sink` began, over `input` inside one
    /// operator node, its rows held or in a file as
    /// [`PlanExecutor::hand_off`] left them; `rows` and `deliver` as for
    /// [`PlanExecutor::join`]. The aggregate folds the sort's last merge
    /// pass as it is merged; under the paper's literal plans (`faithful`)
    /// the sort writes its file and the fold reads it back, the pages
    /// Section 7 counts.
    fn run<R>(
        &self,
        sink: &Sink<'_>,
        input: &PlanOutput,
        faithful: bool,
        rows: impl FnOnce(&R) -> u64,
        deliver: impl FnOnce(&Sink<'_>, Relation) -> R,
    ) -> Result<R> {
        let (exec, rows_in) = (sink.exec, input.file.tuple_count() as u64);
        observed(exec.obs(), || "group-by".to_string(), rows_in, rows, || {
            let input = RowsRef::from(input.file.rows());
            let schema = self.schema.clone();
            let sorted = match input {
                RowsRef::File(file) if faithful && !self.presorted && !self.group_idx.is_empty() =>
                {
                    let keys: Vec<SortKey> =
                        self.group_idx.iter().map(|&i| SortKey::asc(i)).collect();
                    Some(TempFile::new(exec.storage(), exec.sort(file, &keys, false)))
                }
                _ => None,
            };
            let (input, presorted) = match &sorted {
                Some(file) => (RowsRef::File(file), true),
                None => (input, self.presorted),
            };
            let (group, specs) = (&self.group_idx, &self.specs);
            let rel = exec.group_aggregate_collect(input, group, specs, schema, presorted)?;
            // Freed after the fold's last page read, before a result page is written.
            drop(sorted);
            Ok(deliver(sink, rel))
        })
    }
}

/// Where a step puts the rows it makes: held for their one consumer while
/// they fill at most `cap` pages, and otherwise written, one counted write
/// per page ([`HoldingWriter`]); stamped with the passes begun so far
/// ([`PlanExecutor::passes`]), by which their consumer tells whether they
/// waited through another.
struct Sink<'e> {
    exec: &'e Exec,
    cap: usize,
    made_at: usize,
}

impl Sink<'_> {
    /// `rows`, made in `sorted_by` order: unindexed, freed with the value.
    fn output(&self, rows: Rows, sorted_by: Vec<usize>) -> PlanOutput {
        let _owner = rows.file().map(|file| TempFile::new(self.exec.storage(), file.clone()));
        let (duplicate_free, indexes, line, made_at) = (false, vec![], None, self.made_at);
        let file = Data::Rows(rows);
        PlanOutput { file, sorted_by, duplicate_free, indexes, line, made_at, _owner }
    }
}

/// `rel` through `sink`: an intermediate lying in `sorted_by` order.
fn store(sink: &Sink<'_>, rel: Relation, sorted_by: Vec<usize>) -> PlanOutput {
    let storage = sink.exec.storage();
    let mut rows = HoldingWriter::new(storage, rel.schema().clone(), sink.cap);
    for t in rel.into_tuples() {
        rows.push(storage, t);
    }
    sink.output(rows.finish(storage), sorted_by)
}

/// Whether `out` is rows held for their consumer.
fn held(out: &PlanOutput) -> bool {
    matches!(out.file, Data::Rows(Rows::Held(_)))
}

/// The rows of a stored intermediate, for its operator node.
fn stored_rows(out: &PlanOutput) -> u64 {
    out.file.tuple_count() as u64
}

/// What a select list reads: its columns and its aggregates' arguments.
fn items_read(items: &[SelectItem]) -> impl Iterator<Item = &ColumnRef> {
    items.iter().filter_map(|item| match &item.expr {
        ScalarExpr::Column(c) | ScalarExpr::Aggregate(_, AggArg::Column(c)) => Some(c),
        _ => None,
    })
}

/// What an aggregate step reads of its input: its GROUP BY columns and its
/// aggregates' arguments.
fn aggregate_reads<'a>(group_by: &'a [ColumnRef], aggs: &'a [AggItem]) -> Vec<&'a ColumnRef> {
    let args = aggs.iter().filter_map(|a| match &a.arg {
        AggArg::Column(c) => Some(c),
        AggArg::Star => None,
    });
    group_by.iter().chain(args).collect()
}

/// How many times `plan` scans the table `name`.
fn scans_of(plan: &LogicalPlan, name: &str) -> usize {
    match plan {
        LogicalPlan::Scan { table, .. } => usize::from(table.eq_ignore_ascii_case(name)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Select { input, .. } => scans_of(input, name),
        LogicalPlan::Join { left, right, .. } => scans_of(left, name) + scans_of(right, name),
        LogicalPlan::Apply { outer, inner, .. } => scans_of(outer, name) + scans_of(inner, name),
    }
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

/// The kernel's kind of a join run as one node; an anti-join runs in a join
/// pipeline only, which places its conjuncts.
fn join_kind(kind: &LogicalJoinKind) -> Result<JoinKind> {
    let outside = || nsql_engine::EngineError::Internal("an anti-join outside a pipeline".into());
    match kind {
        LogicalJoinKind::Inner => Ok(JoinKind::Inner),
        LogicalJoinKind::LeftOuter => Ok(JoinKind::LeftOuter),
        LogicalJoinKind::Anti { .. } => Err(DbError::Engine(outside())),
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

/// The groupjoin an aggregate step or an Apply takes: its key sets and
/// residual, what a left row nothing joined emits, the aggregates over the
/// right input's columns, the output schema (the left's columns, then the
/// aggregates) and whether its table fits `B − 2` pages.
struct Groupjoin {
    keys: Vec<KeySet>,
    residual: Option<CPred>,
    unjoined: Unjoined,
    aggs: Vec<AggSpec>,
    schema: Schema,
    fits: bool,
    /// The columns of its rows read after it, when not all are.
    keep: Option<Vec<usize>>,
}

/// What [`PlanExecutor::price_groupjoin`] decided: the groupjoin, whether
/// it is cheaper than the join, and the EXPLAIN line that says so.
struct PricedGroupjoin {
    gj: Groupjoin,
    chosen: bool,
    line: String,
}

/// What ends the EXPLAIN line of a choice priced on a pipe's bound: the
/// rows it makes are at most the bound's, and so is what it costs.
const ON_A_BOUND: &str = ", priced on a bound (≤)";

/// How one join step runs, with what that method needs beyond the keys.
enum JoinMethod {
    /// Probe the right side's B+tree on equality key number `key` once per
    /// left tuple (inner joins only).
    IndexProbe { key: usize, index: Arc<BTreeIndex> },
    /// Which input the table holds, and what of it the first pass spills.
    Hash(HashShape),
    /// Sort-merge; an input already in key order skips its sort.
    Merge { left_presorted: bool, right_presorted: bool },
    NestedLoop,
}

/// What a join step is, for its EXPLAIN line and profile label: its kind,
/// its equality keys and whether it compares null-aware.
struct JoinWhat {
    kind: JoinKind,
    keys: usize,
    null_aware: bool,
}

impl JoinWhat {
    /// `join`, or `anti-join` for an anti-join.
    fn noun(&self) -> &'static str {
        match self.kind {
            JoinKind::Anti => "anti-join",
            JoinKind::Inner | JoinKind::LeftOuter => "join",
        }
    }

    /// `, null-aware` after the keys of a null-aware anti-join.
    fn aware(&self) -> &'static str {
        if self.null_aware {
            ", null-aware"
        } else {
            ""
        }
    }
}

impl JoinMethod {
    /// The EXPLAIN line of a step `what` with `probes` left tuples.
    fn explain(&self, what: &JoinWhat, probes: usize) -> String {
        let (join, keys, aware) = (what.noun(), what.keys, what.aware());
        match self {
            JoinMethod::IndexProbe { index, .. } => {
                format!("index nested-loop {join} via {} ({probes} probes)", index.name())
            }
            JoinMethod::Hash(shape) => format!(
                "hash {join} ({keys} keys{aware}), build {}{}",
                if shape.build_left { "left" } else { "right" },
                spilled_note(shape),
            ),
            JoinMethod::Merge { left_presorted, right_presorted } => format!(
                "merge {join} ({keys} keys{aware}){}{}",
                if *left_presorted { ", left pre-sorted" } else { "" },
                if *right_presorted { ", right pre-sorted" } else { "" },
            ),
            JoinMethod::NestedLoop => {
                format!("nested-loop {join} ({keys} equality keys folded into predicate{aware})")
            }
        }
    }

    /// The step's operator label in the query profile.
    fn label(&self, what: &JoinWhat) -> String {
        let (join, keys, aware) = (what.noun(), what.keys, what.aware());
        match self {
            JoinMethod::IndexProbe { index, .. } => format!("index-nl {join} ({})", index.name()),
            JoinMethod::Hash(_) => format!("hash {join} ({keys} keys{aware})"),
            JoinMethod::Merge { .. } => format!("merge {join} ({keys} keys{aware})"),
            JoinMethod::NestedLoop => format!("nested-loop {join} ({keys} keys{aware})"),
        }
    }
}

/// What the first pass of a hash join or groupjoin of `shape` spills, for
/// its EXPLAIN line: `, 1 partition spilled, 55 of 66 pages resident`, or
/// nothing when its table fits.
fn spilled_note(shape: &HashShape) -> String {
    match shape.spilled {
        0 => String::new(),
        k => format!(
            ", {k} partition{} spilled, {:.0} of {:.0} pages resident",
            if k == 1 { "" } else { "s" },
            shape.resident,
            shape.table
        ),
    }
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

/// A leaf of a join pipeline, in tree order: `input` is joined to the
/// leaves before it (the first: the one they join), or anti-joined when
/// `anti` holds what decides a match — the anti-join's conjuncts and its
/// null-aware comparison ([`LogicalJoinKind::Anti`]).
struct Leaf<'p, T> {
    input: T,
    anti: Option<(&'p [Predicate], Option<&'p Predicate>)>,
}

impl<'p, T> Leaf<'p, T> {
    /// The columns an anti-join reads; none for a joined input.
    fn anti_refs(&self) -> Vec<&'p ColumnRef> {
        let Some((conjuncts, null_aware)) = self.anti else { return Vec::new() };
        conjuncts.iter().chain(null_aware).flat_map(refs_of).collect()
    }
}

/// The inputs and conjuncts of the maximal subtree of filters, inner joins
/// and anti-joins rooted at `plan`, bottom-up: its leaves left to right —
/// an anti-join's relation after the leaves of its left input — the `on`
/// predicates of its inner joins, the conjuncts of its filters.
fn flatten<'p>(
    plan: &'p LogicalPlan,
    leaves: &mut Vec<Leaf<'p, &'p LogicalPlan>>,
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
        LogicalPlan::Join {
            left,
            right,
            kind: LogicalJoinKind::Anti { conjuncts, null_aware },
            ..
        } => {
            flatten(left, leaves, on, filters);
            let anti = Some((conjuncts.as_slice(), null_aware.as_ref()));
            leaves.push(Leaf { input: right, anti });
        }
        leaf => leaves.push(Leaf { input: leaf, anti: None }),
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

/// The column references of one predicate.
fn refs_of(p: &Predicate) -> Vec<&ColumnRef> {
    nsql_analyzer::resolve::predicate_column_refs(p)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use nsql_core::AggItem;
    use nsql_storage::Storage;
    use nsql_sql::{parse_query, AggFunc};
    use nsql_types::{Column, ColumnType, Tuple, Value};

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

    /// An inner join step on one key.
    const ONE_KEY: JoinWhat = JoinWhat { kind: JoinKind::Inner, keys: 1, null_aware: false };

    /// Each input's pages: a join that reads every column.
    fn whole(l: &PlanOutput, r: &PlanOutput) -> [f64; 2] {
        [l.file.page_count() as f64, r.file.page_count() as f64]
    }

    /// The rows of a step's output, held or stored.
    fn collected(pe: &PlanExecutor<&Catalog>, out: &PlanOutput) -> Relation {
        out.relation(pe.exec().storage()).unwrap()
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

    /// A caller's `force_distinct` adds a final DISTINCT to a root that has
    /// none; without it the root keeps its duplicates.
    #[test]
    fn force_distinct_deduplicates_the_roots_rows() {
        let cat = catalog();
        let q = parse_query("SELECT T.K FROM T WHERE T.V > 0").unwrap();
        let plan = nsql_core::transform_query(&cat, &q, &nsql_core::UnnestOptions::default());
        let plan = plan.unwrap();
        for (force, rows) in [(false, 4), (true, 3)] {
            let mut pe = executor(&cat, JoinPolicy::CostBased);
            assert_eq!(pe.execute_transform_plan(&plan, force).unwrap().len(), rows, "{force}");
        }
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
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
            assert_eq!(picked.label(&ONE_KEY), want, "{:?}", pe.log);
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
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
            assert_eq!(picked.label(&ONE_KEY), want, "faithful = {faithful}: {:?}", pe.log);
            let line = &pe.log[0];
            assert!(line.starts_with("index join candidate IX_R_K: cost "), "{line}");
            assert_eq!(line.contains(" / hj "), !faithful, "{line}");
            assert!(line.ends_with("(rejected)"), "{line}");
        }
        // The probes' price lies between the hash join's and the other two.
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
        pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
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
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
            assert_eq!(picked.label(&ONE_KEY), want, "faithful = {faithful}: {:?}", pe.log);
            let built_right =
                picked.explain(&ONE_KEY, 0).starts_with("hash join (1 keys), build right");
            assert_eq!(built_right, !faithful);
        }
        let mut pe = executor(&cat, JoinPolicy::CostBased);
        let (l, r) = (pe.lookup("L", "L").unwrap(), pe.lookup("R", "R").unwrap());
        pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
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
            let picked = pe.choose_join(&l, &r, JoinKind::Inner, &[0], &[0], whole(&l, &r));
            assert_eq!(picked.label(&ONE_KEY), want, "{policy:?}");
            // Without an equality key every policy is left the nested loop.
            let keyless = pe.choose_join(&l, &r, JoinKind::Inner, &[], &[], whole(&l, &r));
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
            let mut got = collected(&pe, &out).into_tuples();
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
        let got = collected(&pe, &out);
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
        let rows = collected(&pe, temp3);
        let keys: Vec<&Value> = rows.tuples().iter().map(|t| t.get(0)).collect();
        let want: Vec<Value> = (0..13).map(Value::Int).collect();
        assert!(keys.iter().copied().eq(&want), "every TEMP1 row, in order: {keys:?}");
        // A merge join into the final join sorts only the outer relation.
        pe.set_policy(JoinPolicy::ForceMergeJoin);
        let got = pe.run_root(&plan.root, false).unwrap();
        assert_eq!(pe.log.last().unwrap(), "merge join (1 keys), right pre-sorted", "{:?}", pe.log);
        let want = oracle.eval(&q).unwrap();
        assert!(!want.is_empty() && got.same_bag(&want), "got:\n{got}\noracle:\n{want}");
    }

    /// A partitioned hash join emits partition after partition: over
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
        let got = collected(&pe, &out);
        assert!(!want.is_empty() && got.same_bag(&want), "got:\n{got}\noracle:\n{want}");
    }
}
