//! The System R reference evaluator: nested iteration.
//!
//! This evaluator runs a nested [`QueryBlock`] directly, with the semantics
//! the paper treats as ground truth:
//!
//! * The FROM clause is enumerated by nested iteration (a cartesian-product
//!   loop); WHERE predicates are applied per candidate binding, **simple
//!   predicates first** — System R evaluates the inner block "once for each
//!   tuple of the outer relation which satisfies all simple predicates on
//!   the outer relation" [SEL 79:33].
//! * A *correlated* inner block is re-evaluated for every qualifying outer
//!   tuple. In the paper's model — and here under
//!   [`NestedIter::with_faithful`] — each evaluation re-scans the block's
//!   relations through the buffer pool: the repeated-retrieval cost
//!   `Pi + fi·Ni·Pj` the paper sets out to eliminate. By default a block
//!   takes its tuples by the cheaper access path (below).
//! * An *uncorrelated* inner block (type-N/A) is evaluated once: a scalar
//!   result is cached as a constant; a list result is materialized as a
//!   temporary file and re-scanned per membership test, mirroring System
//!   R's "evaluate Q into a list X and substitute" strategy (Section 2.2).
//! * Aggregates follow SQL semantics ([`crate::aggregate`]): `COUNT(∅)=0`,
//!   `MAX(∅)=NULL`, etc.; comparisons follow three-valued logic.
//!
//! Every correctness experiment in the paper compares a transformation
//! against this evaluator's output, and every figure uses the measured page
//! I/Os of its faithful form as the baseline.
//!
//! # Two tuple sources
//!
//! System R's nested iteration probed an index on the correlation column
//! where there was one [SEL 79]; the paper's cost model prices the case
//! where there is none. Both are here. Before a query reads its first page,
//! [`NestedIter::plan`] gives every correlated block an [`Access`]:
//!
//! * **Eligible** is a block over one FROM file whose simple conjuncts hold
//!   a *key conjunct* — `column = outer reference` (either order), or an
//!   `OR` of nothing but such equalities, over columns of one comparison
//!   class — that only conjuncts statically unable to raise precede
//!   (`Incomparable` is the one error a compiled conjunct has, so declared
//!   column types decide; every evaluation checks the outer values it binds
//!   against them as well).
//! * **The tree** is the catalog's index on the key column, or a temporary
//!   one: `BTreeIndex::bulk_load` — the counted external sort, whose last
//!   merge pass is packed into leaves a page at a time as it is merged (no
//!   sorted file is written) — run at the block's first probe, kept in the
//!   block's [`BlockInfo`] like an uncorrelated block's once-only list, and
//!   freed by `teardown`.
//! * **The choice** is arithmetic on counts ([`nested_access_costs`]), in
//!   microseconds at `cost::PRICES`: build and probe when
//!   `build + N·(h + l) < N·Pj`, where `N` is the number of evaluations
//!   System R's default selectivities predict and the build is priced as it
//!   runs, its pages and the rows its sort passes ([`temp_tree_estimate`]).
//!   Nothing adapts at run time.
//!
//! A probing evaluation hands the binding loop `probe_eq(outer value)` in
//! place of the file's pages — for an `OR`, the first key's matches, then
//! those of the second the first equality is not TRUE of, and so on:
//! disjoint by construction, so duplicates keep their multiplicity. **The
//! predicate stays the arbiter**: every conjunct, the key conjunct
//! included, runs on every candidate in WHERE order. The tree only leaves
//! out tuples the key conjunct is certainly not TRUE of (NULL keys are not
//! in it; a NULL outer value finds nothing), which no later conjunct sees
//! under the scan either. Candidates arrive in key order, not file order;
//! a correlated block's result is consumed as a scalar, a list or an
//! aggregate (`SUM` and `AVG` are exact sums), so the order cannot show —
//! except in *which* error is met first, so an evaluation that raises on
//! the probe path is discarded and re-run by scan.
//!
//! Everything else scans, as in 1987: the top-level block, a block over
//! several files, one whose key is off-class or follows a fallible
//! conjunct, one the arithmetic says is evaluated too seldom to repay a
//! build — EXPLAIN names which ([`NestedIter::access_paths`]).
//!
//! # One plan per block, one kernel per binding
//!
//! Nested iteration runs the statement the analyzer resolved
//! ([`Analyzed`]): every column reference carries the name of the FROM
//! entry it binds to, and no two scopes of a chain share a name, so a
//! block's *outer references* are the qualifiers its FROM does not name.
//! What the paper charges nested iteration for is the repeated page
//! retrieval, and on the scan path that is kept to the page: the one binding
//! loop ([`NestedIter::bindings`]) calls `read_page` for every page of the
//! block's outermost file, in file order, on every evaluation. Everything
//! that does *not* depend on the binding is worked out once per block per
//! query, before the first page is read, and kept in one value, the block's
//! [`BlockInfo`]: its FROM files and scope schema, that scope joined with a
//! schema of its outer references, where those come from in the enclosing
//! block's row (none ⇔ uncorrelated), which WHERE conjuncts are simple and
//! which nested (and each nested one's memo key, below), its simple
//! conjuncts compiled to [`CPred`]s against the joined scope, its access path
//! with the trees it built and — for an uncorrelated block — its once-only
//! result. What remains varies:
//!
//! * **per evaluation of the block** — the outer values, projected from the
//!   enclosing binding by index;
//! * **per tuple** — the compiled conjuncts run on the buffered tuple in
//!   place, joined with the outer values ([`Joined`]), one conjunct at a
//!   time, stopping at the first non-TRUE one; only survivors are cloned.
//!   SELECT items, GROUP BY keys and aggregate arguments that resolve in the
//!   block's own scope project by index, through the block's
//!   [`SelectList`]; an aggregate argument that does not is an outer value.
//!
//! That row loop is the only kernel: running the conjuncts as lanes over a
//! page's column batch costs more than it saves (the batch conversion is
//! paid per page, the loop stops at a tuple's first non-TRUE conjunct
//! anyway) — EXPERIMENTS.md, "One block plan, one kernel", has the six
//! measured pairs. The tree interpreter ([`NestedIter::eval_pred`]) is what
//! evaluates *nested* conjuncts, once per distinct binding that survives the
//! simple ones (below).
//!
//! # One evaluation per distinct binding
//!
//! A nested conjunct's verdict depends on few of the binding's columns, and
//! on duplicate-heavy tables many bindings agree on them. So the binding
//! loop keeps, for one evaluation of the block, one memo per nested
//! conjunct from *key* to verdict, and evaluates the conjunct — its inner
//! blocks with it — once per distinct key (Guravannavar's "evaluate the
//! inner block once per distinct parameter", PAPERS.md).
//!
//! * **The key** is the binding projected onto the columns of the block's
//!   own scope the conjunct reads: its own references and its blocks' outer
//!   references, those the block's FROM binds ([`BlockInfo`] holds the
//!   column list, worked out once per query). Any other reference is an
//!   outer value, fixed for the evaluation, so no part of the key. Keys are
//!   equal as GROUP BY's are, by the values' total order.
//! * **Order and errors stay nested iteration's.** The loop still visits
//!   the bindings in enumeration order and runs the conjuncts in WHERE
//!   order, stopping at the first non-TRUE one; a repeated key is answered
//!   with the verdict its first evaluation gave, which evaluating it again
//!   would give too. Only `Ok` verdicts are kept, so the first error raises
//!   on the binding where it raised before, and a probing evaluation that
//!   is re-run by scan starts with an empty memo.
//! * **Off under [`NestedIter::with_faithful`]**, with probing: the paper's
//!   nested iteration evaluates the inner block for every qualifying outer
//!   tuple, and its figures count those pages.
//!
//! # Serial
//!
//! Nested iteration runs on the calling thread, as System R's did, like
//! every operator (DESIGN.md "Execution is serial"). A thread count handed to
//! [`NestedIter::eval_query_threads`] or [`NestedIter::eval_query_batched`]
//! is ignored.

use crate::aggregate::AggState;
use crate::cost::{nested_access_costs, selectivity, temp_tree_estimate, AccessCosts, Work};
use crate::error::EngineError;
use crate::expr::{CExpr, Joined, Row};
use crate::pred::{and3, cannot_raise, compare_values, not3, or3, CPred};
use crate::provider::TableProvider;
use crate::select::{AggInput, SelectAgg, SelectList};
use crate::Result;
use nsql_analyzer::resolve::{level_column_refs, predicate_column_refs};
use nsql_analyzer::{analyze, Analyzed, SchemaSource};
use nsql_index::BTreeIndex;
use nsql_sql::{ColumnRef, CompareOp, InRhs, Operand, Predicate, Quantifier, QueryBlock};
use nsql_storage::{HeapFile, PageId, Storage, TempFile};
use nsql_types::{ColumnType, FxHashMap, Relation, Schema, Tuple, Value};
use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::rc::Rc;
use std::sync::Arc;

/// Cached result of an uncorrelated inner block: a value, or the
/// materialized list, whose pages go when the query's block map does.
enum Cached {
    Scalar(Value),
    List(TempFile),
}

/// How a use site consumes an uncorrelated subquery's cached result:
/// scalar comparison operand, or materialized list (IN / EXISTS /
/// quantified).
#[derive(Clone, Copy)]
enum UseKind {
    Scalar,
    List,
}

/// Everything known about a block for the whole query, worked out before
/// the first page is read: a correlated inner block is *evaluated* per outer
/// tuple, but none of this changes between evaluations.
struct BlockInfo {
    /// The FROM files, requalified by their effective names, and the scope
    /// schema they jointly define.
    files: Vec<HeapFile>,
    schema: Schema,
    /// `schema` followed by one column per outer reference of the block's
    /// subtree, typed as the scope binding it declares: the row a simple
    /// conjunct runs on, a binding joined with the evaluation's outer values.
    joined: Schema,
    /// Where each outer value is in the enclosing block's joined row. Empty
    /// exactly when the block is uncorrelated.
    outer_at: Vec<usize>,
    /// Per top-level WHERE conjunct, in order: does it hold a query block?
    /// System R applies the others (the simple ones) first.
    nested: Vec<bool>,
    /// Per nested conjunct, in WHERE order: the columns of `schema` its
    /// verdict depends on, which key its memo in the binding loop. `None`
    /// under the 1987 switch: the conjunct runs on every binding.
    memo_keys: Vec<Option<Vec<usize>>>,
    /// The simple conjuncts, in WHERE order, compiled against `joined`.
    conjuncts: Vec<CPred>,
    /// The SELECT phase compiled against `schema`, or the error compiling
    /// it met, raised where the phase runs: after the binding loop.
    select: Result<SelectList>,
    /// An uncorrelated block's result, evaluated at its first use.
    result: OnceCell<Cached>,
    /// A correlated block's access path, set by [`NestedIter::plan`] before
    /// the query's first page is read. Unset — the top-level block, an
    /// uncorrelated one, every block under the 1987 switch — is a scan.
    access: OnceCell<Access>,
}

impl BlockInfo {
    /// Pages of the outermost FROM file, the ones the binding loop walks.
    fn outer_pages(&self) -> &[PageId] {
        self.files.first().map_or(&[], |f| f.page_ids())
    }

    /// The block's top-level WHERE conjuncts as (simple, nested).
    fn split<'q>(&self, q: &'q QueryBlock) -> (Vec<&'q Predicate>, Vec<&'q Predicate>) {
        let mut nested = self.nested.iter();
        q.where_clause
            .iter()
            .flat_map(|p| p.conjuncts())
            .partition(|_| !*nested.next().expect("one flag per conjunct"))
    }

    /// Where reference `c` is in the joined row: a binding followed by the
    /// outer values.
    fn column(&self, c: &ColumnRef) -> Result<usize> {
        Ok(self.joined.resolve(c.table.as_deref(), &c.column)?)
    }

    /// The declared type of outer value `slot`.
    fn outer_type(&self, slot: usize) -> ColumnType {
        self.joined.columns()[self.schema.arity() + slot].ty
    }
}

/// Where a correlated block's tuples come from: decided once per query, up
/// front and from counts alone ([`NestedIter::plan`]).
enum Access {
    /// The block cannot probe, and why: every page of its FROM file(s) is
    /// read on every evaluation, as in 1987.
    Ineligible(&'static str),
    /// It could, and the arithmetic says rescanning is cheaper.
    Scan(AccessCosts),
    /// `probe_eq` on the key conjunct's column(s).
    Probe(ProbePlan),
}

/// How a block probes. Its *key conjunct* is the first simple conjunct of
/// the form `column = outer reference` (either order), or an `OR` of such
/// equalities, that only conjuncts unable to raise precede; the tuples it
/// can be TRUE of come out of a B+tree per key column instead of a scan.
struct ProbePlan {
    /// The key conjunct's equalities in order (one, unless it is an `OR`).
    keys: Vec<ProbeKey>,
    /// The trees probed, one per distinct key column.
    trees: Vec<KeyTree>,
    /// The outer values the simple conjuncts read. Heap files do not
    /// enforce their schema, so each evaluation checks these against their
    /// declared types.
    checked: Vec<usize>,
    costs: AccessCosts,
}

/// One equality of a key conjunct: `trees[tree].col = outer value slot`.
struct ProbeKey {
    tree: usize,
    slot: usize,
}

struct KeyTree {
    /// The key column, in the block's schema (one file, so the file's too).
    col: usize,
    /// The catalog's index on the column, or (`temporary`) one bulk-loaded
    /// when the block first probes and freed by `teardown`. `None` inside:
    /// the load met keys outside the column's class, and the block scans.
    tree: OnceCell<Option<Arc<BTreeIndex>>>,
    temporary: bool,
}

impl Access {
    fn costs(&self) -> Option<AccessCosts> {
        match self {
            Access::Ineligible(_) => None,
            Access::Scan(costs) => Some(*costs),
            Access::Probe(plan) => Some(plan.costs),
        }
    }

    /// The block's EXPLAIN line.
    fn describe(&self, q: &QueryBlock, info: &BlockInfo) -> String {
        let names: Vec<&str> = q.from.iter().map(|t| t.effective_name()).collect();
        let block = names.join(", ");
        match self {
            Access::Ineligible(why) => format!("block {block}: scan ({why})"),
            Access::Scan(costs) => format!("block {block}: scan — {costs} (chose scan)"),
            Access::Probe(plan) => {
                let trees: Vec<String> = plan
                    .trees
                    .iter()
                    .map(|t| match t.tree.get() {
                        Some(Some(ix)) if !t.temporary => ix.name().to_string(),
                        _ => format!("temp index on {}", info.schema.columns()[t.col].name),
                    })
                    .collect();
                let trees = trees.join(" and ");
                format!("block {block}: probe {trees} — {} (chose probe)", plan.costs)
            }
        }
    }
}

/// One correlated block's access path, as EXPLAIN reports it
/// ([`NestedIter::access_paths`]).
pub struct BlockAccess<'q> {
    /// The block, in the analyzed statement.
    pub block: &'q QueryBlock,
    /// `block SUPPLY: probe temp index on PNUM — est. … (chose probe)`, or
    /// `… scan (<why it cannot probe>)`.
    pub line: String,
    /// The arithmetic behind the choice; `None` when the block cannot probe.
    pub costs: Option<AccessCosts>,
}

/// Whether every key in `tree` is of `ty`'s comparison class, from its
/// statistics: classes are contiguous in the total order the leaves are in,
/// so the smallest and the largest key speak for all. Heap files do not
/// enforce their schema, and a key outside the class is one the scan's key
/// comparison raises on where a probe would silently pass it by.
fn keys_in_class(tree: &BTreeIndex, ty: ColumnType) -> bool {
    let stats = tree.stats();
    [&stats.min_key, &stats.max_key].into_iter().flatten().all(|k| ty.admits(k))
}

/// The `(column, outer slot)` pairs of a key conjunct compiled against a
/// joined row whose first `local` columns are the block's: `column = outer`
/// in either order, or an `OR` of nothing but those.
fn key_equalities(c: &CPred, local: usize) -> Option<Vec<(usize, usize)>> {
    match c {
        CPred::Cmp { left: CExpr::Col(a), op: CompareOp::Eq, right: CExpr::Col(b) } => {
            match (*a < local, *b < local) {
                (true, false) => Some(vec![(*a, b - local)]),
                (false, true) => Some(vec![(*b, a - local)]),
                _ => None,
            }
        }
        CPred::Or(ds) if !ds.is_empty() => {
            let pairs: Option<Vec<Vec<(usize, usize)>>> = ds
                .iter()
                .map(|d| key_equalities(d, local).filter(|_| matches!(d, CPred::Cmp { .. })))
                .collect();
            Some(pairs?.concat())
        }
        _ => None,
    }
}

/// The tuples one run of the binding loop takes from the block's outermost
/// file: those on the given pages, read now, or those a probe found.
enum Tuples<'t> {
    Pages(&'t [PageId]),
    Found(Vec<Tuple>),
}

/// A [`TableProvider`]'s schemas, for the analyzer.
struct Schemas<'t, T: ?Sized>(&'t T);

impl<T: TableProvider + ?Sized> SchemaSource for Schemas<'_, T> {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        self.0.schema_of(table)
    }
}

/// The nested-iteration evaluator.
pub struct NestedIter<'a, T: TableProvider + ?Sized> {
    tables: &'a T,
    storage: Storage,
    /// What the query knows about each block, by block address. Addresses
    /// are stable while the analyzed statement is borrowed, i.e. for one
    /// query; teardown clears the map.
    blocks: RefCell<FxHashMap<usize, Rc<BlockInfo>>>,
    profile: nsql_obs::Profile,
    /// The paper's nested iteration to the page: no block probes.
    faithful: bool,
}

impl<'a, T: TableProvider + ?Sized> NestedIter<'a, T> {
    /// Evaluator over `tables`, counting I/O against `storage`. Correlated
    /// blocks take the access path the arithmetic prefers (see the module
    /// docs); [`with_faithful`](NestedIter::with_faithful) restores 1987.
    pub fn new(tables: &'a T, storage: Storage) -> Self {
        NestedIter {
            tables,
            storage,
            blocks: RefCell::default(),
            profile: nsql_obs::Profile::default(),
            faithful: false,
        }
    }

    /// With `true`, the paper's literal nested iteration: every evaluation
    /// of every block reads every page of its FROM files, whatever indexes
    /// exist or would repay building — the baseline of Section 7.4 and of
    /// every figure, to the page.
    pub fn with_faithful(mut self, faithful: bool) -> Self {
        self.faithful = faithful;
        self
    }

    /// Attach the query's profile: the build of a temporary tree is an
    /// operator node of its own, under whichever node is open.
    pub fn with_obs(mut self, profile: nsql_obs::Profile) -> Self {
        self.profile = profile;
        self
    }

    /// A no-op: nested iteration has one kernel (see the module docs). The
    /// method survives only because `benchmark/src/probes.rs` calls it for
    /// `engine.ni_vec_ms` and benchmark/README.md requires a benchmark
    /// change before a listed symbol goes; that change deletes both.
    pub fn with_vectorized(self, _vectorized: bool) -> Self {
        self
    }

    /// Analyze a top-level query against the provider's tables, then
    /// evaluate it ([`eval_analyzed`](NestedIter::eval_analyzed)). A name
    /// error is the analyzer's, raised before any page is read.
    pub fn eval_query(&self, q: &QueryBlock) -> Result<Relation> {
        let analyzed = analyze(&Schemas(self.tables), q).map_err(EngineError::Analyze)?;
        self.eval_analyzed(&analyzed)
    }

    /// Evaluate an analyzed top-level query.
    pub fn eval_analyzed(&self, a: &Analyzed) -> Result<Relation> {
        let q = a.block();
        let result = self.prepare(q).and_then(|()| self.eval_block(q, &Tuple::default()));
        self.teardown();
        result
    }

    /// [`eval_query`](NestedIter::eval_query). The thread count is ignored:
    /// nested iteration is serial (see the module docs). The method survives
    /// only because `benchmark/` calls it, and benchmark/README.md requires
    /// a benchmark change before a listed symbol goes; that change deletes it.
    pub fn eval_query_threads(&self, q: &QueryBlock, _threads: usize) -> Result<Relation> {
        self.eval_query(q)
    }

    /// [`eval_query`](NestedIter::eval_query). Batched evaluation's one
    /// useful idea, evaluating a nested conjunct once per distinct binding,
    /// is the binding loop's own (see the module docs), and the thread count
    /// is ignored as by [`eval_query_threads`](NestedIter::eval_query_threads).
    /// The method survives only because `benchmark/src/probes.rs` calls it
    /// for `engine.batched_ms`; the benchmark change that drops the probe
    /// deletes it.
    pub fn eval_query_batched(&self, q: &QueryBlock, _threads: usize) -> Result<Relation> {
        self.eval_query(q)
    }

    /// Everything in the block map is per-query: its keys are AST addresses,
    /// stable only within one query's borrow, and the materialized lists of
    /// uncorrelated blocks and the trees probing blocks built are
    /// temporaries — drop their pages (a list goes with its block's entry).
    fn teardown(&self) {
        for (_, info) in self.blocks.take() {
            if let Some(Access::Probe(plan)) = info.access.get() {
                for t in plan.trees.iter().filter(|t| t.temporary) {
                    if let Some(Some(tree)) = t.tree.get() {
                        tree.drop_pages(&self.storage);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------- blocks

    /// Work out every block's [`BlockInfo`] and access path, unless an
    /// earlier call for this statement did ([`access_paths`](Self::access_paths)
    /// and the evaluation share them).
    fn prepare(&self, root: &QueryBlock) -> Result<()> {
        if self.blocks.borrow().contains_key(&address(root)) {
            return Ok(());
        }
        let mut outer = FxHashMap::default();
        outer_refs(root, &mut outer);
        self.prepare_block(root, None, &outer)?;
        if !self.faithful {
            self.plan(root, 1.0);
        }
        Ok(())
    }

    /// [`prepare`](Self::prepare) for `q` and the blocks nested in it, where
    /// `parent` is the enclosing block's joined scope and `outer` each
    /// block's outer references.
    fn prepare_block(
        &self,
        q: &QueryBlock,
        parent: Option<&Schema>,
        outer: &FxHashMap<usize, Vec<ColumnRef>>,
    ) -> Result<()> {
        let mut files: Vec<HeapFile> = Vec::new();
        let mut schema = Schema::default();
        for tref in &q.from {
            let file = self
                .tables
                .get_table(&tref.table)
                .ok_or_else(|| EngineError::UnknownTable(tref.table.clone()))?;
            let qualified = file.schema().requalify(tref.effective_name());
            schema = schema.join(&qualified);
            files.push(file.with_schema(qualified));
        }
        // Each outer reference binds in the enclosing block's joined scope,
        // which gives its declared type and its value's place.
        let mut outer_at = Vec::new();
        let mut outer_cols = Vec::new();
        for c in &outer[&address(q)] {
            let scope = parent.expect("the top-level block has no outer reference");
            let i = scope.resolve(c.table.as_deref(), &c.column)?;
            outer_at.push(i);
            outer_cols.push(scope.columns()[i].clone());
        }
        let joined = schema.join(&Schema::new(outer_cols));
        for sub in q.child_blocks() {
            self.prepare_block(sub, Some(&joined), outer)?;
        }
        let conjuncts = q.where_clause.as_ref().map(|p| p.conjuncts()).unwrap_or_default();
        let (with_blocks, simple): (Vec<&Predicate>, Vec<&Predicate>) =
            conjuncts.iter().partition(|p| p.contains_subquery());
        let memo_keys = with_blocks.iter().map(|p| {
            let key = (!self.faithful).then(|| self.memo_key(p, &joined, schema.arity()));
            key.transpose()
        });
        let info = BlockInfo {
            nested: conjuncts.iter().map(|p| p.contains_subquery()).collect(),
            memo_keys: memo_keys.collect::<Result<_>>()?,
            conjuncts: simple.iter().map(|p| CPred::compile(&joined, p)).collect::<Result<_>>()?,
            select: SelectList::compile(&schema, &q.select, &q.group_by, &q.order_by, q.distinct),
            files,
            schema,
            joined,
            outer_at,
            result: OnceCell::new(),
            access: OnceCell::new(),
        };
        self.blocks.borrow_mut().insert(address(q), Rc::new(info));
        Ok(())
    }

    /// The memo key of nested conjunct `p` in a block whose joined scope is
    /// `joined`, its first `local` columns the block's own: the columns its
    /// verdict can depend on — its own references and the outer references
    /// of the blocks it holds — that the block's FROM binds, deduplicated in
    /// first-occurrence order. Any other reference is an outer value, fixed
    /// for one evaluation of the block, and no part of the key.
    fn memo_key(&self, p: &Predicate, joined: &Schema, local: usize) -> Result<Vec<usize>> {
        let mut at = Vec::new();
        for c in predicate_column_refs(p) {
            at.push(joined.resolve(c.table.as_deref(), &c.column)?);
        }
        for sub in p.child_blocks() {
            at.extend(&self.info(sub).outer_at);
        }
        let mut key: Vec<usize> = Vec::new();
        for i in at {
            if i < local && !key.contains(&i) {
                key.push(i);
            }
        }
        Ok(key)
    }

    /// What [`prepare`](Self::prepare) worked out for `q`.
    fn info(&self, q: &QueryBlock) -> Rc<BlockInfo> {
        Rc::clone(&self.blocks.borrow()[&address(q)])
    }

    // -------------------------------------------------------- access paths

    /// Decide the access path of every correlated block under `q`, itself
    /// evaluated an estimated `evaluations` times, before the first page is
    /// read and from counts alone: file sizes, `B`, the catalog's indexes,
    /// and System R's default selectivities for how often each block will
    /// be evaluated. Nothing here looks at a tuple.
    fn plan(&self, q: &QueryBlock, evaluations: f64) {
        let info = self.info(q);
        // A nested block is evaluated for every tuple of the FROM product
        // that passes the simple conjuncts [SEL 79:33].
        let (simple, _) = info.split(q);
        let product: f64 = info.files.iter().map(|f| f.tuple_count() as f64).product();
        let passing: f64 = simple.iter().map(|p| selectivity(p)).product();
        let bindings = evaluations * product * passing;
        for sub in q.child_blocks() {
            let sub_info = self.info(sub);
            if sub_info.outer_at.is_empty() {
                // Evaluated once, under the empty scope.
                self.plan(sub, 1.0);
            } else {
                sub_info.access.get_or_init(|| self.choose_access(sub, &sub_info, bindings));
                self.plan(sub, bindings);
            }
        }
    }

    /// The access path of correlated block `q`, evaluated an estimated
    /// `evaluations` times.
    fn choose_access(&self, q: &QueryBlock, info: &BlockInfo, evaluations: f64) -> Access {
        let [file] = info.files.as_slice() else {
            return Access::Ineligible("its FROM is not one file");
        };
        let (local, columns) = (info.schema.arity(), info.joined.columns());
        let key_at = info.conjuncts.iter().position(|c| key_equalities(c, local).is_some());
        let declared = |c: &ColumnRef| info.column(c).ok().map(|i| columns[i].ty);
        let fallible_at = info.split(q).0.iter().position(|p| !cannot_raise(p, &declared));
        let pairs = match (key_at, fallible_at) {
            (None, _) => {
                return Access::Ineligible("no conjunct equates a column with an outer reference")
            }
            (Some(key), Some(before)) if before < key => {
                return Access::Ineligible("key conjunct follows a fallible conjunct")
            }
            (Some(key), _) => {
                key_equalities(&info.conjuncts[key], local).expect("position just found it")
            }
        };
        let one_class =
            |&(col, slot): &(usize, usize)| info.outer_type(slot).same_class(columns[col].ty);
        if !pairs.iter().all(one_class) {
            return Access::Ineligible("key column and outer reference differ in class");
        }

        let indexes = self.tables.get_indexes(&q.from[0].table);
        let (pj, nj) = (file.page_count() as f64, file.tuple_count() as f64);
        let b = self.storage.buffer_pages() as f64;
        let mut trees: Vec<KeyTree> = Vec::new();
        let mut keys = Vec::new();
        // Per tree, what a probe reads; and what the missing ones cost to build.
        let mut probe_pages: Vec<f64> = Vec::new();
        let mut build = Work::default();
        for (col, slot) in pairs {
            if let Some(tree) = trees.iter().position(|t| t.col == col) {
                keys.push(ProbeKey { tree, slot });
                continue;
            }
            let ty = columns[col].ty;
            let (tree, temporary) = match indexes.iter().find(|ix| ix.key_col() == col) {
                Some(ix) if !keys_in_class(ix, ty) => {
                    return Access::Ineligible("the index holds keys outside the column's class")
                }
                Some(ix) => {
                    let st = ix.stats();
                    probe_pages.push((st.height + st.leaves_per_probe()) as f64);
                    (OnceCell::from(Some(Arc::clone(ix))), false)
                }
                None => {
                    let (work, pages) =
                        temp_tree_estimate(pj, nj, ty, self.storage.page_size(), b);
                    build.pages += work.pages;
                    build.sorted += work.sorted;
                    probe_pages.push(pages);
                    (OnceCell::new(), true)
                }
            };
            keys.push(ProbeKey { tree: trees.len(), slot });
            trees.push(KeyTree { col, tree, temporary });
        }
        let per_evaluation = keys.iter().map(|k| probe_pages[k.tree]).sum();
        let costs = nested_access_costs(evaluations, pj, b, build, per_evaluation);
        if !costs.probes_win() {
            return Access::Scan(costs);
        }
        let mut checked = Vec::new();
        info.conjuncts.iter().for_each(|c| c.columns(&mut checked));
        checked.retain(|&i| i >= local);
        checked.iter_mut().for_each(|i| *i -= local);
        checked.sort_unstable();
        checked.dedup();
        Access::Probe(ProbePlan { keys, trees, checked, costs })
    }

    /// The access path of every correlated block of `a`, outermost first,
    /// for EXPLAIN: what [`eval_analyzed`](NestedIter::eval_analyzed) will
    /// do, worked out without reading a page (and kept for it). Empty under
    /// [`with_faithful`](NestedIter::with_faithful), where there is nothing
    /// to choose.
    pub fn access_paths<'q>(&self, a: &'q Analyzed) -> Result<Vec<BlockAccess<'q>>> {
        self.prepare(a.block())?;
        let mut out = Vec::new();
        self.collect_access(a.block(), &mut out);
        Ok(out)
    }

    fn collect_access<'q>(&self, q: &'q QueryBlock, out: &mut Vec<BlockAccess<'q>>) {
        for sub in q.child_blocks() {
            let info = self.info(sub);
            if let Some(access) = info.access.get() {
                out.push(BlockAccess {
                    block: sub,
                    line: access.describe(sub, &info),
                    costs: access.costs(),
                });
            }
            self.collect_access(sub, out);
        }
    }

    /// Have every tree of a probing block at hand, loading the temporary
    /// ones at the block's first probe; `false` when a load met keys outside
    /// their column's class (the block then scans, now and from here on).
    fn ensure_trees(&self, info: &BlockInfo, plan: &ProbePlan) -> bool {
        plan.trees.iter().all(|t| t.tree.get_or_init(|| self.build_tree(info, t.col)).is_some())
    }

    /// Bulk-load a temporary tree on column `col` of the block's file: its
    /// own operator node in the profile, under whichever node is evaluating.
    fn build_tree(&self, info: &BlockInfo, col: usize) -> Option<Arc<BTreeIndex>> {
        let (file, column) = (&info.files[0], &info.schema.columns()[col]);
        let name = format!("temp index on {}", column.name);
        let node = self.profile.begin_op(|| format!("build {name}"));
        let tree = BTreeIndex::bulk_load(&self.storage, &name, col, file);
        if let Some(op) = self.profile.current_op() {
            op.rows_in.add(file.tuple_count() as u64);
            op.rows_out.add(tree.stats().tuples as u64);
        }
        self.profile.end(node);
        if keys_in_class(&tree, column.ty) {
            Some(Arc::new(tree))
        } else {
            tree.drop_pages(&self.storage);
            None
        }
    }

    /// The tuples of probing block `q`'s file that its key conjunct can be
    /// TRUE of under the outer values `outer`: per equality of the conjunct
    /// `probe_eq(outer value)`, less what an earlier equality already found
    /// — disjoint by construction, so a tuple of the file keeps its
    /// multiplicity. A NULL outer value finds nothing (the comparison is
    /// UNKNOWN of every tuple), as the tree leaves out NULL keys. `None`
    /// sends this evaluation to the scan: the block does not probe, or an
    /// outer value is outside its declared class — the comparison it meets
    /// raises, and the scan says on which tuple.
    fn candidates(&self, q: &QueryBlock, info: &BlockInfo, outer: &Tuple) -> Option<Vec<Tuple>> {
        let Some(Access::Probe(plan)) = info.access.get() else { return None };
        let declared = |&slot: &usize| {
            let v = outer.get(slot);
            v.is_null() || info.outer_type(slot).admits(v)
        };
        if !plan.checked.iter().all(declared) {
            return None;
        }
        let mut found = Vec::new();
        if plan.keys.iter().all(|k| outer.get(k.slot).is_null()) {
            return Some(found);
        }
        if !self.ensure_trees(info, plan) {
            return None;
        }
        for (i, key) in plan.keys.iter().enumerate() {
            let (at, value) = (&plan.trees[key.tree], outer.get(key.slot));
            let Some(Some(tree)) = at.tree.get() else { return None };
            if value.is_null() {
                continue;
            }
            if !at.temporary {
                self.tables.note_index_probes(&q.from[0].table, 1);
            }
            let mut matches = tree.probe_eq(&self.storage, value);
            let earlier = &plan.keys[..i];
            matches.retain(|t| {
                !earlier.iter().any(|e| {
                    let col = plan.trees[e.tree].col;
                    matches!(t.get(col).sql_eq(outer.get(e.slot)), Ok(Some(true)))
                })
            });
            found.append(&mut matches);
        }
        Some(found)
    }

    // ---------------------------------------------------------- evaluation

    /// Evaluate one block under `outer`, its outer values: run the binding
    /// loop, then the SELECT phase.
    fn eval_block(&self, q: &QueryBlock, outer: &Tuple) -> Result<Relation> {
        let info = self.info(q);
        let (_, nested) = info.split(q);
        let evaluate = |tuples: Tuples<'_>| -> Result<Relation> {
            let survivors = self.bindings(&info, tuples, &nested, outer)?;
            self.eval_select(&info, &survivors, outer)
        };
        let scan = || Tuples::Pages(info.outer_pages());
        match self.candidates(q, &info, outer) {
            // What the probe left out are tuples the key conjunct is not
            // TRUE of, which no conjunct after it sees under the scan
            // either, so the survivors are the scan's (in another order,
            // which the consumer of a correlated block — a scalar, a list,
            // an aggregate — cannot see). An error is the exception: which
            // tuple raises first is a matter of order, so the evaluation is
            // discarded and the scan reports its own.
            Some(found) => evaluate(Tuples::Found(found)).or_else(|_| evaluate(scan())),
            None => evaluate(scan()),
        }
    }

    /// The binding loop — the only one, run by `eval_block`. Takes the
    /// tuples of the block's outermost file from `tuples` — pages,
    /// `read_page` called for each in order, or what a probe found; under
    /// every tuple enumerates the remaining FROM files by nested iteration;
    /// applies the compiled simple conjuncts in order, on the tuple joined
    /// with `outer`, stopping at the first non-TRUE one, then hands the
    /// binding — cloned off the page only now — to the interpreter for the
    /// nested conjuncts under the same rule, each evaluated once per
    /// distinct memo key (see the module docs). The predicate is the arbiter
    /// either way: a probe's tuples run every conjunct, the key conjunct
    /// included. Returns the survivors in enumeration order.
    fn bindings(
        &self,
        info: &BlockInfo,
        tuples: Tuples<'_>,
        nested: &[&Predicate],
        outer: &Tuple,
    ) -> Result<Vec<Tuple>> {
        let passes = |t: &Tuple| -> Result<bool> {
            let row = Joined::new(t, outer);
            for c in &info.conjuncts {
                if c.eval_row(&row)? != Some(true) {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let mut survivors: Vec<Tuple> = Vec::new();
        // Per nested conjunct, its verdicts by key for this evaluation only:
        // outer values are fixed while it lasts. Errors are not kept.
        let mut memos: Vec<FxHashMap<Tuple, Option<bool>>> =
            vec![FxHashMap::default(); nested.len()];
        let mut admit = |binding: Tuple| -> Result<()> {
            let row = Joined::new(&binding, outer);
            for ((p, key), memo) in nested.iter().zip(&info.memo_keys).zip(&mut memos) {
                let verdict = match key {
                    Some(cols) => match memo.entry(binding.project(cols)) {
                        Entry::Occupied(seen) => *seen.get(),
                        Entry::Vacant(slot) => *slot.insert(self.eval_pred(p, info, &row)?),
                    },
                    None => self.eval_pred(p, info, &row)?,
                };
                if verdict != Some(true) {
                    return Ok(());
                }
            }
            survivors.push(binding);
            Ok(())
        };
        if info.files.is_empty() && passes(&Tuple::default())? {
            // FROM-less block (an AST built by hand): one empty binding.
            admit(Tuple::default())?;
        }
        let single = info.files.len() == 1;
        match tuples {
            Tuples::Pages(pids) => {
                for &pid in pids {
                    let page = self.storage.read_page(pid);
                    for t in page.tuples() {
                        if !single {
                            self.enumerate(&info.files, 1, t.clone(), &mut |binding| {
                                if passes(&binding)? {
                                    admit(binding)?;
                                }
                                Ok(())
                            })?;
                        } else if passes(t)? {
                            admit(t.clone())?;
                        }
                    }
                }
            }
            // Only a block over one file probes.
            Tuples::Found(found) => {
                for t in found {
                    if passes(&t)? {
                        admit(t)?;
                    }
                }
            }
        }
        Ok(survivors)
    }

    /// Depth-first enumeration of the FROM product: rescans inner files per
    /// outer tuple, exactly like System R's nested iteration. Candidate
    /// bindings are joined directly off the buffered page (no intermediate
    /// per-tuple clone).
    fn enumerate(
        &self,
        files: &[HeapFile],
        depth: usize,
        prefix: Tuple,
        visit: &mut dyn FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        if depth == files.len() {
            return visit(prefix);
        }
        for joined in files[depth].scan_with(&self.storage, |t| Some(prefix.join(t))) {
            self.enumerate(files, depth + 1, joined, visit)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------- select

    /// The SELECT phase over the block's survivors: a plain block maps them
    /// through its [`SelectList`]; an aggregating one first groups them by
    /// hash, in first-encounter order — one group of all of them, even of
    /// none, without GROUP BY — into `[keys…, aggregates…]` rows.
    fn eval_select(
        &self,
        info: &BlockInfo,
        survivors: &[Tuple],
        outer: &Tuple,
    ) -> Result<Relation> {
        let list = info.select.as_ref().map_err(Clone::clone)?;
        if !list.grouped() {
            return list.finish(survivors, false);
        }
        let keys = list.group_by();
        let mut groups: Vec<(Tuple, Vec<&Tuple>)> = Vec::new();
        if keys.is_empty() {
            groups.push((Tuple::default(), survivors.iter().collect()));
        } else {
            let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
            for s in survivors {
                match index.entry(s.project(keys)) {
                    Entry::Occupied(at) => groups[*at.get()].1.push(s),
                    Entry::Vacant(at) => {
                        groups.push((at.key().clone(), vec![s]));
                        at.insert(groups.len() - 1);
                    }
                }
            }
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, members) in &groups {
            let mut row = key.values().to_vec();
            for agg in list.aggs() {
                row.push(self.aggregate_over(agg, members, info, outer)?);
            }
            rows.push(Tuple::new(row));
        }
        list.finish(&rows, false)
    }

    fn aggregate_over(
        &self,
        agg: &SelectAgg,
        members: &[&Tuple],
        info: &BlockInfo,
        outer: &Tuple,
    ) -> Result<Value> {
        let mut state = AggState::new(agg.func);
        match &agg.input {
            AggInput::Star => members.iter().for_each(|_| state.accumulate_row()),
            AggInput::Column(i) => {
                for m in members {
                    state.accumulate(m.get(*i))?;
                }
            }
            // An outer reference: one value for the whole evaluation,
            // accumulated once per member.
            AggInput::Unresolved(c) => {
                let v = outer.get(info.column(c)? - info.schema.arity());
                for _ in members {
                    state.accumulate(v)?;
                }
            }
        }
        Ok(state.finish())
    }

    // --------------------------------------------------------- predicates

    /// A nested conjunct of the block `info` describes, on `row`: a binding
    /// joined with the evaluation's outer values.
    fn eval_pred(&self, p: &Predicate, info: &BlockInfo, row: &Joined<'_>) -> Result<Option<bool>> {
        match p {
            Predicate::And(ps) => and3(ps, |q| self.eval_pred(q, info, row)),
            Predicate::Or(ps) => or3(ps, |q| self.eval_pred(q, info, row)),
            Predicate::Not(q) => Ok(not3(self.eval_pred(q, info, row)?)),
            Predicate::Compare { left, op, right } => {
                let l = self.eval_operand(left, info, row)?;
                let r = self.eval_operand(right, info, row)?;
                compare_values(&l, *op, &r)
            }
            Predicate::In { operand, negated, rhs } => {
                let v = self.eval_operand(operand, info, row)?;
                let raw = match rhs {
                    InRhs::List(list) => crate::pred::in_list(&v, list)?,
                    InRhs::Subquery(q) => self.eval_membership(&v, q, row)?,
                };
                Ok(if *negated { not3(raw) } else { raw })
            }
            Predicate::Exists { negated, query } => {
                let nonempty = !self.eval_inner_rows(query, row)?.is_empty();
                Ok(Some(if *negated { !nonempty } else { nonempty }))
            }
            Predicate::Quantified { left, op, quantifier, query } => {
                let v = self.eval_operand(left, info, row)?;
                let rows = self.eval_inner_rows(query, row)?;
                self.eval_quantified(&v, *op, *quantifier, &rows)
            }
            Predicate::IsNull { operand, negated } => {
                let v = self.eval_operand(operand, info, row)?;
                Ok(Some(if *negated { !v.is_null() } else { v.is_null() }))
            }
        }
    }

    fn eval_operand(&self, o: &Operand, info: &BlockInfo, row: &Joined<'_>) -> Result<Value> {
        match o {
            Operand::Column(c) => Ok(row.field(info.column(c)?).clone()),
            Operand::Literal(v) => Ok(v.clone()),
            Operand::Subquery(q) => self.eval_scalar_subquery(q, row),
        }
    }

    /// Evaluate correlated block `q` under the enclosing block's `row`.
    fn eval_nested(&self, q: &QueryBlock, row: &Joined<'_>) -> Result<Relation> {
        let outer: Tuple = self.info(q).outer_at.iter().map(|&i| row.field(i).clone()).collect();
        self.eval_block(q, &outer)
    }

    /// An uncorrelated inner block, its result evaluated without outer
    /// values at its first use and kept for the query (`None`: the block is
    /// correlated).
    fn once_only(&self, q: &QueryBlock, kind: UseKind) -> Result<Option<Rc<BlockInfo>>> {
        let info = self.info(q);
        if !info.outer_at.is_empty() {
            return Ok(None);
        }
        if info.result.get().is_none() {
            let cached = self.materialize(q, kind)?;
            info.result.get_or_init(|| cached);
        }
        Ok(Some(info))
    }

    /// Evaluate an uncorrelated block into the form its use site consumes.
    fn materialize(&self, q: &QueryBlock, kind: UseKind) -> Result<Cached> {
        let rel = self.eval_block(q, &Tuple::default())?;
        Ok(match kind {
            UseKind::Scalar => Cached::Scalar(self.scalar_from_relation(rel)?),
            UseKind::List => {
                Cached::List(TempFile::new(&self.storage, self.storage.store_relation(&rel)))
            }
        })
    }

    /// The materialized list of an uncorrelated `IN` / `EXISTS` / quantified
    /// block (`None`: the block is correlated).
    fn once_only_list(&self, q: &QueryBlock) -> Result<Option<HeapFile>> {
        let Some(info) = self.once_only(q, UseKind::List)? else { return Ok(None) };
        match info.result.get() {
            Some(Cached::List(file)) => Ok(Some(HeapFile::clone(file))),
            _ => Err(EngineError::Internal("list cache corrupted".into())),
        }
    }

    /// Scalar subquery: at most one row, one column; empty ⇒ NULL.
    fn eval_scalar_subquery(&self, q: &QueryBlock, row: &Joined<'_>) -> Result<Value> {
        match self.once_only(q, UseKind::Scalar)? {
            Some(info) => match info.result.get() {
                Some(Cached::Scalar(v)) => Ok(v.clone()),
                _ => Err(EngineError::Internal("scalar cache corrupted".into())),
            },
            None => {
                let rel = self.eval_nested(q, row)?;
                self.scalar_from_relation(rel)
            }
        }
    }
    fn scalar_from_relation(&self, rel: Relation) -> Result<Value> {
        match rel.len() {
            0 => Ok(Value::Null),
            1 => Ok(rel.tuples()[0].get(0).clone()),
            n => Err(EngineError::ScalarSubqueryCardinality(n)),
        }
    }

    /// `v IN (subquery)` with System R's materialize-once strategy for
    /// uncorrelated inners: the list is stored as a temporary file and
    /// re-scanned per membership test.
    fn eval_membership(&self, v: &Value, q: &QueryBlock, row: &Joined<'_>) -> Result<Option<bool>> {
        if let Some(file) = self.once_only_list(q)? {
            // Scan the stored list per test (bounded memory, real I/O).
            // Tuples are compared in place on their buffered pages; the scan
            // stops at the first decisive match, reading exactly the pages
            // the old clone-per-tuple loop read.
            let mut unknown = false;
            let mut found = false;
            let mut err = None;
            file.scan_with(&self.storage, |t| match v.sql_eq(t.get(0)) {
                Ok(Some(true)) => {
                    found = true;
                    Some(Tuple::new(Vec::new())) // sentinel: stop scanning
                }
                Ok(None) => {
                    unknown = true;
                    None
                }
                Ok(Some(false)) => None,
                Err(e) => {
                    err = Some(e);
                    Some(Tuple::new(Vec::new()))
                }
            })
            .next();
            if let Some(e) = err {
                return Err(e.into());
            }
            if found {
                return Ok(Some(true));
            }
            return Ok(if unknown { None } else { Some(false) });
        }
        let rows = self.eval_nested(q, row)?;
        let list: Vec<Value> = rows.tuples().iter().map(|t| t.get(0).clone()).collect();
        crate::pred::in_list(v, &list)
    }

    /// Rows of an inner block (for EXISTS / quantified), materialized once
    /// for uncorrelated blocks.
    fn eval_inner_rows(&self, q: &QueryBlock, row: &Joined<'_>) -> Result<Vec<Value>> {
        if let Some(file) = self.once_only_list(q)? {
            let mut out = Vec::with_capacity(file.tuple_count());
            file.try_for_each(&self.storage, |t| -> Result<()> {
                out.push(t.get(0).clone());
                Ok(())
            })?;
            return Ok(out);
        }
        let rel = self.eval_nested(q, row)?;
        Ok(rel.tuples().iter().map(|t| t.get(0).clone()).collect())
    }

    /// SQL quantified-comparison semantics:
    /// `ANY`: TRUE if any comparison is TRUE; else UNKNOWN if any UNKNOWN;
    /// else FALSE (FALSE over the empty set).
    /// `ALL`: FALSE if any comparison is FALSE; else UNKNOWN if any UNKNOWN;
    /// else TRUE (TRUE over the empty set).
    fn eval_quantified(
        &self,
        v: &Value,
        op: CompareOp,
        quant: Quantifier,
        rows: &[Value],
    ) -> Result<Option<bool>> {
        let compare = |r: &Value| compare_values(v, op, r);
        match quant {
            Quantifier::Any => or3(rows, compare),
            Quantifier::All => and3(rows, compare),
        }
    }
}

/// A block's key in the query's block map.
fn address(q: &QueryBlock) -> usize {
    q as *const QueryBlock as usize
}

/// Record the outer references of `q` and of every block nested in it, by
/// block address, and return `q`'s: the references of its subtree, in
/// first-occurrence order, whose qualifier its FROM does not name. Every
/// reference of an analyzed statement carries the name of the entry it
/// binds to, and no two scopes of a chain share one, so these are exactly
/// what binds outside the block.
fn outer_refs(q: &QueryBlock, out: &mut FxHashMap<usize, Vec<ColumnRef>>) -> Vec<ColumnRef> {
    let names = q.from_names();
    let mut free: Vec<ColumnRef> = Vec::new();
    let mut note = |c: &ColumnRef| {
        let local = c.table.as_deref().is_some_and(|t| names.contains(&t));
        if !local && !free.contains(c) {
            free.push(c.clone());
        }
    };
    // An ORDER BY key left unqualified names a select alias.
    level_column_refs(q).into_iter().filter(|c| c.table.is_some()).for_each(&mut note);
    for sub in q.child_blocks() {
        outer_refs(sub, out).iter().for_each(&mut note);
    }
    out.insert(address(q), free.clone());
    free
}
