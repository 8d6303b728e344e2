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
//! several files, one whose template declined, one whose key is off-class
//! or follows a fallible conjunct, one the arithmetic says is evaluated too
//! seldom to repay a build — EXPLAIN names which ([`NestedIter::access_paths`]).
//!
//! # One plan per block, one kernel per binding
//!
//! What the paper charges nested iteration for is the repeated page
//! retrieval, and on the scan path that is kept to the page: the one binding
//! loop ([`NestedIter::bindings`]) calls `read_page` for every page of the
//! block's outermost file, in file order, on every evaluation. Everything
//! that does *not* depend on the binding is worked out once per block per
//! query and kept in one value, the block's [`BlockInfo`]: its FROM files
//! and scope schema, which WHERE conjuncts are simple and which nested (and
//! each nested one's memo key, below), its free outer references (none ⇔
//! uncorrelated), its simple conjuncts
//! compiled to a [`Template`], its access path with the trees it built
//! and — for an uncorrelated block — its once-only result. What remains
//! varies:
//!
//! * **per evaluation of the block** — each outer slot of the template is
//!   looked up once in the scope chain ([`NestedIter::bind`]), giving one
//!   [`CPred`] per simple conjunct;
//! * **per tuple** — the bound conjuncts run on the buffered tuple in
//!   place, one conjunct at a time, stopping at the first non-TRUE one;
//!   only survivors are cloned. SELECT items, GROUP BY keys and aggregate
//!   arguments that resolve in the block's own scope project by index.
//!
//! That row loop is the only kernel: once the conjuncts are bound, running
//! them as lanes over a page's column batch costs more than it saves (the
//! batch conversion is paid per page, the loop stops at a tuple's first
//! non-TRUE conjunct anyway) — EXPERIMENTS.md, "One block plan, one
//! kernel", has the six measured pairs.
//!
//! The by-name tree interpreter ([`NestedIter::eval_pred`] over an [`Env`])
//! is still what evaluates *nested* conjuncts — once per distinct binding
//! that survives the simple ones (below) — and it is the decline path: when
//! a simple conjunct holds a locally ambiguous reference, or an outer
//! reference the scope chain does not resolve, the block is interpreted per
//! tuple, so the error surfaces lazily, if and only if a tuple reaches that
//! operand.
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
//!   own scope the conjunct reads: its own references and its blocks' free
//!   references, those the block's schema resolves ([`BlockInfo`] holds the
//!   column list, worked out once per query). A reference the schema does
//!   not know is an outer value, fixed for the evaluation, so no part of the
//!   key. One the schema finds twice is an error the interpreter must raise
//!   where SQL puts it: the conjunct runs per row, unmemoized. Keys are
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
use crate::expr::CExpr;
use crate::pred::{cannot_raise, compare_values, not3, CPred, TOperand, TPred, Template};
use crate::provider::TableProvider;
use crate::Result;
use nsql_index::BTreeIndex;
use nsql_analyzer::resolve::{level_column_refs, predicate_column_refs};
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, Predicate, Quantifier, QueryBlock,
    ScalarExpr, SortDir,
};
use nsql_storage::{HeapFile, PageId, Storage, TempFile};
use nsql_types::{Column, ColumnType, FxHashMap, Relation, Schema, Tuple, Value};
use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
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

/// Everything known about a block for the whole query, resolved once: a
/// correlated inner block is *evaluated* per outer tuple, but none of this
/// changes between evaluations.
struct BlockInfo {
    /// The (requalified) FROM files and the scope schema they jointly define.
    files: Vec<HeapFile>,
    schema: Schema,
    /// Per top-level WHERE conjunct, in order: does it hold a query block?
    /// System R applies the others (the simple ones) first.
    nested: Vec<bool>,
    /// Per nested conjunct, in WHERE order: the columns of `schema` its
    /// verdict depends on, which key its memo in the binding loop. `None`:
    /// a reference is ambiguous in `schema` (or the 1987 switch is on), and
    /// the conjunct runs on every binding.
    memo_keys: Vec<Option<Vec<usize>>>,
    /// References in the block's subtree that no scope of the subtree
    /// resolves — its outer references (deduplicated, first-occurrence
    /// order). Empty exactly when the block is uncorrelated.
    free: Vec<ColumnRef>,
    /// The simple conjuncts compiled against `schema`. `None` records that
    /// they decline compilation (e.g. a locally ambiguous reference, whose
    /// error the interpreter raises lazily).
    template: Option<Template>,
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
    /// Declared type of each outer slot of the block's template, where the
    /// enclosing scopes resolve it. Heap files do not enforce their schema,
    /// so each evaluation checks the values it binds against these.
    outer_types: Vec<Option<ColumnType>>,
    costs: AccessCosts,
}

/// One equality of a key conjunct: `trees[tree].col = outer slot`.
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
    /// The block.
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

/// The `(column, outer slot)` pairs of a key conjunct: `Local = Outer` in
/// either order, or an `OR` of nothing but those.
fn key_equalities(c: &TPred) -> Option<Vec<(usize, usize)>> {
    match c {
        TPred::Cmp { left, op: CompareOp::Eq, right } => match (left, right) {
            (TOperand::Local(col), TOperand::Outer(slot))
            | (TOperand::Outer(slot), TOperand::Local(col)) => Some(vec![(*col, *slot)]),
            _ => None,
        },
        TPred::Or(ds) if !ds.is_empty() => {
            let pairs: Option<Vec<Vec<(usize, usize)>>> = ds
                .iter()
                .map(|d| key_equalities(d).filter(|_| matches!(d, TPred::Cmp { .. })))
                .collect();
            Some(pairs?.concat())
        }
        _ => None,
    }
}

/// The declared type of outer reference `c` under the scope chain `scopes`
/// (innermost first), by [`Env::lookup`]'s rule: the nearest scope that
/// knows the name wins, an ambiguous one ends the search.
fn declared_type(scopes: &[&Schema], c: &ColumnRef) -> Option<ColumnType> {
    for schema in scopes {
        match schema.resolve(c.table.as_deref(), &c.column) {
            Ok(i) => return Some(schema.columns()[i].ty),
            Err(nsql_types::TypeError::AmbiguousColumn(_)) => return None,
            Err(_) => continue,
        }
    }
    None
}

/// The tuples one run of the binding loop takes from the block's outermost
/// file: those on the given pages, read now, or those a probe found.
enum Tuples<'t> {
    Pages(&'t [PageId]),
    Found(Vec<Tuple>),
}

/// One evaluation's bind-once step ([`NestedIter::bind`]): the outer values
/// by template slot, and the simple conjuncts with them in place.
struct Bound {
    outer: Vec<Value>,
    conjuncts: Vec<CPred>,
}

/// The scope chain of the by-name interpreter, innermost first: borrowed
/// `(schema, tuple)` pairs, so pushing a scope copies a handful of
/// references. A chain is built per *surviving* binding (for its nested
/// conjuncts) and per tuple only on the decline path; bound simple
/// conjuncts never see one — their outer references were looked up here
/// once per block evaluation.
#[derive(Clone, Default)]
struct Env<'e> {
    scopes: Vec<(&'e Schema, &'e Tuple)>,
}

impl<'e> Env<'e> {
    /// The chain extended with an innermost scope. The result lives as long
    /// as the shortest borrow (`'s`), which is all a per-binding evaluation
    /// needs.
    fn child<'s>(&self, schema: &'s Schema, tuple: &'s Tuple) -> Env<'s>
    where
        'e: 's,
    {
        let mut scopes = Vec::with_capacity(self.scopes.len() + 1);
        scopes.push((schema, tuple));
        scopes.extend(self.scopes.iter().copied());
        Env { scopes }
    }

    /// Resolve a column against the chain (nearest scope wins).
    fn lookup(&self, c: &ColumnRef) -> Result<Value> {
        for (schema, tuple) in &self.scopes {
            match schema.resolve(c.table.as_deref(), &c.column) {
                Ok(i) => return Ok(tuple.get(i).clone()),
                Err(nsql_types::TypeError::AmbiguousColumn(n)) => {
                    return Err(EngineError::Type(nsql_types::TypeError::AmbiguousColumn(n)))
                }
                Err(_) => continue,
            }
        }
        Err(EngineError::Type(nsql_types::TypeError::UnknownColumn(c.to_string())))
    }
}

/// The nested-iteration evaluator.
pub struct NestedIter<'a, T: TableProvider + ?Sized> {
    tables: &'a T,
    storage: Storage,
    /// What the query knows about each block, by block address. Addresses
    /// are stable while the AST is borrowed, i.e. for one query; teardown
    /// clears the map.
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

    /// Evaluate a top-level query.
    pub fn eval_query(&self, q: &QueryBlock) -> Result<Relation> {
        let result = self.plan(q).and_then(|()| self.eval_block(q, &Env::default()));
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

    // -------------------------------------------------------- access paths

    /// Decide the access path of every correlated block under `q`, before
    /// the first page is read and from counts alone: file sizes, `B`, the
    /// catalog's indexes, and System R's default selectivities for how often
    /// each block will be evaluated. Nothing here looks at a tuple. A no-op
    /// under [`with_faithful`](NestedIter::with_faithful).
    fn plan(&self, q: &QueryBlock) -> Result<()> {
        if self.faithful {
            return Ok(());
        }
        self.plan_children(q, &[], 1.0)
    }

    /// [`plan`](Self::plan) for the blocks nested in `q`, itself evaluated
    /// an estimated `evaluations` times under the scopes `outer` (innermost
    /// first).
    fn plan_children(&self, q: &QueryBlock, outer: &[&Schema], evaluations: f64) -> Result<()> {
        let info = self.block_info(q)?;
        let scopes: Vec<&Schema> =
            std::iter::once(&info.schema).chain(outer.iter().copied()).collect();
        // A nested block is evaluated for every tuple of the FROM product
        // that passes the simple conjuncts [SEL 79:33].
        let (simple, _) = info.split(q);
        let product: f64 = info.files.iter().map(|f| f.tuple_count() as f64).product();
        let passing: f64 = simple.iter().map(|p| selectivity(p)).product();
        let bindings = evaluations * product * passing;
        for sub in q.child_blocks() {
            let sub_info = self.block_info(sub)?;
            if sub_info.free.is_empty() {
                // Evaluated once, under the empty scope.
                self.plan_children(sub, &[], 1.0)?;
            } else {
                sub_info
                    .access
                    .get_or_init(|| self.choose_access(sub, &sub_info, &scopes, bindings));
                self.plan_children(sub, &scopes, bindings)?;
            }
        }
        Ok(())
    }

    /// The access path of correlated block `q`, evaluated an estimated
    /// `evaluations` times under `scopes`.
    fn choose_access(
        &self,
        q: &QueryBlock,
        info: &BlockInfo,
        scopes: &[&Schema],
        evaluations: f64,
    ) -> Access {
        let [file] = info.files.as_slice() else {
            return Access::Ineligible("its FROM is not one file");
        };
        let Some(tpl) = &info.template else {
            return Access::Ineligible("a simple conjunct holds an ambiguous reference");
        };
        let columns = info.schema.columns();
        let outer_types: Vec<Option<ColumnType>> =
            tpl.outer_refs.iter().map(|c| declared_type(scopes, c)).collect();
        let key_at = tpl.conjuncts.iter().position(|c| key_equalities(c).is_some());
        // The template's conjuncts are the simple ones, in WHERE order.
        let chain: Vec<&Schema> =
            std::iter::once(&info.schema).chain(scopes.iter().copied()).collect();
        let declared = |c: &ColumnRef| declared_type(&chain, c);
        let fallible_at = info.split(q).0.iter().position(|p| !cannot_raise(p, &declared));
        let pairs = match (key_at, fallible_at) {
            (None, _) => {
                return Access::Ineligible("no conjunct equates a column with an outer reference")
            }
            (Some(key), Some(before)) if before < key => {
                return Access::Ineligible("key conjunct follows a fallible conjunct")
            }
            (Some(key), _) => key_equalities(&tpl.conjuncts[key]).expect("position just found it"),
        };
        let one_class = |&(col, slot): &(usize, usize)| {
            outer_types[slot].is_some_and(|ty| ty.same_class(columns[col].ty))
        };
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
        if costs.probes_win() {
            Access::Probe(ProbePlan { keys, trees, outer_types, costs })
        } else {
            Access::Scan(costs)
        }
    }

    /// The access path of every correlated block under `q`, outermost
    /// first, for EXPLAIN: what [`eval_query`](NestedIter::eval_query) and
    /// its siblings will do, worked out without reading a page. Empty under
    /// [`with_faithful`](NestedIter::with_faithful), where there is nothing
    /// to choose.
    pub fn access_paths<'q>(&self, q: &'q QueryBlock) -> Result<Vec<BlockAccess<'q>>> {
        self.plan(q)?;
        let mut out = Vec::new();
        self.collect_access(q, &mut out)?;
        Ok(out)
    }

    fn collect_access<'q>(&self, q: &'q QueryBlock, out: &mut Vec<BlockAccess<'q>>) -> Result<()> {
        for sub in q.child_blocks() {
            let info = self.block_info(sub)?;
            if let Some(access) = info.access.get() {
                out.push(BlockAccess {
                    block: sub,
                    line: access.describe(sub, &info),
                    costs: access.costs(),
                });
            }
            self.collect_access(sub, out)?;
        }
        Ok(())
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
            op.rows_in.add(0, file.tuple_count() as u64);
            op.rows_out.add(0, tree.stats().tuples as u64);
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
    fn candidates(&self, q: &QueryBlock, info: &BlockInfo, outer: &[Value]) -> Option<Vec<Tuple>> {
        let Some(Access::Probe(plan)) = info.access.get() else { return None };
        let declared = |(v, ty): (&Value, &Option<ColumnType>)| {
            v.is_null() || ty.is_none_or(|ty| ty.admits(v))
        };
        if !outer.iter().zip(&plan.outer_types).all(declared) {
            return None;
        }
        let mut found = Vec::new();
        if plan.keys.iter().all(|k| outer[k.slot].is_null()) {
            return Some(found);
        }
        if !self.ensure_trees(info, plan) {
            return None;
        }
        for (i, key) in plan.keys.iter().enumerate() {
            let (at, value) = (&plan.trees[key.tree], &outer[key.slot]);
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
                    matches!(t.get(plan.trees[e.tree].col).sql_eq(&outer[e.slot]), Ok(Some(true)))
                })
            });
            found.append(&mut matches);
        }
        Some(found)
    }

    // ------------------------------------------------------------- blocks

    /// Recall — or, the first time a query meets the block, work out — what
    /// holds for `q` across all its evaluations. Child blocks are resolved
    /// on the way (their free references are part of this block's), so an
    /// unknown table anywhere below `q` is reported here, before any I/O.
    fn block_info(&self, q: &QueryBlock) -> Result<Rc<BlockInfo>> {
        let key = q as *const QueryBlock as usize;
        if let Some(info) = self.blocks.borrow().get(&key) {
            return Ok(Rc::clone(info));
        }
        let mut files: Vec<HeapFile> = Vec::new();
        let mut schema = Schema::default();
        let mut seen = HashSet::new();
        for tref in &q.from {
            let file = self
                .tables
                .get_table(&tref.table)
                .ok_or_else(|| EngineError::UnknownTable(tref.table.clone()))?;
            let name = tref.effective_name();
            if !seen.insert(name.to_string()) {
                return Err(EngineError::Unsupported(format!(
                    "duplicate table name/alias in FROM: {name}"
                )));
            }
            let qualified = file.schema().requalify(name);
            schema = schema.join(&qualified);
            files.push(file.with_schema(qualified));
        }
        // The one free-reference walk: what this level leaves unresolved,
        // then what each child block's subtree leaves unresolved and this
        // scope does not bind either.
        let mut free: Vec<ColumnRef> = Vec::new();
        let mut note = |c: &ColumnRef| {
            if schema.try_resolve(c.table.as_deref(), &c.column).is_none() && !free.contains(c) {
                free.push(c.clone());
            }
        };
        level_column_refs(q).into_iter().for_each(&mut note);
        for sub in q.child_blocks() {
            self.block_info(sub)?.free.iter().for_each(&mut note);
        }
        let conjuncts = q.where_clause.as_ref().map(|p| p.conjuncts()).unwrap_or_default();
        let nested: Vec<bool> = conjuncts.iter().map(|p| p.contains_subquery()).collect();
        let (with_blocks, simple): (Vec<&Predicate>, Vec<&Predicate>) =
            conjuncts.into_iter().partition(|p| p.contains_subquery());
        let memo_keys = if self.faithful {
            vec![None; with_blocks.len()]
        } else {
            with_blocks.iter().map(|p| self.memo_key(p, &schema)).collect::<Result<_>>()?
        };
        let info = Rc::new(BlockInfo {
            template: Template::compile(&schema, &simple),
            files,
            schema,
            nested,
            memo_keys,
            free,
            result: OnceCell::new(),
            access: OnceCell::new(),
        });
        self.blocks.borrow_mut().insert(key, Rc::clone(&info));
        Ok(info)
    }

    /// The memo key of nested conjunct `p` in a block whose scope is
    /// `schema`: the columns its verdict can depend on — its own references
    /// and the free references of the blocks it holds — that `schema`
    /// resolves, deduplicated in first-occurrence order. A reference the
    /// schema does not know is an outer value, fixed for one evaluation of
    /// the block, and no part of the key. `None`: a reference is ambiguous
    /// in `schema`, and the conjunct must run per row to raise that error
    /// where nested iteration does.
    fn memo_key(&self, p: &Predicate, schema: &Schema) -> Result<Option<Vec<usize>>> {
        let subs: Vec<Rc<BlockInfo>> =
            p.child_blocks().into_iter().map(|sub| self.block_info(sub)).collect::<Result<_>>()?;
        let refs = predicate_column_refs(p).into_iter().chain(subs.iter().flat_map(|i| &i.free));
        let mut key: Vec<usize> = Vec::new();
        for c in refs {
            match schema.resolve(c.table.as_deref(), &c.column) {
                Ok(i) if !key.contains(&i) => key.push(i),
                Err(nsql_types::TypeError::AmbiguousColumn(_)) => return Ok(None),
                _ => {}
            }
        }
        Ok(Some(key))
    }

    /// Evaluate one block under `env`, the scope chain of the enclosing
    /// bindings: resolve (recalled per query), bind (once per evaluation),
    /// run the binding loop, then the SELECT phase.
    fn eval_block(&self, q: &QueryBlock, env: &Env<'_>) -> Result<Relation> {
        let info = self.block_info(q)?;
        let (simple, nested) = info.split(q);
        let bound = self.bind(&info, env);
        let evaluate = |tuples: Tuples<'_>| -> Result<Relation> {
            let conjuncts = bound.as_ref().map(|b| b.conjuncts.as_slice());
            let survivors = self.bindings(&info, tuples, conjuncts, &simple, &nested, env)?;
            self.eval_select(q, &info.schema, survivors, env)
        };
        let scan = || Tuples::Pages(info.outer_pages());
        match bound.as_ref().and_then(|b| self.candidates(q, &info, &b.outer)) {
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

    /// The bind-once step of one block evaluation: look every outer slot of
    /// the block's compiled simple conjuncts up in `env` — here, not per
    /// tuple — and put the values in place. `None` declines: the template
    /// did (a reference is ambiguous in the block's own scope), or an outer
    /// reference does not resolve in the chain. The interpreter then raises
    /// that error where SQL's evaluation order puts it — on the first tuple
    /// that reaches the operand, and not at all if none does.
    fn bind(&self, info: &BlockInfo, env: &Env<'_>) -> Option<Bound> {
        let tpl = info.template.as_ref()?;
        let outer: Vec<Value> =
            tpl.outer_refs.iter().map(|c| env.lookup(c).ok()).collect::<Option<_>>()?;
        Some(Bound { conjuncts: tpl.conjuncts(&outer), outer })
    }

    /// The binding loop — the only one, run by `eval_block`. Takes the
    /// tuples of the block's outermost file from `tuples` — pages,
    /// `read_page` called for each in order, or what a probe found; under
    /// every tuple enumerates the remaining FROM files by nested iteration;
    /// applies the simple conjuncts in order, stopping at the first non-TRUE
    /// one, then hands the binding — cloned off the page only now — to the
    /// interpreter for the nested conjuncts under the same rule, each
    /// evaluated once per distinct memo key (see the module docs). The
    /// predicate is the arbiter either way: a probe's tuples run every
    /// conjunct, the key conjunct included. Returns the survivors in
    /// enumeration order.
    ///
    /// Simple conjuncts run bound (by index, on the buffered tuple in
    /// place) unless `bound` declined.
    fn bindings(
        &self,
        info: &BlockInfo,
        tuples: Tuples<'_>,
        bound: Option<&[CPred]>,
        simple: &[&Predicate],
        nested: &[&Predicate],
        env: &Env<'_>,
    ) -> Result<Vec<Tuple>> {
        let schema = &info.schema;
        let passes = |t: &Tuple| -> Result<bool> {
            match bound {
                Some(conjuncts) => {
                    for c in conjuncts {
                        if c.eval(t)? != Some(true) {
                            return Ok(false);
                        }
                    }
                }
                None => {
                    let here = env.child(schema, t);
                    for p in simple {
                        if self.eval_pred(p, &here)? != Some(true) {
                            return Ok(false);
                        }
                    }
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
            if !nested.is_empty() {
                let here = env.child(schema, &binding);
                for ((p, key), memo) in nested.iter().zip(&info.memo_keys).zip(&mut memos) {
                    let verdict = match key {
                        Some(cols) => match memo.entry(binding.project(cols)) {
                            Entry::Occupied(seen) => *seen.get(),
                            Entry::Vacant(slot) => *slot.insert(self.eval_pred(p, &here)?),
                        },
                        None => self.eval_pred(p, &here)?,
                    };
                    if verdict != Some(true) {
                        return Ok(());
                    }
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

    fn eval_select(
        &self,
        q: &QueryBlock,
        scope_schema: &Schema,
        survivors: Vec<Tuple>,
        env: &Env<'_>,
    ) -> Result<Relation> {
        let grouped = !q.group_by.is_empty();
        let has_agg = q.has_aggregate_select();
        let out_schema = self.output_schema(q, scope_schema)?;

        let mut rows: Vec<Tuple> = if grouped {
            self.eval_grouped(q, scope_schema, &survivors, env)?
        } else if has_agg {
            // Global aggregate: one row, even over zero survivors.
            let members: Vec<&Tuple> = survivors.iter().collect();
            vec![self.eval_aggregate_row(q, scope_schema, &members, env)?]
        } else {
            // `output_schema` just resolved every SELECT column in the
            // block's own scope, so the items project by index.
            let items: Vec<CExpr> = q
                .select
                .iter()
                .map(|item| CExpr::compile_scalar(scope_schema, &item.expr))
                .collect::<Result<_>>()?;
            survivors.iter().map(|s| items.iter().map(|e| e.eval(s).clone()).collect()).collect()
        };

        if q.distinct {
            rows.sort_by(Tuple::total_cmp);
            rows.dedup();
        }
        if !q.order_by.is_empty() {
            let mut keys = Vec::new();
            for k in &q.order_by {
                let idx = resolve_output_column(&out_schema, q, &k.column)?;
                keys.push((idx, k.dir));
            }
            rows.sort_by(|a, b| {
                for &(i, dir) in &keys {
                    let o = a.get(i).total_cmp(b.get(i));
                    let o = if dir == SortDir::Desc { o.reverse() } else { o };
                    if o != std::cmp::Ordering::Equal {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        Relation::new(out_schema, rows).map_err(EngineError::from)
    }

    fn eval_grouped(
        &self,
        q: &QueryBlock,
        scope_schema: &Schema,
        survivors: &[Tuple],
        env: &Env<'_>,
    ) -> Result<Vec<Tuple>> {
        // Validate select items: group columns or aggregates only.
        let group_indices: Vec<usize> = q
            .group_by
            .iter()
            .map(|c| scope_schema.resolve(c.table.as_deref(), &c.column))
            .collect::<std::result::Result<_, _>>()?;
        let mut groups: Vec<(Tuple, Vec<&Tuple>)> = Vec::new();
        let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
        for s in survivors {
            let key = s.project(&group_indices);
            match index.get(&key) {
                Some(&i) => groups[i].1.push(s),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![s]));
                }
            }
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (_, members) in &groups {
            let mut vals = Vec::with_capacity(q.select.len());
            for item in &q.select {
                match &item.expr {
                    ScalarExpr::Aggregate(func, arg) => {
                        vals.push(self.aggregate_over(*func, arg, members, scope_schema, env)?)
                    }
                    ScalarExpr::Column(c) => {
                        // Must be (functionally determined by) a group key.
                        let idx = scope_schema.resolve(c.table.as_deref(), &c.column)?;
                        if !group_indices.contains(&idx) {
                            return Err(EngineError::Unsupported(format!(
                                "column {c} in SELECT is not in GROUP BY"
                            )));
                        }
                        vals.push(members[0].get(idx).clone());
                    }
                    ScalarExpr::Literal(v) => vals.push(v.clone()),
                }
            }
            rows.push(Tuple::new(vals));
        }
        Ok(rows)
    }

    fn eval_aggregate_row(
        &self,
        q: &QueryBlock,
        scope_schema: &Schema,
        survivors: &[&Tuple],
        env: &Env<'_>,
    ) -> Result<Tuple> {
        let mut vals = Vec::with_capacity(q.select.len());
        for item in &q.select {
            match &item.expr {
                ScalarExpr::Aggregate(func, arg) => {
                    vals.push(self.aggregate_over(*func, arg, survivors, scope_schema, env)?)
                }
                ScalarExpr::Literal(v) => vals.push(v.clone()),
                ScalarExpr::Column(c) => {
                    return Err(EngineError::Unsupported(format!(
                        "bare column {c} in aggregate SELECT without GROUP BY"
                    )))
                }
            }
        }
        Ok(Tuple::new(vals))
    }

    fn aggregate_over(
        &self,
        func: AggFunc,
        arg: &AggArg,
        members: &[&Tuple],
        scope_schema: &Schema,
        env: &Env<'_>,
    ) -> Result<Value> {
        let mut state = AggState::new(func);
        match arg {
            AggArg::Star => {
                for _ in members {
                    state.accumulate_row();
                }
            }
            AggArg::Column(c) => match scope_schema.resolve(c.table.as_deref(), &c.column) {
                Ok(i) => {
                    for m in members {
                        state.accumulate(m.get(i))?;
                    }
                }
                // An outer or locally ambiguous argument: the scope chain
                // decides, per member, so the error stays lazy.
                Err(_) => {
                    for m in members {
                        state.accumulate(&env.child(scope_schema, m).lookup(c)?)?;
                    }
                }
            },
        }
        Ok(state.finish())
    }

    // --------------------------------------------------------- predicates

    fn eval_pred(&self, p: &Predicate, env: &Env<'_>) -> Result<Option<bool>> {
        match p {
            Predicate::And(ps) => {
                let mut unknown = false;
                for q in ps {
                    match self.eval_pred(q, env)? {
                        Some(false) => return Ok(Some(false)),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                Ok(if unknown { None } else { Some(true) })
            }
            Predicate::Or(ps) => {
                let mut unknown = false;
                for q in ps {
                    match self.eval_pred(q, env)? {
                        Some(true) => return Ok(Some(true)),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                Ok(if unknown { None } else { Some(false) })
            }
            Predicate::Not(q) => Ok(not3(self.eval_pred(q, env)?)),
            Predicate::Compare { left, op, right } => {
                let l = self.eval_operand(left, env)?;
                let r = self.eval_operand(right, env)?;
                compare_values(&l, *op, &r)
            }
            Predicate::In { operand, negated, rhs } => {
                let v = self.eval_operand(operand, env)?;
                let raw = match rhs {
                    InRhs::List(list) => crate::pred::in_list(&v, list)?,
                    InRhs::Subquery(q) => self.eval_membership(&v, q, env)?,
                };
                Ok(if *negated { not3(raw) } else { raw })
            }
            Predicate::Exists { negated, query } => {
                let nonempty = !self.eval_inner_rows(query, env)?.is_empty();
                Ok(Some(if *negated { !nonempty } else { nonempty }))
            }
            Predicate::Quantified { left, op, quantifier, query } => {
                let v = self.eval_operand(left, env)?;
                let rows = self.eval_inner_rows(query, env)?;
                self.eval_quantified(&v, *op, *quantifier, &rows)
            }
            Predicate::IsNull { operand, negated } => {
                let v = self.eval_operand(operand, env)?;
                Ok(Some(if *negated { !v.is_null() } else { v.is_null() }))
            }
        }
    }

    fn eval_operand(&self, o: &Operand, env: &Env<'_>) -> Result<Value> {
        match o {
            Operand::Column(c) => env.lookup(c),
            Operand::Literal(v) => Ok(v.clone()),
            Operand::Subquery(q) => self.eval_scalar_subquery(q, env),
        }
    }

    /// An uncorrelated inner block, its result evaluated under the empty
    /// scope at its first use and kept for the query (`None`: the block is
    /// correlated).
    fn once_only(&self, q: &QueryBlock, kind: UseKind) -> Result<Option<Rc<BlockInfo>>> {
        let info = self.block_info(q)?;
        if !info.free.is_empty() {
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
        let rel = self.eval_block(q, &Env::default())?;
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
    fn eval_scalar_subquery(&self, q: &QueryBlock, env: &Env<'_>) -> Result<Value> {
        match self.once_only(q, UseKind::Scalar)? {
            Some(info) => match info.result.get() {
                Some(Cached::Scalar(v)) => Ok(v.clone()),
                _ => Err(EngineError::Internal("scalar cache corrupted".into())),
            },
            None => {
                let rel = self.eval_block(q, env)?;
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
    fn eval_membership(&self, v: &Value, q: &QueryBlock, env: &Env<'_>) -> Result<Option<bool>> {
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
        let rows = self.eval_block(q, env)?;
        let list: Vec<Value> = rows.tuples().iter().map(|t| t.get(0).clone()).collect();
        crate::pred::in_list(v, &list)
    }

    /// Rows of an inner block (for EXISTS / quantified), materialized once
    /// for uncorrelated blocks.
    fn eval_inner_rows(&self, q: &QueryBlock, env: &Env<'_>) -> Result<Vec<Value>> {
        if let Some(file) = self.once_only_list(q)? {
            let mut out = Vec::with_capacity(file.tuple_count());
            file.try_for_each(&self.storage, |t| -> Result<()> {
                out.push(t.get(0).clone());
                Ok(())
            })?;
            return Ok(out);
        }
        let rel = self.eval_block(q, env)?;
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
        let mut unknown = false;
        for r in rows {
            match compare_values(v, op, r)? {
                Some(true) if quant == Quantifier::Any => return Ok(Some(true)),
                Some(false) if quant == Quantifier::All => return Ok(Some(false)),
                None => unknown = true,
                _ => {}
            }
        }
        Ok(if unknown {
            None
        } else {
            Some(quant == Quantifier::All)
        })
    }

    // ------------------------------------------------------- output schema

    fn output_schema(&self, q: &QueryBlock, scope_schema: &Schema) -> Result<Schema> {
        let mut cols = Vec::with_capacity(q.select.len());
        for item in &q.select {
            let (name, ty) = match &item.expr {
                ScalarExpr::Column(c) => {
                    let idx = scope_schema.resolve(c.table.as_deref(), &c.column)?;
                    let col = &scope_schema.columns()[idx];
                    (col.name.clone(), col.ty)
                }
                ScalarExpr::Literal(v) => {
                    ("LITERAL".to_string(), v.column_type().unwrap_or(ColumnType::Int))
                }
                ScalarExpr::Aggregate(f, arg) => {
                    let ty = match (f, arg) {
                        (AggFunc::Count, _) => ColumnType::Int,
                        (AggFunc::Avg, _) => ColumnType::Float,
                        (_, AggArg::Column(c)) => {
                            let idx = scope_schema.resolve(c.table.as_deref(), &c.column)?;
                            scope_schema.columns()[idx].ty
                        }
                        (_, AggArg::Star) => ColumnType::Int,
                    };
                    (f.name().to_string(), ty)
                }
            };
            let name = item.alias.clone().unwrap_or(name);
            cols.push(Column::new(name, ty));
        }
        Ok(Schema::new(cols))
    }
}

fn resolve_output_column(
    out_schema: &Schema,
    q: &QueryBlock,
    c: &ColumnRef,
) -> Result<usize> {
    // ORDER BY resolves against the output columns (by alias or name).
    if let Some(i) = out_schema.try_resolve(None, &c.column) {
        return Ok(i);
    }
    // Fall back to positional match against select-list column refs.
    for (i, item) in q.select.iter().enumerate() {
        if let ScalarExpr::Column(sc) = &item.expr {
            if sc.column == c.column
                && (c.table.is_none() || sc.table == c.table)
            {
                return Ok(i);
            }
        }
    }
    Err(EngineError::Type(nsql_types::TypeError::UnknownColumn(c.to_string())))
}
