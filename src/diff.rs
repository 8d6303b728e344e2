//! Differential oracle harness (driven by `tests/diff_prop.rs`).
//!
//! [`gen_case`] draws a random small database plus a random nested query
//! from a *schema-aware* grammar (every column reference resolves, every
//! comparison is type-compatible, NULLs and duplicate rows are injected
//! deliberately); [`check_case`] evaluates the query with the naive
//! tuple-at-a-time oracle (`nsql-oracle`) and with every engine pipeline —
//! nested iteration, the NEST-G transformation under
//! each join policy (every one with its join inputs restricted first, in the
//! canonical query and in a temporary over several relations, as the default
//! path runs), once more as the paper's literal plans, and the
//! duplicate-collapsing `preserve_duplicates` variant — and
//! compares results at
//! exactly the strength the paper promises:
//!
//! * nested iteration must be **bag-equal** to the oracle, always — with
//!   its memo of one verdict per distinct binding on (the `ni-serial`
//!   pipeline runs the default options);
//! * transformed plans must be bag-equal except where a documented
//!   divergence license applies (tracked by [`nsql_oracle::Notes`], written
//!   up in DESIGN.md "Oracle semantics"): the `ALL`-over-empty-or-NULL
//!   MIN/MAX rewrite, COUNT-family aggregates under NULL correlation keys,
//!   and NEST-N-J's join-expansion duplicates (set equality there, full
//!   skip when an aggregate would be inflated);
//! * a scalar-subquery cardinality error in the oracle must reproduce as
//!   the *same* error in nested iteration (transforms are unlicensed);
//! * a query outside the transformable class (`NOT IN`, `= ALL`, …) may be
//!   refused by the transformation — refusal is not divergence;
//! * whatever a pipeline returns, rows or a typed error, the statement must
//!   leave `Storage::live_pages()` where it found it: everything a strategy
//!   materializes is a temporary.
//!
//! Every case is replayable through the testkit seed machinery
//! (`NSQL_TEST_SEED`) and shrinks greedily: table rows are removed first,
//! then the query is structurally simplified.

use nsql_db::{
    CacheMode, Database, ExecMode, IndexUse, JoinPolicy, QueryOptions,
    QueryOutcome, Strategy,
};
use nsql_core::{LogicalPlan, UnnestOptions};
use nsql_engine::EngineError;
use nsql_oracle::{Notes, Oracle, OracleError};
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, Predicate, Quantifier, QueryBlock,
    ScalarExpr, SelectItem, TableRef,
};
use nsql_testkit::{Rng, Shrink};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::fmt;

// ---------------------------------------------------------------- the case

/// One differential test case: a set of named in-memory tables plus a
/// (possibly nested) query over them.
#[derive(Clone, PartialEq)]
pub struct DiffCase {
    /// Named relations; loaded both into the oracle and into a fresh
    /// [`Database`].
    pub tables: Vec<(String, Relation)>,
    /// The query under test. All column references are alias-qualified and
    /// resolvable by construction.
    pub query: QueryBlock,
}

impl fmt::Debug for DiffCase {
    /// Render as runnable SQL plus the table contents — what a failure
    /// report should show a human.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {}", nsql_sql::print_query(&self.query))?;
        for (name, rel) in &self.tables {
            writeln!(f, "{name}:\n{rel}")?;
        }
        Ok(())
    }
}

impl Shrink for DiffCase {
    /// Row removal first (the biggest simplification), then the structural
    /// query shrinks inherited from the testkit AST shrinkers. Candidates
    /// whose query no longer resolves simply pass validation with an error
    /// on every side and are rejected by the shrinker as non-failing.
    fn shrink(&self) -> Vec<DiffCase> {
        let mut out = Vec::new();
        for (ti, (_, rel)) in self.tables.iter().enumerate() {
            for ri in 0..rel.len() {
                let mut c = self.clone();
                let mut tuples = rel.tuples().to_vec();
                tuples.remove(ri);
                c.tables[ti].1 = Relation::new(rel.schema().clone(), tuples)
                    .expect("same schema, same arity");
                out.push(c);
            }
        }
        for q in self.query.shrink() {
            out.push(DiffCase { tables: self.tables.clone(), query: q });
        }
        out
    }
}

// ----------------------------------------------------------- the generator

/// Type class a comparison may range over; the generator never compares
/// across classes (that would only test the type checker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Num,
    Str,
}

fn class_of(ty: ColumnType) -> Option<Class> {
    match ty {
        ColumnType::Int | ColumnType::Float => Some(Class::Num),
        ColumnType::Str => Some(Class::Str),
        _ => None,
    }
}

/// A column visible in some enclosing scope, with the alias that reaches it.
#[derive(Debug, Clone)]
struct ScopeCol {
    alias: String,
    name: String,
    ty: ColumnType,
}

impl ScopeCol {
    fn cref(&self) -> ColumnRef {
        ColumnRef::qualified(&self.alias, &self.name)
    }

    fn operand(&self) -> Operand {
        Operand::Column(self.cref())
    }

    fn class(&self) -> Class {
        class_of(self.ty).expect("generator only emits Int/Float/Str columns")
    }
}

const STR_DOMAIN: [&str; 5] = ["a", "b", "c", "d", "e"];

fn gen_value(rng: &mut Rng, ty: ColumnType) -> Value {
    if rng.gen_bool(0.12) {
        return Value::Null;
    }
    match ty {
        ColumnType::Int => Value::Int(rng.gen_range(-6i64..7)),
        // Dyadic rationals: exactly representable, so duplicates and
        // grouping collisions actually happen in the float domain too.
        ColumnType::Float => Value::Float(rng.gen_range(-24i64..25) as f64 / 8.0),
        ColumnType::Str => Value::Str((*rng.choose(&STR_DOMAIN)).to_string()),
        other => unreachable!("generator does not emit {other:?} columns"),
    }
}

/// A relation with deliberate NULL and duplicate-row biasing: tiny value
/// domains force key collisions, ~12% of values are NULL, and a quarter of
/// the rows are copies of earlier rows (the Section 4 duplicates problem).
fn gen_relation(rng: &mut Rng, schema: Schema) -> Relation {
    let n = rng.gen_range(0usize..8);
    let mut rows: Vec<Tuple> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_bool(0.25) {
            let j = rng.gen_range(0..i);
            rows.push(rows[j].clone());
        } else {
            rows.push(Tuple::new(
                schema.columns().iter().map(|c| gen_value(rng, c.ty)).collect(),
            ));
        }
    }
    Relation::new(schema, rows).expect("arity by construction")
}

/// What a generated block must SELECT.
#[derive(Debug, Clone, Copy)]
enum BlockMode {
    /// Top-level query: plain columns, a global aggregate, or GROUP BY.
    Top,
    /// Inner block of `IN` / `EXISTS` / quantified predicates: exactly one
    /// column of the given class, never DISTINCT.
    OneCol(Class),
    /// Inner block of an aggregate (scalar) comparison: one aggregate item.
    OneAgg,
}

struct QueryGen<'a> {
    tables: &'a [(String, Relation)],
    next_alias: usize,
}

impl<'a> QueryGen<'a> {
    fn table_has_str(&self, idx: usize) -> bool {
        self.tables[idx].1.schema().columns().iter().any(|c| c.ty == ColumnType::Str)
    }

    fn any_table_has_str(&self) -> bool {
        (0..self.tables.len()).any(|i| self.table_has_str(i))
    }

    /// Pick a column of `class` (if given) from `cols`; `cols` always holds
    /// Int columns, so `Class::Num` never fails.
    fn pick_col<'c>(&self, rng: &mut Rng, cols: &'c [ScopeCol], class: Option<Class>) -> &'c ScopeCol {
        let candidates: Vec<&ScopeCol> = match class {
            None => cols.iter().collect(),
            Some(c) => cols.iter().filter(|s| s.class() == c).collect(),
        };
        *rng.choose(&candidates)
    }

    /// A literal in the column class, occasionally NULL (3VL pressure).
    fn lit(&self, rng: &mut Rng, class: Class) -> Value {
        if rng.gen_bool(0.06) {
            return Value::Null;
        }
        match class {
            Class::Num => {
                if rng.gen_bool(0.5) {
                    gen_value(rng, ColumnType::Int)
                } else {
                    gen_value(rng, ColumnType::Float)
                }
            }
            Class::Str => gen_value(rng, ColumnType::Str),
        }
    }

    fn any_op(&self, rng: &mut Rng) -> CompareOp {
        *rng.choose(&[
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ])
    }

    /// Class for a subquery comparison: `Str` only when both the outer
    /// operand side and some table can supply one.
    fn subquery_class(&self, rng: &mut Rng, locals: &[ScopeCol]) -> Class {
        let str_possible =
            self.any_table_has_str() && locals.iter().any(|c| c.class() == Class::Str);
        if str_possible && rng.gen_bool(0.3) {
            Class::Str
        } else {
            Class::Num
        }
    }

    /// One aggregate SELECT item over the local columns.
    fn agg_item(&self, rng: &mut Rng, locals: &[ScopeCol]) -> SelectItem {
        let expr = match rng.gen_range(0u32..6) {
            0 => ScalarExpr::Aggregate(AggFunc::Count, AggArg::Star),
            1 => ScalarExpr::Aggregate(
                AggFunc::Count,
                AggArg::Column(self.pick_col(rng, locals, None).cref()),
            ),
            2 => ScalarExpr::Aggregate(
                AggFunc::Sum,
                AggArg::Column(self.pick_col(rng, locals, Some(Class::Num)).cref()),
            ),
            3 => ScalarExpr::Aggregate(
                AggFunc::Avg,
                AggArg::Column(self.pick_col(rng, locals, Some(Class::Num)).cref()),
            ),
            4 => ScalarExpr::Aggregate(
                AggFunc::Max,
                AggArg::Column(self.pick_col(rng, locals, None).cref()),
            ),
            _ => ScalarExpr::Aggregate(
                AggFunc::Min,
                AggArg::Column(self.pick_col(rng, locals, None).cref()),
            ),
        };
        SelectItem::new(expr)
    }

    /// A subquery-free conjunct over the local columns.
    fn simple_conjunct(&mut self, rng: &mut Rng, locals: &[ScopeCol]) -> Predicate {
        let roll = rng.gen_range(0u32..100);
        if roll < 45 {
            // column ⟨op⟩ literal
            let col = self.pick_col(rng, locals, None);
            let lit = self.lit(rng, col.class());
            Predicate::Compare {
                left: col.operand(),
                op: self.any_op(rng),
                right: Operand::Literal(lit),
            }
        } else if roll < 60 {
            // column ⟨op⟩ column (same class; may be a cross-table join pred)
            let left = self.pick_col(rng, locals, None);
            let right = self.pick_col(rng, locals, Some(left.class()));
            Predicate::col_cmp(left.cref(), self.any_op(rng), right.cref())
        } else if roll < 70 {
            Predicate::IsNull {
                operand: self.pick_col(rng, locals, None).operand(),
                negated: rng.gen_bool(0.5),
            }
        } else if roll < 85 {
            // column [NOT] IN (literal list)
            let col = self.pick_col(rng, locals, None);
            let n = rng.gen_range(1usize..4);
            let list = (0..n).map(|_| self.lit(rng, col.class())).collect();
            Predicate::In {
                operand: col.operand(),
                negated: rng.gen_bool(0.3),
                rhs: InRhs::List(list),
            }
        } else {
            // simple disjunction of two comparisons
            let a = {
                let col = self.pick_col(rng, locals, None);
                let lit = self.lit(rng, col.class());
                Predicate::Compare {
                    left: col.operand(),
                    op: self.any_op(rng),
                    right: Operand::Literal(lit),
                }
            };
            let b = {
                let col = self.pick_col(rng, locals, None);
                let lit = self.lit(rng, col.class());
                Predicate::Compare {
                    left: col.operand(),
                    op: self.any_op(rng),
                    right: Operand::Literal(lit),
                }
            };
            Predicate::Or(vec![a, b])
        }
    }

    /// A nested-predicate conjunct: IN / EXISTS / quantified / aggregate
    /// comparison / scalar column subquery — Section 2's full inventory.
    fn subquery_conjunct(
        &mut self,
        rng: &mut Rng,
        locals: &[ScopeCol],
        outer: &[ScopeCol],
        depth: usize,
    ) -> Predicate {
        let scope: Vec<ScopeCol> = outer.iter().chain(locals.iter()).cloned().collect();
        let roll = rng.gen_range(0u32..100);
        if roll < 35 {
            let class = self.subquery_class(rng, locals);
            let col = self.pick_col(rng, locals, Some(class));
            let operand = col.operand();
            let inner = self.block(rng, &scope, depth - 1, BlockMode::OneCol(class));
            Predicate::In {
                operand,
                negated: rng.gen_bool(0.12),
                rhs: InRhs::Subquery(Box::new(inner)),
            }
        } else if roll < 50 {
            Predicate::Exists {
                negated: rng.gen_bool(0.4),
                query: Box::new(self.block(rng, &scope, depth - 1, BlockMode::OneCol(Class::Num))),
            }
        } else if roll < 70 {
            let class = self.subquery_class(rng, locals);
            let col = self.pick_col(rng, locals, Some(class));
            let left = col.operand();
            let op = self.any_op(rng);
            let quantifier = *rng.choose(&[Quantifier::Any, Quantifier::All]);
            Predicate::Quantified {
                left,
                op,
                quantifier,
                query: Box::new(self.block(rng, &scope, depth - 1, BlockMode::OneCol(class))),
            }
        } else if roll < 88 {
            // numeric column ⟨op⟩ (SELECT AGG(…) …) — types A and JA
            let col = self.pick_col(rng, locals, Some(Class::Num)).operand();
            let op = self.any_op(rng);
            let sub =
                Operand::Subquery(Box::new(self.block(rng, &scope, depth - 1, BlockMode::OneAgg)));
            if rng.gen_bool(0.25) {
                Predicate::Compare { left: sub, op, right: col }
            } else {
                Predicate::Compare { left: col, op, right: sub }
            }
        } else if roll < 95 {
            // A scalar (aggregate) block where a column usually stands: the
            // operand of IS NULL, of IN (list), the left of ANY / ALL. The
            // transformation refuses these; the correlated strategies must
            // see the block's outer references wherever it sits.
            let sub =
                Operand::Subquery(Box::new(self.block(rng, &scope, depth - 1, BlockMode::OneAgg)));
            match rng.gen_range(0u32..3) {
                0 => Predicate::IsNull { operand: sub, negated: rng.gen_bool(0.5) },
                1 => {
                    let n = rng.gen_range(1usize..4);
                    let list = (0..n).map(|_| self.lit(rng, Class::Num)).collect();
                    Predicate::In {
                        operand: sub,
                        negated: rng.gen_bool(0.3),
                        rhs: InRhs::List(list),
                    }
                }
                _ => Predicate::Quantified {
                    left: sub,
                    op: self.any_op(rng),
                    quantifier: *rng.choose(&[Quantifier::Any, Quantifier::All]),
                    query: Box::new(self.block(
                        rng,
                        &scope,
                        depth - 1,
                        BlockMode::OneCol(Class::Num),
                    )),
                },
            }
        } else {
            // scalar non-aggregate subquery: errors when the inner block
            // yields 2+ rows — the cardinality-agreement part of the oracle
            let class = self.subquery_class(rng, locals);
            let col = self.pick_col(rng, locals, Some(class)).operand();
            let op = self.any_op(rng);
            let sub = Operand::Subquery(Box::new(self.block(
                rng,
                &scope,
                depth - 1,
                BlockMode::OneCol(class),
            )));
            Predicate::Compare { left: col, op, right: sub }
        }
    }

    /// An equality-shaped correlation conjunct tying a local column to an
    /// enclosing scope (any depth — grandparent correlation included).
    fn correlation(&mut self, rng: &mut Rng, locals: &[ScopeCol], outer: &[ScopeCol]) -> Predicate {
        let local = self.pick_col(rng, locals, None);
        let matching: Vec<&ScopeCol> =
            outer.iter().filter(|c| c.class() == local.class()).collect();
        let (local, outer_col) = if matching.is_empty() {
            // Both scopes always have Int columns.
            (
                self.pick_col(rng, locals, Some(Class::Num)).clone(),
                self.pick_col(rng, outer, Some(Class::Num)).clone(),
            )
        } else {
            (local.clone(), (*rng.choose(&matching)).clone())
        };
        let op = if rng.gen_bool(0.8) { CompareOp::Eq } else { self.any_op(rng) };
        if rng.gen_bool(0.5) {
            Predicate::col_cmp(local.cref(), op, outer_col.cref())
        } else {
            Predicate::col_cmp(outer_col.cref(), op.flip(), local.cref())
        }
    }

    fn block(
        &mut self,
        rng: &mut Rng,
        outer: &[ScopeCol],
        depth: usize,
        mode: BlockMode,
    ) -> QueryBlock {
        // FROM: pick tables; a OneCol(Str) block must see a Str column.
        let n_from = match mode {
            BlockMode::Top => rng.gen_range(1usize..3),
            _ => {
                if rng.gen_bool(0.15) {
                    2
                } else {
                    1
                }
            }
        };
        let mut chosen: Vec<usize> =
            (0..n_from).map(|_| rng.gen_range(0..self.tables.len())).collect();
        if matches!(mode, BlockMode::OneCol(Class::Str))
            && !chosen.iter().any(|&i| self.table_has_str(i))
        {
            let with_str: Vec<usize> =
                (0..self.tables.len()).filter(|&i| self.table_has_str(i)).collect();
            chosen[0] = *rng.choose(&with_str);
        }

        let mut from = Vec::new();
        let mut locals: Vec<ScopeCol> = Vec::new();
        for &ti in &chosen {
            let alias = format!("A{}", self.next_alias);
            self.next_alias += 1;
            let (name, rel) = &self.tables[ti];
            from.push(TableRef::aliased(name.clone(), &alias));
            for c in rel.schema().columns() {
                locals.push(ScopeCol { alias: alias.clone(), name: c.name.clone(), ty: c.ty });
            }
        }

        // WHERE: simple + nested conjuncts, plus (for inner blocks) a
        // correlation predicate most of the time.
        let mut conjuncts = Vec::new();
        let n_conj = match mode {
            BlockMode::Top => {
                if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(1usize..4)
                }
            }
            _ => rng.gen_range(0usize..3),
        };
        for _ in 0..n_conj {
            if depth > 0 && rng.gen_bool(0.4) {
                conjuncts.push(self.subquery_conjunct(rng, &locals, outer, depth));
            } else {
                conjuncts.push(self.simple_conjunct(rng, &locals));
            }
        }
        if !outer.is_empty() && rng.gen_bool(0.75) {
            conjuncts.push(self.correlation(rng, &locals, outer));
        }
        let where_clause =
            if conjuncts.is_empty() { None } else { Some(Predicate::and(conjuncts)) };

        // SELECT (+ GROUP BY / DISTINCT at the top level only).
        let mut distinct = false;
        let mut group_by = Vec::new();
        let select = match mode {
            BlockMode::OneCol(class) => {
                vec![SelectItem::column(self.pick_col(rng, &locals, Some(class)).cref())]
            }
            BlockMode::OneAgg => vec![self.agg_item(rng, &locals)],
            BlockMode::Top => {
                let roll = rng.gen_range(0u32..100);
                if roll < 20 {
                    // GROUP BY key + aggregates
                    let key = self.pick_col(rng, &locals, None).clone();
                    group_by.push(key.cref());
                    let mut items = vec![SelectItem::column(key.cref())];
                    for _ in 0..rng.gen_range(1usize..3) {
                        items.push(self.agg_item(rng, &locals));
                    }
                    items
                } else if roll < 40 {
                    // global aggregate row
                    (0..rng.gen_range(1usize..3))
                        .map(|_| self.agg_item(rng, &locals))
                        .collect()
                } else {
                    distinct = rng.gen_bool(0.2);
                    (0..rng.gen_range(1usize..4))
                        .map(|_| SelectItem::column(self.pick_col(rng, &locals, None).cref()))
                        .collect()
                }
            }
        };

        QueryBlock { distinct, select, from, where_clause, group_by, order_by: Vec::new() }
    }
}

/// Generate one random differential case: 2–3 tables (always `K`/`V` Int
/// columns, sometimes `F` Float and `S` Str) with biased data, plus a query
/// nested up to three blocks deep.
pub fn gen_case(rng: &mut Rng) -> DiffCase {
    let n_tables = rng.gen_range(2usize..4);
    let mut tables = Vec::with_capacity(n_tables);
    for i in 0..n_tables {
        let mut cols =
            vec![Column::new("K", ColumnType::Int), Column::new("V", ColumnType::Int)];
        if rng.gen_bool(0.5) {
            cols.push(Column::new("F", ColumnType::Float));
        }
        if rng.gen_bool(0.3) {
            cols.push(Column::new("S", ColumnType::Str));
        }
        let rel = gen_relation(rng, Schema::new(cols));
        tables.push((format!("T{i}"), rel));
    }
    let query = {
        let mut qg = QueryGen { tables: &tables, next_alias: 0 };
        qg.block(rng, &[], 2, BlockMode::Top)
    };
    DiffCase { tables, query }
}

// ---------------------------------------------------- static query analysis

fn walk_blocks<'q>(q: &'q QueryBlock, out: &mut Vec<&'q QueryBlock>) {
    out.push(q);
    for sub in q.child_blocks() {
        walk_blocks(sub, out);
    }
}

/// Does the query contain any construct the transformation turns into a
/// COUNT-family aggregate over correlation keys — aggregate-select
/// subqueries, `EXISTS` (rewritten to `0 < COUNT(*)`), or non-`= ANY`
/// quantifiers (rewritten to MIN/MAX)? Those are the forms whose outer-join
/// grouping diverges from nested iteration when a correlation key is NULL.
fn has_agg_or_exists_subquery(q: &QueryBlock) -> bool {
    fn pred_has(p: &Predicate) -> bool {
        match p {
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(pred_has),
            Predicate::Not(p) => pred_has(p),
            Predicate::Exists { .. } => true,
            Predicate::Quantified { op, quantifier, .. }
                if !(*op == CompareOp::Eq && *quantifier == Quantifier::Any) =>
            {
                true
            }
            // Otherwise: an aggregate block used as a scalar, or either
            // construct further down.
            leaf => leaf.child_block_uses().into_iter().any(|(b, scalar)| {
                (scalar && b.has_aggregate_select()) || has_agg_or_exists_subquery(b)
            }),
        }
    }
    q.where_clause.as_ref().is_some_and(pred_has)
}

/// Does *any* block of the query aggregate (aggregate SELECT or GROUP BY)?
/// Join-expansion duplicates inflate such aggregates, so the duplicates
/// license downgrades to a full skip rather than a set comparison.
fn has_any_aggregate(q: &QueryBlock) -> bool {
    let mut blocks = Vec::new();
    walk_blocks(q, &mut blocks);
    blocks.iter().any(|b| b.has_aggregate_select() || !b.group_by.is_empty())
}

// -------------------------------------------------------------- the checker

/// Why a pipeline was not compared on a case.
const SKIP: bool = false;
/// Marker for a pipeline that was fully compared on a case.
const COMPARED: bool = true;

/// The outcome of checking one case against every pipeline.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Every comparable pipeline agreed with the oracle. Each entry records
    /// the pipeline name, whether it was compared (`true`) or skipped under
    /// a divergence license / unsupported-class refusal (`false`), and how
    /// many temporaries over several relations it materialized through a
    /// keyed join and how many restricted join inputs its EXPLAIN output
    /// logged.
    Agree(Vec<(&'static str, bool, (u64, u64))>),
    /// A pipeline diverged from the oracle — the property failure.
    Diverge(String),
}

struct Pipeline {
    name: &'static str,
    opts: QueryOptions,
    transform: bool,
    set_only: bool,
}

/// The pipelines under differential test. Nested iteration runs once (it is
/// serial at every thread count); the transformation runs under every join
/// policy, in parallel, and in the duplicate-collapsing
/// `preserve_duplicates` mode. Row pipelines pin
/// `ExecMode::Row` (not `Auto`) so the sweep diffs both representations
/// whatever `Auto` comes to mean; `tr-vec-hash` reruns the forced-hash-join
/// shapes under the batch hash-join kernel.
fn pipelines() -> Vec<Pipeline> {
    let ni = QueryOptions {
        strategy: Strategy::NestedIteration,
        cold_start: true,
        exec_mode: ExecMode::Row,
        ..Default::default()
    };
    let tr = |policy: JoinPolicy, threads: usize| QueryOptions {
        strategy: Strategy::Transform,
        join_policy: policy,
        cold_start: true,
        threads,
        exec_mode: ExecMode::Row,
        ..Default::default()
    };
    vec![
        Pipeline { name: "ni-serial", opts: ni, transform: false, set_only: false },
        Pipeline {
            name: "tr-cost-serial",
            opts: tr(JoinPolicy::CostBased, 1),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-cost-par4",
            opts: tr(JoinPolicy::CostBased, 4),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-nestedloop",
            opts: tr(JoinPolicy::ForceNestedLoop, 1),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-merge",
            opts: tr(JoinPolicy::ForceMergeJoin, 1),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-hash",
            opts: tr(JoinPolicy::ForceHashJoin, 1),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-distinct",
            opts: QueryOptions {
                unnest: UnnestOptions { preserve_duplicates: true, ..Default::default() },
                ..tr(JoinPolicy::CostBased, 1)
            },
            transform: true,
            set_only: true,
        },
        // Index-backed variants: every generated table carries a B+tree on
        // `K` (built by `check_case`), so forcing the index path on and off
        // diffs index-scan plans against full-scan plans against the oracle.
        Pipeline {
            name: "tr-ix-prefer",
            opts: QueryOptions { index_use: IndexUse::Prefer, ..tr(JoinPolicy::CostBased, 1) },
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-ix-never",
            opts: QueryOptions { index_use: IndexUse::Never, ..tr(JoinPolicy::CostBased, 1) },
            transform: true,
            set_only: false,
        },
        // The paper's literal plans: temporaries executed node by node,
        // whole-table join inputs, every column, pages-only join choice.
        // Every other `tr-*` pipeline runs the default shapes, so this is
        // the one place the figures' plans meet the oracle on whole queries.
        Pipeline {
            name: "tr-literal",
            opts: QueryOptions {
                unnest: UnnestOptions { faithful_1987: true, ..Default::default() },
                ..tr(JoinPolicy::CostBased, 1)
            },
            transform: true,
            set_only: false,
        },
        // The batch hash join: `tr-hash` again with joins built and probed
        // on column batches. Same license flags — the kernel must be
        // semantically invisible. (Vector mode changes nothing but hash
        // joins, so it is not paired with any other join policy.)
        Pipeline {
            name: "tr-vec-hash",
            opts: QueryOptions {
                exec_mode: ExecMode::Vector,
                ..tr(JoinPolicy::ForceHashJoin, 1)
            },
            transform: true,
            set_only: false,
        },
    ]
}

/// Run the case's query on `db`, holding the statement — whether it answers
/// or errs — to leaving as many live pages as it found: everything a
/// strategy materializes is a temporary, freed before the statement returns.
/// `Err` is the divergence to report.
fn run_leak_checked(
    db: &Database,
    case: &DiffCase,
    opts: &QueryOptions,
    name: &str,
) -> Result<nsql_db::Result<QueryOutcome>, CaseOutcome> {
    let before = db.storage().live_pages();
    let res = db.run_query(&case.query, opts);
    let after = db.storage().live_pages();
    if after == before {
        return Ok(res);
    }
    Err(CaseOutcome::Diverge(format!(
        "[{name}] the statement changed the live page count from {before} to {after} \
         (it returned {})\n{}\ncase:\n{case:?}",
        match &res {
            Ok(out) => format!("{} rows", out.relation.len()),
            Err(e) => format!("the error {e}"),
        },
        nsql_sql::print_query(&case.query),
    )))
}

/// Evaluate `case` with the oracle and with every pipeline, applying the
/// license policy from the module docs. Returns [`CaseOutcome::Diverge`]
/// with a full report on the first disagreement.
pub fn check_case(case: &DiffCase) -> CaseOutcome {
    let mut oracle = Oracle::new();
    for (name, rel) in &case.tables {
        oracle.load(name.clone(), rel.clone());
    }
    let sql = nsql_sql::print_query(&case.query);

    // Oracle verdict: a relation + divergence licenses, or a cardinality
    // error every unlicensed pipeline must reproduce. Any *other* oracle
    // error means the query does not resolve — the generator never emits
    // such queries, but structural shrinking can (dropping a FROM entry
    // whose alias is still referenced). Those candidates are vacuous, not
    // divergent: report agreement so the shrinker rejects them.
    let (oracle_rel, notes, oracle_card) = match oracle.eval_noted(&case.query) {
        Ok((rel, notes)) => (Some(rel), notes, None),
        Err(OracleError::ScalarSubqueryCardinality(n)) => (None, Notes::default(), Some(n)),
        Err(_) => return CaseOutcome::Agree(Vec::new()),
    };
    let agg_or_exists = has_agg_or_exists_subquery(&case.query);
    let any_aggregate = has_any_aggregate(&case.query);

    let mut db = Database::with_storage(8, 256);
    for (name, rel) in &case.tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
        // Every generated table has an Int `K` column; index it so the
        // `tr-ix-*` pipelines exercise index restriction and back-joins.
        db.catalog_mut().create_index(name, "K").expect("K column exists");
    }
    // The analyzer is (deliberately) stricter than the oracle in places —
    // e.g. ambiguity rules. A query it refuses runs on no pipeline, so
    // there is nothing to compare; generated queries always validate
    // (checked by unit test), only shrink candidates can land here.
    if nsql_analyzer::validate_query(db.catalog(), &case.query).is_err() {
        return CaseOutcome::Agree(Vec::new());
    }

    let mut report = Vec::new();
    for p in pipelines() {
        let res = match run_leak_checked(&db, case, &p.opts, p.name) {
            Ok(res) => res,
            Err(leak) => return leak,
        };

        // License (d): the oracle raised a cardinality error. Nested
        // iteration must raise the same one; transforms evaluate a join
        // where the reference errors, so they are not comparable.
        if let Some(n) = oracle_card {
            if p.transform {
                report.push((p.name, SKIP, (0, 0)));
                continue;
            }
            match res {
                Err(nsql_db::DbError::Engine(EngineError::ScalarSubqueryCardinality(m)))
                    if m == n =>
                {
                    report.push((p.name, COMPARED, (0, 0)));
                }
                other => {
                    return CaseOutcome::Diverge(format!(
                        "[{}] oracle raised ScalarSubqueryCardinality({n}) but the pipeline \
                         returned {other:?}\n{sql}\ncase:\n{case:?}",
                        p.name
                    ))
                }
            }
            continue;
        }
        let oracle_rel = oracle_rel.as_ref().expect("no cardinality error");

        if p.transform {
            // License (a): ALL over an empty or NULL-containing set — the
            // MIN/MAX rewrite is not row-equivalent there.
            if notes.all_over_empty_or_null {
                report.push((p.name, SKIP, (0, 0)));
                continue;
            }
            // License (b): a NULL correlation key was read and the query
            // contains a COUNT-family construct (EXISTS / aggregate
            // subquery / non-=ANY quantifier): the outer-join grouping
            // family diverges.
            if notes.null_outer_ref && agg_or_exists {
                report.push((p.name, SKIP, (0, 0)));
                continue;
            }
            // License (c): an IN matched the same value in >1 inner row.
            // Join expansion changes multiplicities: compare as sets, or
            // skip outright when an aggregate would be inflated.
            if notes.dup_in_match && any_aggregate {
                report.push((p.name, SKIP, (0, 0)));
                continue;
            }
            let set_only = p.set_only || notes.dup_in_match;
            match res {
                // Outside the transformable class (NOT IN, = ALL, a block
                // in an operand position, …): a typed refusal is not
                // divergence. An executor `Unsupported` is — the
                // transformation let through a plan it cannot run.
                Err(nsql_db::DbError::Transform(_)) => report.push((p.name, SKIP, (0, 0))),
                // Join-form evaluation is eager: a type-incompatible
                // comparison that nested iteration short-circuits past
                // (simple predicates filter the row first) still evaluates
                // inside the merged join. Generated queries are well-typed
                // by construction, so this arm only fires on shrink
                // candidates whose select list was rewritten cross-class.
                Err(nsql_db::DbError::Engine(EngineError::Type(_)))
                | Err(nsql_db::DbError::Type(_)) => report.push((p.name, SKIP, (0, 0))),
                Err(other) => {
                    return CaseOutcome::Diverge(format!(
                        "[{}] oracle succeeded but the pipeline errored: {other}\n{sql}\n\
                         oracle:\n{oracle_rel}\ncase:\n{case:?}",
                        p.name
                    ))
                }
                Ok(out) => {
                    let agree = if set_only {
                        out.relation.same_set(oracle_rel)
                    } else {
                        out.relation.same_bag(oracle_rel)
                    };
                    if !agree {
                        return CaseOutcome::Diverge(format!(
                            "[{}] {} disagreement\n{sql}\noracle:\n{oracle_rel}\npipeline:\n{}\n\
                             explain: {:#?}\nnotes: {notes:?}\ncase:\n{case:?}",
                            p.name,
                            if set_only { "set" } else { "bag" },
                            out.relation,
                            out.explain,
                        ));
                    }
                    let lines = |prefix: &str| {
                        out.explain.iter().filter(|l| l.starts_with(prefix)).count() as u64
                    };
                    let keyed = keyed_multi_relation_temps(&db, case, &p.opts, &out.explain);
                    report.push((p.name, COMPARED, (keyed, lines("restrict+project "))));
                }
            }
        } else {
            // Nested iteration: bag-equal to the oracle, always.
            match res {
                Ok(out) => {
                    if !out.relation.same_bag(oracle_rel) {
                        return CaseOutcome::Diverge(format!(
                            "[{}] bag disagreement\n{sql}\noracle:\n{oracle_rel}\npipeline:\n{}\n\
                             case:\n{case:?}",
                            p.name, out.relation,
                        ));
                    }
                    report.push((p.name, COMPARED, (0, 0)));
                }
                Err(e) => {
                    return CaseOutcome::Diverge(format!(
                        "[{}] oracle succeeded but nested iteration errored: {e}\n{sql}\n\
                         case:\n{case:?}",
                        p.name
                    ))
                }
            }
        }
    }
    CaseOutcome::Agree(report)
}

/// How many temporaries over several relations — their logical plan joins
/// without a key, as an inner block other blocks were merged into arrives —
/// the pipeline materialized through a keyed join: a join line with an
/// equality key (or an index probe) between the temporary's first log line
/// and its `materialize` line.
fn keyed_multi_relation_temps(
    db: &Database,
    case: &DiffCase,
    opts: &QueryOptions,
    explain: &[String],
) -> u64 {
    fn joins_without_key(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::Scan { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => joins_without_key(input),
            LogicalPlan::Join { left, right, on, .. } => {
                on.is_empty() || joins_without_key(left) || joins_without_key(right)
            }
        }
    }
    let Ok(plan) = nsql_core::transform_query(db.catalog(), &case.query, &opts.unnest) else {
        return 0;
    };
    let keyed = |l: &str| {
        (l.contains(" join (") && !l.contains(" join (0 ")) || l.starts_with("index nested-loop join")
    };
    // The executor's log follows the canonical query: one run of lines per
    // temporary, each closed by its `materialize` line.
    let log: Vec<&String> =
        explain.iter().skip_while(|l| !l.starts_with("canonical: ")).skip(1).collect();
    let per_temp = log.split(|l| l.starts_with("materialize "));
    let through_keys = plan.temps.iter().zip(per_temp).filter(|(temp, lines)| {
        joins_without_key(&temp.plan) && lines.iter().any(|l| keyed(l))
    });
    through_keys.count() as u64
}

// ------------------------------------------- the cache-transparency checker

/// Cache transparency under interleaved DML: every generated query runs on
/// a cache-off database and (twice — once to populate, once to hit) on a
/// cache-on database, with deterministic random INSERTs into every table
/// between rounds. The cache-on runs must be **bit-identical** to the
/// cache-off run in both rows and counted page I/O, and the cache-off run
/// must agree with the oracle under the standard license policy — so a
/// stale cache entry surviving the inserts shows up as a three-way
/// divergence, not a silent wrong answer.
pub fn check_cache_dml_case(case: &DiffCase) -> CaseOutcome {
    let sql = nsql_sql::print_query(&case.query);
    let mut tables: Vec<(String, Relation)> = case.tables.clone();

    let mut db_off = Database::with_storage(8, 256);
    let mut db_on = Database::with_storage(8, 256);
    for (name, rel) in &tables {
        for db in [&mut db_off, &mut db_on] {
            db.catalog_mut().load_table(name, rel).expect("unique generated table names");
            db.catalog_mut().create_index(name, "K").expect("K column exists");
        }
    }
    if nsql_analyzer::validate_query(db_off.catalog(), &case.query).is_err() {
        return CaseOutcome::Agree(Vec::new());
    }
    let agg_or_exists = has_agg_or_exists_subquery(&case.query);
    let any_aggregate = has_any_aggregate(&case.query);

    // The DML stream is seeded from the query text (FNV-1a), so a replayed
    // or shrunk case interleaves exactly the same inserts.
    let mut seed = 0xcbf29ce484222325u64;
    for b in sql.bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x100000001b3);
    }
    let mut rng = Rng::from_seed(seed);

    let base = |strategy: Strategy| QueryOptions {
        strategy,
        cold_start: true,
        threads: 1,
        exec_mode: ExecMode::Row,
        ..Default::default()
    };
    let variants = [
        ("ni-cache", base(Strategy::NestedIteration), false),
        ("tr-cache", base(Strategy::Transform), true),
    ];

    let mut report = Vec::new();
    for round in 0..2 {
        if round > 0 {
            // Interleaved DML: one or two fresh rows into every table, the
            // same rows on both databases and in the oracle's image. Every
            // cache entry touching these tables must now miss.
            for (name, rel) in &mut tables {
                let n = rng.gen_range(1usize..3);
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(Tuple::new(
                        rel.schema().columns().iter().map(|c| gen_value(&mut rng, c.ty)).collect(),
                    ));
                }
                db_off.catalog_mut().insert(name, rows.clone()).expect("insert into off db");
                db_on.catalog_mut().insert(name, rows.clone()).expect("insert into on db");
                let mut tuples = rel.tuples().to_vec();
                tuples.extend(rows);
                *rel = Relation::new(rel.schema().clone(), tuples).expect("same schema");
            }
        }
        let mut oracle = Oracle::new();
        for (name, rel) in &tables {
            oracle.load(name.clone(), rel.clone());
        }
        let (oracle_rel, notes, oracle_card) = match oracle.eval_noted(&case.query) {
            Ok((rel, notes)) => (Some(rel), notes, None),
            Err(OracleError::ScalarSubqueryCardinality(n)) => (None, Notes::default(), Some(n)),
            Err(_) => return CaseOutcome::Agree(Vec::new()),
        };

        for (name, opts, is_transform) in &variants {
            let off_opts = QueryOptions { cache: CacheMode::Off, ..opts.clone() };
            let on_opts = QueryOptions { cache: CacheMode::On, ..opts.clone() };
            let off = match run_leak_checked(&db_off, case, &off_opts, name) {
                Ok(res) => res,
                Err(leak) => return leak,
            };
            // First cache-on run populates (miss), second one answers from
            // the cache (hit) — both must be indistinguishable from off.
            for label in ["populate", "hit"] {
                let on = match run_leak_checked(&db_on, case, &on_opts, name) {
                    Ok(res) => res,
                    Err(leak) => return leak,
                };
                match (&off, &on) {
                    (Ok(a), Ok(b)) => {
                        if !a.relation.same_bag(&b.relation) {
                            return CaseOutcome::Diverge(format!(
                                "[{name}] round {round} ({label}): cache-on rows diverge \
                                 from cache-off\n{sql}\noff:\n{}\non:\n{}\nexplain: {:#?}\n\
                                 case:\n{case:?}",
                                a.relation, b.relation, b.explain,
                            ));
                        }
                        if (a.io.reads, a.io.writes) != (b.io.reads, b.io.writes) {
                            return CaseOutcome::Diverge(format!(
                                "[{name}] round {round} ({label}): cache-on I/O {:?} diverges \
                                 from cache-off {:?}\n{sql}\nexplain: {:#?}\ncase:\n{case:?}",
                                (b.io.reads, b.io.writes),
                                (a.io.reads, a.io.writes),
                                b.explain,
                            ));
                        }
                    }
                    (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
                    (a, b) => {
                        return CaseOutcome::Diverge(format!(
                            "[{name}] round {round} ({label}): cache-off returned {a:?} but \
                             cache-on returned {b:?}\n{sql}\ncase:\n{case:?}",
                        ));
                    }
                }
            }

            // Oracle gate on the cache-off run, under the standard license
            // policy (see `check_case`).
            if let Some(n) = oracle_card {
                if *is_transform {
                    report.push((*name, SKIP, (0, 0)));
                    continue;
                }
                match &off {
                    Err(nsql_db::DbError::Engine(EngineError::ScalarSubqueryCardinality(m)))
                        if *m == n =>
                    {
                        report.push((*name, COMPARED, (0, 0)));
                    }
                    other => {
                        return CaseOutcome::Diverge(format!(
                            "[{name}] round {round}: oracle raised \
                             ScalarSubqueryCardinality({n}) but the pipeline returned \
                             {other:?}\n{sql}\ncase:\n{case:?}",
                        ))
                    }
                }
                continue;
            }
            let oracle_rel = oracle_rel.as_ref().expect("no cardinality error");
            if *is_transform
                && (notes.all_over_empty_or_null
                    || (notes.null_outer_ref && agg_or_exists)
                    || (notes.dup_in_match && any_aggregate))
            {
                report.push((*name, SKIP, (0, 0)));
                continue;
            }
            match &off {
                Err(nsql_db::DbError::Transform(_))
                | Err(nsql_db::DbError::Engine(EngineError::Type(_)))
                | Err(nsql_db::DbError::Type(_))
                    if *is_transform =>
                {
                    report.push((*name, SKIP, (0, 0)))
                }
                Err(e) => {
                    return CaseOutcome::Diverge(format!(
                        "[{name}] round {round}: oracle succeeded but the pipeline errored: \
                         {e}\n{sql}\noracle:\n{oracle_rel}\ncase:\n{case:?}",
                    ))
                }
                Ok(out) => {
                    let agree = if *is_transform && notes.dup_in_match {
                        out.relation.same_set(oracle_rel)
                    } else {
                        out.relation.same_bag(oracle_rel)
                    };
                    if !agree {
                        return CaseOutcome::Diverge(format!(
                            "[{name}] round {round}: disagreement with the oracle\n{sql}\n\
                             oracle:\n{oracle_rel}\npipeline:\n{}\nnotes: {notes:?}\n\
                             case:\n{case:?}",
                            out.relation,
                        ));
                    }
                    report.push((*name, COMPARED, (0, 0)));
                }
            }
        }
    }
    CaseOutcome::Agree(report)
}

/// Run `cases` random DML-interleaved cache-transparency cases (see
/// [`check_cache_dml_case`]) under the property runner. Returns
/// per-pipeline comparison totals.
pub fn run_cache_dml_property(name: &str, cases: u32) -> Vec<PipelineStats> {
    run_property_with(name, cases, check_cache_dml_case)
}

// ------------------------------------------------------------- the runner

/// Comparison totals for one pipeline across a sweep.
#[derive(Debug, Clone)]
pub struct PipelineStats {
    /// Pipeline name (see [`check_case`]).
    pub name: &'static str,
    /// Cases fully compared against the oracle.
    pub compared: u64,
    /// Cases skipped under a divergence license or unsupported-class
    /// refusal.
    pub skipped: u64,
    /// Temporaries over several relations materialized through a keyed join
    /// in the compared cases ([`check_case`] reads them off the plan and the
    /// EXPLAIN output); none under `tr-literal`, which runs the key-less
    /// join tree the algorithm emits.
    pub keyed_temp_joins: u64,
    /// Join inputs restricted and projected before the join
    /// (`restrict+project …` lines) in the same output; again none under
    /// `tr-literal`.
    pub restricted_inputs: u64,
}

/// Run `cases` random differential cases under the testkit property runner
/// (replayable seeds, greedy shrinking); panic with a shrunk counterexample
/// on the first divergence. Returns per-pipeline comparison totals.
pub fn run_diff_property(name: &str, cases: u32) -> Vec<PipelineStats> {
    run_property_with(name, cases, check_case)
}

/// Shared property-runner plumbing for [`run_diff_property`] and
/// [`run_cache_dml_property`]: generate, check, aggregate per-pipeline
/// totals, panic with the shrunk counterexample on divergence.
fn run_property_with(
    name: &str,
    cases: u32,
    check: impl Fn(&DiffCase) -> CaseOutcome,
) -> Vec<PipelineStats> {
    use std::cell::RefCell;
    let stats: RefCell<Vec<PipelineStats>> = RefCell::new(Vec::new());
    let cfg = nsql_testkit::Config::cases(cases);
    let failure = nsql_testkit::run_property(&cfg, name, gen_case, |case| {
        match check(case) {
            CaseOutcome::Agree(report) => {
                let mut stats = stats.borrow_mut();
                for (pname, compared, (keyed_temp_joins, restricted_inputs)) in report {
                    let entry = match stats.iter_mut().find(|s| s.name == pname) {
                        Some(e) => e,
                        None => {
                            stats.push(PipelineStats {
                                name: pname,
                                compared: 0,
                                skipped: 0,
                                keyed_temp_joins: 0,
                                restricted_inputs: 0,
                            });
                            stats.last_mut().expect("just pushed")
                        }
                    };
                    entry.keyed_temp_joins += keyed_temp_joins;
                    entry.restricted_inputs += restricted_inputs;
                    if compared {
                        entry.compared += 1;
                    } else {
                        entry.skipped += 1;
                    }
                }
                Ok(())
            }
            CaseOutcome::Diverge(msg) => Err(msg),
        }
    });
    if let Some(f) = failure {
        panic!("{}", f.render());
    }
    stats.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_well_formed_and_resolvable() {
        let mut rng = Rng::from_seed(7);
        for _ in 0..200 {
            let case = gen_case(&mut rng);
            let mut db = Database::with_storage(8, 256);
            for (name, rel) in &case.tables {
                db.catalog_mut().load_table(name, rel).unwrap();
            }
            // Every generated query must pass semantic analysis: the
            // grammar is schema-aware by construction.
            nsql_analyzer::validate_query(db.catalog(), &case.query)
                .unwrap_or_else(|e| panic!("{e}\n{:?}", case));
        }
    }

    /// Does some block of `q` hold a scalar subquery where a column usually
    /// stands: the operand of IS NULL, of IN (list), the left of ANY / ALL?
    fn has_operand_position_subquery(q: &QueryBlock) -> bool {
        fn in_pred(p: &Predicate) -> bool {
            match p {
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(in_pred),
                Predicate::Not(p) => in_pred(p),
                Predicate::IsNull { operand, .. }
                | Predicate::In { operand, rhs: InRhs::List(_), .. }
                | Predicate::Quantified { left: operand, .. } => operand.as_subquery().is_some(),
                _ => false,
            }
        }
        let mut blocks = Vec::new();
        walk_blocks(q, &mut blocks);
        blocks.iter().any(|b| b.where_clause.as_ref().is_some_and(in_pred))
    }

    /// `scripts/verify.sh` replays this seed as case 0 of its `diff_prop`
    /// smoke so the operand-position forms are in every gate run.
    #[test]
    fn verify_smoke_seed_generates_an_operand_position_subquery() {
        let case = gen_case(&mut Rng::from_seed(0x9e4a100));
        assert!(has_operand_position_subquery(&case.query), "{case:?}");
        // Not vacuous: the oracle answers it and the pipelines are compared.
        assert!(matches!(check_case(&case), CaseOutcome::Agree(report) if !report.is_empty()));
    }

    #[test]
    fn generator_reaches_the_interesting_regions() {
        let mut rng = Rng::from_seed(11);
        let (mut nested, mut nulls, mut dups, mut grouped, mut operand) = (0, 0, 0, 0, 0);
        for _ in 0..300 {
            let case = gen_case(&mut rng);
            let mut blocks = Vec::new();
            walk_blocks(&case.query, &mut blocks);
            if blocks.len() > 1 {
                nested += 1;
            }
            if has_operand_position_subquery(&case.query) {
                operand += 1;
            }
            if !case.query.group_by.is_empty() {
                grouped += 1;
            }
            for (_, rel) in &case.tables {
                if rel.tuples().iter().any(|t| t.values().iter().any(Value::is_null)) {
                    nulls += 1;
                }
                let c = rel.canonicalized();
                if c.tuples().windows(2).any(|w| w[0] == w[1]) {
                    dups += 1;
                }
            }
        }
        assert!(nested > 100, "nested queries must dominate: {nested}");
        assert!(nulls > 100, "NULL biasing must bite: {nulls}");
        assert!(dups > 100, "duplicate-row biasing must bite: {dups}");
        assert!(grouped > 20, "GROUP BY outer blocks must occur: {grouped}");
        assert!(operand > 5, "operand-position subqueries must occur: {operand}");
    }

    #[test]
    fn shrinking_removes_rows_and_simplifies_queries() {
        let mut rng = Rng::from_seed(3);
        let case = gen_case(&mut rng);
        let total_rows: usize = case.tables.iter().map(|(_, r)| r.len()).sum();
        let candidates = case.shrink();
        let row_removals = candidates
            .iter()
            .filter(|c| c.tables.iter().map(|(_, r)| r.len()).sum::<usize>() + 1 == total_rows)
            .count();
        assert_eq!(row_removals, total_rows, "one candidate per removable row");
        assert!(
            candidates.len() > row_removals,
            "query-structure shrinks must follow row removals"
        );
    }
}
