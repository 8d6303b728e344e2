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
//! path runs), once more as the paper's literal plans, the forced hash join
//! once more on a three-page pool of tiny pages where it Grace-partitions,
//! and the duplicate-collapsing `preserve_duplicates` variant — and
//! compares results at
//! exactly the strength the paper promises:
//!
//! * nested iteration must be **bag-equal** to the oracle, always — with
//!   its memo of one verdict per distinct binding on (the `ni-serial`
//!   pipeline runs the default options);
//! * a top block with ORDER BY (over its column items, some of them
//!   aliased, beside literal items) must also list its rows in the oracle's
//!   order of the sort columns, on every pipeline compared as a bag;
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
//! [`check_insert_case`] holds the two default-path pipelines to the same
//! policy once more after random INSERTs into every table.
//!
//! Every case is replayable through the testkit seed machinery
//! (`NSQL_TEST_SEED`) and shrinks greedily: table rows are removed first,
//! then the query is structurally simplified.

use nsql_db::{Database, IndexUse, JoinPolicy, QueryOptions, QueryOutcome, Strategy};
use nsql_core::{LogicalPlan, UnnestOptions};
use nsql_engine::EngineError;
use nsql_oracle::{Notes, Oracle, OracleError};
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, OrderKey, Predicate, Quantifier,
    QueryBlock, ScalarExpr, SelectItem, SortDir, TableRef,
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
        let mut select = match mode {
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

        let order_by = match mode {
            BlockMode::Top => self.dress_top(rng, &locals, &mut select),
            _ => Vec::new(),
        };
        QueryBlock { distinct, select, from, where_clause, group_by, order_by }
    }

    /// The top block's SELECT phase dressed, after everything else is
    /// drawn: now and then a literal item (in a plain, a grouped or a
    /// global-aggregate list alike), aliases — fresh, or a column's name —
    /// and an ORDER BY over its column items, qualified or bare (when the
    /// name is unique in the scope), ASC or DESC.
    fn dress_top(
        &self,
        rng: &mut Rng,
        locals: &[ScopeCol],
        select: &mut Vec<SelectItem>,
    ) -> Vec<OrderKey> {
        if rng.gen_bool(0.2) {
            let class = if rng.gen_bool(0.3) { Class::Str } else { Class::Num };
            let at = rng.gen_range(0..select.len() + 1);
            select.insert(at, SelectItem::new(ScalarExpr::Literal(self.lit(rng, class))));
        }
        for (i, item) in select.iter_mut().enumerate() {
            if rng.gen_bool(0.15) {
                let name = if rng.gen_bool(0.3) { "K".to_string() } else { format!("X{i}") };
                item.alias = Some(name);
            }
        }
        let mut order_by = Vec::new();
        if rng.gen_bool(0.3) {
            for item in select.iter() {
                let ScalarExpr::Column(c) = &item.expr else { continue };
                if rng.gen_bool(0.3) {
                    continue;
                }
                let unique = locals.iter().filter(|l| l.name == c.column).count() == 1;
                let column =
                    if unique && rng.gen_bool(0.4) { ColumnRef::bare(&c.column) } else { c.clone() };
                let dir = if rng.gen_bool(0.5) { SortDir::Asc } else { SortDir::Desc };
                order_by.push(OrderKey { column, dir });
            }
            rng.shuffle(&mut order_by);
        }
        order_by
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

/// The output columns the top block's ORDER BY sorts on, by the oracle's
/// rule: the one output column of the key's name (output columns are
/// unqualified, so a qualified match adds nothing), else the first select
/// item referencing the same column. `None`: a key names no column.
fn order_columns(q: &QueryBlock) -> Option<Vec<usize>> {
    let name = |item: &SelectItem| match (&item.alias, &item.expr) {
        (Some(alias), _) => alias.clone(),
        (None, ScalarExpr::Column(c)) => c.column.clone(),
        (None, ScalarExpr::Literal(_)) => "LITERAL".to_string(),
        (None, ScalarExpr::Aggregate(f, _)) => f.name().to_string(),
    };
    let names: Vec<String> = q.select.iter().map(name).collect();
    let column = |k: &OrderKey| {
        let c = &k.column;
        let named: Vec<usize> =
            (0..names.len()).filter(|&i| names[i].eq_ignore_ascii_case(&c.column)).collect();
        if let [i] = named[..] {
            return Some(i);
        }
        q.select.iter().position(|item| match &item.expr {
            ScalarExpr::Column(s) => s.column == c.column && (c.table.is_none() || s.table == c.table),
            _ => false,
        })
    };
    q.order_by.iter().map(column).collect()
}

/// Whether `got` lies in another order than `want` on the top block's
/// ORDER BY columns (rows bag-equal already; ties may lie either way).
fn out_of_order(q: &QueryBlock, got: &Relation, want: &Relation) -> bool {
    let Some(cols) = order_columns(q).filter(|cols| !cols.is_empty()) else { return false };
    let keys = |r: &Relation| r.tuples().iter().map(|t| t.project(&cols)).collect::<Vec<_>>();
    keys(got) != keys(want)
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
    /// a divergence license / unsupported-class refusal (`false`), and what
    /// its EXPLAIN output shows of the plan shapes it ran.
    Agree(Vec<(&'static str, bool, PlanCounts)>),
    /// A pipeline diverged from the oracle — the property failure.
    Diverge(String),
}

/// What one compared statement's EXPLAIN output shows of its plan shapes
/// (all zero for a skipped one).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCounts {
    /// Temporaries over several relations materialized through a keyed join.
    pub keyed_temp_joins: u64,
    /// `restrict+project …` lines: join inputs restricted before the join.
    pub restricted_inputs: u64,
    /// Hash joins whose build side did not fit `B − 2` pages and was
    /// Grace-partitioned first.
    pub partitioned_joins: u64,
}

struct Pipeline {
    name: &'static str,
    opts: QueryOptions,
    transform: bool,
    set_only: bool,
}

/// The buffer pool and page size of the database a case's tables are
/// loaded into.
const POOL_PAGES: usize = 8;
const PAGE_SIZE: usize = 256;
/// The pool of the second database `tr-hash-grace` runs on: three pages,
/// one of them hash table, so every build side over one page is
/// partitioned; and pages of a row or two (a generated table holds fewer
/// than eight), so that build sides are over one page.
const GRACE_POOL_PAGES: usize = 3;
const GRACE_PAGE_SIZE: usize = 32;

/// The pipelines under differential test. Nested iteration runs once; the
/// transformation runs under every join policy and in the duplicate-collapsing
/// `preserve_duplicates` mode. `tr-hash-grace` ([`check_case`] runs it on
/// a database of its own) forces the hash join through a three-page pool.
fn pipelines() -> Vec<Pipeline> {
    let ni = QueryOptions {
        strategy: Strategy::NestedIteration,
        cold_start: true,
        ..Default::default()
    };
    let tr = |policy: JoinPolicy| QueryOptions {
        strategy: Strategy::Transform,
        join_policy: policy,
        cold_start: true,
        ..Default::default()
    };
    vec![
        Pipeline { name: "ni-serial", opts: ni, transform: false, set_only: false },
        Pipeline {
            name: "tr-cost-serial",
            opts: tr(JoinPolicy::CostBased),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-nestedloop",
            opts: tr(JoinPolicy::ForceNestedLoop),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-merge",
            opts: tr(JoinPolicy::ForceMergeJoin),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-hash",
            opts: tr(JoinPolicy::ForceHashJoin),
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-distinct",
            opts: QueryOptions {
                unnest: UnnestOptions { preserve_duplicates: true, ..Default::default() },
                ..tr(JoinPolicy::CostBased)
            },
            transform: true,
            set_only: true,
        },
        // Index-backed variants: every generated table carries a B+tree on
        // `K` (built by `check_case`), so forcing the index path on and off
        // diffs index-scan plans against full-scan plans against the oracle.
        Pipeline {
            name: "tr-ix-prefer",
            opts: QueryOptions { index_use: IndexUse::Prefer, ..tr(JoinPolicy::CostBased) },
            transform: true,
            set_only: false,
        },
        Pipeline {
            name: "tr-ix-never",
            opts: QueryOptions { index_use: IndexUse::Never, ..tr(JoinPolicy::CostBased) },
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
                ..tr(JoinPolicy::CostBased)
            },
            transform: true,
            set_only: false,
        },
        // `tr-hash` again where its build sides do not fit: on the
        // three-page pool, Grace partitioning.
        Pipeline {
            name: "tr-hash-grace",
            opts: tr(JoinPolicy::ForceHashJoin),
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
    let (grace, rest): (Vec<Pipeline>, Vec<Pipeline>) =
        pipelines().into_iter().partition(|p| p.name == "tr-hash-grace");
    let mut report = match check_on(&database_of(case, POOL_PAGES, PAGE_SIZE), case, &rest) {
        CaseOutcome::Agree(report) => report,
        diverge => return diverge,
    };
    match check_on(&database_of(case, GRACE_POOL_PAGES, GRACE_PAGE_SIZE), case, &grace) {
        CaseOutcome::Agree(more) => report.extend(more),
        diverge => return diverge,
    }
    CaseOutcome::Agree(report)
}

/// A fresh database of `pool_pages` buffer pages of `page_size` bytes
/// holding the case's tables, each with a B+tree on its Int `K` column, so
/// the `tr-ix-*` pipelines exercise index restriction and back-joins.
fn database_of(case: &DiffCase, pool_pages: usize, page_size: usize) -> Database {
    let mut db = Database::with_storage(pool_pages, page_size);
    for (name, rel) in &case.tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
        db.catalog_mut().create_index(name, "K").expect("K column exists");
    }
    db
}

/// [`check_case`] on `db`, which holds `case.tables`, for `pipelines` only.
fn check_on(db: &Database, case: &DiffCase, pipelines: &[Pipeline]) -> CaseOutcome {
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

    // The analyzer is (deliberately) stricter than the oracle in places —
    // e.g. ambiguity rules. A query it refuses runs on no pipeline, so
    // there is nothing to compare; generated queries always validate
    // (checked by unit test), only shrink candidates can land here.
    if nsql_analyzer::validate_query(db.catalog(), &case.query).is_err() {
        return CaseOutcome::Agree(Vec::new());
    }

    let mut report = Vec::new();
    for p in pipelines {
        let res = match run_leak_checked(db, case, &p.opts, p.name) {
            Ok(res) => res,
            Err(leak) => return leak,
        };

        // License (d): the oracle raised a cardinality error. Nested
        // iteration must raise the same one; transforms evaluate a join
        // where the reference errors, so they are not comparable.
        if let Some(n) = oracle_card {
            if p.transform {
                report.push((p.name, SKIP, PlanCounts::default()));
                continue;
            }
            match res {
                Err(nsql_db::DbError::Engine(EngineError::ScalarSubqueryCardinality(m)))
                    if m == n =>
                {
                    report.push((p.name, COMPARED, PlanCounts::default()));
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
                report.push((p.name, SKIP, PlanCounts::default()));
                continue;
            }
            // License (b): a NULL correlation key was read and the query
            // contains a COUNT-family construct (EXISTS / aggregate
            // subquery / non-=ANY quantifier): the outer-join grouping
            // family diverges.
            if notes.null_outer_ref && agg_or_exists {
                report.push((p.name, SKIP, PlanCounts::default()));
                continue;
            }
            // License (c): an IN matched the same value in >1 inner row.
            // Join expansion changes multiplicities: compare as sets, or
            // skip outright when an aggregate would be inflated.
            if notes.dup_in_match && any_aggregate {
                report.push((p.name, SKIP, PlanCounts::default()));
                continue;
            }
            let set_only = p.set_only || notes.dup_in_match;
            match res {
                // Outside the transformable class (NOT IN, = ALL, a block
                // in an operand position, …): a typed refusal is not
                // divergence. An executor `Unsupported` is — the
                // transformation let through a plan it cannot run.
                Err(nsql_db::DbError::Transform(_)) => {
                    report.push((p.name, SKIP, PlanCounts::default()))
                }
                // Join-form evaluation is eager: a type-incompatible
                // comparison that nested iteration short-circuits past
                // (simple predicates filter the row first) still evaluates
                // inside the merged join. Generated queries are well-typed
                // by construction, so this arm only fires on shrink
                // candidates whose select list was rewritten cross-class.
                Err(nsql_db::DbError::Engine(EngineError::Type(_)))
                | Err(nsql_db::DbError::Type(_)) => {
                    report.push((p.name, SKIP, PlanCounts::default()))
                }
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
                    let ordered = set_only || !out_of_order(&case.query, &out.relation, oracle_rel);
                    if !agree || !ordered {
                        return CaseOutcome::Diverge(format!(
                            "[{}] {} disagreement\n{sql}\noracle:\n{oracle_rel}\npipeline:\n{}\n\
                             explain: {:#?}\nnotes: {notes:?}\ncase:\n{case:?}",
                            p.name,
                            match (agree, set_only) {
                                (false, true) => "set",
                                (false, false) => "bag",
                                (true, _) => "ORDER BY",
                            },
                            out.relation,
                            out.explain,
                        ));
                    }
                    let lines = |prefix: &str| {
                        out.explain.iter().filter(|l| l.starts_with(prefix)).count() as u64
                    };
                    let keyed_temp_joins =
                        keyed_multi_relation_temps(db, case, &p.opts, &out.explain);
                    let counts = PlanCounts {
                        keyed_temp_joins,
                        restricted_inputs: lines("restrict+project "),
                        partitioned_joins: out
                            .explain
                            .iter()
                            .filter(|l| l.starts_with("hash join") && l.ends_with(" partitions"))
                            .count() as u64,
                    };
                    report.push((p.name, COMPARED, counts));
                }
            }
        } else {
            // Nested iteration: bag-equal to the oracle, always.
            match res {
                Ok(out) => {
                    if !out.relation.same_bag(oracle_rel)
                        || out_of_order(&case.query, &out.relation, oracle_rel)
                    {
                        return CaseOutcome::Diverge(format!(
                            "[{}] bag or ORDER BY disagreement\n{sql}\noracle:\n{oracle_rel}\npipeline:\n{}\n\
                             case:\n{case:?}",
                            p.name, out.relation,
                        ));
                    }
                    report.push((p.name, COMPARED, PlanCounts::default()));
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

// ------------------------------------------------ the interleaved INSERTs

/// The case before and after INSERTs: the two default-path pipelines
/// (`ni-serial`, `tr-cost-serial`) are checked on the loaded database,
/// then again after one or two random rows went into every table through
/// `Catalog::insert` — which writes the heap file's last page and each
/// index's leaves again and leaves the distinct counts stale — against the
/// oracle over the grown tables.
pub fn check_insert_case(case: &DiffCase) -> CaseOutcome {
    let mut db = database_of(case, POOL_PAGES, PAGE_SIZE);
    let default_path: Vec<Pipeline> = pipelines()
        .into_iter()
        .filter(|p| matches!(p.name, "ni-serial" | "tr-cost-serial"))
        .collect();
    let mut report = match check_on(&db, case, &default_path) {
        CaseOutcome::Agree(report) => report,
        diverge => return diverge,
    };
    // Seeded from the query text (FNV-1a), so a replayed or shrunk case
    // inserts exactly the same rows.
    let mut seed = 0xcbf29ce484222325u64;
    for b in nsql_sql::print_query(&case.query).bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x100000001b3);
    }
    let mut rng = Rng::from_seed(seed);
    let mut grown = case.clone();
    for (name, rel) in &mut grown.tables {
        let rows: Vec<Tuple> = (0..rng.gen_range(1usize..3))
            .map(|_| {
                Tuple::new(rel.schema().columns().iter().map(|c| gen_value(&mut rng, c.ty)).collect())
            })
            .collect();
        db.catalog_mut().insert(name, rows.clone()).expect("generated rows fit their table");
        let tuples = rel.tuples().iter().cloned().chain(rows).collect();
        *rel = Relation::new(rel.schema().clone(), tuples).expect("same schema");
    }
    match check_on(&db, &grown, &default_path) {
        CaseOutcome::Agree(after) => {
            report.extend(after);
            CaseOutcome::Agree(report)
        }
        CaseOutcome::Diverge(msg) => CaseOutcome::Diverge(format!("after the INSERTs: {msg}")),
    }
}

/// Run `cases` random cases of [`check_insert_case`] under the property
/// runner. Returns per-pipeline comparison totals.
pub fn run_insert_property(name: &str, cases: u32) -> Vec<PipelineStats> {
    run_property_with(name, cases, check_insert_case)
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
    /// Grace-partitioned hash joins in the same output.
    pub partitioned_joins: u64,
}

/// Run `cases` random differential cases under the testkit property runner
/// (replayable seeds, greedy shrinking); panic with a shrunk counterexample
/// on the first divergence. Returns per-pipeline comparison totals.
pub fn run_diff_property(name: &str, cases: u32) -> Vec<PipelineStats> {
    run_property_with(name, cases, check_case)
}

/// Shared property-runner plumbing for [`run_diff_property`] and
/// [`run_insert_property`]: generate, check, aggregate per-pipeline
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
                for (pname, compared, counts) in report {
                    let entry = match stats.iter_mut().find(|s| s.name == pname) {
                        Some(e) => e,
                        None => {
                            stats.push(PipelineStats {
                                name: pname,
                                compared: 0,
                                skipped: 0,
                                keyed_temp_joins: 0,
                                restricted_inputs: 0,
                                partitioned_joins: 0,
                            });
                            stats.last_mut().expect("just pushed")
                        }
                    };
                    entry.keyed_temp_joins += counts.keyed_temp_joins;
                    entry.restricted_inputs += counts.restricted_inputs;
                    entry.partitioned_joins += counts.partitioned_joins;
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
        let (mut aliased, mut ordered, mut bare_keys) = (0, 0, 0);
        // Literal items in a plain, a grouped and a global-aggregate list.
        let mut literals = [0; 3];
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
            let q = &case.query;
            if !q.group_by.is_empty() {
                grouped += 1;
            }
            aliased += q.select.iter().any(|item| item.alias.is_some()) as usize;
            ordered += !q.order_by.is_empty() as usize;
            bare_keys += q.order_by.iter().any(|k| k.column.table.is_none()) as usize;
            if q.select.iter().any(|item| matches!(item.expr, ScalarExpr::Literal(_))) {
                let shape = match (q.group_by.is_empty(), q.has_aggregate_select()) {
                    (true, false) => 0,
                    (false, _) => 1,
                    (true, true) => 2,
                };
                literals[shape] += 1;
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
        assert!(aliased > 20, "select aliases must occur: {aliased}");
        assert!(ordered > 40 && bare_keys > 5, "ORDER BY must occur: {ordered}, {bare_keys} bare");
        assert!(literals.iter().all(|&n| n > 3), "literal items in every list: {literals:?}");
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
