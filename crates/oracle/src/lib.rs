#![deny(warnings)]
#![warn(missing_docs)]

//! A naive reference evaluator for the paper's SQL dialect.
//!
//! This crate is the *oracle* of the differential-testing harness
//! (`tests/diff_prop.rs`): a deliberately slow, deliberately obvious
//! tuple-at-a-time interpreter that evaluates the **original nested AST**
//! directly against in-memory [`Relation`]s. It shares no code with the
//! execution engine — no buffer pool, no operators, no transformations —
//! so a disagreement between the two is evidence of a bug in one of them.
//!
//! Semantics implemented straight from the paper's Section 2 definitions
//! and standard SQL:
//!
//! * **Three-valued logic**: comparisons against `NULL` are UNKNOWN;
//!   `WHERE` keeps a row only when its predicate is TRUE.
//! * **Correlated nesting of arbitrary depth**: inner blocks see the
//!   enclosing blocks' current bindings, nearest scope first.
//! * **All predicate forms**: `IN` (list and subquery), `EXISTS` /
//!   `NOT EXISTS`, `op ANY` / `op ALL`, scalar-subquery comparisons, and
//!   `IS [NOT] NULL`.
//! * **Aggregates** with SQL's empty-set rule: `COUNT(∅) = 0`, all other
//!   aggregates give `NULL` — the root of the paper's COUNT bug.
//! * **Exact float sums**: `SUM`/`AVG` over floats are computed as the
//!   correctly rounded sum of the exact real-number total (a Shewchuk-style
//!   non-overlapping-partials expansion), the same summation *spec* the
//!   engine implements independently — so oracle and engine float results
//!   are bit-identical, never merely ULP-close.
//!
//! What the oracle deliberately does **not** model: cost, I/O accounting,
//! buffering, sort orders, or any of the paper's transformations.
//!
//! Alongside the result, evaluation collects [`Notes`] — flags marking the
//! *documented divergence licenses* under which the paper's transformations
//! are allowed to disagree with nested-iteration semantics (see DESIGN.md
//! "Oracle semantics"). The differential harness uses them to decide which
//! equality to assert per pipeline.

use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, OrderKey, Predicate, Quantifier,
    QueryBlock, ScalarExpr, SelectItem, SortDir,
};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, TypeError, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Failures during oracle evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// Value-level failure (incomparable types, unknown column, …).
    Type(TypeError),
    /// FROM references a table the oracle does not know.
    UnknownTable(String),
    /// Two FROM entries share an effective name.
    DuplicateTableName(String),
    /// A scalar subquery produced more than one row.
    ScalarSubqueryCardinality(usize),
    /// Integer `SUM` overflowed i64.
    SumOverflow,
    /// A query shape outside the supported dialect.
    Unsupported(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Type(e) => write!(f, "{e}"),
            OracleError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            OracleError::DuplicateTableName(t) => {
                write!(f, "duplicate table name/alias in FROM: {t}")
            }
            OracleError::ScalarSubqueryCardinality(n) => {
                write!(f, "scalar subquery returned {n} rows (expected at most 1)")
            }
            OracleError::SumOverflow => write!(f, "integer SUM overflowed i64"),
            OracleError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<TypeError> for OracleError {
    fn from(e: TypeError) -> Self {
        OracleError::Type(e)
    }
}

/// Oracle result type.
pub type Result<T> = std::result::Result<T, OracleError>;

/// Divergence licenses observed while evaluating a query against concrete
/// data. Each flag marks a *documented* reason the paper's transformations
/// may legitimately disagree with nested-iteration semantics on this
/// query/data pair; the differential harness weakens or skips the
/// corresponding comparison (see DESIGN.md "Oracle semantics").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Notes {
    /// An `ALL`-quantified comparison ran over an empty inner set or one
    /// containing NULL. The Section-8 rewrite (`x < ALL` → `x < MIN(…)`)
    /// is "logically (but not necessarily semantically) equivalent" there:
    /// `x < ALL (∅)` is TRUE while `x < NULL` is UNKNOWN, and MIN/MAX skip
    /// NULLs that make the direct form UNKNOWN. Not noted for `!= ALL`,
    /// which becomes `NOT IN`: a null-aware anti-join, exact, or refused.
    pub all_over_empty_or_null: bool,
    /// An inner block read a NULL value from an enclosing block's binding.
    /// When the query also nests an aggregate or EXISTS, NEST-JA2's final
    /// equality join can never match the NULL key while nested iteration
    /// gives the tuple an (empty-group) COUNT of 0 — the documented NULL
    /// outer-join-key divergence.
    pub null_outer_ref: bool,
    /// A positive `IN`-subquery (or `= ANY`) membership test matched the
    /// same outer value more than once — the NEST-N-J duplicates condition:
    /// Kim's join form then duplicates the outer tuple, so only set-level
    /// agreement (or bag agreement after explicit deduplication) is
    /// promised. `NOT IN` is an anti-join, which emits an outer tuple at
    /// most once.
    pub dup_in_match: bool,
}

impl Notes {
    /// Fold another evaluation's licenses into this one.
    pub fn merge(&mut self, other: Notes) {
        self.all_over_empty_or_null |= other.all_over_empty_or_null;
        self.null_outer_ref |= other.null_outer_ref;
        self.dup_in_match |= other.dup_in_match;
    }
}

// --------------------------------------------------------------- exact sums

/// Exact float accumulator: a non-overlapping expansion of partials
/// maintained with the Neumaier/Knuth two-sum error-free transform
/// (Shewchuk's grow-expansion, as used by CPython's `math.fsum`). The
/// partials represent the *exact* real sum of everything added, so
/// [`ExactSum::value`] — the correctly rounded double nearest that exact
/// sum — does not depend on insertion order or grouping.
#[derive(Debug, Clone, Default)]
struct ExactSum {
    partials: Vec<f64>,
    /// Plain sum of any non-finite inputs; ±∞/NaN dominate the result and
    /// combine associatively among themselves.
    non_finite: Option<f64>,
}

impl ExactSum {
    fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.non_finite = Some(self.non_finite.unwrap_or(0.0) + x);
            return;
        }
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// Add an i64 exactly by splitting it into two halves that each convert
    /// to f64 without rounding.
    fn add_i64(&mut self, v: i64) {
        let hi = (v >> 32) as f64 * 4_294_967_296.0; // exact: |v>>32| ≤ 2^31
        let lo = (v & 0xFFFF_FFFF) as f64; // exact: < 2^32
        self.add(hi);
        self.add(lo);
    }

    /// The correctly rounded double value of the exact sum, with CPython
    /// fsum's half-ulp correction for exact ties.
    fn value(&self) -> f64 {
        if let Some(nf) = self.non_finite {
            return nf + self.partials.iter().sum::<f64>();
        }
        let n = self.partials.len();
        if n == 0 {
            return 0.0;
        }
        let mut i = n - 1;
        let mut hi = self.partials[i];
        let mut lo = 0.0;
        while i > 0 {
            i -= 1;
            let x = hi;
            let y = self.partials[i];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // If the rounding of (hi, lo) ended exactly halfway and the next
        // partial pulls further in lo's direction, round away from hi.
        if i > 0
            && ((lo < 0.0 && self.partials[i - 1] < 0.0)
                || (lo > 0.0 && self.partials[i - 1] > 0.0))
        {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

// ------------------------------------------------------------- aggregation

/// One aggregate accumulator, mirroring SQL semantics independently of the
/// engine: NULLs are skipped, `COUNT(∅) = 0`, other aggregates over the
/// empty set are `NULL`, integer sums are exact (error on overflow), float
/// sums are correctly rounded exact sums.
struct Accumulator {
    func: AggFunc,
    count: i64,
    int_sum: i64,
    floats: ExactSum,
    saw_float: bool,
    extremum: Value,
}

impl Accumulator {
    fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            count: 0,
            int_sum: 0,
            floats: ExactSum::default(),
            saw_float: false,
            extremum: Value::Null,
        }
    }

    fn accumulate(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.int_sum =
                        self.int_sum.checked_add(*i).ok_or(OracleError::SumOverflow)?;
                }
                Value::Float(x) => {
                    self.saw_float = true;
                    self.floats.add(*x);
                }
                other => {
                    return Err(TypeError::BadOperand(format!(
                        "{} over non-numeric value {other}",
                        self.func.name()
                    ))
                    .into())
                }
            },
            AggFunc::Max => {
                if self.extremum.is_null()
                    || v.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Greater)
                {
                    self.extremum = v.clone();
                }
            }
            AggFunc::Min => {
                if self.extremum.is_null()
                    || v.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Less)
                {
                    self.extremum = v.clone();
                }
            }
        }
        Ok(())
    }

    /// `COUNT(*)`: every row counts, NULLs included.
    fn accumulate_row(&mut self) {
        self.count += 1;
    }

    fn exact_total(&self) -> f64 {
        let mut s = self.floats.clone();
        s.add_i64(self.int_sum);
        s.value()
    }

    fn finish(&self) -> Value {
        if self.count == 0 {
            return self.func.empty_value();
        }
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.saw_float {
                    Value::Float(self.exact_total())
                } else {
                    Value::Int(self.int_sum)
                }
            }
            AggFunc::Avg => {
                let total = if self.saw_float {
                    self.exact_total()
                } else {
                    self.int_sum as f64
                };
                Value::Float(total / self.count as f64)
            }
            AggFunc::Max | AggFunc::Min => self.extremum.clone(),
        }
    }
}

// ------------------------------------------------------------------ oracle

/// The reference evaluator: a catalog of in-memory relations plus a
/// recursive interpreter over [`QueryBlock`]s.
#[derive(Default)]
pub struct Oracle {
    tables: BTreeMap<String, Relation>,
}

/// One enclosing binding: the block's joined FROM schema and the current
/// tuple bound to it.
struct Frame<'a> {
    schema: &'a Schema,
    tuple: &'a Tuple,
}

/// Scope chain, outermost first; lookups walk it innermost-first.
type Frames<'a> = [Frame<'a>];

impl Oracle {
    /// Empty oracle.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Register (or replace) a table.
    pub fn load(&mut self, name: impl Into<String>, rel: Relation) {
        self.tables.insert(name.into().to_ascii_uppercase(), rel);
    }

    /// Evaluate a query, discarding the divergence notes.
    pub fn eval(&self, q: &QueryBlock) -> Result<Relation> {
        Ok(self.eval_noted(q)?.0)
    }

    /// Evaluate a query, returning the result and the divergence licenses
    /// observed along the way.
    pub fn eval_noted(&self, q: &QueryBlock) -> Result<(Relation, Notes)> {
        let mut notes = Notes::default();
        let rel = self.eval_block(q, &[], &mut notes)?;
        Ok((rel, notes))
    }

    // ------------------------------------------------------------- blocks

    /// The joined, requalified schema of a block's FROM clause.
    fn local_schema(&self, q: &QueryBlock) -> Result<Schema> {
        if q.from.is_empty() {
            return Err(OracleError::Unsupported("query with empty FROM".into()));
        }
        let mut seen: Vec<String> = Vec::new();
        let mut schema = Schema::default();
        for tref in &q.from {
            let name = tref.effective_name().to_ascii_uppercase();
            if seen.contains(&name) {
                return Err(OracleError::DuplicateTableName(name));
            }
            seen.push(name);
            let rel = self
                .tables
                .get(&tref.table.to_ascii_uppercase())
                .ok_or_else(|| OracleError::UnknownTable(tref.table.clone()))?;
            schema = schema.join(&rel.schema().requalify(tref.effective_name()));
        }
        Ok(schema)
    }

    /// Every combination of FROM rows, first table outermost — the plain
    /// nested-loops enumeration of Section 2's evaluation semantics.
    /// Resolve every column ref syntactically inside `q` — including those
    /// in nested subqueries — against the walked blocks' local schemas
    /// first, then the enclosing `outer` bindings. A ref that binds to an
    /// outer frame whose value is NULL sets [`Notes::null_outer_ref`]. See
    /// the call site in [`Oracle::eval_block`] for why this must be a
    /// static scan rather than a runtime observation.
    fn scan_null_outer_refs(
        &self,
        q: &QueryBlock,
        local: &mut Vec<Schema>,
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) {
        if outer.is_empty() {
            return;
        }
        let Ok(schema) = self.local_schema(q) else { return };
        local.push(schema);
        for item in &q.select {
            match &item.expr {
                ScalarExpr::Column(c) | ScalarExpr::Aggregate(_, AggArg::Column(c)) => {
                    check_outer_ref(c, local, outer, notes);
                }
                _ => {}
            }
        }
        for c in &q.group_by {
            check_outer_ref(c, local, outer, notes);
        }
        if let Some(p) = &q.where_clause {
            self.scan_pred_refs(p, local, outer, notes);
        }
        local.pop();
    }

    fn scan_pred_refs(
        &self,
        p: &Predicate,
        local: &mut Vec<Schema>,
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) {
        let operand = |o: &Operand, local: &mut Vec<Schema>, notes: &mut Notes| match o {
            Operand::Column(c) => check_outer_ref(c, local, outer, notes),
            Operand::Literal(_) => {}
            Operand::Subquery(q) => self.scan_null_outer_refs(q, local, outer, notes),
        };
        match p {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    self.scan_pred_refs(p, local, outer, notes);
                }
            }
            Predicate::Not(p) => self.scan_pred_refs(p, local, outer, notes),
            Predicate::Compare { left, right, .. } => {
                operand(left, local, notes);
                operand(right, local, notes);
            }
            Predicate::In { operand: o, rhs, .. } => {
                operand(o, local, notes);
                if let InRhs::Subquery(q) = rhs {
                    self.scan_null_outer_refs(q, local, outer, notes);
                }
            }
            Predicate::Exists { query, .. } => {
                self.scan_null_outer_refs(query, local, outer, notes);
            }
            Predicate::Quantified { left, query, .. } => {
                operand(left, local, notes);
                self.scan_null_outer_refs(query, local, outer, notes);
            }
            Predicate::IsNull { operand: o, .. } => operand(o, local, notes),
        }
    }

    fn enumerate(&self, q: &QueryBlock) -> Result<Vec<Tuple>> {
        let rels: Vec<&Relation> = q
            .from
            .iter()
            .map(|t| {
                self.tables
                    .get(&t.table.to_ascii_uppercase())
                    .ok_or_else(|| OracleError::UnknownTable(t.table.clone()))
            })
            .collect::<Result<_>>()?;
        let mut out = vec![Tuple::new(Vec::new())];
        for rel in rels {
            let mut next = Vec::with_capacity(out.len() * rel.len().max(1));
            for prefix in &out {
                for t in rel.tuples() {
                    next.push(prefix.join(t));
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// Evaluate one block under the given enclosing bindings.
    fn eval_block(
        &self,
        q: &QueryBlock,
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Relation> {
        let schema = self.local_schema(q)?;
        // Flag NULL outer references *statically*, before any row is
        // enumerated. Runtime `lookup` only notices a NULL binding when the
        // correlation predicate actually evaluates — but if the inner
        // relation is empty, no candidate row ever binds and the predicate
        // never runs, while a transformed plan still materializes the
        // correlation keys from the outer table and silently drops the NULL
        // key at its equijoin (nested iteration's COUNT(*) sees 0 matches
        // and keeps the row). The note must fire either way.
        self.scan_null_outer_refs(q, &mut Vec::new(), outer, notes);
        // Top-level conjuncts evaluate simple-first, mirroring the paper's
        // System R loop (and the engine): a tuple that fails a simple
        // predicate is never bound to any inner block, and evaluation of a
        // row stops at its first non-TRUE conjunct — so errors (e.g. a
        // 2-row scalar subquery) surface for exactly the rows the engine
        // reaches, in the same order.
        let conjuncts: Vec<&Predicate> = match &q.where_clause {
            Some(p) => p.conjuncts(),
            None => Vec::new(),
        };
        let (simple, nested): (Vec<&&Predicate>, Vec<&&Predicate>) =
            conjuncts.iter().partition(|p| !p.contains_subquery());
        let mut survivors: Vec<Tuple> = Vec::new();
        'rows: for candidate in self.enumerate(q)? {
            let frames = push_frame(outer, &schema, &candidate);
            for p in simple.iter().chain(nested.iter()) {
                if self.eval_pred(p, &frames, notes)? != Some(true) {
                    continue 'rows;
                }
            }
            survivors.push(candidate);
        }
        self.eval_select(q, &schema, survivors, outer, notes)
    }

    // ------------------------------------------------------------- select

    fn eval_select(
        &self,
        q: &QueryBlock,
        schema: &Schema,
        survivors: Vec<Tuple>,
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Relation> {
        let out_schema = self.output_schema(q, schema)?;
        let mut rows: Vec<Tuple> = if !q.group_by.is_empty() {
            self.eval_grouped(q, schema, &survivors, outer, notes)?
        } else if q.has_aggregate_select() {
            // Scalar aggregate: exactly one row, even over zero survivors.
            vec![self.aggregate_row(&q.select, schema, &survivors, outer, notes)?]
        } else {
            let mut rows = Vec::with_capacity(survivors.len());
            for t in &survivors {
                let frames = push_frame(outer, schema, t);
                let mut vals = Vec::with_capacity(q.select.len());
                for item in &q.select {
                    vals.push(self.eval_scalar(&item.expr, &frames, notes)?);
                }
                rows.push(Tuple::new(vals));
            }
            rows
        };
        if q.distinct {
            rows.sort_by(Tuple::total_cmp);
            rows.dedup();
        }
        if !q.order_by.is_empty() {
            rows = order_rows(rows, &q.order_by, &out_schema, &q.select)?;
        }
        Relation::new(out_schema, rows).map_err(OracleError::Type)
    }

    /// GROUP BY evaluation: groups in first-encounter order, NULL keys
    /// grouping together, key equality following SQL comparison (so `3`
    /// and `3.0` share a group).
    fn eval_grouped(
        &self,
        q: &QueryBlock,
        schema: &Schema,
        survivors: &[Tuple],
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Vec<Tuple>> {
        let key_idx: Vec<usize> = q
            .group_by
            .iter()
            .map(|c| schema.resolve(c.table.as_deref(), &c.column))
            .collect::<std::result::Result<_, _>>()?;
        let mut groups: Vec<(Tuple, Vec<&Tuple>)> = Vec::new();
        for t in survivors {
            let key = t.project(&key_idx);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(t),
                None => groups.push((key, vec![t])),
            }
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, members) in &groups {
            let mut vals = Vec::with_capacity(q.select.len());
            for item in &q.select {
                match &item.expr {
                    ScalarExpr::Aggregate(func, arg) => {
                        vals.push(self.aggregate_over(
                            *func, arg, schema, members, outer, notes,
                        )?);
                    }
                    ScalarExpr::Column(c) => {
                        let i = schema.resolve(c.table.as_deref(), &c.column)?;
                        let pos =
                            key_idx.iter().position(|&k| k == i).ok_or_else(|| {
                                OracleError::Unsupported(format!(
                                    "column {c} in SELECT is not in GROUP BY"
                                ))
                            })?;
                        vals.push(key.get(pos).clone());
                    }
                    ScalarExpr::Literal(v) => vals.push(v.clone()),
                }
            }
            rows.push(Tuple::new(vals));
        }
        Ok(rows)
    }

    /// The single output row of an ungrouped aggregate SELECT.
    fn aggregate_row(
        &self,
        select: &[SelectItem],
        schema: &Schema,
        survivors: &[Tuple],
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Tuple> {
        let members: Vec<&Tuple> = survivors.iter().collect();
        let mut vals = Vec::with_capacity(select.len());
        for item in select {
            match &item.expr {
                ScalarExpr::Aggregate(func, arg) => {
                    vals.push(self.aggregate_over(*func, arg, schema, &members, outer, notes)?);
                }
                ScalarExpr::Literal(v) => vals.push(v.clone()),
                ScalarExpr::Column(c) => {
                    return Err(OracleError::Unsupported(format!(
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
        schema: &Schema,
        members: &[&Tuple],
        outer: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Value> {
        let mut acc = Accumulator::new(func);
        for t in members {
            match arg {
                AggArg::Star => acc.accumulate_row(),
                AggArg::Column(c) => {
                    let frames = push_frame(outer, schema, t);
                    let v = lookup(&frames, c, notes)?;
                    acc.accumulate(&v)?;
                }
            }
        }
        Ok(acc.finish())
    }

    fn eval_scalar(
        &self,
        e: &ScalarExpr,
        frames: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Value> {
        match e {
            ScalarExpr::Column(c) => lookup(frames, c, notes),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Aggregate(..) => Err(OracleError::Unsupported(
                "aggregate outside aggregate SELECT".into(),
            )),
        }
    }

    fn output_schema(&self, q: &QueryBlock, schema: &Schema) -> Result<Schema> {
        let mut cols = Vec::with_capacity(q.select.len());
        for item in &q.select {
            let (name, ty) = match &item.expr {
                ScalarExpr::Column(c) => {
                    let i = schema.resolve(c.table.as_deref(), &c.column)?;
                    let col = &schema.columns()[i];
                    (col.name.clone(), col.ty)
                }
                ScalarExpr::Literal(v) => {
                    ("LITERAL".to_string(), v.column_type().unwrap_or(ColumnType::Int))
                }
                ScalarExpr::Aggregate(func, arg) => {
                    let ty = match (func, arg) {
                        (AggFunc::Count, _) => ColumnType::Int,
                        (AggFunc::Avg, _) => ColumnType::Float,
                        (_, AggArg::Star) => ColumnType::Int,
                        (_, AggArg::Column(c)) => {
                            match schema.try_resolve(c.table.as_deref(), &c.column) {
                                Some(i) => schema.columns()[i].ty,
                                None => ColumnType::Int,
                            }
                        }
                    };
                    (func.name().to_string(), ty)
                }
            };
            let name = item.alias.clone().unwrap_or(name);
            cols.push(Column::new(name, ty));
        }
        Ok(Schema::new(cols))
    }

    // --------------------------------------------------------- predicates

    fn eval_pred(
        &self,
        p: &Predicate,
        frames: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Option<bool>> {
        match p {
            Predicate::And(ps) => {
                let mut unknown = false;
                for q in ps {
                    match self.eval_pred(q, frames, notes)? {
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
                    match self.eval_pred(q, frames, notes)? {
                        Some(true) => return Ok(Some(true)),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                Ok(if unknown { None } else { Some(false) })
            }
            Predicate::Not(q) => Ok(self.eval_pred(q, frames, notes)?.map(|b| !b)),
            Predicate::Compare { left, op, right } => {
                let l = self.eval_operand(left, frames, notes)?;
                let r = self.eval_operand(right, frames, notes)?;
                compare(&l, *op, &r)
            }
            Predicate::In { operand, negated, rhs } => {
                let v = self.eval_operand(operand, frames, notes)?;
                let raw = match rhs {
                    InRhs::List(list) => in_values(&v, list.iter())?,
                    InRhs::Subquery(q) => {
                        let vals = self.inner_values(q, frames, notes)?;
                        let raw = in_values(&v, vals.iter())?;
                        // NEST-N-J duplicates license: did the value match
                        // more than one inner row? (Advisory only — errors
                        // past the first match are ignored, mirroring the
                        // engine's short-circuit.)
                        let matches = vals
                            .iter()
                            .filter(|r| v.sql_eq(r) == Ok(Some(true)))
                            .count();
                        if matches > 1 && !negated {
                            notes.dup_in_match = true;
                        }
                        raw
                    }
                };
                Ok(if *negated { raw.map(|b| !b) } else { raw })
            }
            Predicate::Exists { negated, query } => {
                let nonempty = !self.inner_values(query, frames, notes)?.is_empty();
                Ok(Some(if *negated { !nonempty } else { nonempty }))
            }
            Predicate::Quantified { left, op, quantifier, query } => {
                let v = self.eval_operand(left, frames, notes)?;
                let rows = self.inner_values(query, frames, notes)?;
                if *quantifier == Quantifier::All
                    && *op != CompareOp::Ne
                    && (rows.is_empty() || rows.iter().any(Value::is_null))
                {
                    notes.all_over_empty_or_null = true;
                }
                // `= ANY` is rewritten to `IN` by the predicate-extension
                // pass, so it inherits the NEST-N-J duplicates license.
                if *quantifier == Quantifier::Any && *op == CompareOp::Eq {
                    let matches =
                        rows.iter().filter(|r| v.sql_eq(r) == Ok(Some(true))).count();
                    if matches > 1 {
                        notes.dup_in_match = true;
                    }
                }
                quantified(&v, *op, *quantifier, &rows)
            }
            Predicate::IsNull { operand, negated } => {
                let v = self.eval_operand(operand, frames, notes)?;
                Ok(Some(if *negated { !v.is_null() } else { v.is_null() }))
            }
        }
    }

    fn eval_operand(
        &self,
        o: &Operand,
        frames: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Value> {
        match o {
            Operand::Column(c) => lookup(frames, c, notes),
            Operand::Literal(v) => Ok(v.clone()),
            Operand::Subquery(q) => {
                let rel = self.eval_block(q, frames, notes)?;
                match rel.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rel.tuples()[0].get(0).clone()),
                    n => Err(OracleError::ScalarSubqueryCardinality(n)),
                }
            }
        }
    }

    /// Column 0 of an inner block's rows — the value list `IN`, `EXISTS`,
    /// and quantified comparisons range over.
    fn inner_values(
        &self,
        q: &QueryBlock,
        frames: &Frames<'_>,
        notes: &mut Notes,
    ) -> Result<Vec<Value>> {
        let rel = self.eval_block(q, frames, notes)?;
        Ok(rel.tuples().iter().map(|t| t.get(0).clone()).collect())
    }
}

/// Extend a scope chain with one more (innermost) frame.
fn push_frame<'a>(outer: &Frames<'a>, schema: &'a Schema, tuple: &'a Tuple) -> Vec<Frame<'a>> {
    let mut frames: Vec<Frame<'a>> = Vec::with_capacity(outer.len() + 1);
    for f in outer {
        frames.push(Frame { schema: f.schema, tuple: f.tuple });
    }
    frames.push(Frame { schema, tuple });
    frames
}

/// The resolution half of [`Oracle::scan_null_outer_refs`]: a ref that
/// binds inside the walked blocks is local (no note); one that falls
/// through to an enclosing frame with a NULL value is a NULL outer
/// reference. Resolution errors are ignored here — the evaluator proper
/// reports them.
fn check_outer_ref(
    c: &ColumnRef,
    local: &[Schema],
    outer: &Frames<'_>,
    notes: &mut Notes,
) {
    for s in local.iter().rev() {
        if s.resolve(c.table.as_deref(), &c.column).is_ok() {
            return;
        }
    }
    for f in outer.iter().rev() {
        if let Ok(i) = f.schema.resolve(c.table.as_deref(), &c.column) {
            if f.tuple.get(i).is_null() {
                notes.null_outer_ref = true;
            }
            return;
        }
    }
}

/// Resolve a column against the scope chain, nearest scope first. An
/// ambiguous match *within* a scope is an error; an unknown name falls
/// through to the next enclosing scope.
fn lookup(frames: &Frames<'_>, c: &ColumnRef, notes: &mut Notes) -> Result<Value> {
    for (from_innermost, f) in frames.iter().rev().enumerate() {
        match f.schema.resolve(c.table.as_deref(), &c.column) {
            Ok(i) => {
                let v = f.tuple.get(i).clone();
                if from_innermost > 0 && v.is_null() {
                    notes.null_outer_ref = true;
                }
                return Ok(v);
            }
            Err(TypeError::UnknownColumn(_)) => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Err(TypeError::UnknownColumn(c.to_string()).into())
}

/// Three-valued scalar comparison.
fn compare(l: &Value, op: CompareOp, r: &Value) -> Result<Option<bool>> {
    Ok(l.sql_cmp(r)?.map(|ord| op.eval(ord)))
}

/// `v IN (values…)` under three-valued logic: TRUE on any match, else
/// UNKNOWN if any comparison was unknown, else FALSE (empty ⇒ FALSE).
fn in_values<'a>(v: &Value, list: impl Iterator<Item = &'a Value>) -> Result<Option<bool>> {
    let mut unknown = false;
    for r in list {
        match v.sql_eq(r)? {
            Some(true) => return Ok(Some(true)),
            None => unknown = true,
            Some(false) => {}
        }
    }
    Ok(if unknown { None } else { Some(false) })
}

/// SQL quantified-comparison semantics: `ANY` is TRUE if any comparison is
/// TRUE, else UNKNOWN if any is UNKNOWN, else FALSE (FALSE over ∅); `ALL`
/// dually (TRUE over ∅).
fn quantified(
    v: &Value,
    op: CompareOp,
    quant: Quantifier,
    rows: &[Value],
) -> Result<Option<bool>> {
    let mut unknown = false;
    for r in rows {
        match compare(v, op, r)? {
            Some(true) if quant == Quantifier::Any => return Ok(Some(true)),
            Some(false) if quant == Quantifier::All => return Ok(Some(false)),
            None => unknown = true,
            _ => {}
        }
    }
    Ok(if unknown { None } else { Some(quant == Quantifier::All) })
}

/// Stable ORDER BY over the output rows: keys resolve against the output
/// schema (aliases included), falling back to a positional match against
/// the select list.
fn order_rows(
    mut rows: Vec<Tuple>,
    keys: &[OrderKey],
    out_schema: &Schema,
    select: &[SelectItem],
) -> Result<Vec<Tuple>> {
    let mut idx: Vec<(usize, SortDir)> = Vec::with_capacity(keys.len());
    for k in keys {
        let i = out_schema
            .try_resolve(None, &k.column.column)
            .or_else(|| out_schema.try_resolve(k.column.table.as_deref(), &k.column.column))
            .or_else(|| {
                select.iter().position(|item| match &item.expr {
                    ScalarExpr::Column(c) => {
                        c.column == k.column.column
                            && (k.column.table.is_none() || c.table == k.column.table)
                    }
                    _ => false,
                })
            })
            .ok_or_else(|| TypeError::UnknownColumn(k.column.to_string()))?;
        idx.push((i, k.dir));
    }
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
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

    fn int_rel(cols: &[&str], rows: &[&[Option<i64>]]) -> Relation {
        let schema = Schema::new(
            cols.iter().map(|c| Column::new(c.to_string(), ColumnType::Int)).collect(),
        );
        let tuples = rows
            .iter()
            .map(|r| {
                Tuple::new(r.iter().map(|v| v.map_or(Value::Null, Value::Int)).collect())
            })
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    fn kiessling() -> Oracle {
        // The paper's Section 4 PARTS/SUPPLY data (dates dropped).
        let mut o = Oracle::new();
        o.load(
            "PARTS",
            int_rel(&["PNUM", "QOH"], &[&[Some(3), Some(6)], &[Some(10), Some(1)], &[Some(8), Some(0)]]),
        );
        o.load(
            "SUPPLY",
            int_rel(
                &["PNUM", "QUAN"],
                &[
                    &[Some(3), Some(4)],
                    &[Some(3), Some(2)],
                    &[Some(10), Some(1)],
                    &[Some(10), Some(2)],
                    &[Some(8), Some(5)],
                ],
            ),
        );
        o
    }

    fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
        rel.tuples().iter().map(|t| t.values().to_vec()).collect()
    }

    #[test]
    fn count_bug_query_keeps_part_8() {
        // Q2: COUNT over an empty group is 0, so part 8 (QOH = 0, no
        // supplies below quantity 3) must survive… here: QOH = COUNT of
        // supplies with QUAN < 3.
        let o = kiessling();
        let q = parse_query(
            "SELECT PNUM FROM PARTS WHERE QOH = \
             (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN < 3)",
        )
        .unwrap();
        let rel = o.eval(&q).unwrap();
        let mut got: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                other => panic!("{other}"),
            })
            .collect();
        got.sort();
        // part 3: supplies {4,2} → count(<3)=1 ≠ 6; part 10: {1,2} → 2 ≠ 1;
        // part 8: {5} → 0 = 0 ✓.
        assert_eq!(got, vec![8]);
    }

    #[test]
    fn simple_conjuncts_filter_rows_before_nested_errors_surface() {
        // Shrunk from a diff_prop counterexample: the engine evaluates
        // simple conjuncts before nested ones and drops a row at the first
        // non-TRUE conjunct (System R order), so a 2-row scalar subquery in
        // a later conjunct never runs for rows the simple predicate already
        // rejected. The oracle must agree — it used to evaluate conjuncts
        // in textual order and raise the cardinality error spuriously.
        let mut o = Oracle::new();
        o.load("T0", int_rel(&["K", "V"], &[&[Some(-1), Some(-2)]]));
        o.load("T2", int_rel(&["K"], &[&[Some(1)], &[Some(2)]]));

        // The only row fails `V IN (0)`, so the subquery is unreachable.
        let q = parse_query("SELECT V FROM T0 WHERE V >= (SELECT K FROM T2) AND V IN (0)")
            .unwrap();
        let rel = o.eval(&q).unwrap();
        assert!(rel.is_empty(), "{rel}");

        // When the row survives the simple conjunct, the error does surface.
        let q = parse_query("SELECT V FROM T0 WHERE V >= (SELECT K FROM T2) AND V IN (-2)")
            .unwrap();
        assert_eq!(o.eval(&q), Err(OracleError::ScalarSubqueryCardinality(2)));
    }

    #[test]
    fn scalar_aggregate_over_empty_is_one_row() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[]));
        let q = parse_query("SELECT COUNT(A), MAX(A) FROM T").unwrap();
        let rel = o.eval(&q).unwrap();
        assert_eq!(rows_of(&rel), vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn three_valued_where_drops_unknown() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[&[Some(1)], &[None], &[Some(3)]]));
        let q = parse_query("SELECT A FROM T WHERE A > 1").unwrap();
        assert_eq!(rows_of(&o.eval(&q).unwrap()), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn exists_and_not_exists_are_two_valued() {
        let o = kiessling();
        let q = parse_query(
            "SELECT PNUM FROM PARTS WHERE NOT EXISTS \
             (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 4)",
        )
        .unwrap();
        let rel = o.eval(&q).unwrap();
        assert_eq!(rel.len(), 2); // parts 3 and 10; part 8 has QUAN 5
    }

    #[test]
    fn any_all_empty_set_semantics_and_license() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[&[Some(1)]]));
        o.load("E", int_rel(&["B"], &[]));
        let q = parse_query("SELECT A FROM T WHERE A < ALL (SELECT B FROM E)").unwrap();
        let (rel, notes) = o.eval_noted(&q).unwrap();
        assert_eq!(rel.len(), 1, "x < ALL (∅) is TRUE");
        assert!(notes.all_over_empty_or_null, "empty ALL must license divergence");
        let q = parse_query("SELECT A FROM T WHERE A > ANY (SELECT B FROM E)").unwrap();
        let (rel, notes) = o.eval_noted(&q).unwrap();
        assert_eq!(rel.len(), 0, "x > ANY (∅) is FALSE");
        assert!(!notes.all_over_empty_or_null);
    }

    /// `NOT IN` and `!= ALL` note nothing: the default path anti-joins them,
    /// exactly, and the literal plans refuse them.
    #[test]
    fn negated_membership_notes_no_licence() {
        let mut o = Oracle::new();
        o.load("OUTR", int_rel(&["A"], &[&[Some(1)], &[Some(2)]]));
        o.load("INNR", int_rel(&["B"], &[&[Some(1)], &[Some(1)], &[None]]));
        o.load("E", int_rel(&["B"], &[]));
        for src in [
            "SELECT A FROM OUTR WHERE A NOT IN (SELECT B FROM INNR)",
            "SELECT A FROM OUTR WHERE A != ALL (SELECT B FROM INNR)",
            "SELECT A FROM OUTR WHERE A != ALL (SELECT B FROM E)",
        ] {
            let (_, notes) = o.eval_noted(&parse_query(src).unwrap()).unwrap();
            assert!(!notes.dup_in_match && !notes.all_over_empty_or_null, "{src}: {notes:?}");
        }
    }

    #[test]
    fn duplicate_in_matches_are_noted() {
        let mut o = Oracle::new();
        o.load("OUTR", int_rel(&["A"], &[&[Some(1)]]));
        o.load("INNR", int_rel(&["B"], &[&[Some(1)], &[Some(1)]]));
        let q = parse_query("SELECT A FROM OUTR WHERE A IN (SELECT B FROM INNR)").unwrap();
        let (rel, notes) = o.eval_noted(&q).unwrap();
        assert_eq!(rel.len(), 1, "IN keeps the outer row once");
        assert!(notes.dup_in_match);
    }

    #[test]
    fn null_outer_ref_is_noted() {
        let mut o = Oracle::new();
        o.load("OUTR", int_rel(&["A"], &[&[None]]));
        o.load("INNR", int_rel(&["B"], &[&[Some(1)]]));
        let q = parse_query(
            "SELECT COUNT(*) FROM OUTR WHERE 0 = \
             (SELECT COUNT(B) FROM INNR WHERE INNR.B = OUTR.A)",
        )
        .unwrap();
        let (rel, notes) = o.eval_noted(&q).unwrap();
        // Correlation is UNKNOWN for the NULL outer value → empty group →
        // COUNT 0 → outer row kept.
        assert_eq!(rows_of(&rel), vec![vec![Value::Int(1)]]);
        assert!(notes.null_outer_ref);
    }

    #[test]
    fn null_outer_ref_noted_even_when_inner_relation_is_empty() {
        // Shrunk from a diff_prop counterexample: with INNR *empty*, the
        // correlation predicate never evaluates, so the runtime lookup
        // cannot observe the NULL outer value — but NEST-JA2 still
        // materializes the correlation keys from OUTR and its equijoin
        // drops the NULL key, while nested iteration's COUNT over zero
        // matches is 0 and the outer row survives. The static scan must
        // set the note so the divergence license applies.
        let mut o = Oracle::new();
        o.load("OUTR", int_rel(&["A"], &[&[None]]));
        o.load("INNR", int_rel(&["B"], &[]));
        let q = parse_query(
            "SELECT A FROM OUTR WHERE 0 = \
             (SELECT COUNT(B) FROM INNR WHERE INNR.B = OUTR.A)",
        )
        .unwrap();
        let (rel, notes) = o.eval_noted(&q).unwrap();
        assert_eq!(rows_of(&rel), vec![vec![Value::Null]]);
        assert!(notes.null_outer_ref, "scan must flag the unevaluated NULL correlation key");
    }

    #[test]
    fn scalar_subquery_cardinality_errors() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[&[Some(1)]]));
        o.load("U", int_rel(&["B"], &[&[Some(1)], &[Some(2)]]));
        let q = parse_query("SELECT A FROM T WHERE A = (SELECT B FROM U)").unwrap();
        assert_eq!(o.eval(&q), Err(OracleError::ScalarSubqueryCardinality(2)));
    }

    #[test]
    fn group_by_groups_nulls_together_in_first_encounter_order() {
        let mut o = Oracle::new();
        o.load(
            "T",
            int_rel(&["K", "V"], &[&[None, Some(1)], &[Some(1), Some(3)], &[None, Some(2)]]),
        );
        let q = parse_query("SELECT K, SUM(V) FROM T GROUP BY K").unwrap();
        let rel = o.eval(&q).unwrap();
        assert_eq!(
            rows_of(&rel),
            vec![
                vec![Value::Null, Value::Int(3)],
                vec![Value::Int(1), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn distinct_dedups() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[&[Some(2)], &[Some(1)], &[Some(2)]]));
        let q = parse_query("SELECT DISTINCT A FROM T").unwrap();
        assert_eq!(o.eval(&q).unwrap().len(), 2);
    }

    #[test]
    fn exact_sum_is_order_independent_and_correctly_rounded() {
        let xs = [1e16, 0.1, -1e16, 0.1, 3.25, 1e-9];
        let mut fwd = ExactSum::default();
        for x in xs {
            fwd.add(x);
        }
        let mut rev = ExactSum::default();
        for x in xs.iter().rev() {
            rev.add(*x);
        }
        assert_eq!(fwd.value().to_bits(), rev.value().to_bits());
        // Naive left-to-right summation gets this wrong; the exact sum is
        // 0.2 + 3.25 + 1e-9 correctly rounded.
        let expect = 0.1 + 0.1 + 3.25 + 1e-9; // these happen to be exactly representable steps? no — compute via ExactSum of the remainder
        let mut rem = ExactSum::default();
        for x in [0.1, 0.1, 3.25, 1e-9] {
            rem.add(x);
        }
        let _ = expect;
        assert_eq!(fwd.value().to_bits(), rem.value().to_bits());
    }

    #[test]
    fn float_sum_matches_exact_spec() {
        let mut o = Oracle::new();
        let schema = Schema::new(vec![Column::new("F", ColumnType::Float)]);
        let rows =
            vec![0.1, 0.2, 0.3, -0.25, 1e15, -1e15, 0.7].into_iter().map(|x| Tuple::new(vec![Value::Float(x)]));
        o.load("T", Relation::new(schema, rows.collect()).unwrap());
        let q = parse_query("SELECT SUM(F) FROM T").unwrap();
        let rel = o.eval(&q).unwrap();
        let Value::Float(got) = rel.tuples()[0].get(0) else { panic!() };
        let mut s = ExactSum::default();
        for x in [0.1, 0.2, 0.3, -0.25, 1e15, -1e15, 0.7] {
            s.add(x);
        }
        assert_eq!(got.to_bits(), s.value().to_bits());
    }

    #[test]
    fn int_sum_overflow_is_an_error() {
        let mut o = Oracle::new();
        o.load("T", int_rel(&["A"], &[&[Some(i64::MAX)], &[Some(1)]]));
        let q = parse_query("SELECT SUM(A) FROM T").unwrap();
        assert_eq!(o.eval(&q), Err(OracleError::SumOverflow));
    }

    #[test]
    fn deep_correlation_reaches_grandparent_scope() {
        let mut o = Oracle::new();
        o.load("A", int_rel(&["X"], &[&[Some(1)], &[Some(2)]]));
        o.load("B", int_rel(&["Y"], &[&[Some(1)], &[Some(2)]]));
        o.load("C", int_rel(&["Z"], &[&[Some(1)]]));
        // C's block references A.X across B's block.
        let q = parse_query(
            "SELECT X FROM A WHERE EXISTS (SELECT Y FROM B WHERE EXISTS \
             (SELECT Z FROM C WHERE C.Z = A.X))",
        )
        .unwrap();
        let rel = o.eval(&q).unwrap();
        assert_eq!(rows_of(&rel), vec![vec![Value::Int(1)]]);
    }
}
