//! Abstract syntax for the paper's SQL dialect.
//!
//! The central type is [`QueryBlock`], the paper's unit of analysis: "the
//! basic structure of a SQL query is a *query block*, which consists
//! principally of a SELECT clause, a FROM clause, and zero or more WHERE
//! clauses". Nested predicates hold inner query blocks, giving the multiway
//! query tree of Figure 2.

use nsql_types::{ColumnType, Value};

/// A possibly-qualified column reference, e.g. `SP.ORIGIN` or `PNO`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> ColumnRef {
        ColumnRef { table: None, column: column.into().to_ascii_uppercase() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            table: Some(table.into().to_ascii_uppercase()),
            column: column.into().to_ascii_uppercase(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A table in a FROM clause, with optional alias (`FROM SUPPLY S2`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Base table (or temporary table) name.
    pub table: String,
    /// Alias, if written.
    pub alias: Option<String>,
}

impl TableRef {
    /// Table reference without alias.
    pub fn new(table: impl Into<String>) -> TableRef {
        TableRef { table: table.into().to_ascii_uppercase(), alias: None }
    }

    /// Table reference with alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> TableRef {
        TableRef {
            table: table.into().to_ascii_uppercase(),
            alias: Some(alias.into().to_ascii_uppercase()),
        }
    }

    /// The name by which columns reference this table: the alias when
    /// present, otherwise the table name.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// The five aggregate functions of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Max,
    Min,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Max => "MAX",
            AggFunc::Min => "MIN",
        }
    }

    /// Value of the aggregate over the empty set: `COUNT` gives `0`, all
    /// others give `NULL`. This single fact is the root of the COUNT bug.
    pub fn empty_value(self) -> Value {
        match self {
            AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        }
    }
}

/// Argument of an aggregate: a column or `*` (COUNT only).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggArg {
    /// `AGG(column)`.
    Column(ColumnRef),
    /// `COUNT(*)`.
    Star,
}

/// A scalar expression in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Value),
    /// Aggregate application.
    Aggregate(AggFunc, AggArg),
}

impl ScalarExpr {
    /// The aggregate function, if this expression is one.
    pub fn as_aggregate(&self) -> Option<(AggFunc, &AggArg)> {
        match self {
            ScalarExpr::Aggregate(f, a) => Some((*f, a)),
            _ => None,
        }
    }
}

/// One item of a SELECT list, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: ScalarExpr,
    /// `AS alias`, if written.
    pub alias: Option<String>,
}

impl SelectItem {
    /// Item without alias.
    pub fn new(expr: ScalarExpr) -> SelectItem {
        SelectItem { expr, alias: None }
    }

    /// Select a column by reference.
    pub fn column(c: ColumnRef) -> SelectItem {
        SelectItem::new(ScalarExpr::Column(c))
    }
}

/// Scalar comparison operators. The paper's `!<` and `!>` normalise to
/// `Ge`/`Le` during lexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// The operator with sides swapped: `a op b` ⇔ `b op.flip() a`.
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// Evaluate against an ordering (three-valued logic handled by callers).
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }
}

/// An operand of a comparison: column, literal, or scalar subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Value),
    /// `(SELECT …)` used as a scalar — the nested predicate form
    /// `[Ri.Ck op Q]` of [KIM 82].
    Subquery(Box<QueryBlock>),
}

impl Operand {
    /// The column reference, if this operand is one.
    pub fn as_column(&self) -> Option<&ColumnRef> {
        match self {
            Operand::Column(c) => Some(c),
            _ => None,
        }
    }

    /// The subquery, if this operand is one.
    pub fn as_subquery(&self) -> Option<&QueryBlock> {
        match self {
            Operand::Subquery(q) => Some(q),
            _ => None,
        }
    }
}

/// Right-hand side of an `IN` predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum InRhs {
    /// `IN (SELECT …)`.
    Subquery(Box<QueryBlock>),
    /// `IN (v1, v2, …)`.
    List(Vec<Value>),
}

/// `ANY` (a.k.a. `SOME`) or `ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Quantifier {
    Any,
    All,
}

/// A WHERE-clause predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Conjunction (flattened n-ary).
    And(Vec<Predicate>),
    /// Disjunction (flattened n-ary).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Scalar comparison; either side may be a scalar subquery.
    Compare {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CompareOp,
        /// Right operand.
        right: Operand,
    },
    /// `x [NOT] IN (…)` — set membership ("IS IN" in the paper's examples).
    In {
        /// Tested operand.
        operand: Operand,
        /// Whether negated.
        negated: bool,
        /// Subquery or literal list.
        rhs: InRhs,
    },
    /// `[NOT] EXISTS (SELECT …)`.
    Exists {
        /// Whether negated.
        negated: bool,
        /// The inner block.
        query: Box<QueryBlock>,
    },
    /// `x op ANY|ALL (SELECT …)`.
    Quantified {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CompareOp,
        /// `ANY` or `ALL`.
        quantifier: Quantifier,
        /// The inner block.
        query: Box<QueryBlock>,
    },
    /// `x IS [NOT] NULL`.
    IsNull {
        /// Tested operand.
        operand: Operand,
        /// Whether negated (`IS NOT NULL`).
        negated: bool,
    },
}

impl Predicate {
    /// AND two optional predicates.
    pub fn and_opt(a: Option<Predicate>, b: Option<Predicate>) -> Option<Predicate> {
        match (a, b) {
            (None, p) | (p, None) => p,
            (Some(a), Some(b)) => Some(Predicate::and(vec![a, b])),
        }
    }

    /// Build a flattened conjunction.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Predicate::And(ps) => flat.extend(ps),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Predicate::And(flat)
        }
    }

    /// The conjuncts of this predicate: the n-ary list for `And`, a
    /// singleton otherwise. Transformation algorithms work conjunct-wise.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().collect(),
            other => vec![other],
        }
    }

    /// Consume into conjuncts.
    pub fn into_conjuncts(self) -> Vec<Predicate> {
        match self {
            Predicate::And(ps) => ps,
            other => vec![other],
        }
    }

    /// Shorthand comparison between two columns.
    pub fn col_cmp(left: ColumnRef, op: CompareOp, right: ColumnRef) -> Predicate {
        Predicate::Compare {
            left: Operand::Column(left),
            op,
            right: Operand::Column(right),
        }
    }

    /// A *simple* predicate in the paper's sense: no nested query block at
    /// any position (Section 2.4's "simple predicates").
    pub fn is_simple(&self) -> bool {
        !self.contains_subquery()
    }

    /// Whether this predicate (at this level, not in subqueries) contains a
    /// nested query block.
    pub fn contains_subquery(&self) -> bool {
        !self.child_block_uses().is_empty()
    }

    /// The query blocks this predicate holds directly (blocks nested inside
    /// those are not entered), in evaluation order.
    pub fn child_blocks(&self) -> Vec<&QueryBlock> {
        self.child_block_uses().into_iter().map(|(q, _)| q).collect()
    }

    /// [`child_blocks`](Predicate::child_blocks), each paired with how its
    /// use site consumes it: `true` for a *scalar* operand (at most one
    /// row), `false` for a list (`IN` / `EXISTS` / `ANY` / `ALL`).
    ///
    /// This is the one enumeration of "positions that hold a block": both
    /// sides of a comparison, the operand of `IS [NOT] NULL`, the operand
    /// and the right-hand side of `IN`, the left operand and the inner block
    /// of a quantified comparison, and the block of `EXISTS`. Everything
    /// that asks "which blocks does this predicate hold" (classification,
    /// validation, correlation analysis, EXPLAIN, table collection) goes
    /// through it, so a position cannot be known to one of them and missed
    /// by another.
    pub fn child_block_uses(&self) -> Vec<(&QueryBlock, bool)> {
        fn operand<'a>(o: &'a Operand, out: &mut Vec<(&'a QueryBlock, bool)>) {
            if let Operand::Subquery(q) = o {
                out.push((q, true));
            }
        }
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<(&'a QueryBlock, bool)>) {
            match p {
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|q| walk(q, out)),
                Predicate::Not(q) => walk(q, out),
                Predicate::Compare { left, right, .. } => {
                    operand(left, out);
                    operand(right, out);
                }
                Predicate::In { operand: o, rhs, .. } => {
                    operand(o, out);
                    if let InRhs::Subquery(q) = rhs {
                        out.push((q, false));
                    }
                }
                Predicate::Exists { query, .. } => out.push((query, false)),
                Predicate::Quantified { left, query, .. } => {
                    operand(left, out);
                    out.push((query, false));
                }
                Predicate::IsNull { operand: o, .. } => operand(o, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// Sort direction for ORDER BY (convenience extension; the paper's queries
/// do not use it but deterministic example output does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SortDir {
    Asc,
    Desc,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Column to sort by.
    pub column: ColumnRef,
    /// Direction.
    pub dir: SortDir,
}

/// A SQL query block — the unit all of the paper's algorithms manipulate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryBlock {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM clause.
    pub from: Vec<TableRef>,
    /// WHERE clause.
    pub where_clause: Option<Predicate>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
}

impl QueryBlock {
    /// `SELECT <select> FROM <from>`.
    pub fn new(select: Vec<SelectItem>, from: Vec<TableRef>) -> QueryBlock {
        QueryBlock { select, from, ..QueryBlock::default() }
    }

    /// Whether any SELECT item is an aggregate — one of the two tests in
    /// Kim's nesting classification.
    pub fn has_aggregate_select(&self) -> bool {
        self.select.iter().any(|s| s.expr.as_aggregate().is_some())
    }

    /// Add a conjunct to the WHERE clause.
    pub fn and_where(&mut self, pred: Predicate) {
        self.where_clause = Predicate::and_opt(self.where_clause.take(), Some(pred));
    }

    /// All table names/aliases visible in this block's FROM clause.
    pub fn from_names(&self) -> Vec<&str> {
        self.from.iter().map(TableRef::effective_name).collect()
    }

    /// Every *base table name* referenced anywhere in the query, including
    /// inside nested subqueries at any depth, deduplicated in
    /// first-occurrence order. Unlike [`QueryBlock::from_names`] this
    /// returns the underlying table names, never aliases — it answers
    /// "which stored relations does evaluating this statement touch?",
    /// which the statistics layer uses to refresh referenced system views
    /// before execution.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        for t in &self.from {
            if !out.iter().any(|n| n == &t.table) {
                out.push(t.table.clone());
            }
        }
        for sub in self.child_blocks() {
            sub.collect_tables(out);
        }
    }

    /// The blocks nested directly in this block's WHERE clause (see
    /// [`Predicate::child_block_uses`]).
    pub fn child_blocks(&self) -> Vec<&QueryBlock> {
        self.where_clause.as_ref().map(Predicate::child_blocks).unwrap_or_default()
    }
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ColumnType)>,
    },
    /// `INSERT INTO name VALUES (…), (…)` .
    Insert {
        /// Target table.
        table: String,
        /// Rows of literal values.
        rows: Vec<Vec<Value>>,
    },
    /// A query.
    Select(QueryBlock),
    /// `EXPLAIN [ANALYZE] SELECT …` — render the transform decision and
    /// cost predictions; with ANALYZE, execute and attach measured
    /// per-operator actuals.
    Explain {
        /// Whether ANALYZE was given (execute and measure).
        analyze: bool,
        /// The query to explain.
        query: QueryBlock,
    },
}

#[cfg(test)]
mod tests {
    use crate::parse_query;

    /// Every position the grammar puts a block in, in evaluation order, with
    /// operands marked scalar — and nothing from inside those blocks.
    #[test]
    fn child_blocks_cover_every_operand_position() {
        let q = parse_query(
            "SELECT A FROM T WHERE (SELECT B1 FROM U) = (SELECT B2 FROM U) \
             AND ((SELECT B3 FROM U) IS NOT NULL OR NOT (SELECT B4 FROM U) IN (1, 2)) \
             AND (SELECT B5 FROM U) IN (SELECT B6 FROM U WHERE X IN (SELECT DEEP FROM V)) \
             AND (SELECT B7 FROM U) < ANY (SELECT B8 FROM U) \
             AND EXISTS (SELECT B9 FROM U) AND A IN (1, 2) AND A IS NULL",
        )
        .unwrap();
        let uses: Vec<(String, bool)> = q
            .where_clause
            .as_ref()
            .unwrap()
            .child_block_uses()
            .into_iter()
            .map(|(b, scalar)| (crate::print_query(b)[7..9].to_string(), scalar))
            .collect();
        let want = [
            ("B1", true),
            ("B2", true),
            ("B3", true),
            ("B4", true),
            ("B5", true),
            ("B6", false),
            ("B7", true),
            ("B8", false),
            ("B9", false),
        ];
        assert_eq!(uses, want.map(|(n, s)| (n.to_string(), s)));
        assert_eq!(q.child_blocks().len(), 9);
        assert!(q.referenced_tables().contains(&"V".to_string()), "tables are collected at depth");

        let conjuncts = q.where_clause.as_ref().unwrap().conjuncts();
        let nested: Vec<bool> = conjuncts.iter().map(|p| p.contains_subquery()).collect();
        assert_eq!(nested, [true, true, true, true, true, false, false]);
    }
}
