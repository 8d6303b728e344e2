//! Generators (and shrinkers) for workspace domain types: values, dates,
//! tuples, relations, and small SQL ASTs.
//!
//! A generator is a plain function `fn(&mut Rng) -> T`; compose them with
//! ordinary Rust. The AST generator mirrors the grammar the parser
//! accepts, so `print → parse` round-trips are meaningful; shrinkers stay
//! inside the same invariants (non-empty SELECT/FROM lists, identifier
//! shapes, `COUNT(*)`-only star arguments) so a shrunk counterexample is
//! always a well-formed input, never a grammar violation.

use crate::rng::Rng;
use crate::shrink::Shrink;
use nsql_sql::token::Keyword;
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, Predicate, QueryBlock, Quantifier,
    ScalarExpr, SelectItem, TableRef,
};
use nsql_types::{ColumnType, Date, Relation, Schema, Tuple, Value};

// ---------------------------------------------------------------- values

/// A random string of `len` characters drawn from `alphabet`.
pub fn string_of(rng: &mut Rng, alphabet: &[char], len: usize) -> String {
    (0..len).map(|_| *rng.choose(alphabet)).collect()
}

/// A random valid date with the year in `years` (day capped at 28).
pub fn date(rng: &mut Rng, years: std::ops::Range<i32>) -> Date {
    let y = rng.gen_range(years);
    let m = rng.gen_range(1u8..13);
    let d = rng.gen_range(1u8..29);
    Date::new(y, m, d).expect("day <= 28 is valid in every month")
}

/// A random [`Value`] across all runtime types (the value-layer mix:
/// NULLs, full-range ints, small floats, short lowercase strings, dates).
pub fn value(rng: &mut Rng) -> Value {
    match rng.gen_range(0u32..5) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(i64::from(i32::MIN)..i64::from(i32::MAX) + 1)),
        2 => Value::Float(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 100.0),
        3 => {
            let len = rng.gen_range(0usize..7);
            Value::str(string_of(rng, &LOWER, len))
        }
        _ => Value::Date(date(rng, 1900..2100)),
    }
}

/// A random *literal* as written in SQL text (the subset the printer can
/// emit and the parser re-read: ints, two-decimal floats, quotable
/// strings, NULL, dates).
pub fn literal(rng: &mut Rng) -> Value {
    match rng.gen_range(0u32..5) {
        0 => Value::Int(rng.gen_range(i64::from(i32::MIN)..i64::from(i32::MAX) + 1)),
        1 => {
            let a = rng.gen_range(-1000i64..1000) as f64;
            let b = rng.gen_range(0i64..100) as f64;
            Value::Float(a + b / 100.0)
        }
        2 => {
            let len = rng.gen_range(0usize..9);
            Value::str(string_of(rng, &ALNUM_SPACE, len))
        }
        3 => Value::Null,
        _ => Value::Date(date(rng, 1970..2030)),
    }
}

/// A random tuple matching `types` (≈10% NULLs per column).
pub fn tuple(rng: &mut Rng, types: &[ColumnType]) -> Tuple {
    Tuple::new(
        types
            .iter()
            .map(|ty| {
                if rng.gen_bool(0.1) {
                    return Value::Null;
                }
                match ty {
                    ColumnType::Int => Value::Int(rng.gen_range(-50i64..50)),
                    ColumnType::Float => Value::Float(rng.gen_range(-500i64..500) as f64 / 10.0),
                    ColumnType::Str => {
                        let len = rng.gen_range(1usize..5);
                        Value::str(string_of(rng, &LOWER, len))
                    }
                    ColumnType::Date => Value::Date(date(rng, 1970..2030)),
                    ColumnType::Bool => Value::Bool(rng.gen_bool(0.5)),
                }
            })
            .collect(),
    )
}

/// A random relation over `schema` with a row count drawn from `rows`.
/// Small value ranges force duplicate keys and empty-group collisions —
/// the territory of the paper's Section 5 bugs.
pub fn relation(rng: &mut Rng, schema: Schema, rows: std::ops::Range<usize>) -> Relation {
    let types: Vec<ColumnType> = schema.columns().iter().map(|c| c.ty).collect();
    let n = rng.gen_range(rows);
    let mut rel = Relation::empty(schema);
    for _ in 0..n {
        rel.push(tuple(rng, &types)).expect("generated tuple matches schema");
    }
    rel
}

const LOWER: [char; 26] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
    's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
];
const UPPER: [char; 26] = [
    'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R',
    'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z',
];
const IDENT_TAIL: [char; 37] = [
    'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R',
    'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
    '_',
];
const ALNUM_SPACE: [char; 63] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
    's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J',
    'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '0', '1',
    '2', '3', '4', '5', '6', '7', '8', '9', ' ',
];

// ------------------------------------------------------------------ AST

/// A random identifier `[A-Z][A-Z0-9_]{0,6}` that is not a keyword.
pub fn ident(rng: &mut Rng) -> String {
    loop {
        let mut s = String::new();
        s.push(*rng.choose(&UPPER));
        let tail = rng.gen_range(0usize..7);
        for _ in 0..tail {
            s.push(*rng.choose(&IDENT_TAIL));
        }
        if Keyword::from_ident(&s).is_none() {
            return s;
        }
    }
}

fn option_of<T>(rng: &mut Rng, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    if rng.gen_bool(0.5) {
        Some(f(rng))
    } else {
        None
    }
}

/// A random, possibly-qualified column reference.
pub fn column_ref(rng: &mut Rng) -> ColumnRef {
    ColumnRef { table: option_of(rng, ident), column: ident(rng) }
}

/// A random table reference with optional alias.
pub fn table_ref(rng: &mut Rng) -> TableRef {
    TableRef { table: ident(rng), alias: option_of(rng, ident) }
}

/// A uniformly chosen comparison operator.
pub fn compare_op(rng: &mut Rng) -> CompareOp {
    *rng.choose(&[
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ])
}

/// A comparison operand: column or literal (subqueries enter the grammar
/// through [`predicate`]'s quantified/EXISTS/IN forms, and as the scalar
/// operand of its IS NULL / IN-list / quantified forms).
pub fn operand(rng: &mut Rng) -> Operand {
    if rng.gen_bool(0.5) {
        Operand::Column(column_ref(rng))
    } else {
        Operand::Literal(literal(rng))
    }
}

/// A random SELECT item: a column, an aggregate over a column, or
/// `COUNT(*)`, with an optional alias.
pub fn select_item(rng: &mut Rng) -> SelectItem {
    let expr = match rng.gen_range(0u32..3) {
        0 => ScalarExpr::Column(column_ref(rng)),
        1 => {
            let f = *rng.choose(&[
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Max,
                AggFunc::Min,
            ]);
            ScalarExpr::Aggregate(f, AggArg::Column(column_ref(rng)))
        }
        _ => ScalarExpr::Aggregate(AggFunc::Count, AggArg::Star),
    };
    SelectItem { expr, alias: option_of(rng, ident) }
}

/// A random WHERE predicate with up to `depth` levels of subquery nesting.
pub fn predicate(rng: &mut Rng, depth: u32) -> Predicate {
    let with_sub = |rng: &mut Rng| leaf_or_subquery(rng, depth);
    match rng.gen_range(0u32..4) {
        0 => with_sub(rng),
        1 => Predicate::And((0..rng.gen_range(2usize..4)).map(|_| with_sub(rng)).collect()),
        2 => Predicate::Or((0..rng.gen_range(2usize..4)).map(|_| with_sub(rng)).collect()),
        _ => Predicate::Not(Box::new(with_sub(rng))),
    }
}

fn leaf_or_subquery(rng: &mut Rng, depth: u32) -> Predicate {
    // A scalar subquery where a column usually stands (forms 6 to 8): the
    // operand of IS NULL, of IN (list), the left of a quantifier.
    let scalar = |rng: &mut Rng| Operand::Subquery(Box::new(query_block(rng, depth - 1)));
    let choices = if depth == 0 { 3 } else { 9 };
    match rng.gen_range(0u32..choices) {
        0 => Predicate::Compare { left: operand(rng), op: compare_op(rng), right: operand(rng) },
        1 => Predicate::In {
            operand: operand(rng),
            negated: rng.gen_bool(0.5),
            rhs: InRhs::List((0..rng.gen_range(1usize..4)).map(|_| literal(rng)).collect()),
        },
        2 => Predicate::IsNull { operand: operand(rng), negated: rng.gen_bool(0.5) },
        3 => Predicate::Exists {
            negated: rng.gen_bool(0.5),
            query: Box::new(query_block(rng, depth - 1)),
        },
        4 => Predicate::In {
            operand: operand(rng),
            negated: false,
            rhs: InRhs::Subquery(Box::new(query_block(rng, depth - 1))),
        },
        5 => Predicate::Quantified {
            left: operand(rng),
            op: compare_op(rng),
            quantifier: *rng.choose(&[Quantifier::Any, Quantifier::All]),
            query: Box::new(query_block(rng, depth - 1)),
        },
        6 => Predicate::IsNull { operand: scalar(rng), negated: rng.gen_bool(0.5) },
        7 => Predicate::In {
            operand: scalar(rng),
            negated: rng.gen_bool(0.5),
            rhs: InRhs::List((0..rng.gen_range(1usize..4)).map(|_| literal(rng)).collect()),
        },
        _ => Predicate::Quantified {
            left: scalar(rng),
            op: compare_op(rng),
            quantifier: *rng.choose(&[Quantifier::Any, Quantifier::All]),
            query: Box::new(query_block(rng, depth - 1)),
        },
    }
}

/// A random query block with up to `depth` levels of subquery nesting.
pub fn query_block(rng: &mut Rng, depth: u32) -> QueryBlock {
    QueryBlock {
        distinct: rng.gen_bool(0.5),
        select: (0..rng.gen_range(1usize..4)).map(|_| select_item(rng)).collect(),
        from: (0..rng.gen_range(1usize..3)).map(|_| table_ref(rng)).collect(),
        where_clause: option_of(rng, |rng| predicate(rng, depth)),
        group_by: (0..rng.gen_range(0usize..3)).map(|_| column_ref(rng)).collect(),
        order_by: vec![],
    }
}

// ------------------------------------------------------------- shrinkers

/// Shrink an identifier within the identifier grammar: drop trailing
/// characters and simplify toward `"A"`, never producing a keyword.
fn shrink_ident(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    if s.len() > 1 {
        out.push(s[..s.len() - 1].to_string());
    }
    if s != "A" {
        out.push("A".to_string());
    }
    out.retain(|c| Keyword::from_ident(c).is_none());
    out
}

fn shrink_opt_ident(o: &Option<String>) -> Vec<Option<String>> {
    match o {
        None => Vec::new(),
        Some(s) => {
            let mut out = vec![None];
            out.extend(shrink_ident(s).into_iter().map(Some));
            out
        }
    }
}

/// Shrink a vector elementwise and by removal, keeping at least `min`
/// elements (SELECT and FROM lists must stay non-empty).
fn shrink_vec_min<T: Shrink + Clone>(v: &[T], min: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if v.len() > min {
        for i in 0..v.len() {
            let mut c = v.to_vec();
            c.remove(i);
            out.push(c);
        }
    }
    for i in 0..v.len() {
        for repl in v[i].shrink() {
            let mut c = v.to_vec();
            c[i] = repl;
            out.push(c);
        }
    }
    out
}

impl Shrink for Value {
    fn shrink(&self) -> Vec<Self> {
        match self {
            Value::Null => Vec::new(),
            Value::Int(i) => i.shrink().into_iter().map(Value::Int).collect(),
            Value::Float(f) => f.shrink().into_iter().map(Value::Float).collect(),
            Value::Str(s) => s.shrink().into_iter().map(Value::Str).collect(),
            Value::Date(d) => d.shrink().into_iter().map(Value::Date).collect(),
            Value::Bool(b) => b.shrink().into_iter().map(Value::Bool).collect(),
        }
    }
}

impl Shrink for Date {
    fn shrink(&self) -> Vec<Self> {
        let anchor = Date::new(2000, 1, 1).expect("valid");
        if *self == anchor {
            Vec::new()
        } else {
            vec![anchor]
        }
    }
}

impl Shrink for ColumnRef {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<ColumnRef> = shrink_opt_ident(&self.table)
            .into_iter()
            .map(|t| ColumnRef { table: t, column: self.column.clone() })
            .collect();
        out.extend(
            shrink_ident(&self.column)
                .into_iter()
                .map(|c| ColumnRef { table: self.table.clone(), column: c }),
        );
        out
    }
}

impl Shrink for TableRef {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<TableRef> = shrink_opt_ident(&self.alias)
            .into_iter()
            .map(|a| TableRef { table: self.table.clone(), alias: a })
            .collect();
        out.extend(
            shrink_ident(&self.table)
                .into_iter()
                .map(|t| TableRef { table: t, alias: self.alias.clone() }),
        );
        out
    }
}

impl Shrink for SelectItem {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<SelectItem> = shrink_opt_ident(&self.alias)
            .into_iter()
            .map(|a| SelectItem { expr: self.expr.clone(), alias: a })
            .collect();
        let exprs: Vec<ScalarExpr> = match &self.expr {
            ScalarExpr::Column(c) => c.shrink().into_iter().map(ScalarExpr::Column).collect(),
            ScalarExpr::Literal(v) => v.shrink().into_iter().map(ScalarExpr::Literal).collect(),
            // `*` stays COUNT-only, so never cross between Star and Column.
            ScalarExpr::Aggregate(f, AggArg::Column(c)) => {
                let mut e: Vec<ScalarExpr> = c
                    .shrink()
                    .into_iter()
                    .map(|c| ScalarExpr::Aggregate(*f, AggArg::Column(c)))
                    .collect();
                e.push(ScalarExpr::Column(c.clone()));
                e
            }
            ScalarExpr::Aggregate(_, AggArg::Star) => Vec::new(),
        };
        out.extend(exprs.into_iter().map(|expr| SelectItem { expr, alias: self.alias.clone() }));
        out
    }
}

impl Shrink for Operand {
    fn shrink(&self) -> Vec<Self> {
        match self {
            Operand::Column(c) => c.shrink().into_iter().map(Operand::Column).collect(),
            Operand::Literal(v) => v.shrink().into_iter().map(Operand::Literal).collect(),
            Operand::Subquery(q) => {
                q.shrink().into_iter().map(|q| Operand::Subquery(Box::new(q))).collect()
            }
        }
    }
}

impl Shrink for Predicate {
    fn shrink(&self) -> Vec<Self> {
        match self {
            // A conjunct/disjunct list first collapses to any single child,
            // then shrinks as a list of at least two (the printer drops
            // 1-element AND/OR, which would break the round-trip shape).
            Predicate::And(ps) => {
                let mut out = ps.clone();
                out.extend(shrink_vec_min(ps, 2).into_iter().map(Predicate::And));
                out
            }
            Predicate::Or(ps) => {
                let mut out = ps.clone();
                out.extend(shrink_vec_min(ps, 2).into_iter().map(Predicate::Or));
                out
            }
            Predicate::Not(p) => {
                let mut out = vec![(**p).clone()];
                out.extend(p.shrink().into_iter().map(|p| Predicate::Not(Box::new(p))));
                out
            }
            Predicate::Compare { left, op, right } => {
                let mut out: Vec<Predicate> = left
                    .shrink()
                    .into_iter()
                    .map(|l| Predicate::Compare { left: l, op: *op, right: right.clone() })
                    .collect();
                out.extend(right.shrink().into_iter().map(|r| Predicate::Compare {
                    left: left.clone(),
                    op: *op,
                    right: r,
                }));
                out
            }
            Predicate::In { operand, negated, rhs } => {
                let mut out = Vec::new();
                if *negated {
                    out.push(Predicate::In {
                        operand: operand.clone(),
                        negated: false,
                        rhs: rhs.clone(),
                    });
                }
                let rhss: Vec<InRhs> = match rhs {
                    InRhs::List(vs) => {
                        shrink_vec_min(vs, 1).into_iter().map(InRhs::List).collect()
                    }
                    InRhs::Subquery(q) => {
                        q.shrink().into_iter().map(|q| InRhs::Subquery(Box::new(q))).collect()
                    }
                };
                out.extend(rhss.into_iter().map(|rhs| Predicate::In {
                    operand: operand.clone(),
                    negated: *negated,
                    rhs,
                }));
                out.extend(operand.shrink().into_iter().map(|o| Predicate::In {
                    operand: o,
                    negated: *negated,
                    rhs: rhs.clone(),
                }));
                out
            }
            Predicate::IsNull { operand, negated } => {
                let mut out = Vec::new();
                if *negated {
                    out.push(Predicate::IsNull { operand: operand.clone(), negated: false });
                }
                out.extend(
                    operand
                        .shrink()
                        .into_iter()
                        .map(|o| Predicate::IsNull { operand: o, negated: *negated }),
                );
                out
            }
            Predicate::Exists { negated, query } => {
                let mut out = Vec::new();
                if *negated {
                    out.push(Predicate::Exists { negated: false, query: query.clone() });
                }
                out.extend(query.shrink().into_iter().map(|q| Predicate::Exists {
                    negated: *negated,
                    query: Box::new(q),
                }));
                out
            }
            Predicate::Quantified { left, op, quantifier, query } => {
                let mut out: Vec<Predicate> = query
                    .shrink()
                    .into_iter()
                    .map(|q| Predicate::Quantified {
                        left: left.clone(),
                        op: *op,
                        quantifier: *quantifier,
                        query: Box::new(q),
                    })
                    .collect();
                out.extend(left.shrink().into_iter().map(|l| Predicate::Quantified {
                    left: l,
                    op: *op,
                    quantifier: *quantifier,
                    query: query.clone(),
                }));
                out
            }
        }
    }
}

impl Shrink for QueryBlock {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.distinct {
            out.push(QueryBlock { distinct: false, ..self.clone() });
        }
        for select in shrink_vec_min(&self.select, 1) {
            out.push(QueryBlock { select, ..self.clone() });
        }
        for from in shrink_vec_min(&self.from, 1) {
            out.push(QueryBlock { from, ..self.clone() });
        }
        for where_clause in self.where_clause.shrink() {
            out.push(QueryBlock { where_clause, ..self.clone() });
        }
        for group_by in shrink_vec_min(&self.group_by, 0) {
            out.push(QueryBlock { group_by, ..self.clone() });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_are_never_keywords_and_well_formed() {
        let mut rng = Rng::from_seed(11);
        for _ in 0..500 {
            let s = ident(&mut rng);
            assert!(Keyword::from_ident(&s).is_none(), "{s}");
            assert!(s.chars().next().unwrap().is_ascii_uppercase());
            assert!(s.len() <= 7);
            for c in shrink_ident(&s) {
                assert!(Keyword::from_ident(&c).is_none(), "shrunk {c}");
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn query_block_shrink_preserves_grammar_minima() {
        let mut rng = Rng::from_seed(23);
        for _ in 0..100 {
            let q = query_block(&mut rng, 1);
            for cand in q.shrink() {
                assert!(!cand.select.is_empty(), "SELECT list must stay non-empty");
                assert!(!cand.from.is_empty(), "FROM list must stay non-empty");
            }
        }
    }

    #[test]
    fn relation_generator_respects_schema() {
        let mut rng = Rng::from_seed(5);
        let schema = Schema::new(vec![
            nsql_types::Column::new("K", ColumnType::Int),
            nsql_types::Column::new("D", ColumnType::Date),
        ]);
        let r = relation(&mut rng, schema, 0..30);
        assert!(r.len() < 30);
        for t in r.tuples() {
            assert_eq!(t.values().len(), 2);
        }
    }
}
