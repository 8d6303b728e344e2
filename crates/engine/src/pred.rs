//! Compiled predicates with SQL three-valued logic.
//!
//! Evaluation returns `Option<bool>`: `Some(true)` / `Some(false)` /
//! `None` (*unknown*). `WHERE` keeps a row only when the predicate is
//! `Some(true)` — the rule that makes `MAX(∅) = NULL` drop rows in the
//! paper's Q5 example and that outer-join `NULL` padding interacts with.
//!
//! [`CPred`] is the one executable form, over column indices of a fixed
//! tuple schema. Nested iteration compiles a block's simple conjuncts once
//! against the block's scope joined with its outer references, and runs them
//! on a binding joined with the evaluation's outer values
//! ([`crate::expr::Joined`]).

use crate::error::EngineError;
use crate::expr::{CExpr, Row};
use crate::Result;
use nsql_sql::{ColumnRef, CompareOp, InRhs, Operand, Predicate};
use nsql_types::{ColumnType, Schema, Tuple, Value};

/// Three-valued AND of `items`, each evaluated by `eval` in turn until one
/// is FALSE or raises: FALSE if one is, else UNKNOWN if one is, else TRUE.
pub fn and3<T>(items: &[T], eval: impl FnMut(&T) -> Result<Option<bool>>) -> Result<Option<bool>> {
    fold3(items, false, eval)
}

/// Three-valued OR of `items`, each evaluated by `eval` in turn until one
/// is TRUE or raises: TRUE if one is, else UNKNOWN if one is, else FALSE.
pub fn or3<T>(items: &[T], eval: impl FnMut(&T) -> Result<Option<bool>>) -> Result<Option<bool>> {
    fold3(items, true, eval)
}

/// [`and3`] (`decisive` FALSE) and [`or3`] (`decisive` TRUE).
fn fold3<T>(
    items: &[T],
    decisive: bool,
    mut eval: impl FnMut(&T) -> Result<Option<bool>>,
) -> Result<Option<bool>> {
    let mut unknown = false;
    for item in items {
        match eval(item)? {
            Some(v) if v == decisive => return Ok(Some(decisive)),
            None => unknown = true,
            Some(_) => {}
        }
    }
    Ok(if unknown { None } else { Some(!decisive) })
}

/// Three-valued NOT.
pub fn not3(v: Option<bool>) -> Option<bool> {
    v.map(|b| !b)
}

/// A compiled predicate over a fixed tuple schema.
#[derive(Debug, Clone, PartialEq)]
pub enum CPred {
    /// Constant truth value (used for empty conjunctions).
    Const(Option<bool>),
    /// Conjunction.
    And(Vec<CPred>),
    /// Disjunction.
    Or(Vec<CPred>),
    /// Negation.
    Not(Box<CPred>),
    /// Scalar comparison.
    Cmp {
        /// Left side.
        left: CExpr,
        /// Operator.
        op: CompareOp,
        /// Right side.
        right: CExpr,
    },
    /// Membership in a literal list.
    InList {
        /// Tested expression.
        expr: CExpr,
        /// List of values.
        list: Vec<Value>,
        /// Negated?
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: CExpr,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `p IS NOT FALSE`: `TRUE` where `p` is `TRUE` or `UNKNOWN`. A
    /// null-aware anti-join's comparison (`NOT IN`'s `x = c`): a `NULL` on
    /// either side is a match, which drops the outer row.
    NotFalse(Box<CPred>),
}

impl CPred {
    /// Evaluate under three-valued logic.
    pub fn eval(&self, tuple: &Tuple) -> Result<Option<bool>> {
        self.eval_row(tuple)
    }

    /// Evaluate against any [`Row`] — a tuple, or a join candidate viewed
    /// through [`crate::expr::Joined`] without concatenating.
    pub fn eval_row<R: Row>(&self, row: &R) -> Result<Option<bool>> {
        Ok(match self {
            CPred::Const(v) => *v,
            CPred::And(ps) => and3(ps, |p| p.eval_row(row))?,
            CPred::Or(ps) => or3(ps, |p| p.eval_row(row))?,
            CPred::Not(p) => not3(p.eval_row(row)?),
            CPred::Cmp { left, op, right } => {
                compare_values(left.eval_row(row), *op, right.eval_row(row))?
            }
            CPred::InList { expr, list, negated } => {
                let v = in_list(expr.eval_row(row), list)?;
                if *negated {
                    not3(v)
                } else {
                    v
                }
            }
            CPred::IsNull { expr, negated } => {
                let isnull = expr.eval_row(row).is_null();
                Some(if *negated { !isnull } else { isnull })
            }
            CPred::NotFalse(p) => Some(p.eval_row(row)? != Some(false)),
        })
    }

    /// True iff `eval` returns `Some(true)` — the WHERE-clause acceptance
    /// test.
    pub fn accepts(&self, tuple: &Tuple) -> Result<bool> {
        Ok(self.eval_row(tuple)? == Some(true))
    }

    /// [`accepts`](CPred::accepts) over any [`Row`].
    pub fn accepts_row<R: Row>(&self, row: &R) -> Result<bool> {
        Ok(self.eval_row(row)? == Some(true))
    }

    /// Compile an AST predicate against `schema`. Subqueries are rejected
    /// (see [`CExpr::compile_operand`]); `Exists`/`Quantified` never reach
    /// physical compilation.
    pub fn compile(schema: &Schema, p: &Predicate) -> Result<CPred> {
        Ok(match p {
            Predicate::And(ps) => CPred::And(
                ps.iter().map(|q| CPred::compile(schema, q)).collect::<Result<_>>()?,
            ),
            Predicate::Or(ps) => CPred::Or(
                ps.iter().map(|q| CPred::compile(schema, q)).collect::<Result<_>>()?,
            ),
            Predicate::Not(q) => CPred::Not(Box::new(CPred::compile(schema, q)?)),
            Predicate::Compare { left, op, right } => CPred::Cmp {
                left: CExpr::compile_operand(schema, left)?,
                op: *op,
                right: CExpr::compile_operand(schema, right)?,
            },
            Predicate::In { operand, negated, rhs: InRhs::List(list) } => CPred::InList {
                expr: CExpr::compile_operand(schema, operand)?,
                list: list.clone(),
                negated: *negated,
            },
            Predicate::In { rhs: InRhs::Subquery(_), .. } => {
                return Err(EngineError::Unsupported(
                    "IN subquery in physical predicate (transform it away first)".into(),
                ))
            }
            Predicate::Exists { .. } | Predicate::Quantified { .. } => {
                return Err(EngineError::Unsupported(
                    "EXISTS/quantified predicate in physical plan (rewrite it first)".into(),
                ))
            }
            Predicate::IsNull { operand, negated } => CPred::IsNull {
                expr: CExpr::compile_operand(schema, operand)?,
                negated: *negated,
            },
        })
    }

    /// A predicate that is always true.
    pub fn always_true() -> CPred {
        CPred::Const(Some(true))
    }

    /// Add every column this predicate reads to `out` (in no order, with
    /// repeats).
    pub fn columns(&self, out: &mut Vec<usize>) {
        let mut expr = |e: &CExpr| {
            if let CExpr::Col(i) = e {
                out.push(*i);
            }
        };
        match self {
            CPred::Const(_) => {}
            CPred::And(ps) | CPred::Or(ps) => ps.iter().for_each(|p| p.columns(out)),
            CPred::Not(p) | CPred::NotFalse(p) => p.columns(out),
            CPred::Cmp { left, right, .. } => {
                expr(left);
                expr(right);
            }
            CPred::InList { expr: e, .. } | CPred::IsNull { expr: e, .. } => expr(e),
        }
    }

    /// The same predicate over a row whose column `at(i)` is this one's
    /// column `i`: evaluated there, it gives what this one gives here.
    pub fn remap(&self, at: &impl Fn(usize) -> usize) -> CPred {
        let expr = |e: &CExpr| match e {
            CExpr::Col(i) => CExpr::Col(at(*i)),
            lit => lit.clone(),
        };
        match self {
            CPred::Const(v) => CPred::Const(*v),
            CPred::And(ps) => CPred::And(ps.iter().map(|p| p.remap(at)).collect()),
            CPred::Or(ps) => CPred::Or(ps.iter().map(|p| p.remap(at)).collect()),
            CPred::Not(p) => CPred::Not(Box::new(p.remap(at))),
            CPred::NotFalse(p) => CPred::NotFalse(Box::new(p.remap(at))),
            CPred::Cmp { left, op, right } => {
                CPred::Cmp { left: expr(left), op: *op, right: expr(right) }
            }
            CPred::InList { expr: e, list, negated } => {
                CPred::InList { expr: expr(e), list: list.clone(), negated: *negated }
            }
            CPred::IsNull { expr: e, negated } => {
                CPred::IsNull { expr: expr(e), negated: *negated }
            }
        }
    }
}

/// Compare under 3VL (`None` when either side is `NULL`).
pub fn compare_values(a: &Value, op: CompareOp, b: &Value) -> Result<Option<bool>> {
    Ok(a.sql_cmp(b)?.map(|o| op.eval(o)))
}

/// SQL `IN` over an in-memory list: `TRUE` if some element equals, else
/// `UNKNOWN` if any comparison was unknown (NULL involved), else `FALSE`.
pub fn in_list(v: &Value, list: &[Value]) -> Result<Option<bool>> {
    or3(list, |item| Ok(v.sql_eq(item)?))
}

/// Whether evaluating `p` cannot raise, when `declared` gives the declared
/// type of the columns it reads (`None`: a column nobody declared).
/// `Incomparable` — two non-NULL values of different classes meeting in a
/// comparison — is the only error [`CPred::eval`] has, so a predicate whose
/// every comparison is between operands of one declared class, or with a
/// NULL literal (which compares UNKNOWN with anything), cannot. A NULL test
/// compares nothing. A predicate holding a query block is not a compiled
/// one, and is never said to be safe.
pub fn cannot_raise(p: &Predicate, declared: &impl Fn(&ColumnRef) -> Option<ColumnType>) -> bool {
    // `None`: a class nobody declared. `Some(None)`: the NULL literal.
    let class = |o: &Operand| match o {
        Operand::Column(c) => declared(c).map(Some),
        Operand::Literal(v) => Some(v.column_type()),
        Operand::Subquery(_) => None,
    };
    let comparable = |a: Option<Option<ColumnType>>, b: Option<Option<ColumnType>>| match (a, b) {
        (Some(a), Some(b)) => a.zip(b).is_none_or(|(a, b)| a.same_class(b)),
        _ => false,
    };
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().all(|q| cannot_raise(q, declared)),
        Predicate::Not(q) => cannot_raise(q, declared),
        Predicate::Compare { left, right, .. } => comparable(class(left), class(right)),
        Predicate::In { operand, rhs: InRhs::List(list), .. } => {
            list.iter().all(|v| comparable(class(operand), Some(v.column_type())))
        }
        Predicate::IsNull { operand, .. } => operand.as_subquery().is_none(),
        Predicate::In { .. } | Predicate::Exists { .. } | Predicate::Quantified { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;
    use nsql_types::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "B", ColumnType::Int),
        ])
    }

    fn compile(src_where: &str) -> CPred {
        let q = parse_query(&format!("SELECT A FROM T WHERE {src_where}")).unwrap();
        CPred::compile(&schema(), q.where_clause.as_ref().unwrap()).unwrap()
    }

    fn t(a: Option<i64>, b: Option<i64>) -> Tuple {
        Tuple::new(vec![
            a.map_or(Value::Null, Value::Int),
            b.map_or(Value::Null, Value::Int),
        ])
    }

    fn truth(v: &Option<bool>) -> Result<Option<bool>> {
        Ok(*v)
    }

    #[test]
    fn three_valued_and() {
        assert_eq!(and3(&[Some(true), Some(true)], truth), Ok(Some(true)));
        assert_eq!(and3(&[Some(true), Some(false), None], truth), Ok(Some(false)));
        assert_eq!(and3(&[Some(true), None], truth), Ok(None));
        assert_eq!(and3(&[], truth), Ok(Some(true)));
    }

    #[test]
    fn three_valued_or() {
        assert_eq!(or3(&[Some(false), Some(true), None], truth), Ok(Some(true)));
        assert_eq!(or3(&[Some(false), None], truth), Ok(None));
        assert_eq!(or3(&[Some(false)], truth), Ok(Some(false)));
        assert_eq!(or3(&[], truth), Ok(Some(false)));
    }

    /// The fold stops at the decisive value: what follows it is never
    /// evaluated, so it cannot raise.
    #[test]
    fn the_fold_stops_at_the_decisive_value() {
        let raise = |v: &Option<bool>| match v {
            Some(b) => Ok(Some(*b)),
            None => Err(EngineError::Internal("evaluated past the decisive value".into())),
        };
        assert_eq!(and3(&[Some(true), Some(false), None], raise), Ok(Some(false)));
        assert_eq!(or3(&[Some(false), Some(true), None], raise), Ok(Some(true)));
        assert!(and3(&[Some(true), None], raise).is_err());
    }

    #[test]
    fn comparison_with_null_is_unknown() {
        let p = compile("A = 1");
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), Some(true));
        assert_eq!(p.eval(&t(None, None)).unwrap(), None);
        assert!(!p.accepts(&t(None, None)).unwrap());
    }

    #[test]
    fn and_short_circuits_unknown_correctly() {
        // FALSE AND UNKNOWN = FALSE; TRUE AND UNKNOWN = UNKNOWN.
        let p = compile("A = 1 AND B = 2");
        assert_eq!(p.eval(&t(Some(0), None)).unwrap(), Some(false));
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), None);
    }

    #[test]
    fn not_of_unknown_is_unknown() {
        let p = compile("NOT (B = 2)");
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), None);
        assert_eq!(p.eval(&t(Some(1), Some(3))).unwrap(), Some(true));
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(in_list(&Value::Int(1), &[Value::Int(1), Value::Null]).unwrap(), Some(true));
        assert_eq!(in_list(&Value::Int(2), &[Value::Int(1), Value::Null]).unwrap(), None);
        assert_eq!(in_list(&Value::Int(2), &[Value::Int(1)]).unwrap(), Some(false));
        assert_eq!(in_list(&Value::Null, &[Value::Int(1)]).unwrap(), None);
        assert_eq!(in_list(&Value::Int(1), &[]).unwrap(), Some(false));
    }

    #[test]
    fn not_in_with_null_never_accepts() {
        let p = compile("A NOT IN (1, NULL)");
        assert_eq!(p.eval(&t(Some(2), None)).unwrap(), None);
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), Some(false));
    }

    #[test]
    fn is_null_is_two_valued() {
        let p = compile("B IS NULL");
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), Some(true));
        assert_eq!(p.eval(&t(Some(1), Some(2))).unwrap(), Some(false));
        let p = compile("B IS NOT NULL");
        assert_eq!(p.eval(&t(Some(1), None)).unwrap(), Some(false));
    }

    #[test]
    fn compile_rejects_subqueries() {
        let q = parse_query("SELECT A FROM T WHERE A IN (SELECT B FROM T)").unwrap();
        assert!(CPred::compile(&schema(), q.where_clause.as_ref().unwrap()).is_err());
        let q = parse_query("SELECT A FROM T WHERE EXISTS (SELECT B FROM T)").unwrap();
        assert!(CPred::compile(&schema(), q.where_clause.as_ref().unwrap()).is_err());
    }
}
