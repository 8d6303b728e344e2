//! Compiled scalar expressions: column references resolved to tuple field
//! indices against a fixed schema.

use crate::error::EngineError;
use crate::Result;
use nsql_sql::{ColumnRef, Operand, ScalarExpr};
use nsql_types::{Schema, Tuple, Value};

/// A compiled scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Tuple field by index.
    Col(usize),
    /// Constant.
    Lit(Value),
}

/// Field access for expression evaluation: either a real tuple, or a
/// virtual concatenation of two tuples (a join candidate) that is never
/// materialized. Join operators evaluate residual/ON predicates through
/// [`Joined`] so that candidate pairs which fail the predicate cost no
/// allocation at all.
pub trait Row {
    /// The value at field `i` of the (possibly virtual) row.
    fn field(&self, i: usize) -> &Value;
}

impl Row for Tuple {
    fn field(&self, i: usize) -> &Value {
        self.get(i)
    }
}

/// A join candidate `left ++ right`, evaluated in place.
pub struct Joined<'a> {
    left: &'a Tuple,
    right: &'a Tuple,
    split: usize,
}

impl<'a> Joined<'a> {
    /// View `left ++ right` as one row without concatenating.
    pub fn new(left: &'a Tuple, right: &'a Tuple) -> Joined<'a> {
        Joined { left, right, split: left.arity() }
    }
}

impl Row for Joined<'_> {
    fn field(&self, i: usize) -> &Value {
        if i < self.split {
            self.left.get(i)
        } else {
            self.right.get(i - self.split)
        }
    }
}

impl CExpr {
    /// Evaluate against a tuple.
    pub fn eval<'t>(&'t self, tuple: &'t Tuple) -> &'t Value {
        self.eval_row(tuple)
    }

    /// Evaluate against any [`Row`] (tuple or virtual join pair).
    pub fn eval_row<'t, R: Row>(&'t self, row: &'t R) -> &'t Value {
        match self {
            CExpr::Col(i) => row.field(*i),
            CExpr::Lit(v) => v,
        }
    }

    /// Compile a column reference against `schema`.
    pub fn compile_column(schema: &Schema, c: &ColumnRef) -> Result<CExpr> {
        let idx = schema.resolve(c.table.as_deref(), &c.column)?;
        Ok(CExpr::Col(idx))
    }

    /// Compile an AST operand. Subquery operands are rejected — they must
    /// have been evaluated (nested iteration) or transformed away before
    /// physical compilation.
    pub fn compile_operand(schema: &Schema, o: &Operand) -> Result<CExpr> {
        match o {
            Operand::Column(c) => CExpr::compile_column(schema, c),
            Operand::Literal(v) => Ok(CExpr::Lit(v.clone())),
            Operand::Subquery(_) => Err(EngineError::Unsupported(
                "subquery operand in physical expression (transform it away first)".into(),
            )),
        }
    }

    /// Compile a SELECT-list scalar (no aggregates at this layer).
    pub fn compile_scalar(schema: &Schema, e: &ScalarExpr) -> Result<CExpr> {
        match e {
            ScalarExpr::Column(c) => CExpr::compile_column(schema, c),
            ScalarExpr::Literal(v) => Ok(CExpr::Lit(v.clone())),
            ScalarExpr::Aggregate(..) => Err(EngineError::Unsupported(
                "aggregate in scalar position (use the aggregate operator)".into(),
            )),
        }
    }
}

/// A compiled projection list: one output value per expression, cloned
/// out of the (shared, hence never consumable) input row.
#[derive(Debug, Clone)]
pub struct Projector {
    exprs: Vec<CExpr>,
}

impl Projector {
    /// Plan a projection for `exprs`.
    pub fn new(exprs: &[CExpr]) -> Projector {
        Projector { exprs: exprs.to_vec() }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.exprs.len()
    }

    /// Project a borrowed tuple, cloning only the projected columns.
    pub fn apply_ref(&self, tuple: &Tuple) -> Tuple {
        self.exprs.iter().map(|e| e.eval(tuple).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "B", ColumnType::Str),
        ])
    }

    #[test]
    fn compiles_and_evaluates_columns() {
        let s = schema();
        let e = CExpr::compile_column(&s, &ColumnRef::qualified("T", "B")).unwrap();
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(e.eval(&t), &Value::str("x"));
    }

    #[test]
    fn rejects_subquery_operand() {
        let s = schema();
        let q = nsql_sql::parse_query("SELECT A FROM T").unwrap();
        let o = Operand::Subquery(Box::new(q));
        assert!(matches!(
            CExpr::compile_operand(&s, &o),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn literal_evaluates_to_itself() {
        let e = CExpr::Lit(Value::Int(9));
        let t = Tuple::new(vec![]);
        assert_eq!(e.eval(&t), &Value::Int(9));
    }

    #[test]
    fn projector_matches_naive_eval_with_repeated_columns() {
        let exprs = [CExpr::Col(0), CExpr::Lit(Value::Int(7)), CExpr::Col(1), CExpr::Col(0)];
        let p = Projector::new(&exprs);
        let t = Tuple::new(vec![Value::str("left"), Value::Int(2)]);
        let want: Tuple = exprs.iter().map(|e| e.eval(&t).clone()).collect();
        assert_eq!(p.apply_ref(&t), want);
        assert_eq!(p.arity(), 4);
    }

    #[test]
    fn projector_handles_empty_and_literal_only_lists() {
        let p = Projector::new(&[]);
        assert_eq!(p.apply_ref(&Tuple::new(vec![Value::Int(1)])), Tuple::new(vec![]));
        let p = Projector::new(&[CExpr::Lit(Value::Null)]);
        assert_eq!(p.apply_ref(&Tuple::new(vec![])), Tuple::new(vec![Value::Null]));
    }
}
