//! Compiled predicates with SQL three-valued logic.
//!
//! Evaluation returns `Option<bool>`: `Some(true)` / `Some(false)` /
//! `None` (*unknown*). `WHERE` keeps a row only when the predicate is
//! `Some(true)` — the rule that makes `MAX(∅) = NULL` drop rows in the
//! paper's Q5 example and that outer-join `NULL` padding interacts with.
//!
//! Two forms. [`CPred`] is the executable one, over column indices of a
//! fixed tuple schema. A [`Template`] is nested iteration's per-block form:
//! a block's simple WHERE conjuncts compiled once per query, with outer
//! (correlated) references left as slots, so each evaluation of the block
//! binds them as constants ([`Template::conjuncts`]) and gets one [`CPred`]
//! per conjunct.

use crate::error::EngineError;
use crate::expr::{CExpr, Row};
use crate::Result;
use nsql_sql::{ColumnRef, CompareOp, InRhs, Operand, Predicate};
use nsql_types::{ColumnType, Schema, Tuple, Value};

/// Three-valued AND over an iterator of truth values.
pub fn and3(values: impl IntoIterator<Item = Option<bool>>) -> Option<bool> {
    let mut unknown = false;
    for v in values {
        match v {
            Some(false) => return Some(false),
            None => unknown = true,
            Some(true) => {}
        }
    }
    if unknown {
        None
    } else {
        Some(true)
    }
}

/// Three-valued OR over an iterator of truth values.
pub fn or3(values: impl IntoIterator<Item = Option<bool>>) -> Option<bool> {
    let mut unknown = false;
    for v in values {
        match v {
            Some(true) => return Some(true),
            None => unknown = true,
            Some(false) => {}
        }
    }
    if unknown {
        None
    } else {
        Some(false)
    }
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
            CPred::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval_row(row)? {
                        Some(false) => return Ok(Some(false)),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            CPred::Or(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval_row(row)? {
                        Some(true) => return Ok(Some(true)),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
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
    let mut unknown = false;
    for item in list {
        match v.sql_eq(item)? {
            Some(true) => return Ok(Some(true)),
            None => unknown = true,
            Some(false) => {}
        }
    }
    Ok(if unknown { None } else { Some(false) })
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

/// A template operand: local column, outer (correlated) reference by slot,
/// or literal.
#[derive(Debug, Clone, PartialEq)]
pub enum TOperand {
    /// Column of the local (block) schema, by index.
    Local(usize),
    /// Slot into the template's `outer_refs` list; instantiated per
    /// outer binding.
    Outer(usize),
    /// Literal constant.
    Lit(Value),
}

/// A template predicate, shaped like [`CPred`] over [`TOperand`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum TPred {
    /// Constant truth value.
    Const(Option<bool>),
    /// Conjunction.
    And(Vec<TPred>),
    /// Disjunction.
    Or(Vec<TPred>),
    /// Negation.
    Not(Box<TPred>),
    /// Scalar comparison.
    Cmp {
        /// Left side.
        left: TOperand,
        /// Operator.
        op: CompareOp,
        /// Right side.
        right: TOperand,
    },
    /// Membership in a literal list.
    InList {
        /// Tested operand.
        expr: TOperand,
        /// List of values.
        list: Vec<Value>,
        /// Negated?
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested operand.
        expr: TOperand,
        /// `IS NOT NULL`?
        negated: bool,
    },
}

/// A block-level predicate template: a WHERE conjunct list with local
/// references resolved to column indices and outer references collected
/// for per-binding instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// The shaped conjuncts, in WHERE order.
    pub conjuncts: Vec<TPred>,
    /// Deduplicated outer references, in first-appearance order; slot `i`
    /// corresponds to [`TOperand::Outer`]`(i)`.
    pub outer_refs: Vec<ColumnRef>,
}

impl Template {
    /// Compile a WHERE conjunct list against a block's local `schema`.
    /// Returns `None` when a conjunct holds anything that must stay lazy: a
    /// subquery in any position, or a reference that is *ambiguous* in the
    /// local schema (the interpreter raises that error only when a tuple
    /// reaches the operand; declining keeps that behavior canonical).
    /// References that simply don't resolve locally become outer slots.
    pub fn compile(schema: &Schema, conjuncts: &[&Predicate]) -> Option<Template> {
        let mut outer_refs = Vec::new();
        let conjuncts = conjuncts
            .iter()
            .map(|p| compile_tpred(schema, p, &mut outer_refs))
            .collect::<Option<_>>()?;
        Some(Template { conjuncts, outer_refs })
    }

    /// Bind one evaluation's outer values (`outer_vals[i]` is the resolved
    /// value of `outer_refs[i]`) and return one [`CPred`] per conjunct.
    /// WHERE keeps a binding only while every conjunct in turn is TRUE, so
    /// callers evaluate the list in order and stop at the first non-TRUE
    /// one — unlike an `AND` *inside* a conjunct, which evaluates on past
    /// an UNKNOWN operand.
    pub fn conjuncts(&self, outer_vals: &[Value]) -> Vec<CPred> {
        debug_assert_eq!(outer_vals.len(), self.outer_refs.len());
        self.conjuncts.iter().map(|q| instantiate_tpred(q, outer_vals)).collect()
    }
}

fn compile_operand(
    schema: &Schema,
    o: &Operand,
    outer_refs: &mut Vec<ColumnRef>,
) -> Option<TOperand> {
    match o {
        Operand::Literal(v) => Some(TOperand::Lit(v.clone())),
        Operand::Subquery(_) => None,
        Operand::Column(c) => match schema.resolve(c.table.as_deref(), &c.column) {
            Ok(i) => Some(TOperand::Local(i)),
            // Ambiguous in the local scope: the interpreter errors here (the
            // innermost scope wins ambiguity checks), and it may do so
            // lazily under OR short-circuit — decline so it stays lazy.
            Err(nsql_types::TypeError::AmbiguousColumn(_)) => None,
            Err(_) => {
                let slot = match outer_refs.iter().position(|r| r == c) {
                    Some(i) => i,
                    None => {
                        outer_refs.push(c.clone());
                        outer_refs.len() - 1
                    }
                };
                Some(TOperand::Outer(slot))
            }
        },
    }
}

fn compile_tpred(
    schema: &Schema,
    p: &Predicate,
    outer_refs: &mut Vec<ColumnRef>,
) -> Option<TPred> {
    Some(match p {
        Predicate::And(ps) => TPred::And(
            ps.iter().map(|q| compile_tpred(schema, q, outer_refs)).collect::<Option<_>>()?,
        ),
        Predicate::Or(ps) => TPred::Or(
            ps.iter().map(|q| compile_tpred(schema, q, outer_refs)).collect::<Option<_>>()?,
        ),
        Predicate::Not(q) => TPred::Not(Box::new(compile_tpred(schema, q, outer_refs)?)),
        Predicate::Compare { left, op, right } => TPred::Cmp {
            left: compile_operand(schema, left, outer_refs)?,
            op: *op,
            right: compile_operand(schema, right, outer_refs)?,
        },
        Predicate::In { operand, negated, rhs: InRhs::List(list) } => TPred::InList {
            expr: compile_operand(schema, operand, outer_refs)?,
            list: list.clone(),
            negated: *negated,
        },
        Predicate::In { rhs: InRhs::Subquery(_), .. }
        | Predicate::Exists { .. }
        | Predicate::Quantified { .. } => return None,
        Predicate::IsNull { operand, negated } => TPred::IsNull {
            expr: compile_operand(schema, operand, outer_refs)?,
            negated: *negated,
        },
    })
}

fn instantiate_operand(o: &TOperand, outer_vals: &[Value]) -> CExpr {
    match o {
        TOperand::Local(i) => CExpr::Col(*i),
        TOperand::Outer(s) => CExpr::Lit(outer_vals[*s].clone()),
        TOperand::Lit(v) => CExpr::Lit(v.clone()),
    }
}

fn instantiate_tpred(p: &TPred, outer_vals: &[Value]) -> CPred {
    match p {
        TPred::Const(v) => CPred::Const(*v),
        TPred::And(ps) => {
            CPred::And(ps.iter().map(|q| instantiate_tpred(q, outer_vals)).collect())
        }
        TPred::Or(ps) => {
            CPred::Or(ps.iter().map(|q| instantiate_tpred(q, outer_vals)).collect())
        }
        TPred::Not(q) => CPred::Not(Box::new(instantiate_tpred(q, outer_vals))),
        TPred::Cmp { left, op, right } => CPred::Cmp {
            left: instantiate_operand(left, outer_vals),
            op: *op,
            right: instantiate_operand(right, outer_vals),
        },
        TPred::InList { expr, list, negated } => CPred::InList {
            expr: instantiate_operand(expr, outer_vals),
            list: list.clone(),
            negated: *negated,
        },
        TPred::IsNull { expr, negated } => CPred::IsNull {
            expr: instantiate_operand(expr, outer_vals),
            negated: *negated,
        },
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

    #[test]
    fn three_valued_and() {
        assert_eq!(and3([Some(true), Some(true)]), Some(true));
        assert_eq!(and3([Some(true), Some(false), None]), Some(false));
        assert_eq!(and3([Some(true), None]), None);
        assert_eq!(and3([]), Some(true));
    }

    #[test]
    fn three_valued_or() {
        assert_eq!(or3([Some(false), Some(true), None]), Some(true));
        assert_eq!(or3([Some(false), None]), None);
        assert_eq!(or3([Some(false)]), Some(false));
        assert_eq!(or3([]), Some(false));
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

    #[test]
    fn template_compiles_locals_outers_and_declines_subqueries() {
        let s = Schema::new(vec![Column::qualified("SUPPLY", "PNUM", ColumnType::Int)]);
        let q = parse_query(
            "SELECT PNUM FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND PNUM > 2",
        )
        .unwrap();
        let t = Template::compile(&s, &q.where_clause.as_ref().unwrap().conjuncts()).unwrap();
        assert_eq!(t.outer_refs, vec![ColumnRef::qualified("PARTS", "PNUM")]);
        // Binding an evaluation's outer value turns the slot into a
        // constant: one predicate per conjunct.
        let cs = t.conjuncts(&[Value::Int(7)]);
        assert_eq!(cs.len(), 2);
        let rows: Vec<bool> = [7, 3, 7]
            .iter()
            .map(|&k| cs.iter().all(|c| c.accepts(&Tuple::new(vec![Value::Int(k)])).unwrap()))
            .collect();
        assert_eq!(rows, [true, false, true]);

        // A subquery in any position → decline.
        for nested in ["PNUM IN (SELECT X FROM Y)", "(SELECT MAX(X) FROM Y) IS NULL"] {
            let q = parse_query(&format!("SELECT PNUM FROM SUPPLY WHERE {nested}")).unwrap();
            let conjuncts = q.where_clause.as_ref().unwrap().conjuncts();
            assert!(Template::compile(&s, &conjuncts).is_none(), "{nested}");
        }
    }

    #[test]
    fn template_declines_locally_ambiguous_references() {
        let s = Schema::new(vec![
            Column::qualified("A", "K", ColumnType::Int),
            Column::qualified("B", "K", ColumnType::Int),
        ]);
        let q = parse_query("SELECT K FROM T WHERE K = 1").unwrap();
        assert!(Template::compile(&s, &q.where_clause.as_ref().unwrap().conjuncts()).is_none());
    }

    #[test]
    fn outer_refs_deduplicate_by_slot() {
        let s = Schema::new(vec![Column::qualified("S", "X", ColumnType::Int)]);
        let q = parse_query("SELECT X FROM S WHERE X = P.K OR X < P.K").unwrap();
        let t = Template::compile(&s, &q.where_clause.as_ref().unwrap().conjuncts()).unwrap();
        assert_eq!(t.outer_refs.len(), 1);
    }
}
