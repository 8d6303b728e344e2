//! Vectorized predicate evaluation over column batches.
//!
//! The row path evaluates one [`CPred`] per tuple; this module evaluates
//! the same predicate over a whole [`Batch`] at once, refining a selection
//! vector. Semantics are an exact mirror of [`CPred::eval_row`]:
//!
//! * three-valued logic lane-by-lane, with [`Lane3::Err`] carrying the
//!   typed error a row-path evaluation of that row would have returned;
//! * AND/OR short-circuiting is reproduced *per lane* by active-lane
//!   tracking: a lane finalized by an earlier conjunct (FALSE, or an error)
//!   never sees later conjuncts, exactly like the row path's early return —
//!   so error visibility matches row execution operand-for-operand;
//! * `IN`-list evaluation walks the list in order per lane, first
//!   comparison error wins, `TRUE` short-circuits before later errors.
//!
//! [`VPred`] is the executable form over batch column indices, lowered from
//! a physical [`CPred`] ([`vpred_from_cpred`]); `Exec`'s vectorized filter
//! and join operators are its only users. Nested iteration has one kernel —
//! the row loop over bound [`CPred`]s — and does not come through here.

use crate::error::EngineError;
use crate::pred::CPred;
use crate::expr::CExpr;
use nsql_sql::CompareOp;
use nsql_types::Value;
use nsql_vec::{Batch, ColData, ValRef};

/// Per-lane truth value: SQL's three values plus a captured typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Lane3 {
    /// TRUE.
    T,
    /// FALSE.
    F,
    /// UNKNOWN (NULL involved).
    U,
    /// The row-path evaluation of this lane would have returned this error.
    Err(EngineError),
}

/// An operand in an executable vectorized predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum VOperand {
    /// Batch column by index.
    Col(usize),
    /// Constant (literal, or an instantiated outer reference).
    Const(Value),
}

impl VOperand {
    #[inline]
    fn val<'a>(&'a self, b: &'a Batch, row: usize) -> ValRef<'a> {
        match self {
            VOperand::Col(i) => b.col(*i).val_ref(row),
            VOperand::Const(v) => ValRef::of(v),
        }
    }
}

/// An executable vectorized predicate — the batch-side mirror of [`CPred`].
#[derive(Debug, Clone, PartialEq)]
pub enum VPred {
    /// Constant truth value.
    Const(Option<bool>),
    /// Conjunction.
    And(Vec<VPred>),
    /// Disjunction.
    Or(Vec<VPred>),
    /// Negation.
    Not(Box<VPred>),
    /// Scalar comparison.
    Cmp {
        /// Left side.
        left: VOperand,
        /// Operator.
        op: CompareOp,
        /// Right side.
        right: VOperand,
    },
    /// Membership in a literal list.
    InList {
        /// Tested operand.
        expr: VOperand,
        /// List of values.
        list: Vec<Value>,
        /// Negated?
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested operand.
        expr: VOperand,
        /// `IS NOT NULL`?
        negated: bool,
    },
}

/// Lower a compiled physical predicate to its vectorized form. Infallible:
/// every [`CPred`] shape has a batch-side equivalent.
pub fn vpred_from_cpred(p: &CPred) -> VPred {
    let op = |e: &CExpr| match e {
        CExpr::Col(i) => VOperand::Col(*i),
        CExpr::Lit(v) => VOperand::Const(v.clone()),
    };
    match p {
        CPred::Const(v) => VPred::Const(*v),
        CPred::And(ps) => VPred::And(ps.iter().map(vpred_from_cpred).collect()),
        CPred::Or(ps) => VPred::Or(ps.iter().map(vpred_from_cpred).collect()),
        CPred::Not(q) => VPred::Not(Box::new(vpred_from_cpred(q))),
        CPred::Cmp { left, op: o, right } => {
            VPred::Cmp { left: op(left), op: *o, right: op(right) }
        }
        CPred::InList { expr, list, negated } => {
            VPred::InList { expr: op(expr), list: list.clone(), negated: *negated }
        }
        CPred::IsNull { expr, negated } => {
            VPred::IsNull { expr: op(expr), negated: *negated }
        }
    }
}

/// Evaluate `p` over the selected lanes of `b`. The result is parallel to
/// `sel`: `out[k]` is the three-valued (or error) outcome for row `sel[k]`.
pub fn eval_pred(p: &VPred, b: &Batch, sel: &[u32]) -> Vec<Lane3> {
    match p {
        VPred::Const(v) => {
            let lane = truth(*v);
            vec![lane; sel.len()]
        }
        VPred::And(ps) => eval_connective(ps, b, sel, false),
        VPred::Or(ps) => eval_connective(ps, b, sel, true),
        VPred::Not(q) => eval_pred(q, b, sel)
            .into_iter()
            .map(|l| match l {
                Lane3::T => Lane3::F,
                Lane3::F => Lane3::T,
                other => other,
            })
            .collect(),
        VPred::Cmp { left, op, right } => eval_cmp(left, *op, right, b, sel),
        VPred::InList { expr, list, negated } => sel
            .iter()
            .map(|&row| {
                let v = expr.val(b, row as usize);
                let lane = in_list_lane(v, list);
                if *negated {
                    not_lane(lane)
                } else {
                    lane
                }
            })
            .collect(),
        VPred::IsNull { expr, negated } => sel
            .iter()
            .map(|&row| {
                let isnull = expr.val(b, row as usize).is_null();
                if isnull != *negated {
                    Lane3::T
                } else {
                    Lane3::F
                }
            })
            .collect(),
    }
}

/// Refine `sel` through `p` with the filter-operator error policy: lanes
/// that evaluate TRUE are kept, the first error *in lane order* is captured
/// (matching scan order, so it is the error a row-path scan reports first),
/// and evaluation of the remaining lanes continues.
pub fn keep_lanes(
    p: &VPred,
    b: &Batch,
    sel: &[u32],
) -> (Vec<u32>, Option<EngineError>) {
    let lanes = eval_pred(p, b, sel);
    let mut keep = Vec::new();
    let mut first_err = None;
    for (k, lane) in lanes.into_iter().enumerate() {
        match lane {
            Lane3::T => keep.push(sel[k]),
            Lane3::Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Lane3::F | Lane3::U => {}
        }
    }
    (keep, first_err)
}

#[inline]
fn truth(v: Option<bool>) -> Lane3 {
    match v {
        Some(true) => Lane3::T,
        Some(false) => Lane3::F,
        None => Lane3::U,
    }
}

#[inline]
fn not_lane(l: Lane3) -> Lane3 {
    match l {
        Lane3::T => Lane3::F,
        Lane3::F => Lane3::T,
        other => other,
    }
}

/// AND/OR with per-lane short-circuiting. `or` flips the roles: for AND the
/// deciding value is FALSE, for OR it is TRUE; the residual value (reached
/// only when no operand decided and none was UNKNOWN) is the opposite.
fn eval_connective(ps: &[VPred], b: &Batch, sel: &[u32], or: bool) -> Vec<Lane3> {
    let deciding = if or { Lane3::T } else { Lane3::F };
    let residual = if or { Lane3::F } else { Lane3::T };
    // Positions into `sel`/`out` still undecided, and their row ids.
    let mut out: Vec<Lane3> = vec![residual; sel.len()];
    let mut active_rows: Vec<u32> = sel.to_vec();
    let mut active_pos: Vec<usize> = (0..sel.len()).collect();
    let mut unknown: Vec<bool> = vec![false; sel.len()];
    for p in ps {
        if active_rows.is_empty() {
            break;
        }
        let lanes = eval_pred(p, b, &active_rows);
        let mut next_rows = Vec::with_capacity(active_rows.len());
        let mut next_pos = Vec::with_capacity(active_pos.len());
        for (k, lane) in lanes.into_iter().enumerate() {
            let pos = active_pos[k];
            if lane == deciding || matches!(lane, Lane3::Err(_)) {
                // Decided: later operands are never evaluated for this
                // lane, mirroring the row path's early return.
                out[pos] = lane;
            } else {
                if lane == Lane3::U {
                    unknown[pos] = true;
                }
                next_rows.push(active_rows[k]);
                next_pos.push(pos);
            }
        }
        active_rows = next_rows;
        active_pos = next_pos;
    }
    for pos in active_pos {
        if unknown[pos] {
            out[pos] = Lane3::U;
        }
    }
    out
}

fn eval_cmp(
    left: &VOperand,
    op: CompareOp,
    right: &VOperand,
    b: &Batch,
    sel: &[u32],
) -> Vec<Lane3> {
    // Typed fast lanes for the dominant shapes: Int column against an Int
    // constant, and Int column against Int column. Semantically identical
    // to the generic path — ValRef::sql_cmp on (Int, Int) is i64::cmp.
    if let (VOperand::Col(ci), VOperand::Const(Value::Int(k))) = (left, right) {
        if let ColData::Int(data) = &b.col(*ci).data {
            let validity = &b.col(*ci).validity;
            return sel
                .iter()
                .map(|&row| {
                    let row = row as usize;
                    if !validity.get(row) {
                        Lane3::U
                    } else {
                        truth(Some(op.eval(data[row].cmp(k))))
                    }
                })
                .collect();
        }
    }
    if let (VOperand::Col(ci), VOperand::Col(cj)) = (left, right) {
        if let (ColData::Int(a), ColData::Int(c)) = (&b.col(*ci).data, &b.col(*cj).data) {
            let (va, vc) = (&b.col(*ci).validity, &b.col(*cj).validity);
            return sel
                .iter()
                .map(|&row| {
                    let row = row as usize;
                    if !va.get(row) || !vc.get(row) {
                        Lane3::U
                    } else {
                        truth(Some(op.eval(a[row].cmp(&c[row]))))
                    }
                })
                .collect();
        }
    }
    sel.iter()
        .map(|&row| {
            let row = row as usize;
            match left.val(b, row).sql_cmp(right.val(b, row)) {
                Err(e) => Lane3::Err(EngineError::Type(e)),
                Ok(None) => Lane3::U,
                Ok(Some(o)) => truth(Some(op.eval(o))),
            }
        })
        .collect()
}

/// Per-lane mirror of [`crate::pred::in_list`]: list walked in order, first
/// comparison error wins, TRUE short-circuits ahead of later errors.
fn in_list_lane(v: ValRef<'_>, list: &[Value]) -> Lane3 {
    let mut unknown = false;
    for item in list {
        match v.sql_cmp(ValRef::of(item)) {
            Err(e) => return Lane3::Err(EngineError::Type(e)),
            Ok(None) => unknown = true,
            Ok(Some(std::cmp::Ordering::Equal)) => return Lane3::T,
            Ok(Some(_)) => {}
        }
    }
    if unknown {
        Lane3::U
    } else {
        Lane3::F
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;
    use nsql_types::{Column, ColumnType, Schema, Tuple, TypeError};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "B", ColumnType::Int),
        ])
    }

    fn compile(src_where: &str) -> (CPred, VPred) {
        let q = parse_query(&format!("SELECT A FROM T WHERE {src_where}")).unwrap();
        let c = CPred::compile(&schema(), q.where_clause.as_ref().unwrap()).unwrap();
        let v = vpred_from_cpred(&c);
        (c, v)
    }

    fn batch(rows: &[(Option<i64>, Option<i64>)]) -> (Vec<Tuple>, Batch) {
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(a, b)| {
                Tuple::new(vec![
                    a.map_or(Value::Null, Value::Int),
                    b.map_or(Value::Null, Value::Int),
                ])
            })
            .collect();
        let b = Batch::from_tuples(&tuples);
        (tuples, b)
    }

    /// Every lane must agree with the row path: T/F/U match the row
    /// evaluation's Option<bool>, Err matches its error.
    fn assert_mirrors(src_where: &str, rows: &[(Option<i64>, Option<i64>)]) {
        let (c, v) = compile(src_where);
        let (tuples, b) = batch(rows);
        let sel = b.full_sel();
        let lanes = eval_pred(&v, &b, &sel);
        for (i, t) in tuples.iter().enumerate() {
            let row = c.eval(t);
            let want = match row {
                Ok(Some(true)) => Lane3::T,
                Ok(Some(false)) => Lane3::F,
                Ok(None) => Lane3::U,
                Err(e) => Lane3::Err(e),
            };
            assert_eq!(lanes[i], want, "{src_where} row {i}");
        }
    }

    #[test]
    fn comparisons_mirror_row_path() {
        let rows =
            [(Some(1), Some(2)), (Some(0), None), (None, None), (Some(5), Some(5))];
        for p in ["A = 1", "A < B", "A >= 5", "B <> 2", "A <= B", "B > A"] {
            assert_mirrors(p, &rows);
        }
    }

    #[test]
    fn connectives_mirror_row_path() {
        let rows = [
            (Some(1), Some(2)),
            (Some(1), None),
            (Some(0), None),
            (None, Some(2)),
            (None, None),
        ];
        for p in [
            "A = 1 AND B = 2",
            "A = 1 OR B = 2",
            "NOT (B = 2)",
            "A = 1 AND (B = 2 OR B IS NULL)",
            "NOT (A = 1 AND B = 2)",
        ] {
            assert_mirrors(p, &rows);
        }
    }

    #[test]
    fn in_list_and_is_null_mirror_row_path() {
        let rows = [(Some(1), Some(2)), (Some(3), None), (None, None)];
        for p in [
            "A IN (1, 3)",
            "A IN (2, NULL)",
            "A NOT IN (1, NULL)",
            "B IS NULL",
            "B IS NOT NULL",
            "A IN ()",
        ] {
            // "A IN ()" may not parse; skip shapes the parser rejects.
            let q = parse_query(&format!("SELECT A FROM T WHERE {p}"));
            if q.is_err() {
                continue;
            }
            assert_mirrors(p, &rows);
        }
    }

    #[test]
    fn type_errors_surface_per_lane_and_respect_short_circuit() {
        // Comparing Int to Str errors on the row path; behind `A = 1 AND`,
        // the error must appear only on lanes where A = 1 held.
        let schema = Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "S", ColumnType::Str),
        ]);
        let q = parse_query("SELECT A FROM T WHERE A = 1 AND S = 2").unwrap();
        let c = CPred::compile(&schema, q.where_clause.as_ref().unwrap()).unwrap();
        let v = vpred_from_cpred(&c);
        let tuples = vec![
            Tuple::new(vec![Value::Int(1), Value::str("x")]),
            Tuple::new(vec![Value::Int(0), Value::str("y")]),
        ];
        let b = Batch::from_tuples(&tuples);
        let lanes = eval_pred(&v, &b, &b.full_sel());
        assert!(matches!(lanes[0], Lane3::Err(EngineError::Type(_))), "{:?}", lanes[0]);
        assert_eq!(lanes[1], Lane3::F, "A=1 is FALSE, so the AND never sees the error");
        // And the lanes agree with the row path exactly.
        for (i, t) in tuples.iter().enumerate() {
            let want = match c.eval(t) {
                Ok(Some(true)) => Lane3::T,
                Ok(Some(false)) => Lane3::F,
                Ok(None) => Lane3::U,
                Err(e) => Lane3::Err(e),
            };
            assert_eq!(lanes[i], want);
        }
    }

    #[test]
    fn or_short_circuit_hides_errors_like_the_row_path() {
        let schema = Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "S", ColumnType::Str),
        ]);
        let q = parse_query("SELECT A FROM T WHERE A = 1 OR S = 2").unwrap();
        let c = CPred::compile(&schema, q.where_clause.as_ref().unwrap()).unwrap();
        let v = vpred_from_cpred(&c);
        let tuples = vec![
            Tuple::new(vec![Value::Int(1), Value::str("x")]), // TRUE hides the error
            Tuple::new(vec![Value::Int(0), Value::str("y")]), // error surfaces
        ];
        let b = Batch::from_tuples(&tuples);
        let lanes = eval_pred(&v, &b, &b.full_sel());
        assert_eq!(lanes[0], Lane3::T);
        assert!(matches!(lanes[1], Lane3::Err(_)));
        for (i, t) in tuples.iter().enumerate() {
            let want = match c.eval(t) {
                Ok(Some(true)) => Lane3::T,
                Ok(Some(false)) => Lane3::F,
                Ok(None) => Lane3::U,
                Err(e) => Lane3::Err(e),
            };
            assert_eq!(lanes[i], want);
        }
    }

    #[test]
    fn keep_lanes_keeps_true_and_reports_first_error_in_order() {
        let schema = Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "X", ColumnType::Str),
        ]);
        let q = parse_query("SELECT A FROM T WHERE X = 1").unwrap();
        let c = CPred::compile(&schema, q.where_clause.as_ref().unwrap()).unwrap();
        let v = vpred_from_cpred(&c);
        let tuples = vec![
            Tuple::new(vec![Value::Int(0), Value::str("a")]),
            Tuple::new(vec![Value::Int(1), Value::str("b")]),
        ];
        let b = Batch::from_tuples(&tuples);
        let (keep, err) = keep_lanes(&v, &b, &b.full_sel());
        assert!(keep.is_empty());
        assert!(matches!(err, Some(EngineError::Type(TypeError::Incomparable(..)))));
    }

    #[test]
    fn selection_vector_is_refined_not_reset() {
        let (_, v) = compile("A > 2");
        let (_, b) = batch(&[
            (Some(1), None),
            (Some(3), None),
            (Some(5), None),
            (Some(0), None),
            (Some(9), None),
        ]);
        // Start from a partial selection; only those lanes are examined.
        let sel: Vec<u32> = vec![1, 3, 4];
        let (keep, err) = keep_lanes(&v, &b, &sel);
        assert!(err.is_none());
        assert_eq!(keep, vec![1, 4]);
    }

    #[test]
    fn int_fast_lanes_agree_with_generic_path() {
        // Same predicate through the Col/Const fast lane and through a
        // Vals-demoted (mixed) column must agree.
        let (_, v) = compile("A >= 3");
        let (tuples, b) = batch(&[(Some(2), None), (Some(3), None), (None, None)]);
        let fast = eval_pred(&v, &b, &b.full_sel());
        // Force the generic path by comparing through VOperand::Const on
        // the left (no Col/Const fast-lane shape).
        let generic: Vec<Lane3> = tuples
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let val = b.col(0).val_ref(i);
                match val.sql_cmp(ValRef::of(&Value::Int(3))) {
                    Err(e) => Lane3::Err(EngineError::Type(e)),
                    Ok(None) => Lane3::U,
                    Ok(Some(o)) => truth(Some(CompareOp::Ge.eval(o))),
                }
            })
            .collect();
        assert_eq!(fast, generic);
    }
}
