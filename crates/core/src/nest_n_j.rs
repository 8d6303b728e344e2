//! Kim's algorithm NEST-N-J (Section 3.1).
//!
//! > 1. Combine the FROM clauses of all query blocks into one FROM clause.
//! > 2. AND together the WHERE clauses of all query blocks, replacing
//! >    IS IN by `=`.
//! > 3. Retain the SELECT clause of the outermost query block.
//!
//! The implementation merges one inner block at a time (the recursive
//! driver in [`crate::nest_g`] feeds blocks innermost-first, so repeated
//! application handles any depth). One engineering addition the paper
//! leaves implicit: when the inner FROM reuses a name of the outer FROM, the
//! inner occurrence is renamed with a fresh alias so the merged FROM clause
//! stays well-formed. The analyzer has already renamed every entry that
//! shadows an enclosing one, so the names that meet here come from
//! siblings: a block merged earlier brought its relations into the outer
//! FROM (figure 2 reuses `P` in two sibling blocks).

use crate::error::TransformError;
use crate::pipeline::TempNamer;
use crate::Result;
use nsql_sql::{ColumnRef, CompareOp, Operand, Predicate, QueryBlock, ScalarExpr};

/// The predicate connecting outer and inner: `operand op (inner)`.
/// `IS IN` arrives here as [`CompareOp::Eq`] per step 2 of the algorithm.
#[derive(Debug, Clone)]
pub struct Connecting {
    /// The outer-side operand.
    pub operand: Operand,
    /// The comparison operator.
    pub op: CompareOp,
}

/// Outcome details of a merge.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The inner block's WHERE clause (step 2's "AND together"), to be
    /// conjoined into the outer WHERE by the caller.
    pub inner_where: Option<Predicate>,
    /// The join predicate that replaced the nested predicate.
    pub join_pred: Predicate,
    /// Renames applied to the inner FROM entries (old effective name →
    /// new alias).
    pub renames: Vec<(String, String)>,
}

impl MergeOutcome {
    /// The combined predicate: inner WHERE AND the join predicate.
    pub fn combined_predicate(self) -> Predicate {
        match self.inner_where {
            Some(w) => Predicate::and(vec![w, self.join_pred]),
            None => self.join_pred,
        }
    }
}

/// NEST-N-J's applicability check, run by [`merge_inner`] and, before it
/// traces anything, by the NEST-G driver ([`crate::nest_g`]): the inner block
/// must select exactly one column, carry no GROUP BY, and be flat (no
/// subqueries left below — the recursive driver transforms children
/// first).
pub fn merge_precondition(inner: &QueryBlock) -> Result<()> {
    if inner.select.len() != 1 {
        return Err(TransformError::Unsupported(format!(
            "inner block must select exactly one column (found {})",
            inner.select.len()
        )));
    }
    if !inner.group_by.is_empty() {
        return Err(TransformError::Unsupported(
            "inner block with GROUP BY cannot be merged by NEST-N-J".into(),
        ));
    }
    if inner
        .where_clause
        .as_ref()
        .is_some_and(Predicate::contains_subquery)
    {
        return Err(TransformError::Internal(
            "NEST-N-J received a non-flat inner block; transform children first".into(),
        ));
    }
    Ok(())
}

/// Merge a flat `inner` block into `outer`, removing nothing from
/// `outer.where_clause` — the caller replaces the nested predicate with the
/// returned join predicate. `inner` must be fully qualified, flat (no
/// subqueries), and select exactly one plain column.
pub fn merge_inner(
    outer: &mut QueryBlock,
    connecting: Connecting,
    mut inner: QueryBlock,
    namer: &mut TempNamer,
) -> Result<MergeOutcome> {
    merge_precondition(&inner)?;

    // Resolve FROM-name collisions with a merged sibling by renaming the
    // inner occurrence.
    let outer_names: Vec<String> =
        outer.from.iter().map(|t| t.effective_name().to_string()).collect();
    let mut renames = Vec::new();
    for entry in &mut inner.from {
        let name = entry.effective_name().to_string();
        if outer_names.iter().any(|n| n.eq_ignore_ascii_case(&name)) {
            namer.reserve(name.clone());
            let fresh = namer.fresh(&format!("{}_", entry.table));
            entry.alias = Some(fresh.clone());
            renames.push((name, fresh));
        }
    }
    for (old, new) in &renames {
        rename_level_refs(&mut inner, old, new);
    }

    // The join predicate: outer operand op inner select column.
    let inner_col = match &inner.select[0].expr {
        ScalarExpr::Column(c) => c.clone(),
        other => {
            return Err(TransformError::Unsupported(format!(
                "inner SELECT must be a plain column for NEST-N-J (found {other:?})"
            )))
        }
    };
    let join_pred = Predicate::Compare {
        left: connecting.operand,
        op: connecting.op,
        right: Operand::Column(inner_col),
    };

    // Step 1: combine FROMs. Step 2's AND of the WHERE clauses is returned
    // for the caller to splice (the caller owns the outer WHERE during the
    // conjunct walk).
    outer.from.append(&mut inner.from);
    Ok(MergeOutcome { inner_where: inner.where_clause.take(), join_pred, renames })
}

/// Rewrite every reference qualified by `old` in a *flat* block.
fn rename_level_refs(q: &mut QueryBlock, old: &str, new: &str) {
    let fix = |c: &mut ColumnRef| {
        if c.table.as_deref() == Some(old) {
            c.table = Some(new.to_string());
        }
    };
    for item in &mut q.select {
        match &mut item.expr {
            ScalarExpr::Column(c) => fix(c),
            ScalarExpr::Aggregate(_, nsql_sql::AggArg::Column(c)) => fix(c),
            _ => {}
        }
    }
    for c in &mut q.group_by {
        fix(c);
    }
    for k in &mut q.order_by {
        fix(&mut k.column);
    }
    if let Some(p) = &mut q.where_clause {
        rename_flat_pred(p, old, new);
    }
}

/// Rewrite every reference qualified by `old` in a subquery-free predicate.
pub(crate) fn rename_flat_pred(p: &mut Predicate, old: &str, new: &str) {
    let fix_operand = |o: &mut Operand| {
        if let Operand::Column(c) = o {
            if c.table.as_deref() == Some(old) {
                c.table = Some(new.to_string());
            }
        }
    };
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => {
            for q in ps {
                rename_flat_pred(q, old, new);
            }
        }
        Predicate::Not(q) => rename_flat_pred(q, old, new),
        Predicate::Compare { left, right, .. } => {
            fix_operand(left);
            fix_operand(right);
        }
        Predicate::In { operand, .. } => fix_operand(operand),
        Predicate::IsNull { operand, .. } => fix_operand(operand),
        Predicate::Exists { .. } | Predicate::Quantified { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::{parse_query, print_query, InRhs};

    fn split_in(src: &str) -> (QueryBlock, Operand, QueryBlock) {
        let mut q = parse_query(src).unwrap();
        let Some(Predicate::In { operand, rhs: InRhs::Subquery(inner), negated: false }) =
            q.where_clause.take()
        else {
            panic!("expected IN subquery")
        };
        (q, operand, *inner)
    }

    #[test]
    fn merges_lemma_1_example() {
        // Q2 of Lemma 1 → Q1: SELECT Ri.Ck FROM Ri WHERE Ri.Ch IN
        // (SELECT Rj.Cm FROM Rj) becomes the canonical join.
        let (mut outer, operand, inner) = split_in(
            "SELECT RI.CK FROM RI WHERE RI.CH IN (SELECT RJ.CM FROM RJ)",
        );
        let mut namer = TempNamer::new(vec![]);
        let out = merge_inner(
            &mut outer,
            Connecting { operand, op: CompareOp::Eq },
            inner,
            &mut namer,
        )
        .unwrap();
        outer.and_where(out.combined_predicate());
        assert_eq!(
            print_query(&outer),
            "SELECT RI.CK FROM RI, RJ WHERE RI.CH = RJ.CM"
        );
    }

    #[test]
    fn merges_inner_where_too() {
        let (mut outer, operand, inner) = split_in(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 50)",
        );
        let mut namer = TempNamer::new(vec![]);
        let out = merge_inner(
            &mut outer,
            Connecting { operand, op: CompareOp::Eq },
            inner,
            &mut namer,
        )
        .unwrap();
        outer.and_where(out.combined_predicate());
        let printed = print_query(&outer);
        assert_eq!(
            printed,
            "SELECT SNO FROM SP, P WHERE WEIGHT > 50 AND PNO = PNO"
        );
    }

    #[test]
    fn renames_colliding_tables() {
        let (mut outer, operand, inner) = split_in(
            "SELECT SP.SNO FROM SP WHERE SP.QTY IN (SELECT SP.QTY FROM SP WHERE SP.PNO = 'P1')",
        );
        let mut namer = TempNamer::new(vec![]);
        let out = merge_inner(
            &mut outer,
            Connecting { operand, op: CompareOp::Eq },
            inner,
            &mut namer,
        )
        .unwrap();
        let printed = {
            let combined = out.clone().combined_predicate();
            outer.and_where(combined);
            print_query(&outer)
        };
        assert_eq!(out.renames.len(), 1);
        let fresh = &out.renames[0].1;
        assert!(printed.contains(&format!("FROM SP, SP {fresh}")), "{printed}");
        assert!(printed.contains(&format!("{fresh}.PNO = 'P1'")), "{printed}");
        assert!(printed.contains(&format!("SP.QTY = {fresh}.QTY")), "{printed}");
    }

    #[test]
    fn rejects_multi_column_inner_select() {
        let (mut outer, operand, inner) =
            split_in("SELECT SNO FROM SP WHERE PNO IN (SELECT PNO, WEIGHT FROM P)");
        let mut namer = TempNamer::new(vec![]);
        assert!(merge_inner(
            &mut outer,
            Connecting { operand, op: CompareOp::Eq },
            inner,
            &mut namer
        )
        .is_err());
    }

    #[test]
    fn rejects_non_flat_inner() {
        let (mut outer, operand, inner) = split_in(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE PNO IN (SELECT PNO FROM P2))",
        );
        let mut namer = TempNamer::new(vec![]);
        assert!(matches!(
            merge_inner(
                &mut outer,
                Connecting { operand, op: CompareOp::Eq },
                inner,
                &mut namer
            ),
            Err(TransformError::Internal(_))
        ));
    }
}
