//! Algorithm NEST-JA2 (Section 6) — and the shared type-JA analysis.
//!
//! The three steps of the algorithm, quoted from Section 6.1:
//!
//! > 1. Project the join column of the outer relation, and restrict it with
//! >    any simple predicates applying to the outer relation.
//! > 2. Create a temporary relation, joining the inner relation with the
//! >    projection of the outer relation. If the aggregate function is
//! >    COUNT, the join must be an outer join, and the inner relation must
//! >    be restricted and projected before the join is performed. If the
//! >    aggregate function is COUNT(*), compute the COUNT function over the
//! >    join column. The join predicate must use the same operator as the
//! >    join predicate in the original query (except that it must be
//! >    converted to the corresponding outer operator in the case of
//! >    COUNT), and the join predicate in the original query must be
//! >    changed to `=`. In the SELECT clause, select the join column from
//! >    the outer table in the join predicate instead of the inner table.
//! >    The GROUP BY clause will also contain columns from the outer
//! >    relation.
//! > 3. Join the outer relation with the temporary relation, according to
//! >    the transformed version of the original query.
//!
//! [`apply_ja2`] implements steps 1 and 2, rewriting the aggregate inner
//! block into a type-J block over the temporary (Lemma 2's Q4 shape); the
//! recursive driver immediately finishes step 3 with NEST-N-J.

use crate::error::TransformError;
use crate::logical::{AggItem, JoinPred, LogicalJoinKind, LogicalPlan};
use crate::pipeline::{TempNamer, TempTable};
use crate::Result;
use nsql_analyzer::resolve::predicate_column_refs;
use nsql_obs::Profile;
use nsql_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, Operand, Predicate, QueryBlock, ScalarExpr,
    SelectItem, TableRef,
};

/// One correlated join predicate of the inner block, oriented as
/// `inner_col op outer_col`.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlation {
    /// Column of an inner relation.
    pub inner_col: ColumnRef,
    /// Operator with the inner column on the left.
    pub op: CompareOp,
    /// Column of the (single) outer relation.
    pub outer_col: ColumnRef,
}

/// Analysis of a type-JA inner block.
#[derive(Debug, Clone)]
pub struct JaAnalysis {
    /// The aggregate in the inner SELECT.
    pub func: AggFunc,
    /// Its argument.
    pub arg: AggArg,
    /// Conjuncts local to the inner relations.
    pub local_pred: Option<Predicate>,
    /// The correlated join predicates, when they are a conjunction of
    /// column comparisons; empty when the correlation is a [`Disjunction`].
    pub correlations: Vec<Correlation>,
    /// The correlation, when it is not such a conjunction but a
    /// disjunction with a key in every disjunct.
    pub disjunction: Option<Disjunction>,
    /// Effective name of the outer relation all correlations reference.
    pub outer_name: String,
}

impl JaAnalysis {
    /// This analysis if its correlation is a conjunction — the class of
    /// NEST-JA2 and Kim's NEST-JA — and their refusal otherwise.
    pub fn conjunctive(self) -> Result<JaAnalysis> {
        match &self.disjunction {
            None => Ok(self),
            Some(d) => Err(TransformError::Unsupported(d.refusal.clone())),
        }
    }
}

/// A correlation that is no conjunction of column comparisons but holds a
/// disjunction each disjunct of which equates an inner column with an outer
/// one: outside the paper's class, and the class of the per-outer-row
/// groupjoin off its literal plans ([`LogicalPlan::Apply`]; DESIGN.md
/// "Disjunctive correlation").
#[derive(Debug, Clone)]
pub struct Disjunction {
    /// Every correlated conjunct, ANDed: the disjunction and whatever else
    /// references the outer relation.
    pub predicate: Predicate,
    /// Per disjunct of the disjunction, its equalities between an inner and
    /// an outer column (`op` is `=`).
    pub keys: Vec<Vec<Correlation>>,
    /// Why NEST-JA2 refuses the block.
    refusal: String,
}

/// Decompose a (flat, fully-qualified) aggregate inner block into the parts
/// the JA algorithms work with. Errors if the block is outside the class
/// the paper's algorithms handle (multiple outer relations, non-column
/// correlation operands, an aggregate over an outer reference, …), unless
/// its correlation is a [`Disjunction`], which NEST-G evaluates per outer
/// row off the paper's literal plans and NEST-JA2 refuses
/// ([`JaAnalysis::conjunctive`]).
pub fn analyze_ja(inner: &QueryBlock) -> Result<JaAnalysis> {
    if inner.select.len() != 1 {
        return Err(TransformError::Unsupported(
            "type-JA inner block must select exactly one aggregate".into(),
        ));
    }
    let (func, arg) = match &inner.select[0].expr {
        ScalarExpr::Aggregate(f, a) => (*f, a.clone()),
        other => {
            return Err(TransformError::Internal(format!(
                "analyze_ja on non-aggregate select {other:?}"
            )))
        }
    };
    if !inner.group_by.is_empty() {
        return Err(TransformError::Unsupported(
            "inner block already has GROUP BY".into(),
        ));
    }
    let inner_names: Vec<&str> = inner.from_names();
    let is_local_ref =
        |c: &ColumnRef| c.table.as_deref().is_some_and(|t| inner_names.contains(&t));
    // The temporaries aggregate columns of the inner FROM only: an outer
    // reference is a constant per evaluation, which no temporary carries.
    if let AggArg::Column(c) = &arg {
        if !is_local_ref(c) {
            return Err(TransformError::Unsupported(format!(
                "aggregate argument {c} is not a column of the inner block's FROM"
            )));
        }
    }

    let mut local = Vec::new();
    let mut correlated = Vec::new();
    for conjunct in inner
        .where_clause
        .as_ref()
        .map(|p| p.conjuncts().into_iter().cloned().collect::<Vec<_>>())
        .unwrap_or_default()
    {
        let refs = predicate_column_refs(&conjunct);
        if refs.iter().all(|c| is_local_ref(c)) {
            local.push(conjunct);
        } else {
            correlated.push(conjunct);
        }
    }
    let (correlations, disjunction, outer_name) = match conjunction(&correlated, &is_local_ref) {
        Ok((correlations, outer_name)) => (correlations, None, outer_name),
        Err(TransformError::Unsupported(refusal)) => {
            let Some((disjunction, outer_name)) =
                disjunction(&correlated, &is_local_ref, refusal.clone())
            else {
                return Err(TransformError::Unsupported(refusal));
            };
            (Vec::new(), Some(disjunction), outer_name)
        }
        Err(other) => return Err(other),
    };
    Ok(JaAnalysis {
        func,
        arg,
        local_pred: if local.is_empty() { None } else { Some(Predicate::and(local)) },
        correlations,
        disjunction,
        outer_name,
    })
}

/// The correlated conjuncts of a block as the paper's algorithms take them:
/// each a comparison of an inner column with a column of the one outer
/// relation, whose name comes second.
fn conjunction(
    correlated: &[Predicate],
    is_local_ref: &dyn Fn(&ColumnRef) -> bool,
) -> Result<(Vec<Correlation>, String)> {
    let mut correlations = Vec::new();
    let mut outer_name: Option<String> = None;
    for conjunct in correlated {
        // A correlated conjunct must be a column-to-column comparison with
        // exactly one local side.
        let Predicate::Compare {
            left: Operand::Column(a),
            op,
            right: Operand::Column(b),
        } = conjunct
        else {
            return Err(TransformError::Unsupported(format!(
                "correlated predicate is not a simple column comparison: {}",
                nsql_sql::print_predicate(conjunct)
            )));
        };
        let (inner_col, op, outer_col) = match (is_local_ref(a), is_local_ref(b)) {
            (true, false) => (a.clone(), *op, b.clone()),
            (false, true) => (b.clone(), op.flip(), a.clone()),
            _ => {
                return Err(TransformError::Unsupported(format!(
                    "correlated predicate must join one inner and one outer column: {}",
                    nsql_sql::print_predicate(conjunct)
                )))
            }
        };
        let o = outer_col
            .table
            .clone()
            .ok_or_else(|| TransformError::Internal("unqualified outer column".into()))?;
        match &outer_name {
            None => outer_name = Some(o),
            Some(existing) if *existing == o => {}
            Some(existing) => {
                return Err(TransformError::Unsupported(format!(
                    "correlations reference multiple outer relations ({existing} and {o})"
                )))
            }
        }
        correlations.push(Correlation { inner_col, op, outer_col });
    }
    let outer_name = outer_name.ok_or_else(|| {
        TransformError::Internal("analyze_ja on uncorrelated block (type-A?)".into())
    })?;
    Ok((correlations, outer_name))
}

/// The correlated conjuncts of a block as a [`Disjunction`] over one outer
/// relation, and that relation's name: every column they name is an inner
/// one or one of that relation's, and one of them is an `OR` each disjunct
/// of which equates an inner column with an outer one (the first such is
/// the key). `None` when they are not; `refusal` is NEST-JA2's.
fn disjunction(
    correlated: &[Predicate],
    is_local_ref: &dyn Fn(&ColumnRef) -> bool,
    refusal: String,
) -> Option<(Disjunction, String)> {
    if correlated.iter().any(Predicate::contains_subquery) {
        return None;
    }
    let mut outer_name: Option<&str> = None;
    for c in correlated.iter().flat_map(predicate_column_refs).filter(|c| !is_local_ref(c)) {
        let t = c.table.as_deref()?;
        if *outer_name.get_or_insert(t) != t {
            return None;
        }
    }
    let outer_name = outer_name?.to_string();
    let is_outer = |c: &ColumnRef| c.table.as_deref() == Some(outer_name.as_str());
    let key = |p: &Predicate| {
        let Predicate::Compare {
            left: Operand::Column(a),
            op: CompareOp::Eq,
            right: Operand::Column(b),
        } = p
        else {
            return None;
        };
        let (inner_col, outer_col) = match (is_local_ref(a), is_outer(b), is_local_ref(b)) {
            (true, true, _) => (a.clone(), b.clone()),
            (false, _, true) if is_outer(a) => (b.clone(), a.clone()),
            _ => return None,
        };
        Some(Correlation { inner_col, op: CompareOp::Eq, outer_col })
    };
    let keys = correlated.iter().find_map(|conjunct| {
        let Predicate::Or(disjuncts) = conjunct else { return None };
        let each = disjuncts.iter().map(|d| {
            let keys: Vec<Correlation> = d.conjuncts().into_iter().filter_map(key).collect();
            (!keys.is_empty()).then_some(keys)
        });
        each.collect::<Option<Vec<_>>>()
    })?;
    let predicate = Predicate::and(correlated.to_vec());
    Some((Disjunction { predicate, keys, refusal }, outer_name))
}

/// Configuration knobs for [`apply_ja2`] — the defaults are the paper's
/// algorithm; each `false` reproduces one of the failure modes the paper
/// warns about.
#[derive(Debug, Clone, Copy)]
pub struct Ja2Config {
    /// Step 1's DISTINCT projection of the outer join column. Disabling it
    /// reproduces the Section-5.4 duplicates problem.
    pub project_outer: bool,
    /// Apply the inner relation's simple predicates *before* the join
    /// (building `Rt3`). Disabling it applies them to the join result
    /// instead, reproducing the Section-5.2 warning: "the condition which
    /// applies to only one relation must be applied before the join is
    /// performed. Otherwise the join would not contain the last row, and
    /// the result would be incorrect."
    pub restrict_before_join: bool,
}

impl Default for Ja2Config {
    fn default() -> Self {
        Ja2Config { project_outer: true, restrict_before_join: true }
    }
}

/// Information about the enclosing scopes needed by the JA transformations:
/// for a given effective table name, its base table and the simple
/// predicates restricting it in its owning block.
pub trait OuterScope {
    /// The base table behind an effective (possibly aliased) name visible
    /// in some enclosing block.
    fn base_table(&self, effective: &str) -> Option<String>;
    /// Simple conjuncts of the owning block that reference only this
    /// table (used to restrict the TEMP1 projection — Section 6 step 1).
    fn simple_predicates(&self, effective: &str) -> Vec<Predicate>;
}

/// Apply NEST-JA2 to a type-JA inner block. Appends the temporary-table
/// definitions to `temps` and returns the replacement type-J block (Lemma
/// 2's Q4 inner shape): `SELECT Rt.AGG FROM Rt WHERE Rt.c = <outer>.c AND …`
pub fn apply_ja2<S: OuterScope + ?Sized>(
    inner: &QueryBlock,
    scope: &S,
    namer: &mut TempNamer,
    temps: &mut Vec<TempTable>,
    trace: &mut Vec<String>,
    config: Ja2Config,
    profile: &Profile,
) -> Result<QueryBlock> {
    let analyze_span = profile.begin("analyze type-JA block");
    let ja = analyze_ja(inner).and_then(JaAnalysis::conjunctive);
    profile.end(analyze_span);
    let ja = ja?;
    let outer_base = scope.base_table(&ja.outer_name).ok_or_else(|| {
        TransformError::Internal(format!("outer relation {} not in scope", ja.outer_name))
    })?;

    // ---- Step 1: TEMP1 := DISTINCT projection of the outer join columns,
    //      restricted by the outer relation's simple predicates.
    let step1_span = profile.begin("NEST-JA2 step 1");
    // One projected column per *distinct* outer column — two correlation
    // predicates may reference the same outer column (e.g. sibling
    // subqueries both correlated on A1.V), and `Vec::dedup` alone only
    // drops consecutive repeats, leaving TEMP1 with an ambiguous duplicate
    // column that the step-2b join can no longer resolve.
    let mut outer_cols: Vec<ColumnRef> = Vec::new();
    for c in ja.correlations.iter().map(|c| &c.outer_col) {
        if !outer_cols.contains(c) {
            outer_cols.push(c.clone());
        }
    }
    let outer_simple = scope.simple_predicates(&ja.outer_name);
    let temp1_name = namer.fresh("TEMP");
    let temp1_plan = LogicalPlan::Project {
        input: Box::new(
            LogicalPlan::Scan {
                table: outer_base,
                alias: Some(ja.outer_name.clone()),
            }
            .filtered(if outer_simple.is_empty() {
                None
            } else {
                Some(Predicate::and(outer_simple))
            }),
        ),
        items: outer_cols.iter().map(|c| SelectItem::column(c.clone())).collect(),
        distinct: config.project_outer,
    };
    trace.push(format!(
        "NEST-JA2 step 1: {temp1_name} := {} projection of {} over {}",
        if config.project_outer { "DISTINCT" } else { "NON-DISTINCT (§5.4 demo)" },
        outer_cols
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        ja.outer_name
    ));
    temps.push(TempTable { name: temp1_name.clone(), plan: temp1_plan });
    profile.end(step1_span);

    // ---- Step 2a: TEMP2 := restriction + projection of the inner
    //      relation(s) (the paper's Rt3).
    let step2a_span = profile.begin("NEST-JA2 step 2a");
    let is_count = ja.func == AggFunc::Count;
    // Columns TEMP2 must carry: the inner correlation columns and the
    // aggregate argument. COUNT(*) counts the (first) inner join column
    // (Section 5.2.1).
    let mut inner_cols: Vec<ColumnRef> =
        ja.correlations.iter().map(|c| c.inner_col.clone()).collect();
    let agg_col = match &ja.arg {
        AggArg::Column(c) => c.clone(),
        AggArg::Star => inner_cols
            .first()
            .cloned()
            .ok_or_else(|| TransformError::Internal("COUNT(*) with no join column".into()))?,
    };
    if !inner_cols.contains(&agg_col) {
        inner_cols.push(agg_col.clone());
    }
    if matches!(ja.arg, AggArg::Star) {
        trace.push(format!(
            "NEST-JA2 (5.2.1): COUNT(*) rewritten to COUNT({agg_col}) over the join column"
        ));
    }
    // With late restriction (§5.2 demonstration) the simple predicates are
    // applied above the join, so their columns must survive the TEMP2
    // projection.
    if !config.restrict_before_join {
        if let Some(p) = &ja.local_pred {
            for c in predicate_column_refs(p) {
                if !inner_cols.contains(c) {
                    inner_cols.push(c.clone());
                }
            }
        }
    }
    let temp2_name = namer.fresh("TEMP");
    // TEMP2 column names must be unambiguous even when an inner column has
    // the same name as an outer column; alias each projected column by its
    // plain column name (collisions across inner tables get suffixes).
    let mut used_names: Vec<String> = Vec::new();
    let mut temp2_aliases: Vec<String> = Vec::new();
    for c in &inner_cols {
        let mut name = c.column.clone();
        let mut n = 1;
        while used_names.contains(&name) {
            n += 1;
            name = format!("{}_{n}", c.column);
        }
        used_names.push(name.clone());
        temp2_aliases.push(name);
    }
    let temp2_restriction =
        if config.restrict_before_join { ja.local_pred.clone() } else { None };
    let temp2_plan = LogicalPlan::Project {
        input: Box::new(inner_from_plan(inner)?.filtered(temp2_restriction)),
        items: inner_cols
            .iter()
            .zip(&temp2_aliases)
            .map(|(c, a)| SelectItem { expr: ScalarExpr::Column(c.clone()), alias: Some(a.clone()) })
            .collect(),
        distinct: false,
    };
    trace.push(format!(
        "NEST-JA2 step 2a: {temp2_name} := {} of {}",
        if config.restrict_before_join {
            "restriction+projection"
        } else {
            "projection only (restriction deferred past the join — §5.2 demo)"
        },
        inner.from_names().join(", ")
    ));
    temps.push(TempTable { name: temp2_name.clone(), plan: temp2_plan });
    profile.end(step2a_span);

    // ---- Step 2b: TEMP3 := GROUP BY over TEMP1 ⋈ TEMP2 (outer join for
    //      COUNT), selecting the outer join columns and the aggregate.
    let step2b_span = profile.begin("NEST-JA2 step 2b");
    let temp3_name = namer.fresh("TEMP");
    let alias_of = |col: &ColumnRef| -> String {
        let idx = inner_cols.iter().position(|c| c == col).expect("collected above");
        temp2_aliases[idx].clone()
    };
    let on: Vec<JoinPred> = ja
        .correlations
        .iter()
        .map(|c| JoinPred {
            // `inner op outer` ⇔ `outer flip(op) inner`; TEMP1 (outer
            // projection) is the left / preserved side.
            left: ColumnRef::qualified(&temp1_name, &c.outer_col.column),
            op: c.op.flip(),
            right: ColumnRef::qualified(&temp2_name, alias_of(&c.inner_col)),
        })
        .collect();
    let group_by: Vec<ColumnRef> = outer_cols
        .iter()
        .map(|c| ColumnRef::qualified(&temp1_name, &c.column))
        .collect();
    let agg_alias = "AGG".to_string();
    let mut temp3_input = LogicalPlan::Join {
        left: Box::new(LogicalPlan::scan(&temp1_name)),
        right: Box::new(LogicalPlan::scan(&temp2_name)),
        kind: if is_count { LogicalJoinKind::LeftOuter } else { LogicalJoinKind::Inner },
        on,
    };
    if !config.restrict_before_join {
        if let Some(p) = &ja.local_pred {
            // Rewrite the inner-relation references to TEMP2 columns and
            // apply the restriction *after* the join — the broken ordering
            // the paper warns kills the outer join's padded rows.
            let mut rewritten = p.clone();
            rewrite_pred_to_temp(&mut rewritten, &inner_cols, &temp2_aliases, &temp2_name);
            temp3_input =
                LogicalPlan::Filter { input: Box::new(temp3_input), pred: rewritten };
        }
    }
    let temp3_plan = LogicalPlan::Aggregate {
        input: Box::new(temp3_input),
        group_by,
        aggs: vec![AggItem {
            func: ja.func,
            arg: AggArg::Column(ColumnRef::qualified(&temp2_name, alias_of(&agg_col))),
            alias: agg_alias.clone(),
        }],
    };
    trace.push(format!(
        "NEST-JA2 step 2b: {temp3_name} := GROUP BY over {temp1_name} {} {temp2_name}",
        if is_count { "LEFT OUTER JOIN" } else { "JOIN" }
    ));
    temps.push(TempTable { name: temp3_name.clone(), plan: temp3_plan });
    profile.end(step2b_span);

    // ---- Replacement inner block (Lemma 2 Q4 shape): type-J over TEMP3,
    //      join predicates changed to equality.
    let step3_span = profile.begin("NEST-JA2 step 3");
    let mut where_parts: Vec<Predicate> = Vec::new();
    let mut seen_outer: Vec<&ColumnRef> = Vec::new();
    for c in &ja.correlations {
        if seen_outer.contains(&&c.outer_col) {
            continue; // one equality per distinct outer column
        }
        seen_outer.push(&c.outer_col);
        where_parts.push(Predicate::col_cmp(
            ColumnRef::qualified(&temp3_name, &c.outer_col.column),
            CompareOp::Eq,
            c.outer_col.clone(),
        ));
    }
    trace.push(format!(
        "NEST-JA2 step 3: inner block replaced by SELECT {temp3_name}.{agg_alias} FROM {temp3_name}; \
         original join predicate(s) changed to ="
    ));
    profile.end(step3_span);
    Ok(QueryBlock {
        distinct: false,
        select: vec![SelectItem::column(ColumnRef::qualified(&temp3_name, &agg_alias))],
        from: vec![TableRef::new(&temp3_name)],
        where_clause: Some(Predicate::and(where_parts)),
        group_by: vec![],
        order_by: vec![],
    })
}

/// Rewrite the column references of a simple predicate from inner-relation
/// qualifiers to the corresponding TEMP2 output columns.
fn rewrite_pred_to_temp(
    p: &mut Predicate,
    inner_cols: &[ColumnRef],
    aliases: &[String],
    temp_name: &str,
) {
    let fix = |o: &mut Operand| {
        if let Operand::Column(c) = o {
            if let Some(idx) = inner_cols.iter().position(|ic| ic == c) {
                *c = ColumnRef::qualified(temp_name, &aliases[idx]);
            }
        }
    };
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => {
            for q in ps {
                rewrite_pred_to_temp(q, inner_cols, aliases, temp_name);
            }
        }
        Predicate::Not(q) => rewrite_pred_to_temp(q, inner_cols, aliases, temp_name),
        Predicate::Compare { left, right, .. } => {
            fix(left);
            fix(right);
        }
        Predicate::In { operand, .. } => fix(operand),
        Predicate::IsNull { operand, .. } => fix(operand),
        Predicate::Exists { .. } | Predicate::Quantified { .. } => {}
    }
}

/// Build the FROM plan of the inner block: a single scan, or a left-deep
/// cross-join tree for a multi-relation inner (which arises when deeper
/// blocks were merged into it — Section 9); local predicates are applied by
/// the caller as a filter above this plan.
pub(crate) fn inner_from_plan(inner: &QueryBlock) -> Result<LogicalPlan> {
    let mut iter = inner.from.iter();
    let first = iter.next().ok_or_else(|| {
        TransformError::Unsupported("inner block with empty FROM".into())
    })?;
    let mut plan = LogicalPlan::Scan {
        table: first.table.clone(),
        alias: first.alias.clone(),
    };
    for t in iter {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::Scan { table: t.table.clone(), alias: t.alias.clone() }),
            kind: LogicalJoinKind::Inner,
            on: vec![],
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

    /// Pull the inner block of `WHERE x op (SELECT …)` after qualification
    /// against the Kiessling schemas.
    fn ja_inner(src: &str) -> QueryBlock {
        use nsql_analyzer::resolve::SchemaSource;
        use nsql_types::{ColumnType, Schema};
        struct Cat;
        impl SchemaSource for Cat {
            fn table_schema(&self, t: &str) -> Option<Schema> {
                use ColumnType::*;
                match t.to_ascii_uppercase().as_str() {
                    "PARTS" => Some(Schema::of_table("PARTS", &[("PNUM", Int), ("QOH", Int)])),
                    "SUPPLY" => Some(Schema::of_table(
                        "SUPPLY",
                        &[("PNUM", Int), ("QUAN", Int), ("SHIPDATE", Date)],
                    )),
                    _ => None,
                }
            }
        }
        let q = nsql_analyzer::analyze(&Cat, &parse_query(src).unwrap()).unwrap().into_block();
        let Some(Predicate::Compare { right: Operand::Subquery(inner), .. }) = q.where_clause
        else {
            panic!("expected scalar subquery")
        };
        *inner
    }

    #[test]
    fn analyzes_kiessling_q2() {
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        let ja = analyze_ja(&inner).unwrap();
        assert_eq!(ja.func, AggFunc::Count);
        assert_eq!(ja.outer_name, "PARTS");
        assert_eq!(ja.correlations.len(), 1);
        assert_eq!(ja.correlations[0].op, CompareOp::Eq);
        assert_eq!(ja.correlations[0].inner_col, ColumnRef::qualified("SUPPLY", "PNUM"));
        assert_eq!(ja.correlations[0].outer_col, ColumnRef::qualified("PARTS", "PNUM"));
        assert!(ja.local_pred.is_some(), "SHIPDATE restriction is local");
    }

    #[test]
    fn analyzes_non_equality_orientation() {
        // Q5: SUPPLY.PNUM < PARTS.PNUM, written outer-side-right.
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
             WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        let ja = analyze_ja(&inner).unwrap();
        assert_eq!(ja.correlations[0].op, CompareOp::Lt);
        // And flipped when written the other way round.
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
             WHERE PARTS.PNUM > SUPPLY.PNUM AND SHIPDATE < 1-1-80)",
        );
        let ja = analyze_ja(&inner).unwrap();
        assert_eq!(ja.correlations[0].op, CompareOp::Lt);
        assert_eq!(ja.correlations[0].inner_col.table.as_deref(), Some("SUPPLY"));
    }

    #[test]
    fn rejects_disjunctive_correlation() {
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM OR SUPPLY.QUAN > PARTS.QOH)",
        );
        assert!(matches!(analyze_ja(&inner), Err(TransformError::Unsupported(_))));
    }

    #[test]
    fn analyzes_a_keyed_disjunction() {
        // Two disjuncts, one of two key columns, and a non-equality ANDed on.
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE (SUPPLY.PNUM = PARTS.PNUM AND PARTS.QOH = SUPPLY.QUAN OR \
             SUPPLY.QUAN = PARTS.PNUM) AND SUPPLY.QUAN < PARTS.QOH AND SHIPDATE < 1-1-80)",
        );
        let ja = analyze_ja(&inner).unwrap();
        assert_eq!(ja.outer_name, "PARTS");
        assert!(ja.correlations.is_empty() && ja.local_pred.is_some());
        let d = ja.disjunction.as_ref().expect("a disjunction");
        let keys: Vec<usize> = d.keys.iter().map(Vec::len).collect();
        assert_eq!(keys, [2, 1]);
        assert_eq!(d.keys[0][1].inner_col, ColumnRef::qualified("SUPPLY", "QUAN"));
        assert_eq!(d.keys[0][1].outer_col, ColumnRef::qualified("PARTS", "QOH"));
        assert_eq!(d.predicate.conjuncts().len(), 2, "the OR and the non-equality");
        // NEST-JA2 refuses it as it always did.
        match ja.conjunctive() {
            Err(TransformError::Unsupported(why)) => {
                assert!(why.contains("not a simple column comparison"), "{why}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ja2_produces_three_temps_and_type_j_block() {
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        struct Scope;
        impl OuterScope for Scope {
            fn base_table(&self, e: &str) -> Option<String> {
                (e == "PARTS").then(|| "PARTS".to_string())
            }
            fn simple_predicates(&self, _e: &str) -> Vec<Predicate> {
                vec![]
            }
        }
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        let replacement =
            apply_ja2(&inner, &Scope, &mut namer, &mut temps, &mut trace, Ja2Config::default(), &Profile::default())
                .unwrap();
        assert_eq!(temps.len(), 3);
        // TEMP3 is a left outer join (COUNT).
        let LogicalPlan::Aggregate { input, .. } = &temps[2].plan else { panic!() };
        let LogicalPlan::Join { kind, .. } = input.as_ref() else { panic!() };
        assert_eq!(*kind, LogicalJoinKind::LeftOuter);
        // Replacement is SELECT TEMP3.AGG FROM TEMP3 WHERE TEMP3.PNUM = PARTS.PNUM.
        let printed = nsql_sql::print_query(&replacement);
        assert_eq!(
            printed,
            "SELECT TEMP3.AGG FROM TEMP3 WHERE TEMP3.PNUM = PARTS.PNUM"
        );
    }

    #[test]
    fn ja2_uses_inner_join_for_max() {
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
             WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        struct Scope;
        impl OuterScope for Scope {
            fn base_table(&self, e: &str) -> Option<String> {
                (e == "PARTS").then(|| "PARTS".to_string())
            }
            fn simple_predicates(&self, _e: &str) -> Vec<Predicate> {
                vec![]
            }
        }
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        let replacement =
            apply_ja2(&inner, &Scope, &mut namer, &mut temps, &mut trace, Ja2Config::default(), &Profile::default())
                .unwrap();
        let LogicalPlan::Aggregate { input, .. } = &temps[2].plan else { panic!() };
        let LogicalPlan::Join { kind, on, .. } = input.as_ref() else { panic!() };
        assert_eq!(*kind, LogicalJoinKind::Inner);
        // TEMP1.PNUM > TEMP2.PNUM (outer flip of `inner < outer`).
        assert_eq!(on[0].op, CompareOp::Gt);
        // The join predicate in the rewritten query is equality.
        let printed = nsql_sql::print_query(&replacement);
        assert!(printed.contains("= PARTS.PNUM"), "{printed}");
    }

    #[test]
    fn count_star_counts_join_column() {
        let inner = ja_inner(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(*) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        struct Scope;
        impl OuterScope for Scope {
            fn base_table(&self, e: &str) -> Option<String> {
                (e == "PARTS").then(|| "PARTS".to_string())
            }
            fn simple_predicates(&self, _e: &str) -> Vec<Predicate> {
                vec![]
            }
        }
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        let _ = apply_ja2(&inner, &Scope, &mut namer, &mut temps, &mut trace, Ja2Config::default(), &Profile::default())
            .unwrap();
        let LogicalPlan::Aggregate { aggs, .. } = &temps[2].plan else { panic!() };
        // COUNT over TEMP2.PNUM, not COUNT(*).
        let AggArg::Column(c) = &aggs[0].arg else {
            panic!("COUNT(*) must be rewritten to a column count")
        };
        assert_eq!(c.column, "PNUM");
    }
}
