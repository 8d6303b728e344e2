//! Kim's original algorithm NEST-JA (Section 3.2) — the **buggy baseline**.
//!
//! > 1. Generate a temporary relation Rt(C1,…,Cn,Cn+1) from R2 such that
//! >    Rt.Cn+1 is the result of applying the aggregate function AGG on the
//! >    Cn+1 column of R2 which have matching values in R1 for C1, C2, etc.
//! > 2. Transform the inner query block of the initial query by changing
//! >    all references to R2 columns in join predicates which also
//! >    reference R1 to the corresponding Rt columns. The result is a
//! >    type-J nested query, which can be passed to algorithm NEST-N-J.
//!
//! Kept deliberately faithful so the paper's three failure demonstrations
//! reproduce exactly:
//!
//! * **COUNT bug** (Section 5.1): `Rt` is built with `GROUP BY` over the
//!   restricted inner relation only, so groups that would be empty simply
//!   do not appear and `COUNT` can never produce `0`.
//! * **Non-equality bug** (Section 5.3): the temporary aggregates tuples
//!   sharing a join-column *value*, but a `<` join predicate asks for
//!   aggregates over a *range* of values.
//! * **Duplicates problem** (Section 5.4): not applicable here (Kim's
//!   temporary never joins the outer relation), but the *fixed* algorithm
//!   without the projection step exhibits it; see
//!   [`crate::nest_ja2`] and experiment E7.

use crate::logical::{AggItem, LogicalPlan};
use crate::nest_ja2::{analyze_ja, inner_from_plan};
use crate::pipeline::{TempNamer, TempTable};
use crate::Result;
use nsql_sql::{
    ColumnRef, Predicate, QueryBlock, SelectItem, TableRef,
};

/// Apply Kim's NEST-JA to a type-JA inner block, returning the replacement
/// type-J block. Temp definitions are appended to `temps`.
pub fn apply_ja_kim(
    inner: &QueryBlock,
    namer: &mut TempNamer,
    temps: &mut Vec<TempTable>,
    trace: &mut Vec<String>,
) -> Result<QueryBlock> {
    let ja = analyze_ja(inner)?.conjunctive()?;

    // Step 1: Rt := GROUP BY over the restricted inner relation — no outer
    // join, no projection of the outer relation. (The bugs live here.)
    let temp_name = namer.fresh("TEMP");
    // The correlation list is in predicate order, not sorted, so
    // `Vec::dedup` (consecutive-only) would let a repeated inner column
    // survive when another column sits between its occurrences — an
    // order-preserving containment check deduplicates correctly.
    let mut group_cols: Vec<ColumnRef> = Vec::new();
    for c in &ja.correlations {
        if !group_cols.contains(&c.inner_col) {
            group_cols.push(c.inner_col.clone());
        }
    }
    let agg_alias = "AGG".to_string();
    let plan = LogicalPlan::Aggregate {
        input: Box::new(inner_from_plan(inner)?.filtered(ja.local_pred.clone())),
        group_by: group_cols.clone(),
        aggs: vec![AggItem { func: ja.func, arg: ja.arg.clone(), alias: agg_alias.clone() }],
    };
    trace.push(format!(
        "NEST-JA (Kim): {temp_name} := GROUP BY {} over restricted {}",
        group_cols.iter().map(ToString::to_string).collect::<Vec<_>>().join(", "),
        inner.from_names().join(", ")
    ));
    temps.push(TempTable { name: temp_name.clone(), plan });

    // Step 2: replacement inner block referencing Rt, join predicates keep
    // their original operators (reproducing the Section-5.3 bug).
    let mut where_parts = Vec::new();
    for c in &ja.correlations {
        where_parts.push(Predicate::col_cmp(
            ColumnRef::qualified(&temp_name, &c.inner_col.column),
            c.op,
            c.outer_col.clone(),
        ));
    }
    trace.push(format!(
        "NEST-JA (Kim): inner block replaced by SELECT {temp_name}.{agg_alias} FROM {temp_name} \
         (join operators kept as written)"
    ));
    Ok(QueryBlock {
        distinct: false,
        select: vec![SelectItem::column(ColumnRef::qualified(&temp_name, &agg_alias))],
        from: vec![TableRef::new(&temp_name)],
        where_clause: Some(Predicate::and(where_parts)),
        group_by: vec![],
        order_by: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalJoinKind;
    use nsql_analyzer::resolve::SchemaSource;
    use nsql_sql::{parse_query, Operand};
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

    fn inner_of(src: &str) -> QueryBlock {
        let q = nsql_analyzer::analyze(&Cat, &parse_query(src).unwrap()).unwrap().into_block();
        let Some(Predicate::Compare { right: Operand::Subquery(inner), .. }) = q.where_clause
        else {
            panic!()
        };
        *inner
    }

    #[test]
    fn kim_temp_is_plain_group_by_over_inner() {
        let inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        let replacement = apply_ja_kim(&inner, &mut namer, &mut temps, &mut trace).unwrap();
        assert_eq!(temps.len(), 1, "Kim builds exactly one temporary");
        let LogicalPlan::Aggregate { input, group_by, .. } = &temps[0].plan else { panic!() };
        assert_eq!(group_by, &[ColumnRef::qualified("SUPPLY", "PNUM")]);
        // No join anywhere under the aggregate.
        fn has_join(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Join { .. } | LogicalPlan::Apply { .. } => true,
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Select { input, .. } => has_join(input),
                LogicalPlan::Scan { .. } => false,
            }
        }
        assert!(!has_join(input), "Kim's temp must not join the outer relation");
        let printed = nsql_sql::print_query(&replacement);
        assert_eq!(printed, "SELECT TEMP1.AGG FROM TEMP1 WHERE TEMP1.PNUM = PARTS.PNUM");
    }

    #[test]
    fn group_by_dedups_non_adjacent_repeated_columns() {
        // Shrunk regression for the consecutive-only `Vec::dedup` bug
        // class (first found in NEST-JA2 by PR 4): SUPPLY.PNUM correlates
        // twice with SUPPLY.QUAN correlating in between, so the repeated
        // column is non-adjacent and `dedup()` let it survive into the
        // GROUP BY list.
        let inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN = PARTS.QOH \
             AND SUPPLY.PNUM < PARTS.PNUM)",
        );
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        apply_ja_kim(&inner, &mut namer, &mut temps, &mut trace).unwrap();
        let LogicalPlan::Aggregate { group_by, .. } = &temps[0].plan else { panic!() };
        assert_eq!(
            group_by,
            &[
                ColumnRef::qualified("SUPPLY", "PNUM"),
                ColumnRef::qualified("SUPPLY", "QUAN")
            ],
            "repeated correlation column must appear once"
        );
    }

    #[test]
    fn kim_keeps_non_equality_operator() {
        let inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
             WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        let mut namer = TempNamer::new(vec![]);
        let mut temps = Vec::new();
        let mut trace = Vec::new();
        let replacement = apply_ja_kim(&inner, &mut namer, &mut temps, &mut trace).unwrap();
        let printed = nsql_sql::print_query(&replacement);
        // The faithful bug: `<` survives into the transformed query.
        assert!(printed.contains("TEMP1.PNUM < PARTS.PNUM"), "{printed}");
        let _ = LogicalJoinKind::Inner; // silence unused import in cfg(test)
    }
}
