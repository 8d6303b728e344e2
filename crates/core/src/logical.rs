//! Logical plans: the temporaries a transformation defines, which need an
//! **outer join** and a GROUP BY over a join result that SQL-82 query
//! blocks cannot express, and the canonical query with its anti-joins,
//! lowered into the same IR ([`lower`](crate::pipeline::lower)). It covers
//! exactly the plan shapes the paper's algorithms emit, and off its literal
//! plans the anti-join and an aggregate block evaluated once per outer row
//! ([`LogicalPlan::Apply`]); `nsql-db`'s physical layer executes every tree
//! with a configurable join method.

use nsql_sql::{AggArg, AggFunc, ColumnRef, CompareOp, OrderKey, Predicate, SelectItem};
use std::fmt;

/// The kind of a join at the logical level.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalJoinKind {
    /// Plain join.
    Inner,
    /// Left outer join (the paper's `=+` / COUNT-bug device).
    LeftOuter,
    /// A left row is kept iff no right row matches it
    /// ([`AntiJoin`](crate::AntiJoin)); the join's `on` list is empty.
    Anti {
        /// A match needs each `TRUE`.
        conjuncts: Vec<Predicate>,
        /// A match needs it `TRUE` or `UNKNOWN` (`NOT IN`'s `x = c`).
        null_aware: Option<Predicate>,
    },
}

/// One join predicate: `left-side-column op right-side-column`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPred {
    /// Column from the left input.
    pub left: ColumnRef,
    /// Comparison operator (non-equality is allowed; see Section 5.3).
    pub op: CompareOp,
    /// Column from the right input.
    pub right: ColumnRef,
}

impl fmt::Display for JoinPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.symbol(), self.right)
    }
}

/// One aggregate output of an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// The function.
    pub func: AggFunc,
    /// Argument (`Star` only for COUNT).
    pub arg: AggArg,
    /// Output column name.
    pub alias: String,
}

/// A logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base or temporary table under an effective name.
    Scan {
        /// Catalog table name.
        table: String,
        /// Effective (alias) name columns are qualified by; defaults to the
        /// table name.
        alias: Option<String>,
    },
    /// Restriction by a simple (subquery-free) predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate.
        pred: Predicate,
    },
    /// Projection; items must be columns or literals (no aggregates).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions with optional aliases.
        items: Vec<SelectItem>,
        /// Eliminate duplicates?
        distinct: bool,
    },
    /// Join of two plans.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: LogicalJoinKind,
        /// Join predicates (conjunctive).
        on: Vec<JoinPred>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by columns (become output columns, keeping their names).
        group_by: Vec<ColumnRef>,
        /// Aggregates to compute.
        aggs: Vec<AggItem>,
    },
    /// A correlated aggregate block evaluated once per row of `outer` (an
    /// Apply): each outer row, duplicates and `NULL`s included, is a group
    /// of its own, extended by `aggs` over the rows of `inner` that
    /// `correlation` is TRUE for paired with it — an empty group's values
    /// where it is TRUE for none. Every such pair equates the columns of one
    /// list of `keys` (one list per disjunct of the correlation). Output:
    /// the `kept` columns of `outer`, then one per aggregate.
    Apply {
        /// The group table's rows.
        outer: Box<LogicalPlan>,
        /// The name `outer`'s columns go by in `keys` and `correlation`.
        outer_name: String,
        /// The columns of `outer` read after the Apply, by name, in
        /// `outer`'s order; the ones only the correlation reads go.
        kept: Vec<String>,
        /// The rows folded into the groups.
        inner: Box<LogicalPlan>,
        /// Per disjunct, its equalities (left: outer column, right: inner).
        keys: Vec<Vec<JoinPred>>,
        /// The whole correlation predicate, over outer and inner columns.
        correlation: Predicate,
        /// Aggregates to compute (arguments are inner columns).
        aggs: Vec<AggItem>,
    },
    /// The canonical query's SELECT phase, the root of its tree, over a flat
    /// block: scans, inner and anti-joins, one filter. The executor runs it
    /// through its join pipeline under either plan shapes.
    Select {
        /// The flat block.
        input: Box<LogicalPlan>,
        /// The select list.
        items: Vec<SelectItem>,
        /// GROUP BY columns.
        group_by: Vec<ColumnRef>,
        /// ORDER BY keys.
        order_by: Vec<OrderKey>,
        /// `SELECT DISTINCT`, or a final DISTINCT the query does not ask for
        /// (`TransformPlan::needs_distinct_for_semantics`).
        distinct: bool,
    },
}

impl LogicalPlan {
    /// Scan shorthand.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan { table: table.into().to_ascii_uppercase(), alias: None }
    }

    /// Filter shorthand (no-op when `pred` is `None`).
    pub fn filtered(self, pred: Option<Predicate>) -> LogicalPlan {
        match pred {
            Some(p) => LogicalPlan::Filter { input: Box::new(self), pred: p },
            None => self,
        }
    }

    /// Render a one-line-per-node EXPLAIN-style description.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { table, alias } => {
                out.push_str(&pad);
                match alias {
                    Some(a) => out.push_str(&format!("Scan {table} AS {a}\n")),
                    None => out.push_str(&format!("Scan {table}\n")),
                }
            }
            LogicalPlan::Filter { input, pred } => {
                out.push_str(&format!("{pad}Filter {}\n", nsql_sql::print_predicate(pred)));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Project { input, items, distinct } => {
                let cols: Vec<String> = items
                    .iter()
                    .map(|i| match (&i.expr, &i.alias) {
                        (nsql_sql::ScalarExpr::Column(c), None) => c.to_string(),
                        (nsql_sql::ScalarExpr::Column(c), Some(a)) => format!("{c} AS {a}"),
                        (e, _) => format!("{e:?}"),
                    })
                    .collect();
                out.push_str(&format!(
                    "{pad}Project{} [{}]\n",
                    if *distinct { " DISTINCT" } else { "" },
                    cols.join(", ")
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Join { left, right, kind, on } => {
                let mut preds: Vec<String> = on.iter().map(JoinPred::to_string).collect();
                let kind = match kind {
                    LogicalJoinKind::Inner => "Join",
                    LogicalJoinKind::LeftOuter => "LeftOuterJoin",
                    LogicalJoinKind::Anti { conjuncts, null_aware } => {
                        preds.extend(conjuncts.iter().map(nsql_sql::print_predicate));
                        let aware = null_aware.iter().map(nsql_sql::print_predicate);
                        preds.extend(aware.map(|p| format!("NULL-AWARE {p}")));
                        "AntiJoin"
                    }
                };
                out.push_str(&format!("{pad}{kind} ON {}\n", preds.join(" AND ")));
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let groups: Vec<String> = group_by.iter().map(ColumnRef::to_string).collect();
                out.push_str(&format!(
                    "{pad}Aggregate GROUP BY [{}] COMPUTE [{}]\n",
                    groups.join(", "),
                    agg_list(aggs)
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Apply { outer, outer_name, kept, inner, keys, correlation, aggs } => {
                let and = |set: &Vec<JoinPred>| {
                    set.iter().map(JoinPred::to_string).collect::<Vec<_>>().join(" AND ")
                };
                let keys: Vec<String> = keys.iter().map(and).collect();
                out.push_str(&format!(
                    "{pad}Apply PER ROW OF {outer_name} ON {} KEYS [{}] KEEP [{}] COMPUTE [{}]\n",
                    nsql_sql::print_predicate(correlation),
                    keys.join("; "),
                    kept.join(", "),
                    agg_list(aggs)
                ));
                outer.explain_into(out, indent + 1);
                inner.explain_into(out, indent + 1);
            }
            LogicalPlan::Select { input, .. } => {
                out.push_str(&format!("{pad}Select\n"));
                input.explain_into(out, indent + 1);
            }
        }
    }
}

/// `FUNC(arg) AS alias, …` of an aggregate list.
fn agg_list(aggs: &[AggItem]) -> String {
    let each = aggs.iter().map(|a| match &a.arg {
        AggArg::Star => format!("{}(*) AS {}", a.func.name(), a.alias),
        AggArg::Column(c) => format!("{}({c}) AS {}", a.func.name(), a.alias),
    });
    each.collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

    #[test]
    fn explain_renders_tree() {
        let inner = LogicalPlan::scan("SUPPLY").filtered(
            parse_query("SELECT PNUM FROM SUPPLY WHERE SHIPDATE < 1-1-80")
                .unwrap()
                .where_clause,
        );
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::scan("TEMP1")),
                right: Box::new(inner),
                kind: LogicalJoinKind::LeftOuter,
                on: vec![JoinPred {
                    left: ColumnRef::qualified("TEMP1", "PNUM"),
                    op: CompareOp::Eq,
                    right: ColumnRef::qualified("SUPPLY", "PNUM"),
                }],
            }),
            group_by: vec![ColumnRef::qualified("TEMP1", "PNUM")],
            aggs: vec![AggItem {
                func: AggFunc::Count,
                arg: AggArg::Column(ColumnRef::qualified("SUPPLY", "SHIPDATE")),
                alias: "CT".into(),
            }],
        };
        let s = plan.explain();
        assert!(s.contains("LeftOuterJoin ON TEMP1.PNUM = SUPPLY.PNUM"), "{s}");
        assert!(s.contains("COUNT(SUPPLY.SHIPDATE) AS CT"), "{s}");
        assert!(s.contains("Scan TEMP1"), "{s}");
    }

    #[test]
    fn filtered_none_is_identity() {
        let p = LogicalPlan::scan("T").filtered(None);
        assert_eq!(p, LogicalPlan::scan("T"));
    }
}
