//! The SELECT phase of a query block, compiled once.
//!
//! Nested iteration and the plan executor end a block the same way: the
//! rows that survived WHERE — or, when the block aggregates, one row per
//! group laid out `[keys…, aggregates…]` — become the block's result through
//! a [`SelectList`], compiled once per block against the scope schema. The
//! rules are the oracle's (`nsql-oracle`, which keeps its own copy as the
//! reference the differential harness compares both against):
//!
//! * **Names.** A column item is named by its column (unqualified), a
//!   literal `LITERAL`, an aggregate by its function; `AS alias` overrides.
//! * **Types.** A column's declared type; a literal's own (`Int` for NULL);
//!   `COUNT` is `Int`, `AVG` `Float`, any other aggregate its argument's
//!   type — `Int` when the argument is not a column of the scope.
//! * **ORDER BY** keys resolve against the output: by output name, then
//!   qualified, then to the first select item that is a reference to the
//!   same column. Sorting is stable and follows DISTINCT.
//! * **Errors.** A column item or GROUP BY key the scope does not resolve
//!   fails the compilation. A column item of an aggregating block that is
//!   not a group key (`not in GROUP BY`, or `bare column` without GROUP BY)
//!   is raised only when a row is emitted, so a grouped block over no rows
//!   answers the empty result; an ORDER BY key that names nothing is raised
//!   after the rows are made, over none too.

use crate::error::EngineError;
use crate::expr::CExpr;
use crate::ops::AggSpec;
use crate::Result;
use nsql_sql::{AggArg, AggFunc, ColumnRef, OrderKey, ScalarExpr, SelectItem, SortDir};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, TypeError, Value};
use std::cmp::Ordering;

/// Where one output column comes from in a row handed to
/// [`SelectList::finish`].
#[derive(Debug, Clone)]
enum Slot {
    /// A field of the row: a scope column of a plain block, a group key or
    /// an aggregate of an aggregating one.
    Field(usize),
    Lit(Value),
    /// A column the block cannot emit, raised with its first row.
    Raise(EngineError),
}

/// What an aggregate of the select list reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggInput {
    /// `COUNT(*)`.
    Star,
    /// A column of the scope.
    Column(usize),
    /// A reference the scope does not resolve — an outer reference, or one
    /// ambiguous in the scope — which nested iteration looks up per member
    /// in the scope chain, so a failure is raised only over a member.
    Unresolved(ColumnRef),
}

/// One aggregate item, in select order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectAgg {
    pub(crate) func: AggFunc,
    pub(crate) input: AggInput,
}

/// A block's SELECT phase: output schema, each item's slot, the grouping,
/// the aggregates and the ORDER BY keys (see the module docs).
#[derive(Debug, Clone)]
pub struct SelectList {
    schema: Schema,
    slots: Vec<Slot>,
    /// GROUP BY or an aggregate item: rows handed in are group rows.
    grouped: bool,
    group_by: Vec<usize>,
    aggs: Vec<SelectAgg>,
    /// The layout of a group row, `[keys…, aggregates…]`.
    group_schema: Schema,
    distinct: bool,
    /// The ORDER BY keys, or the error an unresolvable one raises.
    order: std::result::Result<Vec<(usize, SortDir)>, EngineError>,
}

impl SelectList {
    /// Compile the SELECT phase of a block whose scope is `scope`.
    pub fn compile(
        scope: &Schema,
        select: &[SelectItem],
        group_by: &[ColumnRef],
        order_by: &[OrderKey],
        distinct: bool,
    ) -> Result<SelectList> {
        let resolve = |c: &ColumnRef| scope.resolve(c.table.as_deref(), &c.column);
        let keys: std::result::Result<Vec<usize>, TypeError> =
            group_by.iter().map(resolve).collect();
        let group_keys = keys.as_deref().unwrap_or_default();
        let grouped =
            !group_by.is_empty() || select.iter().any(|s| s.expr.as_aggregate().is_some());
        let mut group_cols: Vec<Column> = group_keys
            .iter()
            .map(|&i| Column::new(&scope.columns()[i].name, scope.columns()[i].ty))
            .collect();
        let (mut cols, mut slots, mut aggs) = (Vec::new(), Vec::new(), Vec::new());
        for item in select {
            let (name, ty, slot) = match &item.expr {
                ScalarExpr::Column(c) => {
                    let i = resolve(c)?;
                    let col = &scope.columns()[i];
                    let slot = match group_keys.iter().position(|&k| k == i) {
                        _ if !grouped => Slot::Field(i),
                        Some(k) => Slot::Field(k),
                        None if group_by.is_empty() => Slot::Raise(EngineError::Unsupported(
                            format!("bare column {c} in aggregate SELECT without GROUP BY"),
                        )),
                        None => Slot::Raise(EngineError::Unsupported(format!(
                            "column {c} in SELECT is not in GROUP BY"
                        ))),
                    };
                    (col.name.clone(), col.ty, slot)
                }
                ScalarExpr::Literal(v) => (
                    "LITERAL".to_string(),
                    v.column_type().unwrap_or(ColumnType::Int),
                    Slot::Lit(v.clone()),
                ),
                ScalarExpr::Aggregate(func, arg) => {
                    let input = match arg {
                        AggArg::Star => AggInput::Star,
                        AggArg::Column(c) => match scope.try_resolve(c.table.as_deref(), &c.column)
                        {
                            Some(i) => AggInput::Column(i),
                            None => AggInput::Unresolved(c.clone()),
                        },
                    };
                    let ty = match (func, &input) {
                        (AggFunc::Count, _) => ColumnType::Int,
                        (AggFunc::Avg, _) => ColumnType::Float,
                        (_, AggInput::Column(i)) => scope.columns()[*i].ty,
                        _ => ColumnType::Int,
                    };
                    aggs.push(SelectAgg { func: *func, input });
                    let slot = Slot::Field(group_keys.len() + aggs.len() - 1);
                    (func.name().to_string(), ty, slot)
                }
            };
            let col = Column::new(item.alias.clone().unwrap_or(name), ty);
            if item.expr.as_aggregate().is_some() {
                group_cols.push(col.clone());
            }
            cols.push(col);
            slots.push(slot);
        }
        let schema = Schema::new(cols);
        let order = order_by.iter().map(|k| order_key(&schema, select, k)).collect();
        Ok(SelectList {
            schema,
            slots,
            grouped,
            group_by: keys?,
            aggs,
            group_schema: Schema::new(group_cols),
            distinct,
            order,
        })
    }

    /// The block's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether the block aggregates (GROUP BY, or an aggregate item): the
    /// rows [`finish`](Self::finish) takes are then group rows, and without
    /// GROUP BY there is exactly one group, even over no rows.
    pub fn grouped(&self) -> bool {
        self.grouped
    }

    /// The GROUP BY keys, as columns of the scope.
    pub fn group_by(&self) -> &[usize] {
        &self.group_by
    }

    /// The aggregates, in select order.
    pub(crate) fn aggs(&self) -> &[SelectAgg] {
        &self.aggs
    }

    /// The layout of a group row: the keys, named and typed as the scope
    /// has them, then the aggregates, named by alias or function.
    pub fn group_schema(&self) -> &Schema {
        &self.group_schema
    }

    /// The aggregates as the GROUP BY operator computes them. An argument
    /// the scope does not resolve is an unknown column: only nested
    /// iteration has outer scopes to look it up in.
    pub fn agg_specs(&self) -> Result<Vec<AggSpec>> {
        let spec = |a: &SelectAgg| match &a.input {
            AggInput::Star => Ok(AggSpec::count_star()),
            AggInput::Column(i) => Ok(AggSpec::on(a.func, *i)),
            AggInput::Unresolved(c) => Err(TypeError::UnknownColumn(c.to_string()).into()),
        };
        self.aggs.iter().map(spec).collect()
    }

    /// A plain list as the expressions a streaming projection evaluates
    /// over each scope row.
    pub fn projection(&self) -> Result<Vec<CExpr>> {
        if self.grouped {
            return Err(EngineError::Unsupported("aggregate in plain projection".into()));
        }
        let expr = |s: &Slot| match s {
            Slot::Field(i) => CExpr::Col(*i),
            Slot::Lit(v) => CExpr::Lit(v.clone()),
            Slot::Raise(_) => unreachable!("a plain list raises on no column"),
        };
        Ok(self.slots.iter().map(expr).collect())
    }

    /// The block's result from `rows` — scope rows of a plain block, group
    /// rows of an aggregating one — then DISTINCT (also when
    /// `force_distinct`) and ORDER BY.
    pub fn finish(&self, rows: &[Tuple], force_distinct: bool) -> Result<Relation> {
        if !rows.is_empty() {
            if let Some(Slot::Raise(e)) = self.slots.iter().find(|s| matches!(s, Slot::Raise(_))) {
                return Err(e.clone());
            }
        }
        let emit = |row: &Tuple| -> Tuple {
            let value = |s: &Slot| match s {
                Slot::Field(i) => row.get(*i).clone(),
                Slot::Lit(v) => v.clone(),
                Slot::Raise(_) => unreachable!("raised above"),
            };
            self.slots.iter().map(value).collect()
        };
        let mut out: Vec<Tuple> = rows.iter().map(emit).collect();
        if self.distinct || force_distinct {
            out.sort_by(Tuple::total_cmp);
            out.dedup();
        }
        let order = self.order.as_ref().map_err(Clone::clone)?;
        if !order.is_empty() {
            out.sort_by(|a, b| {
                let key = |&(i, dir): &(usize, SortDir)| {
                    let o = a.get(i).total_cmp(b.get(i));
                    if dir == SortDir::Desc {
                        o.reverse()
                    } else {
                        o
                    }
                };
                order.iter().map(key).find(|o| *o != Ordering::Equal).unwrap_or(Ordering::Equal)
            });
        }
        Ok(Relation::new(self.schema.clone(), out)?)
    }
}

/// The output column ORDER BY key `k` sorts on: by output name, then
/// qualified, then the first select item referencing the same column.
fn order_key(schema: &Schema, select: &[SelectItem], k: &OrderKey) -> Result<(usize, SortDir)> {
    let c = &k.column;
    let same_column = |item: &SelectItem| match &item.expr {
        ScalarExpr::Column(s) => s.column == c.column && (c.table.is_none() || s.table == c.table),
        _ => false,
    };
    let i = schema
        .try_resolve(None, &c.column)
        .or_else(|| schema.try_resolve(c.table.as_deref(), &c.column))
        .or_else(|| select.iter().position(same_column))
        .ok_or_else(|| TypeError::UnknownColumn(c.to_string()))?;
    Ok((i, k.dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

    fn scope() -> Schema {
        Schema::of_table("P", &[("PNUM", ColumnType::Int), ("QOH", ColumnType::Int)])
    }

    fn list(sql: &str) -> Result<SelectList> {
        let q = parse_query(sql).unwrap();
        SelectList::compile(&scope(), &q.select, &q.group_by, &q.order_by, q.distinct)
    }

    fn row(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn names_types_and_slots_follow_the_oracle() {
        let l =
            list("SELECT P.PNUM AS X, 7, COUNT(*), AVG(P.QOH), MAX(Q.Z) FROM P GROUP BY P.PNUM")
                .unwrap();
        let names: Vec<&str> = l.schema().columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["X", "LITERAL", "COUNT", "AVG", "MAX"]);
        let types: Vec<ColumnType> = l.schema().columns().iter().map(|c| c.ty).collect();
        use ColumnType::{Float, Int};
        assert_eq!(types, [Int, Int, Int, Float, Int]);
        assert_eq!(l.group_by(), [0]);
        assert_eq!(l.aggs()[2].input, AggInput::Unresolved(ColumnRef::qualified("Q", "Z")));
        assert!(l.agg_specs().is_err());
        let out = l.finish(&[row(&[3, 2, 4, 5])], false).unwrap();
        let want: Tuple =
            [Value::Int(3), Value::Int(7), Value::Int(2), Value::Int(4), Value::Int(5)]
                .into_iter()
                .collect();
        assert_eq!(out.tuples(), [want]);
    }

    #[test]
    fn a_column_outside_group_by_raises_only_with_a_row() {
        let l = list("SELECT P.QOH FROM P GROUP BY P.PNUM").unwrap();
        assert!(l.finish(&[], false).unwrap().is_empty());
        let e = l.finish(&[row(&[1])], false).unwrap_err();
        assert!(e.to_string().contains("not in GROUP BY"), "{e}");
        let e = list("SELECT P.QOH, COUNT(*) FROM P").unwrap().finish(&[row(&[1])], false);
        assert!(e.unwrap_err().to_string().contains("bare column"));
        assert!(list("SELECT P.NOPE FROM P").is_err(), "an unknown column fails to compile");
    }

    #[test]
    fn order_by_resolves_by_name_then_reference_after_distinct() {
        let l =
            list("SELECT DISTINCT P.PNUM AS X, P.QOH FROM P ORDER BY P.PNUM DESC, QOH").unwrap();
        let rows = [row(&[1, 2]), row(&[3, 1]), row(&[1, 2]), row(&[3, 0])];
        let out = l.finish(&rows, false).unwrap();
        assert_eq!(out.tuples(), [row(&[3, 0]), row(&[3, 1]), row(&[1, 2])]);
        let l = list("SELECT P.PNUM FROM P ORDER BY NOPE").unwrap();
        assert!(l.finish(&[], false).is_err(), "an unknown key raises over no rows too");
    }

    #[test]
    fn a_plain_list_projects_and_an_aggregating_one_does_not() {
        let l = list("SELECT P.QOH, 5 FROM P").unwrap();
        assert_eq!(l.projection().unwrap(), [CExpr::Col(1), CExpr::Lit(Value::Int(5))]);
        assert!(list("SELECT COUNT(*) FROM P").unwrap().projection().is_err());
    }
}
