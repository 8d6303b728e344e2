//! Sort-based grouped aggregation (`GROUP BY`).

use super::Exec;
use crate::aggregate::AggState;
use crate::error::EngineError;
use crate::Result;
use nsql_sql::AggFunc;
use nsql_storage::sort::SortKey;
use nsql_storage::{HeapFile, TempFile};
use nsql_types::{Relation, Schema, Tuple, Value};

/// One aggregate to compute: function plus input field index (`None` for
/// `COUNT(*)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input field, or `None` for `COUNT(*)`.
    pub arg: Option<usize>,
}

impl AggSpec {
    /// `AGG(field)`.
    pub fn on(func: AggFunc, field: usize) -> AggSpec {
        AggSpec { func, arg: Some(field) }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> AggSpec {
        AggSpec { func: AggFunc::Count, arg: None }
    }
}

impl Exec {
    /// GROUP BY `group` computing `aggs`, producing `out_schema` =
    /// (group columns ++ aggregate columns).
    ///
    /// Sort-based: the input is externally sorted on the group columns
    /// unless `presorted` — NEST-JA2 exploits this by creating `Rt4` "in
    /// GROUP BY column order, so it does not have to be sorted" (§7.4).
    ///
    /// With an empty `group` list this is a global aggregate and produces
    /// exactly one row even on empty input (`COUNT` → 0, others → `NULL`) —
    /// SQL's scalar-aggregate rule, load-bearing for the COUNT bug.
    pub fn group_aggregate(
        &self,
        input: &HeapFile,
        group: &[usize],
        aggs: &[AggSpec],
        out_schema: Schema,
        presorted: bool,
    ) -> Result<HeapFile> {
        let tuples = self.group_aggregate_tuples(input, group, aggs, &out_schema, presorted)?;
        Ok(HeapFile::from_tuples(&self.storage, out_schema, tuples))
    }

    /// Grouped aggregation delivered in memory (final operator).
    pub fn group_aggregate_collect(
        &self,
        input: &HeapFile,
        group: &[usize],
        aggs: &[AggSpec],
        out_schema: Schema,
        presorted: bool,
    ) -> Result<Relation> {
        let tuples = self.group_aggregate_tuples(input, group, aggs, &out_schema, presorted)?;
        Relation::new(out_schema, tuples).map_err(EngineError::from)
    }

    fn group_aggregate_tuples(
        &self,
        input: &HeapFile,
        group: &[usize],
        aggs: &[AggSpec],
        out_schema: &Schema,
        presorted: bool,
    ) -> Result<Vec<Tuple>> {
        if out_schema.arity() != group.len() + aggs.len() {
            return Err(EngineError::Internal(format!(
                "aggregate schema arity {} != {} group + {} agg columns",
                out_schema.arity(),
                group.len(),
                aggs.len()
            )));
        }
        // Freed when this function returns, by whichever path: after the
        // fold's last page read, before the caller writes a result page.
        let sorted = (!presorted && !group.is_empty()).then(|| {
            let keys: Vec<SortKey> = group.iter().map(|&i| SortKey::asc(i)).collect();
            TempFile::new(&self.storage, self.sort(input, &keys, false))
        });
        let file: &HeapFile = sorted.as_deref().unwrap_or(input);

        let mut out = Vec::new();
        let flush = |key: &Option<Tuple>, states: &[AggState], out: &mut Vec<Tuple>| {
            if let Some(k) = key {
                let mut vals: Vec<Value> = k.values().to_vec();
                vals.extend(states.iter().map(AggState::finish));
                out.push(Tuple::new(vals));
            }
        };
        let mut current_key: Option<Tuple> = None;
        let mut states: Vec<AggState> = Vec::new();
        // Fold tuples in place on their buffered pages: the group key is
        // compared field-by-field against the current key and only
        // projected out when the group actually changes, so steady-state
        // rows cost no allocation at all.
        file.try_for_each(&self.storage, |t: &Tuple| -> Result<()> {
            let same_group = current_key
                .as_ref()
                .is_some_and(|k| group.iter().enumerate().all(|(j, &i)| k.get(j) == t.get(i)));
            if !same_group {
                flush(&current_key, &states, &mut out);
                current_key = Some(t.project(group));
                states = aggs.iter().map(|a| AggState::new(a.func)).collect();
            }
            for (state, spec) in states.iter_mut().zip(aggs) {
                match spec.arg {
                    Some(i) => state.accumulate(t.get(i))?,
                    None => state.accumulate_row(),
                }
            }
            Ok(())
        })?;
        flush(&current_key, &states, &mut out);

        // Global aggregate over an empty input still yields one row.
        if group.is_empty() && out.is_empty() {
            let vals: Vec<Value> =
                aggs.iter().map(|a| AggState::new(a.func).finish()).collect();
            out.push(Tuple::new(vals));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;
    use nsql_storage::Storage;
    use nsql_types::{Column, ColumnType};

    fn exec() -> Exec {
        Exec::new(Storage::with_defaults())
    }

    fn out_schema(n_group: usize, n_agg: usize) -> Schema {
        let mut cols: Vec<Column> =
            (0..n_group).map(|i| Column::new(format!("G{i}"), ColumnType::Int)).collect();
        cols.extend((0..n_agg).map(|i| Column::new(format!("A{i}"), ColumnType::Int)));
        Schema::new(cols)
    }

    #[test]
    fn groups_and_counts() {
        let e = exec();
        let f = int_file(
            e.storage(),
            "T",
            &["K", "V"],
            &[&[2, 10], &[1, 5], &[2, 20], &[1, 7], &[3, 0]],
        );
        let out = e
            .group_aggregate(
                &f,
                &[0],
                &[AggSpec::on(AggFunc::Count, 1), AggSpec::on(AggFunc::Sum, 1)],
                out_schema(1, 2),
                false,
            )
            .unwrap();
        let mut rows = rows_of(e.storage(), &out);
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Some(1), Some(2), Some(12)],
                vec![Some(2), Some(2), Some(30)],
                vec![Some(3), Some(1), Some(0)]
            ]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["K", "V"], &[]);
        let out = e
            .group_aggregate(
                &f,
                &[],
                &[AggSpec::on(AggFunc::Count, 1), AggSpec::on(AggFunc::Max, 1)],
                out_schema(0, 2),
                false,
            )
            .unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(0), None]]);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        // The difference that creates the COUNT bug: with GROUP BY, empty
        // groups simply do not exist.
        let e = exec();
        let f = int_file(e.storage(), "T", &["K", "V"], &[]);
        let out = e
            .group_aggregate(&f, &[0], &[AggSpec::on(AggFunc::Count, 1)], out_schema(1, 1), false)
            .unwrap();
        assert_eq!(out.tuple_count(), 0);
    }

    #[test]
    fn count_star_vs_count_column_on_nulls() {
        let e = exec();
        let st = e.storage().clone();
        let schema = Schema::new(vec![
            Column::qualified("T", "K", ColumnType::Int),
            Column::qualified("T", "V", ColumnType::Int),
        ]);
        let f = HeapFile::from_tuples(
            &st,
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::Int(1), Value::Int(9)]),
            ],
        );
        let out = e
            .group_aggregate(
                &f,
                &[0],
                &[AggSpec::count_star(), AggSpec::on(AggFunc::Count, 1)],
                out_schema(1, 2),
                false,
            )
            .unwrap();
        // COUNT(*) = 2 but COUNT(V) = 1 — Section 5.2.1's distinction.
        assert_eq!(rows_of(&st, &out), vec![vec![Some(1), Some(2), Some(1)]]);
    }

    #[test]
    fn overflowing_sum_frees_the_sorted_input() {
        // Unsorted input, so the operator sorts it into a file of its own
        // before folding, and that file may not outlive the error. Each
        // group sums to twice `i64::MAX`, a hundredth at a time, so the
        // fold overflows mid-scan.
        let rows: Vec<Vec<i64>> = (0..400).map(|i| vec![i % 2, i64::MAX / 100]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let e = Exec::new(Storage::new(6, 128));
        let f = int_file(e.storage(), "T", &["K", "V"], &refs);
        let aggs = [AggSpec::on(AggFunc::Sum, 1)];
        let live = e.storage().live_pages();
        let stored =
            e.group_aggregate(&f, &[0], &aggs, out_schema(1, 1), false).map(|f| f.tuple_count());
        assert_eq!(e.storage().live_pages(), live, "{stored:?}");
        let collected = e
            .group_aggregate_collect(&f, &[0], &aggs, out_schema(1, 1), false)
            .map(|rel| rel.len());
        assert_eq!(e.storage().live_pages(), live, "{collected:?}");
        let want = "Err(Overflow(\"SUM over i64\"))";
        assert_eq!((format!("{stored:?}"), format!("{collected:?}")), (want.into(), want.into()));
    }

    #[test]
    fn presorted_input_skips_sort() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["K", "V"], &[&[1, 1], &[1, 2], &[2, 3]]);
        e.storage().reset_stats();
        let before = e.storage().io_stats();
        let out = e
            .group_aggregate(&f, &[0], &[AggSpec::on(AggFunc::Max, 1)], out_schema(1, 1), true)
            .unwrap();
        let used = e.storage().io_stats().since(&before);
        assert_eq!(used.reads, f.page_count() as u64);
        let mut rows = rows_of(e.storage(), &out);
        rows.sort();
        assert_eq!(rows, vec![vec![Some(1), Some(2)], vec![Some(2), Some(3)]]);
    }

    #[test]
    fn nulls_group_together() {
        let e = exec();
        let st = e.storage().clone();
        let schema = Schema::new(vec![
            Column::qualified("T", "K", ColumnType::Int),
            Column::qualified("T", "V", ColumnType::Int),
        ]);
        let f = HeapFile::from_tuples(
            &st,
            schema,
            vec![
                Tuple::new(vec![Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Null, Value::Int(2)]),
                Tuple::new(vec![Value::Int(1), Value::Int(3)]),
            ],
        );
        let out = e
            .group_aggregate(&f, &[0], &[AggSpec::on(AggFunc::Sum, 1)], out_schema(1, 1), false)
            .unwrap();
        let mut rows = rows_of(&st, &out);
        rows.sort();
        assert_eq!(rows, vec![vec![None, Some(3)], vec![Some(1), Some(3)]]);
    }
}
