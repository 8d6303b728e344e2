//! Physical operators.
//!
//! Every operator **materializes** its result as a heap file (costing one
//! write per output page), matching how the paper's cost model charges every
//! intermediate — `Rt2`, `Rt3`, `Rt4`, `Rt` are all stored temporaries.
//! The one exception is the final operator of a plan, which uses a
//! `*_collect` variant to stream into an in-memory [`Relation`] (the paper
//! likewise never charges for delivering the final result). What an
//! operator *consumes* sorted is another matter: the sort-based GROUP BY
//! folds the external sort's last merge pass as it is merged
//! (`nsql_storage::sorted_with`), as nested iteration's bulk-loaded trees
//! pack their leaves, so no sorted file is written and read back for it —
//! except under the paper's literal plans, whose executor sorts to a file
//! and hands the aggregate a presorted input. The merge join's sorts are
//! written: its two inputs would have to share the `B − 1` run pages.
//!
//! Join methods are the two System R offered and the paper analyses —
//! nested-loop ([`Exec::nl_join`]) and sort-merge ([`Exec::merge_join`]) —
//! and a hash join ([`Exec::hash_join`]), a post-paper extension run under
//! the same memory model: it holds at most `B − 2` pages of its table and
//! Grace-partitions a larger build side into counted temporaries. Each
//! comes in inner and **left outer** flavours — the outer join being the
//! paper's key device for fixing the COUNT bug (Section 5.2).
//!
//! The nested loop reads every inner page once per outer tuple, as the
//! paper's `Pl + Nl·Pr` prices it, but it does not compare every pair: when
//! its predicate starts with column equalities, the first inner pass builds
//! a hash index of inner tuple *positions* and later passes evaluate the
//! predicate only where the key can match. The rule all operators share —
//! an index, memo or cache may skip CPU, never a page read — is stated in
//! DESIGN.md's I/O-accounting section.
//!
//! Every operator has one in-memory kernel, over rows, and one driver: it
//! runs serially on the calling thread (DESIGN.md "Execution is serial").
//! Predicates are evaluated by [`CPred`] alone.

mod agg;
mod hash_join;
mod join;

pub use agg::AggSpec;

use crate::error::EngineError;
use crate::expr::{CExpr, Joined, Projector, Row};
use crate::pred::CPred;
use crate::Result;
use nsql_obs::{OpCounters, Profile};
use nsql_storage::sort::SortKey;
use nsql_storage::{external_sort, HeapFile, Storage, TempFile};
use nsql_types::{Relation, Schema, Tuple, Value};
use std::sync::Arc;

/// Inner or left-outer join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Ordinary join.
    Inner,
    /// Left outer join: unmatched left tuples appear once, padded with
    /// `NULL`s on the right (the paper's `^`).
    LeftOuter,
}

/// What a join emits for a pair that joined: the whole concatenated row
/// `left ++ right`, or the listed columns of it. The one place every join
/// kernel — nested loop, sort-merge, hash, and the plan layer's index
/// probe — builds an output row, so a stored join result carries the
/// columns somebody reads and no others are ever cloned.
#[derive(Debug, Clone, Copy)]
pub struct JoinEmit<'a> {
    cols: Option<&'a [usize]>,
    right_arity: usize,
}

impl<'a> JoinEmit<'a> {
    /// Emit `cols` — indices into the concatenated schema of the left input
    /// and `right`, in output order — or every column when `None`.
    pub fn new(right: &Schema, cols: Option<&'a [usize]>) -> JoinEmit<'a> {
        JoinEmit { cols, right_arity: right.arity() }
    }

    /// Schema of the emitted rows.
    pub fn schema(&self, left: &Schema, right: &Schema) -> Schema {
        let joined = left.join(right);
        match self.cols {
            Some(cols) => joined.project(cols),
            None => joined,
        }
    }

    /// The output row of the pair `lt`, `rt`.
    pub fn pair(&self, lt: &Tuple, rt: &Tuple) -> Tuple {
        match self.cols {
            None => lt.join(rt),
            Some(cols) => {
                let row = Joined::new(lt, rt);
                cols.iter().map(|&c| row.field(c).clone()).collect()
            }
        }
    }

    /// The output row of a left tuple no right tuple joined: `NULL` in
    /// every right column (the paper's `^`).
    pub fn padded(&self, lt: &Tuple) -> Tuple {
        match self.cols {
            None => lt.join_nulls(self.right_arity),
            Some(cols) => {
                cols.iter().map(|&c| lt.values().get(c).cloned().unwrap_or(Value::Null)).collect()
            }
        }
    }
}

/// Operator executor bound to a [`Storage`]. Every operator runs serially
/// on the calling thread (DESIGN.md "Execution is serial").
#[derive(Clone)]
pub struct Exec {
    storage: Storage,
    profile: Profile,
}

impl Exec {
    /// Executor over `storage`.
    pub fn new(storage: Storage) -> Exec {
        Exec { storage, profile: Profile::default() }
    }

    /// [`Exec::new`]. The count is ignored: every operator is serial. The
    /// method survives only because `benchmark/` calls it, and
    /// benchmark/README.md requires a benchmark change before a listed
    /// symbol goes; that change deletes it.
    pub fn with_threads(storage: Storage, _threads: usize) -> Exec {
        Exec::new(storage)
    }

    /// `self`. The switch is ignored: every operator has one kernel. The
    /// method survives only because `benchmark/` calls it, as
    /// [`Exec::with_threads`] does.
    pub fn with_vectorized(self, _vectorized: bool) -> Exec {
        self
    }

    /// Attach the query's profile; operators record into its innermost
    /// open operator node. Without this (the default: a disabled profile),
    /// every collection point reduces to one `Option` branch.
    pub fn with_obs(mut self, profile: Profile) -> Exec {
        self.profile = profile;
        self
    }

    /// The attached profile (disabled unless [`Exec::with_obs`] set one).
    pub fn obs(&self) -> &Profile {
        &self.profile
    }

    /// The operator counters engine internals should record into right
    /// now: those of the innermost open node.
    pub(crate) fn current_op(&self) -> Option<Arc<OpCounters>> {
        self.profile.current_op()
    }

    /// The underlying storage handle.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Filter-map `input` through `f`, streaming into a new heap file:
    /// a zero-copy scan, writes interleaved with reads. On error the whole
    /// input is still scanned (`scan_with` does not short-circuit), and the
    /// **first** error in scan order is the one the caller sees.
    fn stream_filter_map<F>(&self, input: &HeapFile, out_schema: Schema, f: F) -> Result<TempFile>
    where
        F: Fn(&Tuple) -> Result<Option<Tuple>>,
    {
        let op = self.current_op();
        let mut err = None;
        let mut rows_in = 0u64;
        let mut rows_out = 0u64;
        let file = HeapFile::from_tuples(
            &self.storage,
            out_schema,
            input.scan_with(&self.storage, |t| {
                rows_in += 1;
                match f(t) {
                    Ok(o) => {
                        rows_out += o.is_some() as u64;
                        o
                    }
                    Err(e) => {
                        if err.is_none() {
                            err = Some(e);
                        }
                        None
                    }
                }
            }),
        );
        if let Some(op) = &op {
            op.rows_in.add(rows_in);
            op.rows_out.add(rows_out);
        }
        self.check_streamed(file, err)
    }

    /// σ — keep tuples the predicate accepts (is `TRUE` for).
    ///
    /// Streams page-resident tuples straight into the output file: rejected
    /// tuples are never cloned off their page, accepted ones are cloned
    /// exactly once. Output writes are write-around (never enter the buffer
    /// pool), so interleaving them with the input scan leaves counted I/O
    /// identical to the old collect-then-write form.
    pub fn filter(&self, input: &HeapFile, pred: &CPred) -> Result<HeapFile> {
        self.stream_filter_map(input, input.schema().clone(), |t| {
            Ok(if pred.accepts(t)? { Some(t.clone()) } else { None })
        })
        .map(TempFile::keep)
    }

    /// The streamed output as a file of its own; if the streaming closure
    /// hit an error, the partial output is freed and the error surfaces.
    fn check_streamed(&self, file: HeapFile, err: Option<EngineError>) -> Result<TempFile> {
        let file = TempFile::new(&self.storage, file);
        match err {
            Some(e) => Err(e),
            None => Ok(file),
        }
    }

    /// π — evaluate `exprs` per tuple; `distinct` eliminates duplicates via
    /// an external sort of the projected file. Clones only the projected
    /// columns of each input tuple and streams the output directly into
    /// pages (no intermediate `Vec<Tuple>`).
    pub fn project(
        &self,
        input: &HeapFile,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<HeapFile> {
        if out_schema.arity() != exprs.len() {
            return Err(EngineError::Internal(format!(
                "project schema arity {} != expr count {}",
                out_schema.arity(),
                exprs.len()
            )));
        }
        let proj = Projector::new(exprs);
        let file = self.stream_filter_map(input, out_schema, |t| Ok(Some(proj.apply_ref(t))))?;
        Ok(self.deduplicated(file, distinct))
    }

    /// `file` as the operator's result, or — under `distinct` — its
    /// duplicate-free sort, the unsorted file freed once that is written.
    fn deduplicated(&self, file: TempFile, distinct: bool) -> HeapFile {
        if distinct {
            self.sort(&file, &[], true)
        } else {
            file.keep()
        }
    }

    /// Combined σ then π in one pass over the input (the paper's
    /// "restriction and projection" of a relation, e.g. building `Rt2` and
    /// `Rt3` in NEST-JA2). Streams like [`filter`](Exec::filter)/
    /// [`project`](Exec::project): rejected tuples cost nothing, accepted
    /// ones clone only their projected columns.
    pub fn restrict_project(
        &self,
        input: &HeapFile,
        pred: &CPred,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<HeapFile> {
        let proj = Projector::new(exprs);
        let file = self.stream_filter_map(input, out_schema, |t| {
            Ok(if pred.accepts(t)? { Some(proj.apply_ref(t)) } else { None })
        })?;
        Ok(self.deduplicated(file, distinct))
    }

    /// External sort (thin wrapper over [`external_sort`]).
    pub fn sort(&self, input: &HeapFile, keys: &[SortKey], unique: bool) -> HeapFile {
        external_sort(&self.storage, input, keys, unique)
    }

    /// Load a heap file into memory (final-result delivery; reads only).
    pub fn collect(&self, input: &HeapFile) -> Relation {
        self.storage.load_relation(input)
    }

    /// Final-result projection: stream, evaluate, collect in memory.
    pub fn project_collect(
        &self,
        input: &HeapFile,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<Relation> {
        let proj = Projector::new(exprs);
        let mut tuples: Vec<Tuple> =
            input.scan_with(&self.storage, |t| Some(proj.apply_ref(t))).collect();
        if distinct {
            tuples.sort_by(Tuple::total_cmp);
            tuples.dedup();
        }
        Relation::new(out_schema, tuples).map_err(EngineError::from)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use nsql_types::{Column, ColumnType, Value};

    /// Build a heap file of integer rows with columns qualified by `table`.
    pub fn int_file(
        storage: &Storage,
        table: &str,
        cols: &[&str],
        rows: &[&[i64]],
    ) -> HeapFile {
        let schema = Schema::new(
            cols.iter().map(|c| Column::qualified(table, *c, ColumnType::Int)).collect(),
        );
        HeapFile::from_tuples(
            storage,
            schema,
            rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Tuple>()),
        )
    }

    /// All rows as `Vec<Vec<i64>>`, using -1 sentinel impossible — use
    /// Option for NULL.
    pub fn rows_of(storage: &Storage, f: &HeapFile) -> Vec<Vec<Option<i64>>> {
        f.scan(storage)
            .map(|t| {
                t.values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(*i),
                        Value::Null => None,
                        other => panic!("unexpected value {other}"),
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use nsql_sql::parse_query;
    use nsql_types::{Column, ColumnType};

    fn exec() -> Exec {
        Exec::new(Storage::with_defaults())
    }

    fn pred_on(f: &HeapFile, src_where: &str) -> CPred {
        let q = parse_query(&format!("SELECT T.A FROM T WHERE {src_where}")).unwrap();
        CPred::compile(f.schema(), q.where_clause.as_ref().unwrap()).unwrap()
    }

    #[test]
    fn filter_keeps_only_true() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[1], &[2], &[3]]);
        let p = pred_on(&f, "A >= 2");
        let out = e.filter(&f, &p).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(2)], vec![Some(3)]]);
    }

    #[test]
    fn project_reorders_and_computes() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 10], &[2, 20]]);
        let out_schema = Schema::new(vec![Column::qualified("O", "B", ColumnType::Int)]);
        let out = e
            .project(&f, &[CExpr::Col(1)], out_schema, false)
            .unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(10)], vec![Some(20)]]);
    }

    #[test]
    fn project_distinct_dedups() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 0], &[1, 1], &[2, 2]]);
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let out = e.project(&f, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(1)], vec![Some(2)]]);
    }

    #[test]
    fn restrict_project_applies_both() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 5], &[2, 6], &[3, 7]]);
        let p = pred_on(&f, "A > 1");
        let out_schema = Schema::new(vec![Column::qualified("O", "B", ColumnType::Int)]);
        let out = e.restrict_project(&f, &p, &[CExpr::Col(1)], out_schema, false).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(6)], vec![Some(7)]]);
    }

    #[test]
    fn project_collect_returns_relation() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[2], &[1], &[2]]);
        let s = Schema::new(vec![Column::new("A", ColumnType::Int)]);
        let r = e.project_collect(&f, &[CExpr::Col(0)], s.clone(), false).unwrap();
        assert_eq!(r.len(), 3);
        let rd = e.project_collect(&f, &[CExpr::Col(0)], s, true).unwrap();
        assert_eq!(rd.len(), 2);
    }

    #[test]
    fn distinct_projection_drops_presort_pages() {
        // The distinct path materializes the projection, sorts it into a new
        // file, and must free the pre-sort pages — only the input and the
        // deduplicated output may remain live on disk.
        let e = exec();
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 5, i]).collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let f = int_file(e.storage(), "T", &["A", "B"], &row_refs);
        let live_before = e.storage().live_pages();
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let out = e.project(&f, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(out.tuple_count(), 5);
        assert_eq!(
            e.storage().live_pages(),
            live_before + out.page_count(),
            "pre-sort projection pages must be freed"
        );

        // Same invariant on the combined restrict+project path.
        let p = pred_on(&f, "A >= 1");
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let live_before = e.storage().live_pages();
        let out2 = e.restrict_project(&f, &p, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(out2.tuple_count(), 4);
        assert_eq!(e.storage().live_pages(), live_before + out2.page_count());
    }

    #[test]
    fn project_arity_mismatch_is_error() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[1]]);
        let s = Schema::new(vec![
            Column::new("A", ColumnType::Int),
            Column::new("B", ColumnType::Int),
        ]);
        assert!(e.project(&f, &[CExpr::Col(0)], s, false).is_err());
    }
}
