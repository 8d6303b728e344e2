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
//! written: its two inputs would have to share the `B − 1` run pages. What
//! a join spills — a hash partition, a sort run — carries only the columns
//! it reads ([`join_reads`]). The plan layer may hand an operator that holds
//! its input in memory anyway — a hash table's build side, a GROUP BY that
//! sorts in memory — rows it never wrote ([`nsql_storage::HeldRows`]), and
//! [`Exec::restrict_project_rows`] holds its output for it.
//!
//! Join methods are the two System R offered and the paper analyses —
//! nested-loop ([`Exec::nl_join`]) and sort-merge ([`Exec::merge_join`]) —
//! and a hash join ([`Exec::hash_join`]), a post-paper extension run under
//! the same memory model: it holds at most `B − 2` pages of its table and
//! splits a larger build side by a hybrid pass, one share kept in memory
//! and the rest spilled to counted temporaries. Each
//! comes in inner and **left outer** flavours — the outer join being the
//! paper's key device for fixing the COUNT bug (Section 5.2) — and as an
//! **anti-join**, which keeps the left tuples nothing matched: `NOT EXISTS`
//! and, with a null-aware comparison, `NOT IN` (DESIGN.md "Anti-join").
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
pub use hash_join::{demotions, KeySet, Unjoined};

use crate::error::EngineError;
use crate::expr::{CExpr, Joined, Projector, Row};
use crate::pred::CPred;
use crate::Result;
use nsql_obs::{OpCounters, Profile};
use nsql_storage::sort::{sort_held, SortKey};
use nsql_storage::{
    external_sort, HeapFile, HeldRows, HoldingWriter, Page, PageId, PageTally, Rows, RowsRef,
    Storage, TempFile,
};
use nsql_types::{Relation, Schema, Tuple, Value};
use std::cell::Cell;
use std::sync::Arc;

/// Inner, left-outer or anti-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Ordinary join.
    Inner,
    /// Left outer join: unmatched left tuples appear once, padded with
    /// `NULL`s on the right (the paper's `^`).
    LeftOuter,
    /// Anti-join: each left tuple no right tuple matches appears once, as
    /// the left outer join emits it, and no pair appears — the left outer
    /// join is the inner join plus the anti-join. A match is a pair the
    /// keys and the residual accept; a null-aware anti-join (`NOT IN`)
    /// carries its comparison in the residual as [`CPred::NotFalse`].
    Anti,
}

impl JoinKind {
    /// Whether the join emits the pairs it finds (not the anti-join).
    pub(crate) fn emits_pairs(self) -> bool {
        self != JoinKind::Anti
    }

    /// Whether the join emits the left tuples nothing matched (not the
    /// inner join).
    pub(crate) fn keeps_unmatched(self) -> bool {
        self != JoinKind::Inner
    }
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

/// The columns of each input a join step reads — its keys, its residual's
/// columns and the columns it emits (`cols` of the concatenated row, every
/// column when `None`) — ascending, each side's own positions: what a row of
/// that input the join spills must carry.
pub fn join_reads(
    left_arity: usize,
    right_arity: usize,
    left_keys: &[usize],
    right_keys: &[usize],
    residual: Option<&CPred>,
    cols: Option<&[usize]>,
) -> [Vec<usize>; 2] {
    let mut read: Vec<usize> = match cols {
        Some(cols) => cols.to_vec(),
        None => (0..left_arity + right_arity).collect(),
    };
    if let Some(p) = residual {
        p.columns(&mut read);
    }
    let (mut left, mut right) = (left_keys.to_vec(), right_keys.to_vec());
    for c in read {
        if c < left_arity {
            left.push(c);
        } else {
            right.push(c - left_arity);
        }
    }
    for side in [&mut left, &mut right] {
        side.sort_unstable();
        side.dedup();
    }
    [left, right]
}

/// A join step's parameters over its inputs narrowed to the columns `keep`
/// of each ([`join_reads`], or every column of a side left whole): on the
/// narrowed rows they give what the originals give on the whole ones.
struct Narrowed {
    keep: [Vec<usize>; 2],
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    residual: Option<CPred>,
    cols: Option<Vec<usize>>,
    aggs: Vec<AggSpec>,
}

impl Narrowed {
    #[allow(clippy::too_many_arguments)]
    fn new(
        keep: [Vec<usize>; 2],
        left_arity: usize,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        cols: Option<&[usize]>,
        aggs: &[AggSpec],
    ) -> Narrowed {
        let pos = |side: &[usize], c: usize| {
            side.binary_search(&c).expect("every column the join reads is kept")
        };
        let at = |c: usize| match c.checked_sub(left_arity) {
            None => pos(&keep[0], c),
            Some(r) => keep[0].len() + pos(&keep[1], r),
        };
        Narrowed {
            left_keys: left_keys.iter().map(|&k| pos(&keep[0], k)).collect(),
            right_keys: right_keys.iter().map(|&k| pos(&keep[1], k)).collect(),
            residual: residual.map(|p| p.remap(&at)),
            cols: cols.map(|cols| cols.iter().map(|&c| at(c)).collect()),
            aggs: aggs
                .iter()
                .map(|a| AggSpec { arg: a.arg.map(|i| pos(&keep[1], i)), ..*a })
                .collect(),
            keep,
        }
    }

    /// What the join emits, over the narrowed rows.
    fn emit(&self) -> JoinEmit<'_> {
        JoinEmit { cols: self.cols.as_deref(), right_arity: self.keep[1].len() }
    }
}

/// A restriction and projection of a stored file that has not run: a
/// *pipe*. Its consumer either drains it ([`Exec::drain`]), or — either
/// side of a hash join ([`Exec::hash_join_cols`]), the right side of a
/// groupjoin over one key set ([`Exec::hash_groupjoin`]) — streams it: the
/// pass reads each source page once, through the buffer pool, keeps the
/// tuples `pred` accepts and makes of each what it keeps of it where it
/// reads it. A streamed pipe writes nothing; it counts the rows it made and
/// the pages [`HoldingWriter`] would have packed them into
/// ([`Restriction::made`]).
#[derive(Clone)]
pub struct Restriction {
    source: HeapFile,
    pred: CPred,
    exprs: Vec<CExpr>,
    schema: Schema,
    bound: usize,
    made: Cell<PageTally>,
}

impl Restriction {
    /// The rows of `source` that `pred` accepts, projected onto `exprs` as
    /// rows of `schema`, to be packed on `page_size`-byte pages; a choice
    /// made before it runs prices it at the source's rows and at `bound`
    /// pages.
    pub fn new(
        source: HeapFile,
        pred: CPred,
        exprs: Vec<CExpr>,
        schema: Schema,
        bound: usize,
        page_size: usize,
    ) -> Restriction {
        let made = Cell::new(PageTally::new(page_size));
        Restriction { source, pred, exprs, schema, bound, made }
    }

    /// The schema of the rows it makes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The same restriction making rows of `schema` (of the same arity).
    pub fn with_schema(self, schema: Schema) -> Restriction {
        assert_eq!(schema.arity(), self.schema.arity());
        Restriction { schema, ..self }
    }

    /// Pages it makes at most: the source's, narrowed to the columns kept.
    pub fn page_count(&self) -> usize {
        self.bound
    }

    /// Rows it makes at most: the source's.
    pub fn tuple_count(&self) -> usize {
        self.source.tuple_count()
    }

    /// The rows its last stream made and the pages they pack into.
    pub fn made(&self) -> (usize, usize) {
        let made = self.made.get();
        (made.tuples(), made.pages())
    }

    /// The bytes of the row it makes of the source tuple `t`.
    fn width(&self, t: &Tuple) -> usize {
        2 + self.exprs.iter().map(|e| e.eval(t).storage_width()).sum::<usize>()
    }

    /// Stream it: each source tuple it keeps, in source order, to `f` with
    /// the bytes of the row it makes of it, `f` making of it what it needs
    /// ([`Restriction::exprs`]); the source's pages are read by `page`.
    /// Stops at the first error.
    fn stream(
        &self,
        page: impl Fn(PageId) -> Arc<Page>,
        mut f: impl FnMut(&Tuple, usize) -> Result<()>,
    ) -> Result<()> {
        let mut made = self.made.get().restarted();
        for &pid in self.source.page_ids() {
            for t in page(pid).tuples() {
                if self.pred.accepts(t)? {
                    let width = self.width(t);
                    made.add(width);
                    f(t, width)?;
                }
            }
        }
        self.made.set(made);
        Ok(())
    }
}

/// What a hash pass reads: rows in a file or held in memory, or a pipe
/// ([`Restriction`]), which a hash join's pass over its own inputs takes on
/// either side and a groupjoin's on its right — never a pass a level down,
/// a groupjoin's table, nor the probe side of a chunked pass, which reads
/// it once per chunk.
#[derive(Clone, Copy)]
pub enum HashInput<'a> {
    /// Rows made before the pass.
    Rows(RowsRef<'a>),
    /// A restriction streamed as the pass reads it.
    Pipe(&'a Restriction),
}

impl<'a> HashInput<'a> {
    /// The tuple schema.
    pub fn schema(self) -> &'a Schema {
        match self {
            HashInput::Rows(rows) => rows.schema(),
            HashInput::Pipe(pipe) => pipe.schema(),
        }
    }

    /// Pages: the rows', or a pipe's bound.
    pub fn page_count(self) -> usize {
        match self {
            HashInput::Rows(rows) => rows.page_count(),
            HashInput::Pipe(pipe) => pipe.page_count(),
        }
    }

    /// Rows: the rows', or a pipe's bound.
    pub fn tuple_count(self) -> usize {
        match self {
            HashInput::Rows(rows) => rows.tuple_count(),
            HashInput::Pipe(pipe) => pipe.tuple_count(),
        }
    }
}

impl<'a> From<RowsRef<'a>> for HashInput<'a> {
    fn from(rows: RowsRef<'a>) -> HashInput<'a> {
        HashInput::Rows(rows)
    }
}

impl<'a> From<&'a HeapFile> for HashInput<'a> {
    fn from(file: &'a HeapFile) -> HashInput<'a> {
        HashInput::Rows(file.into())
    }
}

impl<'a> From<&'a HeldRows> for HashInput<'a> {
    fn from(held: &'a HeldRows) -> HashInput<'a> {
        HashInput::Rows(held.into())
    }
}

impl<'a> From<&'a Rows> for HashInput<'a> {
    fn from(rows: &'a Rows) -> HashInput<'a> {
        HashInput::Rows(rows.into())
    }
}

impl<'a> From<&'a Restriction> for HashInput<'a> {
    fn from(pipe: &'a Restriction) -> HashInput<'a> {
        HashInput::Pipe(pipe)
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
    /// Up to `cap` pages of output are held in memory rather than written
    /// ([`HoldingWriter`]); with `cap` 0 every page is written as it fills.
    /// Held input is read where it lies.
    fn stream_filter_map<F>(
        &self,
        input: RowsRef<'_>,
        out_schema: Schema,
        cap: usize,
        f: F,
    ) -> Result<Rows>
    where
        F: Fn(&Tuple) -> Result<Option<Tuple>>,
    {
        let op = self.current_op();
        let mut err = None;
        let mut rows_in = 0u64;
        let mut rows_out = 0u64;
        let mut out = HoldingWriter::new(&self.storage, out_schema, cap);
        let mut keep = |t: &Tuple| {
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
        };
        match input {
            RowsRef::File(file) => {
                file.scan_with(&self.storage, keep).for_each(|t| out.push(&self.storage, t))
            }
            RowsRef::Held(held) => {
                held.rows().iter().filter_map(&mut keep).for_each(|t| out.push(&self.storage, t))
            }
        }
        if let Some(op) = &op {
            op.rows_in.add(rows_in);
            op.rows_out.add(rows_out);
        }
        self.check_streamed(out.finish(&self.storage), err)
    }

    /// σ — keep tuples the predicate accepts (is `TRUE` for).
    ///
    /// Streams page-resident tuples straight into the output file: rejected
    /// tuples are never cloned off their page, accepted ones are cloned
    /// exactly once. Output writes are write-around (never enter the buffer
    /// pool), so interleaving them with the input scan leaves counted I/O
    /// identical to the old collect-then-write form.
    pub fn filter(&self, input: &HeapFile, pred: &CPred) -> Result<HeapFile> {
        self.stream_filter_map(input.into(), input.schema().clone(), 0, |t| {
            Ok(if pred.accepts(t)? { Some(t.clone()) } else { None })
        })
        .map(written)
    }

    /// The streamed output; if the streaming closure hit an error, the
    /// partial output is freed and the error surfaces.
    fn check_streamed(&self, rows: Rows, err: Option<EngineError>) -> Result<Rows> {
        let Some(e) = err else { return Ok(rows) };
        if let Rows::File(file) = rows {
            drop(TempFile::new(&self.storage, file));
        }
        Err(e)
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
    /// `Rt3` in NEST-JA2): rejected tuples cost nothing, accepted ones clone
    /// only their projected columns. The output goes to a consumer that
    /// holds it in memory: up to `cap` pages of it are held
    /// ([`Rows::Held`]), a larger output is written as it fills. Under
    /// `distinct`, held rows that fit the pool are sorted and deduplicated
    /// in memory, as the external sort does an input of at most `B` pages,
    /// and stay held; written ones are sorted to a new file and the
    /// unsorted one freed. The input may be held rows of a consumer that
    /// streams them (a one-table statement's leftover filter).
    pub fn restrict_project_rows<'a>(
        &self,
        input: impl Into<RowsRef<'a>>,
        pred: &CPred,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
        cap: usize,
    ) -> Result<Rows> {
        let proj = Projector::new(exprs);
        let rows = self.stream_filter_map(input.into(), out_schema, cap, |t| {
            Ok(if pred.accepts(t)? { Some(proj.apply_ref(t)) } else { None })
        })?;
        if !distinct {
            return Ok(rows);
        }
        Ok(match rows {
            Rows::Held(held) if held.page_count() <= self.storage.buffer_pages() => {
                let rows = sort_held(held.rows(), &[], true).into_iter().cloned().collect();
                Rows::Held(HeldRows::new(&self.storage, held.schema().clone(), rows))
            }
            Rows::Held(held) => Rows::File(self.deduplicated(held.write(&self.storage), true)),
            Rows::File(file) => {
                Rows::File(self.deduplicated(TempFile::new(&self.storage, file), true))
            }
        })
    }

    /// Drain the pipe `pipe` where it is: its restriction and projection in
    /// one pass ([`Exec::restrict_project_rows`]), up to `cap` pages of its
    /// rows held.
    pub fn drain(&self, pipe: &Restriction, cap: usize) -> Result<Rows> {
        let (pred, exprs, schema) = (&pipe.pred, &pipe.exprs, pipe.schema.clone());
        self.restrict_project_rows(&pipe.source, pred, exprs, schema, false, cap)
    }

    /// External sort (thin wrapper over [`external_sort`]).
    pub fn sort(&self, input: &HeapFile, keys: &[SortKey], unique: bool) -> HeapFile {
        external_sort(&self.storage, input, keys, unique)
    }

    /// Load a heap file into memory (final-result delivery; reads only).
    pub fn collect(&self, input: &HeapFile) -> Relation {
        self.storage.load_relation(input)
    }

}

/// The rows of a writer that held nothing (`cap` 0): its file.
fn written(rows: Rows) -> HeapFile {
    match rows {
        Rows::File(file) => file,
        Rows::Held(_) => unreachable!("a writer with no cap holds nothing"),
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

    /// `restrict_project_rows` with no cap: the file it writes.
    fn written(e: &Exec, f: &HeapFile, p: &CPred, exprs: &[CExpr], schema: Schema) -> HeapFile {
        match e.restrict_project_rows(f, p, exprs, schema, true, 0).unwrap() {
            Rows::File(file) => file,
            Rows::Held(_) => panic!("held with no cap"),
        }
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
        let p = pred_on(&f, "A >= 1");
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let live_before = e.storage().live_pages();
        let out = written(&e, &f, &p, &[CExpr::Col(0)], out_schema);
        assert_eq!(out.tuple_count(), 4);
        assert_eq!(
            e.storage().live_pages(),
            live_before + out.page_count(),
            "pre-sort projection pages must be freed"
        );
    }

    /// Rows handed over in memory are the rows, in order, of the file the
    /// same step writes: a restriction, a DISTINCT projection sorted in
    /// memory, and a filter or a GROUP BY over either form. A step that outgrows its
    /// cap writes its pages as it would have.
    #[test]
    fn held_rows_are_the_written_rows() {
        let e = Exec::new(Storage::new(6, 128));
        let rows: Vec<Vec<i64>> = (0..40).map(|i| vec![(i * 7) % 11, i % 3]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let f = int_file(e.storage(), "T", &["A", "B"], &refs);
        let p = pred_on(&f, "A > 2");
        let exprs = [CExpr::Col(1), CExpr::Col(0)];
        let schema = Schema::new(vec![
            Column::qualified("O", "B", ColumnType::Int),
            Column::qualified("O", "A", ColumnType::Int),
        ]);
        for distinct in [false, true] {
            let written = e.restrict_project_rows(&f, &p, &exprs, schema.clone(), distinct, 0);
            let Ok(Rows::File(written)) = written else { panic!("{distinct}: held with no cap") };
            let want = e.collect(&written);
            let held = e.restrict_project_rows(&f, &p, &exprs, schema.clone(), distinct, 6);
            let Ok(Rows::Held(held)) = held else { panic!("{distinct}: not held") };
            assert_eq!(held.rows(), want.tuples(), "distinct = {distinct}");
            assert_eq!(held.page_count(), written.page_count());
            // A filter streams held rows as it streams the file.
            let (q, every) = (pred_on(&written, "O.A > 5"), [CExpr::Col(0), CExpr::Col(1)]);
            let rows = |input: RowsRef<'_>| {
                let out = e.restrict_project_rows(input, &q, &every, schema.clone(), false, 6);
                out.unwrap().scan(e.storage()).collect::<Vec<_>>()
            };
            assert_eq!(rows((&held).into()), rows((&written).into()), "distinct = {distinct}");
            let aggs = [AggSpec::on(nsql_sql::AggFunc::Count, 1)];
            let key = schema.columns()[0].clone();
            let out = Schema::new(vec![key, Column::new("N", ColumnType::Int)]);
            let by_file = e.group_aggregate_collect(&written, &[0], &aggs, out.clone(), false);
            let by_rows = e.group_aggregate_collect(&held, &[0], &aggs, out, false);
            assert_eq!(by_rows.unwrap().tuples(), by_file.unwrap().tuples());
        }
        let before = e.storage().io_snapshot();
        let over = e.restrict_project_rows(&f, &p, &exprs, schema, false, 1).unwrap();
        let Rows::File(over) = over else { panic!("held past its cap") };
        assert!(over.page_count() > 1);
        assert_eq!(e.storage().io_snapshot().since(&before).writes, over.page_count() as u64);
    }

}
