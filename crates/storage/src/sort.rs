//! External (B−1)-way merge sort.
//!
//! This is the sort the paper's cost model charges `2·P·log_{B-1}(P)` page
//! I/Os for [KIM 82:462]: pass 0 reads the input in `B`-page chunks, sorts
//! each in memory, and writes initial runs; every subsequent pass merges up
//! to `B−1` runs. All reads bypass the buffer pool (the sort owns the
//! buffer while it runs, as in System R), so measured I/O matches the model.
//!
//! Rows are shared ([`Tuple`] is a reference-counted slice), so the sort
//! never copies one: pass 0 sorts *references* to the tuples where they lie
//! on the chunk's pages, the merge compares the heads of its runs in place
//! on theirs, and what either writes out is a reference-count bump per row.

use crate::disk::{Page, PageId};
use crate::heap::HeapFile;
use crate::Storage;
use nsql_types::{Tuple, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// One sort key: tuple field index plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Field index within the tuple.
    pub index: usize,
    /// Descending?
    pub desc: bool,
}

impl SortKey {
    /// Ascending key on `index`.
    pub fn asc(index: usize) -> SortKey {
        SortKey { index, desc: false }
    }

    /// Descending key on `index`.
    pub fn desc(index: usize) -> SortKey {
        SortKey { index, desc: true }
    }
}

/// Compare two tuples under a key list (total order, `NULL` first on ASC).
pub fn compare(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let o = a.get(k.index).total_cmp(b.get(k.index));
        let o = if k.desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// Sort `input` into a new heap file using an external (B−1)-way merge sort.
///
/// With `unique`, exact-duplicate tuples (whole-tuple comparison in the
/// total order) are eliminated during run generation and merging — this is
/// how NEST-JA2's `SELECT DISTINCT` projection of the outer join column and
/// the merge-join's duplicate removal are implemented. A `unique` sort
/// orders by the **whole tuple, every field ascending**, and never looks at
/// `keys` (equal rows must become adjacent everywhere); `keys` must
/// therefore be empty or spell a prefix of that order, `asc(0), asc(1), ..`.
///
/// Without `unique` the sort is stable: tuples with equal keys keep their
/// order in `input`.
///
/// The input file is left intact; callers that no longer need it should
/// [`HeapFile::drop_pages`] it.
pub fn external_sort(
    storage: &Storage,
    input: &HeapFile,
    keys: &[SortKey],
    unique: bool,
) -> HeapFile {
    debug_assert!(
        !unique || keys.iter().enumerate().all(|(i, k)| *k == SortKey::asc(i)),
        "a unique sort orders by the whole tuple ascending; {keys:?} would be ignored"
    );
    let b = storage.buffer_pages().max(2);
    let cmp = |x: &Tuple, y: &Tuple| if unique { x.total_cmp(y) } else { compare(x, y, keys) };

    // A unique sort's first key is field 0 ascending, if the tuples have one.
    let first = if unique { Some(SortKey::asc(0)) } else { keys.first().copied() };
    // Pass 0: one sorted run per chunk of up to `b` pages; a chunk without
    // tuples leaves no run.
    let mut runs: Vec<HeapFile> = input
        .page_ids()
        .chunks(b)
        .filter_map(|span| {
            let pages: Vec<Arc<Page>> =
                span.iter().map(|&id| storage.read_page_direct(id)).collect();
            let mut rows = sort_rows(&pages, first, cmp);
            if unique {
                rows.dedup();
            }
            (!rows.is_empty())
                .then(|| HeapFile::from_tuples(storage, input.schema().clone(), rows))
        })
        .collect();

    if runs.is_empty() {
        return HeapFile::from_tuples(storage, input.schema().clone(), Vec::new());
    }

    // Merge passes: (B−1)-way.
    let fan_in = (b - 1).max(2);
    while runs.len() > 1 {
        let mut next: Vec<HeapFile> = Vec::new();
        for group in runs.chunks(fan_in) {
            let merged = merge_runs(storage, group, input, unique, cmp);
            for r in group {
                r.drop_pages(storage);
            }
            next.push(merged);
        }
        runs = next;
    }
    runs.pop().expect("at least one run")
}

/// Order-preserving fixed-width image of a first-key value: `(rank, n)`
/// compares as [`Value::total_cmp`] does on `NULL`s, integers and dates.
/// `None` for the other kinds — a `Float` in particular compares with an
/// `Int` after rounding it to `f64`, which no image of the `Int` alone
/// reproduces.
fn key_prefix(v: &Value) -> Option<(u8, i64)> {
    match v {
        Value::Null => Some((0, 0)),
        Value::Int(i) => Some((1, *i)),
        Value::Date(d) => {
            Some((2, i64::from(d.year()) * 10_000 + i64::from(d.month()) * 100 + i64::from(d.day())))
        }
        _ => None,
    }
}

/// The tuples of one pass-0 chunk in sorted order (stable; CPU only). What
/// is sorted is a reference to each tuple on its page, decorated — when
/// every value of the `first` key in the chunk has a [`key_prefix`] — with
/// that prefix, so most comparisons are two integer compares and only
/// prefix ties go on to `cmp`. Otherwise `cmp` decides alone.
fn sort_rows(
    pages: &[Arc<Page>],
    first: Option<SortKey>,
    cmp: impl Fn(&Tuple, &Tuple) -> Ordering,
) -> Vec<Tuple> {
    let rows = || pages.iter().flat_map(|p| p.tuples());
    let decorated: Option<Vec<((u8, i64), &Tuple)>> = first.and_then(|k| {
        rows().map(|t| Some((key_prefix(t.values().get(k.index)?)?, t))).collect()
    });
    match decorated {
        Some(mut dec) => {
            let desc = first.is_some_and(|k| k.desc);
            dec.sort_by(|(px, x), (py, y)| {
                let o = if desc { py.cmp(px) } else { px.cmp(py) };
                o.then_with(|| cmp(x, y))
            });
            dec.into_iter().map(|(_, t)| t.clone()).collect()
        }
        None => {
            let mut refs: Vec<&Tuple> = rows().collect();
            refs.sort_by(|x, y| cmp(x, y));
            refs.into_iter().cloned().collect()
        }
    }
}

/// Cursor over one run's tuples, in place on the run's pages. Like the
/// direct [`HeapFile::scan_direct`] it stands in for, it always holds its
/// head: opening it reads the first page, and advancing past the last tuple
/// of a page reads the next page at once.
struct RunCursor<'a> {
    storage: &'a Storage,
    pages: &'a [PageId],
    /// The page under the head and the head's slot on it; `None` at the end.
    at: Option<(Arc<Page>, usize)>,
}

impl<'a> RunCursor<'a> {
    fn open(storage: &'a Storage, run: &'a HeapFile) -> RunCursor<'a> {
        let mut c = RunCursor { storage, pages: run.page_ids(), at: None };
        c.next_page();
        c
    }

    fn head(&self) -> Option<&Tuple> {
        self.at.as_ref().map(|(page, slot)| &page.tuples()[*slot])
    }

    fn advance(&mut self) {
        match &mut self.at {
            Some((page, slot)) if *slot + 1 < page.len() => *slot += 1,
            _ => self.next_page(),
        }
    }

    /// Move to the first tuple of the next non-empty page.
    fn next_page(&mut self) {
        self.at = None;
        while let Some((&id, rest)) = self.pages.split_first() {
            self.pages = rest;
            let page = self.storage.read_page_direct(id);
            if !page.is_empty() {
                self.at = Some((page, 0));
                return;
            }
        }
    }
}

/// Merge sorted runs under `cmp`, the lower run winning ties; with `unique`,
/// exact duplicates are dropped.
///
/// Dedup is a one-element delay line: the previous winner is *held back*,
/// each new winner is compared against it, and only on inequality is the
/// held tuple released downstream. (The delay is observable — a run page is
/// read before the output page its held tuple closes is written — so it is
/// part of the sort's recorded I/O sequence.)
fn merge_runs(
    storage: &Storage,
    runs: &[HeapFile],
    input: &HeapFile,
    unique: bool,
    cmp: impl Fn(&Tuple, &Tuple) -> Ordering,
) -> HeapFile {
    let mut cursors: Vec<RunCursor> = runs.iter().map(|r| RunCursor::open(storage, r)).collect();
    let mut pending: Option<Tuple> = None;
    let merged = std::iter::from_fn(|| loop {
        let mut best: Option<(usize, &Tuple)> = None;
        for (i, c) in cursors.iter().enumerate() {
            let Some(t) = c.head() else { continue };
            if best.is_none_or(|(_, b)| cmp(t, b) == Ordering::Less) {
                best = Some((i, t));
            }
        }
        let Some((i, t)) = best else {
            return pending.take(); // release the final held tuple
        };
        let w = t.clone();
        cursors[i].advance();
        if !unique {
            return Some(w);
        }
        if pending.as_ref() == Some(&w) {
            continue; // duplicate of the held tuple
        }
        // The first winner is only held; later ones release their predecessor.
        if let Some(out) = pending.replace(w) {
            return Some(out);
        }
    });
    HeapFile::from_tuples(storage, input.schema().clone(), merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Schema, Value};

    fn schema2() -> Schema {
        Schema::new(vec![
            Column::new("A", ColumnType::Int),
            Column::new("B", ColumnType::Int),
        ])
    }

    fn file_of(storage: &Storage, rows: &[(i64, i64)]) -> HeapFile {
        HeapFile::from_tuples(
            storage,
            schema2(),
            rows.iter().map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)])),
        )
    }

    fn col0(storage: &Storage, f: &HeapFile) -> Vec<i64> {
        f.scan(storage)
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn sorts_small_input() {
        let st = Storage::with_defaults();
        let f = file_of(&st, &[(3, 0), (1, 0), (2, 0)]);
        let s = external_sort(&st, &f, &[SortKey::asc(0)], false);
        assert_eq!(col0(&st, &s), vec![1, 2, 3]);
    }

    #[test]
    fn sorts_multi_run_input() {
        let st = Storage::new(3, 64); // tiny buffer forces many runs
        let rows: Vec<(i64, i64)> = (0..500).map(|i| ((i * 7919) % 501, i)).collect();
        let f = file_of(&st, &rows);
        let s = external_sort(&st, &f, &[SortKey::asc(0)], false);
        let got = col0(&st, &s);
        let mut want: Vec<i64> = rows.iter().map(|r| r.0).collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(s.tuple_count(), 500);
    }

    #[test]
    fn descending_key() {
        let st = Storage::with_defaults();
        let f = file_of(&st, &[(1, 0), (3, 0), (2, 0)]);
        let s = external_sort(&st, &f, &[SortKey::desc(0)], false);
        assert_eq!(col0(&st, &s), vec![3, 2, 1]);
    }

    #[test]
    fn secondary_key_breaks_ties() {
        let st = Storage::with_defaults();
        let f = file_of(&st, &[(1, 2), (1, 1), (0, 9)]);
        let s = external_sort(&st, &f, &[SortKey::asc(0), SortKey::desc(1)], false);
        let rows: Vec<(i64, i64)> = s
            .scan(&st)
            .map(|t| match (t.get(0), t.get(1)) {
                (Value::Int(a), Value::Int(b)) => (*a, *b),
                _ => panic!(),
            })
            .collect();
        assert_eq!(rows, vec![(0, 9), (1, 2), (1, 1)]);
    }

    #[test]
    fn unique_removes_duplicates_across_runs() {
        let st = Storage::new(3, 64);
        let rows: Vec<(i64, i64)> = (0..300).map(|i| (i % 10, i % 3)).collect();
        let f = file_of(&st, &rows);
        let s = external_sort(&st, &f, &[SortKey::asc(0)], true);
        // Distinct (a, b) pairs: 10 × 3, but only pairs consistent with
        // i mod 10 / i mod 3 co-occurrence — enumerate exactly.
        let mut want: Vec<(i64, i64)> = rows;
        want.sort();
        want.dedup();
        assert_eq!(s.tuple_count(), want.len());
    }

    #[test]
    fn nulls_sort_first() {
        let st = Storage::with_defaults();
        let f = HeapFile::from_tuples(
            &st,
            schema2(),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(0)]),
                Tuple::new(vec![Value::Null, Value::Int(0)]),
            ],
        );
        let s = external_sort(&st, &f, &[SortKey::asc(0)], false);
        let first = s.scan(&st).next().unwrap();
        assert!(first.get(0).is_null());
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let st = Storage::with_defaults();
        let f = file_of(&st, &[]);
        let s = external_sort(&st, &f, &[SortKey::asc(0)], false);
        assert_eq!(s.tuple_count(), 0);
        assert_eq!(s.page_count(), 0);
    }

    #[test]
    fn io_cost_tracks_model() {
        // Sorting P pages with B=6 buffer: pass 0 reads P and writes ≈P;
        // each merge pass reads ≈P and writes ≈P. Total ≈ 2·P·(1+passes).
        let st = Storage::new(6, 64);
        let rows: Vec<(i64, i64)> = (0..1000).map(|i| ((i * 31) % 997, i)).collect();
        let f = file_of(&st, &rows);
        let p = f.page_count() as f64;
        st.reset_stats();
        let before = st.io_stats();
        let _ = external_sort(&st, &f, &[SortKey::asc(0)], false);
        let used = st.io_stats().since(&before).total() as f64;
        // passes = 1 (run formation) + ceil(log_{B-1}(P/B))
        let runs = (p / 6.0).ceil();
        let merge_passes = if runs <= 1.0 { 0.0 } else { runs.log(5.0).ceil() };
        let model = 2.0 * p * (1.0 + merge_passes);
        let ratio = used / model;
        assert!(
            (0.6..=1.4).contains(&ratio),
            "measured {used} vs model {model} (P={p}, ratio {ratio:.2})"
        );
    }
}
