//! Heap files: paged, unordered tuple files.

use crate::disk::PageId;
use crate::Storage;
use nsql_types::{Schema, Tuple};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable paged file of tuples with a schema.
///
/// Heap files are built once (from a tuple stream) and then scanned; the
/// engine materializes every intermediate relation — temporary tables, sort
/// runs, join results — as a heap file, so all I/O flows through the counted
/// disk. A written page never changes: [`HeapFile::append`] grows a file by
/// replacing its last page with new ones.
#[derive(Clone)]
pub struct HeapFile {
    schema: Schema,
    pages: Arc<Vec<PageId>>,
    tuple_count: usize,
}

impl HeapFile {
    /// Build a heap file by packing `tuples` into pages of
    /// `storage.page_size()` bytes (at least one tuple per page). Costs one
    /// write per produced page. An empty input produces zero pages.
    pub fn from_tuples(
        storage: &Storage,
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> HeapFile {
        Self::pack(schema, tuples, storage.page_size(), |ts| storage.write_new_page(ts))
    }

    /// Build a heap file on uncounted *system* pages (see
    /// [`Storage::store_relation_system`]): identical packing to
    /// [`HeapFile::from_tuples`], zero counted I/O.
    pub fn from_tuples_system(
        storage: &Storage,
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> HeapFile {
        Self::pack(schema, tuples, storage.page_size(), |ts| storage.write_new_system_page(ts))
    }

    /// Shared byte-budget packing loop behind both constructors.
    fn pack(
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
        budget: usize,
        mut write: impl FnMut(Vec<Tuple>) -> PageId,
    ) -> HeapFile {
        let mut pages = Vec::new();
        let mut current: Vec<Tuple> = Vec::new();
        let mut used = 0usize;
        let mut tuple_count = 0usize;
        for t in tuples {
            debug_assert_eq!(t.arity(), schema.arity(), "tuple arity must match heap schema");
            let w = t.storage_width();
            if !current.is_empty() && used + w > budget {
                pages.push(write(std::mem::take(&mut current)));
                used = 0;
            }
            used += w;
            tuple_count += 1;
            current.push(t);
        }
        if !current.is_empty() {
            pages.push(write(current));
        }
        HeapFile { schema, pages: Arc::new(pages), tuple_count }
    }

    /// This file with `rows` added at its end, copying only the page that
    /// changes: the last page is read (one counted read), its tuples and
    /// `rows` go through the packing rule of [`HeapFile::from_tuples`] into
    /// fresh pages, and the old last page is freed. Every other page is
    /// shared with `self`, which must not be used (or dropped page by page)
    /// afterwards. Greedy packing never revisits a closed page, so the
    /// result is page for page what `from_tuples` builds from all the rows.
    pub fn append(&self, storage: &Storage, rows: impl IntoIterator<Item = Tuple>) -> HeapFile {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return self.clone();
        }
        let (kept, tail) = match self.pages.split_last() {
            Some((&tail, kept)) => (kept, Some(tail)),
            None => (&[][..], None),
        };
        let reopened = tail.map_or_else(Vec::new, |id| storage.read_page(id).tuples().to_vec());
        let kept_tuples = self.tuple_count - reopened.len();
        let packed = Self::pack(
            self.schema.clone(),
            reopened.into_iter().chain(rows),
            storage.page_size(),
            |ts| storage.write_new_page(ts),
        );
        if let Some(id) = tail {
            storage.free_page(id);
        }
        let pages = kept.iter().chain(packed.pages.iter()).copied().collect();
        HeapFile {
            schema: packed.schema,
            pages: Arc::new(pages),
            tuple_count: kept_tuples + packed.tuple_count,
        }
    }

    /// Reassemble a heap file from previously persisted metadata (schema,
    /// page ids in file order, tuple count). No I/O — the pages are assumed
    /// to exist in the underlying store. Used by catalog recovery when a
    /// file-backed database reopens.
    pub fn from_parts(schema: Schema, pages: Vec<PageId>, tuple_count: usize) -> HeapFile {
        HeapFile { schema, pages: Arc::new(pages), tuple_count }
    }

    /// The tuple schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A copy of this file's metadata with columns re-qualified to `name`
    /// (no I/O — the pages are shared). Used when a temporary table result
    /// is registered under a new name.
    pub fn with_schema(&self, schema: Schema) -> HeapFile {
        assert_eq!(schema.arity(), self.schema.arity());
        HeapFile { schema, pages: Arc::clone(&self.pages), tuple_count: self.tuple_count }
    }

    /// Number of pages (the paper's `P`).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of tuples (the paper's `N`).
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// The page ids, in file order.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    /// Scan all tuples through the buffer pool.
    pub fn scan(&self, storage: &Storage) -> HeapScan {
        HeapScan {
            storage: storage.clone(),
            pages: Arc::clone(&self.pages),
            direct: false,
            page_idx: 0,
            tuple_idx: 0,
            current: None,
        }
    }

    /// Scan bypassing the buffer pool (sort passes; see
    /// [`Storage::read_page_direct`]).
    pub fn scan_direct(&self, storage: &Storage) -> HeapScan {
        HeapScan {
            storage: storage.clone(),
            pages: Arc::clone(&self.pages),
            direct: true,
            page_idx: 0,
            tuple_idx: 0,
            current: None,
        }
    }

    /// Free every page of this file (no I/O).
    pub fn drop_pages(&self, storage: &Storage) {
        for &id in self.pages.iter() {
            storage.free_page(id);
        }
    }

    /// Visit every tuple in place on its buffered page, stopping at the
    /// first error. The zero-clone counterpart of `scan` for consumers that
    /// fold rather than collect (e.g. sorted-stream aggregation).
    pub fn try_for_each<E, F>(&self, storage: &Storage, mut f: F) -> std::result::Result<(), E>
    where
        F: FnMut(&Tuple) -> std::result::Result<(), E>,
    {
        for &id in self.pages.iter() {
            let page = storage.read_page(id);
            for t in page.tuples() {
                f(t)?;
            }
        }
        Ok(())
    }

    /// Scan through the buffer pool, applying `f` to each tuple *in place*
    /// on the buffered page and yielding only what `f` keeps. Unlike
    /// [`scan`](HeapFile::scan)`.filter_map(..)`, tuples `f` rejects are
    /// never cloned off the page — this is the zero-copy path for
    /// filter/project operators, whose output iterator can stream straight
    /// into [`HeapFile::from_tuples`]. Page reads happen in the same order
    /// as a plain scan, so buffer-pool behaviour (and counted I/O) is
    /// unchanged.
    pub fn scan_with<F>(&self, storage: &Storage, f: F) -> ScanWith<F>
    where
        F: FnMut(&Tuple) -> Option<Tuple>,
    {
        ScanWith {
            storage: storage.clone(),
            pages: Arc::clone(&self.pages),
            page_idx: 0,
            tuple_idx: 0,
            current: None,
            f,
        }
    }
}

/// A heap file that frees its pages when the value is dropped.
///
/// Whatever an operator or a plan step materializes for its own use — a
/// sorted join input, a pre-`DISTINCT` projection, a join accumulator, a
/// registered temporary table — is held as a `TempFile`, so `?`, an early
/// `return` and unwinding release it exactly as the success path does.
/// *When* the value is dropped still matters: a free evicts the page from
/// the buffer pool and is a recorded [`TraceEvent::Free`](crate::TraceEvent),
/// so it belongs after the last page read that should still find the buffer
/// as it was (DESIGN.md, "Execution model and the I/O-accounting invariant").
pub struct TempFile {
    /// `Some` until [`TempFile::keep`] hands the pages on.
    file: Option<HeapFile>,
    storage: Storage,
}

impl TempFile {
    /// Take ownership of `file`'s pages; they are freed through `storage`.
    pub fn new(storage: &Storage, file: HeapFile) -> TempFile {
        TempFile { file: Some(file), storage: storage.clone() }
    }

    /// Hand the pages on to an owner that outlives this guard (a caller
    /// that registers the file, the result of an operator): nothing is
    /// freed, and releasing the pages is the new owner's job.
    pub fn keep(mut self) -> HeapFile {
        self.file.take().expect("the file is present until `keep` consumes the guard")
    }
}

impl Deref for TempFile {
    type Target = HeapFile;

    fn deref(&self) -> &HeapFile {
        self.file.as_ref().expect("the file is present until `keep` consumes the guard")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if let Some(file) = &self.file {
            file.drop_pages(&self.storage);
        }
    }
}

/// Streaming iterator created by [`HeapFile::scan_with`].
pub struct ScanWith<F> {
    storage: Storage,
    pages: Arc<Vec<PageId>>,
    page_idx: usize,
    tuple_idx: usize,
    current: Option<Arc<crate::disk::Page>>,
    f: F,
}

impl<F> Iterator for ScanWith<F>
where
    F: FnMut(&Tuple) -> Option<Tuple>,
{
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if let Some(page) = &self.current {
                while self.tuple_idx < page.len() {
                    let t = &page.tuples()[self.tuple_idx];
                    self.tuple_idx += 1;
                    if let Some(out) = (self.f)(t) {
                        return Some(out);
                    }
                }
                self.current = None;
            }
            if self.page_idx >= self.pages.len() {
                return None;
            }
            let id = self.pages[self.page_idx];
            self.page_idx += 1;
            self.tuple_idx = 0;
            self.current = Some(self.storage.read_page(id));
        }
    }
}

/// Streaming iterator over a heap file's tuples.
pub struct HeapScan {
    storage: Storage,
    pages: Arc<Vec<PageId>>,
    direct: bool,
    page_idx: usize,
    tuple_idx: usize,
    current: Option<Arc<crate::disk::Page>>,
}

impl Iterator for HeapScan {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if let Some(page) = &self.current {
                if self.tuple_idx < page.len() {
                    let t = page.tuples()[self.tuple_idx].clone();
                    self.tuple_idx += 1;
                    return Some(t);
                }
                self.current = None;
            }
            if self.page_idx >= self.pages.len() {
                return None;
            }
            let id = self.pages[self.page_idx];
            self.page_idx += 1;
            self.tuple_idx = 0;
            self.current = Some(if self.direct {
                self.storage.read_page_direct(id)
            } else {
                self.storage.read_page(id)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("A", ColumnType::Int)])
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn empty_file_has_no_pages() {
        let st = Storage::with_defaults();
        let f = HeapFile::from_tuples(&st, schema(), Vec::new());
        assert_eq!(f.page_count(), 0);
        assert_eq!(f.scan(&st).count(), 0);
    }

    #[test]
    fn scan_preserves_order() {
        let st = Storage::with_defaults();
        let f = HeapFile::from_tuples(&st, schema(), tuples(300));
        let vals: Vec<i64> = f
            .scan(&st)
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn pages_fill_to_budget() {
        let st = Storage::new(4, 100);
        let f = HeapFile::from_tuples(&st, schema(), tuples(100));
        // width = 2 + 8 = 10 bytes, so 10 tuples per 100-byte page.
        assert_eq!(f.page_count(), 10);
        assert_eq!(f.tuple_count(), 100);
    }

    #[test]
    fn drop_pages_frees_disk() {
        let st = Storage::with_defaults();
        let f = HeapFile::from_tuples(&st, schema(), tuples(50));
        assert!(f.page_count() > 0);
        f.drop_pages(&st);
        // A subsequent scan would panic (pages freed); just check liveness
        // via a fresh write reusing nothing.
        let g = HeapFile::from_tuples(&st, schema(), tuples(1));
        assert_eq!(g.page_count(), 1);
    }

    #[test]
    fn appending_in_batches_builds_the_file_from_tuples_builds() {
        let mut rng = nsql_testkit::Rng::from_seed(0x00a9_9e4d);
        let schema =
            Schema::new(vec![Column::new("A", ColumnType::Int), Column::new("S", ColumnType::Str)]);
        for _ in 0..60 {
            let page_size = *rng.choose(&[64usize, 128, 512]);
            let st = Storage::new(4, page_size);
            let mut file = HeapFile::from_tuples(&st, schema.clone(), Vec::new());
            let mut all: Vec<Tuple> = Vec::new();
            for _ in 0..rng.gen_range(1usize..12) {
                // Rows from 12 bytes to wider than the smallest page; a
                // batch may be empty.
                let batch: Vec<Tuple> = (0..rng.gen_range(0usize..9))
                    .map(|_| {
                        let s = "x".repeat(rng.gen_range(0usize..80));
                        Tuple::new(vec![Value::Int(all.len() as i64), Value::str(&s)])
                    })
                    .collect();
                let (live, pages) = (st.live_pages(), file.page_count());
                file = file.append(&st, batch.iter().cloned());
                all.extend(batch);
                assert_eq!(
                    st.live_pages() as i64 - live as i64,
                    file.page_count() as i64 - pages as i64,
                    "append frees exactly the page it replaced"
                );
            }
            let whole = HeapFile::from_tuples(&st, schema.clone(), all.iter().cloned());
            assert_eq!(file.tuple_count(), whole.tuple_count());
            assert_eq!(file.page_count(), whole.page_count(), "page size {page_size}");
            for (a, b) in file.page_ids().iter().zip(whole.page_ids()) {
                assert_eq!(st.read_page(*a).tuples(), st.read_page(*b).tuples());
            }
            file.drop_pages(&st);
            whole.drop_pages(&st);
            assert_eq!(st.live_pages(), 0);
        }
    }

    #[test]
    fn append_reads_one_page_and_writes_only_the_tail() {
        let st = Storage::new(4, 100);
        let file = HeapFile::from_tuples(&st, schema(), tuples(95));
        st.clear_buffer();
        st.reset_stats();
        let grown = file.append(&st, tuples(7));
        // 10 tuples a page: the half-full tenth page is reopened, filled
        // and followed by one more.
        assert_eq!((st.io_stats().reads, st.io_stats().writes), (1, 2));
        assert_eq!(grown.page_count(), 11);
        assert_eq!(grown.page_ids()[..9], file.page_ids()[..9], "the other pages are shared");
    }

    #[test]
    fn temp_file_frees_on_drop_and_early_return_but_not_after_keep() {
        let st = Storage::with_defaults();
        let live = st.live_pages();
        let temp = TempFile::new(&st, HeapFile::from_tuples(&st, schema(), tuples(50)));
        assert_eq!(temp.tuple_count(), 50, "reads through to the heap file");
        assert!(st.live_pages() > live);
        drop(temp);
        assert_eq!(st.live_pages(), live);

        let failing = || -> Result<(), ()> {
            let _temp = TempFile::new(&st, HeapFile::from_tuples(&st, schema(), tuples(50)));
            Err(())
        };
        assert!(failing().is_err());
        assert_eq!(st.live_pages(), live, "an early return frees the file");

        let kept = TempFile::new(&st, HeapFile::from_tuples(&st, schema(), tuples(50))).keep();
        assert_eq!(st.live_pages(), live + kept.page_count(), "keep hands the pages on");
        kept.drop_pages(&st);
        assert_eq!(st.live_pages(), live);
    }
}
