#![warn(missing_docs)]

//! Simulated paged storage engine with I/O accounting.
//!
//! The paper measures every strategy in **disk page I/Os** on a System-R-like
//! engine: relations live in pages, a main-memory buffer holds `B` pages, and
//! sorting a `P`-page relation with a (B−1)-way multi-way merge sort costs
//! `2·P·log_{B-1}(P)` page I/Os [KIM 82:462]. This crate provides that
//! substrate:
//!
//! * [`disk::Disk`] — the simulated disk: a page store whose every read and
//!   write increments shared [`stats::IoStats`] counters.
//! * [`buffer::BufferPool`] — a `B`-frame LRU cache in front of the disk.
//!   Re-reading a cached page is free, which is exactly why the paper's
//!   nested-loop join is cheap when the inner relation fits in `B−1` pages
//!   and catastrophic when it does not (LRU thrashes on cyclic rescans).
//! * [`heap::HeapFile`] — an unordered paged file of tuples; relations and
//!   temporary tables are heap files. Pages are packed by a byte budget so
//!   page counts scale with schema width like a real system.
//!   [`heap::TempFile`] is a heap file that frees its pages when dropped:
//!   the one way operators and the plan executor release what they
//!   materialize.
//! * [`sort::external_sort`] — the (B−1)-way external merge sort used for
//!   merge joins, `GROUP BY`, and duplicate elimination.
//! * [`Storage`] — the facade tying disk + buffer together; cheaply
//!   cloneable (shared interior) so iterators can own a handle.
//!
//! Pages hold decoded [`Tuple`]s rather than serialized bytes: the unit under
//! study is the *I/O count*, not the byte encoding, and every algorithm in
//! the paper is insensitive to the on-page layout. A [`Tuple`] is a shared
//! immutable row, so a page never gives up a copy: a scan hands out
//! reference-count bumps, the sort and the merge join compare tuples where
//! they lie on the page, and a row written to a run, a temporary table or a
//! result is the allocation it was loaded as. What is *counted* is the page
//! fetch, and a kernel that works on a page in place must still fetch it
//! exactly when the scan it replaces would have (DESIGN.md, I/O accounting).

pub mod buffer;
pub mod disk;
pub mod durable;
pub mod error;
pub mod heap;
pub mod sort;
pub mod stats;

pub use buffer::BufferPool;
pub use disk::{Disk, DiskManager, MemBackend, Page, PageId, SYSTEM_PAGE_BASE};
pub use durable::{FaultPlan, FileStore, RecoveryReport};
pub use error::StorageError;
pub use heap::{HeapFile, HeapWriter, HeldRows, HoldingWriter, PageTally, Rows, RowsRef, TempFile};
pub use sort::{external_sort, external_sort_narrowed, sorted_with};
pub use stats::{IoSnapshot, IoStats};

use nsql_types::{Relation, Schema, Tuple};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default page size in bytes (a deliberately small page so that the paper's
/// example tables span realistic page counts at laptop-scale cardinalities).
pub const DEFAULT_PAGE_SIZE: usize = 512;

/// Default buffer size in pages; the Section-7.4 example uses `B = 6`.
pub const DEFAULT_BUFFER_PAGES: usize = 6;

/// One counted page access, or a page free, as [`Storage::start_recording`]
/// captures it: together they determine the buffer's evolution and the I/O
/// totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A buffered page read (`read_page`).
    Read(PageId),
    /// A direct (buffer-bypassing) page read (`read_page_direct`). Counted
    /// the same as [`TraceEvent::Read`] but it does not populate the
    /// buffer, so the two are distinguished in the event stream.
    ReadDirect(PageId),
    /// A page write (`write_new_page`) of the given fresh page.
    Write(PageId),
    /// A page free (`free_page`). Freeing counts no I/O, but it evicts the
    /// page from the buffer.
    Free(PageId),
}

struct StorageInner {
    disk: Arc<Disk>,
    buffer: Mutex<BufferPool>,
    page_size: usize,
    /// Present when the backend is the durable file store (commit,
    /// checkpoint, and fault-injection APIs hang off it).
    durable: Option<Arc<FileStore>>,
    /// When set, every *counted* I/O on this handle (and its clones) is
    /// also appended to `record_sink`. Only tests turn it on: `join_prop`
    /// and `sort_prop` hold a kernel to the exact page-access sequence of
    /// the code it replaced. One atomic load per I/O when off.
    recording: std::sync::atomic::AtomicBool,
    record_sink: Mutex<Vec<TraceEvent>>,
}

/// Facade over the simulated disk and buffer pool.
///
/// Cloning is cheap and shares the same underlying disk, buffer, and I/O
/// counters, so scans and operators can each hold a handle. `Storage` is
/// `Send + Sync`: the buffer pool sits behind one mutex (single latch — its
/// operations are O(1) pointer splices, so the critical section is tiny)
/// and the disk page map is sharded.
#[derive(Clone)]
pub struct Storage {
    inner: Arc<StorageInner>,
}

impl Storage {
    /// New storage with `buffer_pages` frames and `page_size`-byte pages.
    pub fn new(buffer_pages: usize, page_size: usize) -> Storage {
        let disk = Arc::new(Disk::new());
        let buffer = Mutex::new(BufferPool::new(Arc::clone(&disk), buffer_pages));
        Storage {
            inner: Arc::new(StorageInner {
                disk,
                buffer,
                page_size,
                durable: None,
                recording: std::sync::atomic::AtomicBool::new(false),
                record_sink: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Storage with the defaults used across the experiments.
    pub fn with_defaults() -> Storage {
        Storage::new(DEFAULT_BUFFER_PAGES, DEFAULT_PAGE_SIZE)
    }

    /// File-backed storage rooted at `dir`, running crash recovery on
    /// open. `page_size` seeds a fresh store; an existing store keeps the
    /// page size recorded in its header (so reopening reproduces the
    /// original page packing regardless of the caller's default). I/O
    /// counting is identical to the memory backend by construction: the
    /// counter sits in [`Disk`], above the [`DiskManager`] seam.
    pub fn file_backed(
        buffer_pages: usize,
        page_size: usize,
        dir: &Path,
    ) -> Result<(Storage, RecoveryReport), StorageError> {
        let (store, report) = FileStore::open(dir, page_size)?;
        let store = Arc::new(store);
        let page_size = store.page_size();
        let first_id = store.next_page_id();
        let disk = Arc::new(Disk::with_backend(
            Arc::clone(&store) as Arc<dyn DiskManager>,
            first_id,
        ));
        let buffer = Mutex::new(BufferPool::new(Arc::clone(&disk), buffer_pages));
        let storage = Storage {
            inner: Arc::new(StorageInner {
                disk,
                buffer,
                page_size,
                durable: Some(store),
                recording: std::sync::atomic::AtomicBool::new(false),
                record_sink: Mutex::new(Vec::new()),
            }),
        };
        Ok((storage, report))
    }

    /// The durable backend, when this storage is file-backed.
    pub fn durable(&self) -> Option<&Arc<FileStore>> {
        self.inner.durable.as_ref()
    }

    /// Whether this storage is file-backed.
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Commit the open durable batch with an opaque metadata snapshot
    /// (the catalog image handed back by recovery). No-op on memory
    /// storage, so callers can commit unconditionally.
    pub fn commit_durable(&self, meta: &[u8]) -> Result<(), StorageError> {
        match &self.inner.durable {
            Some(store) => store.commit(meta),
            None => Ok(()),
        }
    }

    /// Start mirroring every counted I/O on this handle into an internal
    /// event sink (see [`Storage::take_recording`]). Recording is a pure
    /// side channel: it never touches the I/O counters or the buffer.
    pub fn start_recording(&self) {
        self.inner.record_sink.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.inner.recording.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Stop recording and return the captured counted-I/O event sequence.
    pub fn take_recording(&self) -> Vec<TraceEvent> {
        self.inner.recording.store(false, std::sync::atomic::Ordering::Release);
        std::mem::take(
            &mut *self.inner.record_sink.lock().unwrap_or_else(PoisonError::into_inner),
        )
    }

    #[inline]
    fn record(&self, ev: TraceEvent) {
        if self.inner.recording.load(std::sync::atomic::Ordering::Acquire) {
            self.inner.record_sink.lock().unwrap_or_else(PoisonError::into_inner).push(ev);
        }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    fn buffer(&self) -> MutexGuard<'_, BufferPool> {
        self.inner.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The number of buffer frames `B`.
    pub fn buffer_pages(&self) -> usize {
        self.buffer().capacity()
    }

    /// Snapshot of the cumulative I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.inner.disk.stats()
    }

    /// Reset the I/O counters (buffer contents are kept; call
    /// [`Storage::clear_buffer`] too for a fully cold measurement).
    pub fn reset_stats(&self) {
        self.inner.disk.reset_stats();
        self.buffer().reset_stats();
    }

    /// Drop every cached page, so the next reads hit the disk.
    pub fn clear_buffer(&self) {
        self.buffer().clear();
    }

    /// Buffer hit/miss counters.
    pub fn buffer_stats(&self) -> (u64, u64) {
        let b = self.buffer();
        (b.hits(), b.misses())
    }

    /// Atomically consistent snapshot of disk and buffer activity.
    ///
    /// The (reads, writes) pair is one atomic load of the packed counter
    /// word — untearable under concurrent workers; hits/misses are taken
    /// together under the buffer mutex. Pair two of these with
    /// [`IoSnapshot::since`] to attribute a delta to a region of work.
    /// Pure loads throughout: snapshotting never perturbs the counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let io = self.inner.disk.stats();
        let (hits, misses) = self.buffer_stats();
        IoSnapshot { reads: io.reads, writes: io.writes, hits, misses }
    }

    /// Read a page through the buffer pool.
    ///
    /// System pages (ids ≥ [`disk::SYSTEM_PAGE_BASE`]) take a side path:
    /// uncounted, unbuffered, unrecorded. The check is one integer compare
    /// on the id, and ordinary pages can never alias the range, so the hot
    /// path is unchanged for real relations.
    pub fn read_page(&self, id: PageId) -> Arc<Page> {
        if id.is_system() {
            return self.inner.disk.read_system(id);
        }
        self.record(TraceEvent::Read(id));
        self.buffer().get(id)
    }

    /// Read a page directly from disk, bypassing (and not populating) the
    /// buffer. Sort passes use this so their I/O pattern matches the
    /// analytical model exactly.
    pub fn read_page_direct(&self, id: PageId) -> Arc<Page> {
        if id.is_system() {
            return self.inner.disk.read_system(id);
        }
        self.record(TraceEvent::ReadDirect(id));
        self.inner.disk.read(id)
    }

    /// Read a page's tuples without counting, without touching the buffer,
    /// and without recording. This is a side channel for metadata,
    /// statistics and tests; it must never be used on a query-execution path.
    pub fn read_page_tuples_uncounted(&self, id: PageId) -> Vec<Tuple> {
        if id.is_system() {
            return self.inner.disk.read_system(id).tuples().to_vec();
        }
        self.inner.disk.read_uncounted(id).tuples().to_vec()
    }

    /// Allocate and write a fresh page directly to disk (write-around:
    /// freshly written pages are not cached).
    pub fn write_new_page(&self, tuples: Vec<Tuple>) -> PageId {
        let id = self.inner.disk.alloc();
        self.record(TraceEvent::Write(id));
        self.inner.disk.write(id, Page::new(tuples));
        id
    }

    /// Whether a page is currently cached (does not touch recency).
    pub fn page_resident(&self, id: PageId) -> bool {
        self.buffer().contains(id)
    }

    /// Number of cached pages.
    pub fn resident_pages(&self) -> usize {
        self.buffer().resident()
    }

    /// Free a page (drops it from the buffer too). Freeing counts no I/O,
    /// but it is recorded: dropping a page from the buffer frees a frame, so
    /// a faithful replay must reproduce it.
    pub fn free_page(&self, id: PageId) {
        if id.is_system() {
            // System pages never enter the buffer and are never recorded.
            self.inner.disk.free_system(id);
            return;
        }
        self.record(TraceEvent::Free(id));
        self.buffer().evict(id);
        self.inner.disk.free(id);
    }

    /// Number of allocated, not-yet-freed disk pages. Temporary-file
    /// leak checks assert on this after operators finish.
    pub fn live_pages(&self) -> usize {
        self.inner.disk.live_pages()
    }

    /// Number of tuples of `width` bytes that fit in one page (at least 1,
    /// so oversized tuples still make progress).
    pub fn tuples_per_page(&self, width: usize) -> usize {
        (self.inner.page_size / width.max(1)).max(1)
    }

    /// Materialize an in-memory [`Relation`] as a heap file, packing tuples
    /// into pages by byte budget. Costs one write per page.
    pub fn store_relation(&self, rel: &Relation) -> HeapFile {
        HeapFile::from_tuples(self, rel.schema().clone(), rel.tuples().iter().cloned())
    }

    /// Allocate and write a fresh *system* page (uncounted, memory-only;
    /// see [`disk::SYSTEM_PAGE_BASE`]).
    pub fn write_new_system_page(&self, tuples: Vec<Tuple>) -> PageId {
        let id = self.inner.disk.alloc_system();
        self.inner.disk.write_system(id, Page::new(tuples));
        id
    }

    /// Materialize a [`Relation`] as a heap file on *system* pages: same
    /// byte-budget packing as [`Storage::store_relation`], but every page
    /// goes to the uncounted side store, so scanning the result moves no
    /// I/O counter. This is how the `nsql_stat_*` views become ordinary
    /// scannable heap files without perturbing what they report.
    pub fn store_relation_system(&self, rel: &Relation) -> HeapFile {
        HeapFile::from_tuples_system(self, rel.schema().clone(), rel.tuples().iter().cloned())
    }

    /// Number of live system pages (excluded from [`Storage::live_pages`]).
    pub fn system_pages(&self) -> usize {
        self.inner.disk.system_pages()
    }

    /// Load a heap file fully into an in-memory [`Relation`] (costs reads
    /// through the buffer).
    pub fn load_relation(&self, file: &HeapFile) -> Relation {
        let mut rel = Relation::empty(file.schema().clone());
        for t in file.scan(self) {
            rel.push(t).expect("heap tuples match heap schema");
        }
        rel
    }
}

/// A named stored relation: schema + heap file.
#[derive(Clone)]
pub struct StoredRelation {
    /// Relation name (catalog key).
    pub name: String,
    /// The heap file holding the rows.
    pub file: HeapFile,
}

impl StoredRelation {
    /// Construct from a name and file.
    pub fn new(name: impl Into<String>, file: HeapFile) -> StoredRelation {
        StoredRelation { name: name.into().to_ascii_uppercase(), file }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.file.schema()
    }

    /// Page count (the paper's `Pk`).
    pub fn pages(&self) -> usize {
        self.file.page_count()
    }

    /// Tuple count (the paper's `Nk`).
    pub fn tuples(&self) -> usize {
        self.file.tuple_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Value};

    fn int_relation(n: i64) -> Relation {
        let schema = Schema::new(vec![
            Column::qualified("T", "A", ColumnType::Int),
            Column::qualified("T", "B", ColumnType::Int),
        ]);
        let mut rel = Relation::empty(schema);
        for i in 0..n {
            rel.push(Tuple::new(vec![Value::Int(i), Value::Int(i * 10)])).unwrap();
        }
        rel
    }

    #[test]
    fn store_and_load_roundtrip() {
        let st = Storage::with_defaults();
        let rel = int_relation(100);
        let file = st.store_relation(&rel);
        assert!(file.page_count() > 1, "100 tuples should span several pages");
        let back = st.load_relation(&file);
        assert!(back.same_bag(&rel));
    }

    #[test]
    fn writing_costs_one_io_per_page() {
        let st = Storage::with_defaults();
        let rel = int_relation(200);
        st.reset_stats();
        let file = st.store_relation(&rel);
        let io = st.io_stats();
        assert_eq!(io.writes, file.page_count() as u64);
        assert_eq!(io.reads, 0);
    }

    #[test]
    fn rereading_within_buffer_is_free() {
        let st = Storage::new(16, 512);
        let rel = int_relation(50);
        let file = st.store_relation(&rel);
        assert!(file.page_count() <= 16);
        st.reset_stats();
        let _ = st.load_relation(&file);
        let cold = st.io_stats().reads;
        assert_eq!(cold, file.page_count() as u64);
        let _ = st.load_relation(&file);
        assert_eq!(st.io_stats().reads, cold, "second scan must be all buffer hits");
    }

    #[test]
    fn sequential_rescan_larger_than_buffer_thrashes() {
        // The System R pathology the paper describes: cyclic rescans of a
        // relation larger than the buffer get no reuse from LRU.
        let st = Storage::new(4, 512);
        let rel = int_relation(400);
        let file = st.store_relation(&rel);
        assert!(file.page_count() > 4);
        st.reset_stats();
        let _ = st.load_relation(&file);
        let _ = st.load_relation(&file);
        assert_eq!(st.io_stats().reads, 2 * file.page_count() as u64);
    }

    #[test]
    fn page_packing_respects_width() {
        let st = Storage::new(4, 128);
        let rel = int_relation(10);
        let width = rel.tuples()[0].storage_width();
        let per_page = st.tuples_per_page(width);
        let file = st.store_relation(&rel);
        assert_eq!(file.page_count(), 10usize.div_ceil(per_page));
    }

    #[test]
    fn storage_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Storage>();
        assert_send_sync::<HeapFile>();
        assert_send_sync::<IoStats>();
    }

    #[test]
    fn counted_recording_mirrors_io_without_perturbing_it() {
        let st = Storage::new(3, 512);
        let rel = int_relation(60);
        let f = st.store_relation(&rel);
        st.clear_buffer();
        st.reset_stats();

        // Recorded run: scan, write a page, free it, direct-read a page.
        st.start_recording();
        for &id in f.page_ids() {
            let _ = st.read_page(id);
        }
        let tmp = st.write_new_page(vec![Tuple::new(vec![Value::Int(1)])]);
        let _ = st.read_page_direct(f.page_ids()[0]);
        st.free_page(tmp);
        let recorded = st.take_recording();
        let want = st.io_stats();

        let mut expect: Vec<TraceEvent> =
            f.page_ids().iter().map(|&id| TraceEvent::Read(id)).collect();
        expect.push(TraceEvent::Write(tmp));
        expect.push(TraceEvent::ReadDirect(f.page_ids()[0]));
        expect.push(TraceEvent::Free(tmp));
        assert_eq!(recorded, expect);

        // An identical unrecorded run counts exactly the same.
        st.clear_buffer();
        st.reset_stats();
        for &id in f.page_ids() {
            let _ = st.read_page(id);
        }
        let tmp2 = st.write_new_page(vec![Tuple::new(vec![Value::Int(1)])]);
        let _ = st.read_page_direct(f.page_ids()[0]);
        st.free_page(tmp2);
        assert_eq!(st.io_stats(), want, "recording must not change counted I/O");
        assert!(st.take_recording().is_empty(), "recording was off for the second run");
    }

    #[test]
    fn system_pages_are_invisible_to_counters_and_traces() {
        let st = Storage::with_defaults();
        let rel = int_relation(80);
        st.reset_stats();
        st.start_recording();

        // Materialize, scan (buffered + direct), free.
        let f = st.store_relation_system(&rel);
        assert!(f.page_count() > 1);
        assert!(f.page_ids().iter().all(|id| id.is_system()));
        let back = st.load_relation(&f);
        assert!(back.same_bag(&rel));
        for &id in f.page_ids() {
            let _ = st.read_page_direct(id);
            assert_eq!(st.read_page_tuples_uncounted(id).len(), st.read_page(id).len());
        }
        assert_eq!(st.system_pages(), f.page_count());
        f.drop_pages(&st);
        assert_eq!(st.system_pages(), 0);

        // Not one counter, recorded event, buffered frame, or ordinary live
        // page moved.
        assert_eq!(st.io_stats().total(), 0);
        let snap = st.io_snapshot();
        assert_eq!((snap.hits, snap.misses), (0, 0));
        assert!(st.take_recording().is_empty());
        assert_eq!(st.resident_pages(), 0);
        assert_eq!(st.live_pages(), 0);
    }

    #[test]
    fn system_pages_never_touch_the_durable_backend() {
        let dir = std::env::temp_dir().join(format!("nsql-sys-pages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (st, _) = Storage::file_backed(6, 512, &dir).unwrap();
        let f = st.store_relation_system(&int_relation(40));
        assert!(f.page_count() > 0);
        let store = st.durable().unwrap();
        let before = store.batch_len();
        st.commit_durable(b"meta").unwrap();
        assert_eq!(before, 0, "system writes must not enter the durable batch");
        assert_eq!(st.io_stats().total(), 0);
        f.drop_pages(&st);
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_buffer_makes_reads_cold() {
        let st = Storage::with_defaults();
        let file = st.store_relation(&int_relation(20));
        let _ = st.load_relation(&file);
        st.clear_buffer();
        st.reset_stats();
        let _ = st.load_relation(&file);
        assert_eq!(st.io_stats().reads, file.page_count() as u64);
    }
}
