//! The simulated disk: a page store that counts every read and write.
//!
//! [`Disk`] owns the page-id allocator and the I/O counter; the pages
//! themselves live behind the [`DiskManager`] seam, which has two
//! implementations: the default in-memory [`MemBackend`] (a sharded map)
//! and the durable [`crate::durable::FileStore`]. Counting happens *here*,
//! above the seam, so the charged I/O is byte-identical across backends by
//! construction — swapping the backing store can change where bytes live,
//! never what the paper's cost model observes.

use crate::stats::{IoCounter, IoStats};
use nsql_types::hash::FxHashMap;
use nsql_types::Tuple;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// First page id of the reserved *system* range. Pages at or above this id
/// hold engine-internal state (materialized `nsql_stat_*` views); they live
/// in a memory-only side store, are never counted, never buffered, never
/// recorded, and never reach the durable backend — so turning
/// statistics on cannot move a published I/O counter or grow the WAL.
/// Ordinary allocation counts up from 0 and can never collide with the
/// range (2^62 pages is far beyond any run).
pub const SYSTEM_PAGE_BASE: u64 = 1 << 62;

/// Identifier of a disk page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Whether this id lies in the reserved system range (uncounted,
    /// memory-only side store).
    #[inline]
    pub fn is_system(self) -> bool {
        self.0 >= SYSTEM_PAGE_BASE
    }
}

/// A disk page: an ordered run of tuples.
///
/// Pages are immutable once written (heap files are append-built), which lets
/// the buffer pool hand out cheap `Arc<Page>` references.
#[derive(Debug, Default, PartialEq)]
pub struct Page {
    tuples: Vec<Tuple>,
}

impl Page {
    /// Page from tuples.
    pub fn new(tuples: Vec<Tuple>) -> Page {
        Page { tuples }
    }

    /// The tuples on this page.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples on the page.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The physical page store behind [`Disk`]. Implementations hold pages;
/// they do **not** count I/O or allocate ids — both stay in `Disk` so
/// accounting is backend-independent.
pub trait DiskManager: Send + Sync {
    /// Fetch a page. Panics on an unallocated id — that is always an
    /// engine bug, not a data-dependent condition (durable-store
    /// corruption is detected eagerly at open, never here).
    fn read(&self, id: PageId) -> Arc<Page>;

    /// Store a page under `id`.
    fn write(&self, id: PageId, page: Page);

    /// Drop a page.
    fn free(&self, id: PageId);

    /// Number of live pages (for leak checks in tests).
    fn live_pages(&self) -> usize;
}

/// Number of page-map shards. Page ids are sequential, so `id % SHARDS`
/// spreads neighbouring pages across distinct latches and concurrent
/// scans rarely contend.
const SHARDS: usize = 16;

/// The default in-memory backend: a sharded page map.
pub struct MemBackend {
    shards: [Mutex<FxHashMap<PageId, Arc<Page>>>; SHARDS],
}

impl MemBackend {
    /// Fresh empty backend.
    pub fn new() -> MemBackend {
        MemBackend { shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())) }
    }

    fn shard(&self, id: PageId) -> std::sync::MutexGuard<'_, FxHashMap<PageId, Arc<Page>>> {
        self.shards[(id.0 as usize) % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        MemBackend::new()
    }
}

impl DiskManager for MemBackend {
    fn read(&self, id: PageId) -> Arc<Page> {
        Arc::clone(
            self.shard(id)
                .get(&id)
                .unwrap_or_else(|| panic!("read of unallocated page {id:?}")),
        )
    }

    fn write(&self, id: PageId, page: Page) {
        self.shard(id).insert(id, Arc::new(page));
    }

    fn free(&self, id: PageId) {
        self.shard(id).remove(&id);
    }

    fn live_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

/// The simulated disk. All counted access is through [`Disk::read`] /
/// [`Disk::write`], each of which counts one page I/O against the shared
/// counter before delegating to the backend.
pub struct Disk {
    backend: Arc<dyn DiskManager>,
    next_id: AtomicU64,
    counter: Arc<IoCounter>,
    /// Memory-only side store for the reserved system page range (ids ≥
    /// [`SYSTEM_PAGE_BASE`]). Never counted, never part of the durable
    /// backend, excluded from [`Disk::live_pages`] leak checks.
    system: MemBackend,
    next_system_id: AtomicU64,
}

impl Disk {
    /// Fresh empty in-memory disk.
    pub fn new() -> Disk {
        Disk::with_backend(Arc::new(MemBackend::new()), 0)
    }

    /// Disk over an explicit backend, allocating ids from `first_id`
    /// upward (a recovered durable store resumes past its persisted
    /// high-water mark).
    pub fn with_backend(backend: Arc<dyn DiskManager>, first_id: u64) -> Disk {
        assert!(first_id < SYSTEM_PAGE_BASE, "ordinary ids below the system range");
        Disk {
            backend,
            next_id: AtomicU64::new(first_id),
            counter: IoCounter::shared(),
            system: MemBackend::new(),
            next_system_id: AtomicU64::new(SYSTEM_PAGE_BASE),
        }
    }

    /// Allocate a page id (no I/O).
    pub fn alloc(&self) -> PageId {
        PageId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Read a page. Counts one page read. Panics on an unallocated id —
    /// that is always an engine bug, not a data-dependent condition.
    pub fn read(&self, id: PageId) -> Arc<Page> {
        self.counter.count_read();
        self.read_uncounted(id)
    }

    /// Read a page without counting: the side channel of
    /// [`Storage::read_page_tuples_uncounted`](crate::Storage::read_page_tuples_uncounted).
    pub fn read_uncounted(&self, id: PageId) -> Arc<Page> {
        self.backend.read(id)
    }

    /// Write a page. Counts one page write.
    pub fn write(&self, id: PageId, page: Page) {
        self.counter.count_write();
        self.backend.write(id, page);
    }

    /// Drop a page (no I/O; deallocation is a catalog operation).
    pub fn free(&self, id: PageId) {
        self.backend.free(id);
    }

    /// Number of live pages (for leak checks in tests).
    pub fn live_pages(&self) -> usize {
        self.backend.live_pages()
    }

    /// Allocate a system page id (no I/O; ids count up from
    /// [`SYSTEM_PAGE_BASE`]).
    pub fn alloc_system(&self) -> PageId {
        PageId(self.next_system_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Read a system page. Uncounted by contract: system pages hold the
    /// statistics views, and observing statistics must not move the
    /// counters being observed.
    pub fn read_system(&self, id: PageId) -> Arc<Page> {
        debug_assert!(id.is_system());
        self.system.read(id)
    }

    /// Write a system page. Uncounted; never reaches the durable backend.
    pub fn write_system(&self, id: PageId, page: Page) {
        debug_assert!(id.is_system());
        self.system.write(id, page);
    }

    /// Drop a system page.
    pub fn free_system(&self, id: PageId) {
        debug_assert!(id.is_system());
        self.system.free(id);
    }

    /// Number of live system pages (side-store leak checks; these are
    /// deliberately *excluded* from [`Disk::live_pages`]).
    pub fn system_pages(&self) -> usize {
        self.system.live_pages()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IoStats {
        self.counter.snapshot()
    }

    /// Zero the counters.
    pub fn reset_stats(&self) {
        self.counter.reset();
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::Value;

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn read_write_counted() {
        let d = Disk::new();
        let id = d.alloc();
        d.write(id, Page::new(vec![tup(1), tup(2)]));
        let p = d.read(id);
        assert_eq!(p.len(), 2);
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
    }

    #[test]
    fn alloc_ids_are_distinct() {
        let d = Disk::new();
        let a = d.alloc();
        let b = d.alloc();
        assert_ne!(a, b);
    }

    #[test]
    fn alloc_resumes_from_first_id() {
        let d = Disk::with_backend(Arc::new(MemBackend::new()), 41);
        assert_eq!(d.alloc(), PageId(41));
        assert_eq!(d.alloc(), PageId(42));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn reading_unallocated_page_panics() {
        let d = Disk::new();
        let _ = d.read(PageId(99));
    }

    #[test]
    fn free_removes_page() {
        let d = Disk::new();
        let id = d.alloc();
        d.write(id, Page::default());
        assert_eq!(d.live_pages(), 1);
        d.free(id);
        assert_eq!(d.live_pages(), 0);
    }

    #[test]
    fn uncounted_access_leaves_stats_alone() {
        let d = Disk::new();
        let id = d.alloc();
        d.write(id, Page::new(vec![tup(7)]));
        d.reset_stats();
        assert_eq!(d.read_uncounted(id).len(), 1);
        assert_eq!(d.stats().total(), 0);
    }

    #[test]
    fn concurrent_allocs_are_distinct() {
        let d = Disk::new();
        let ids = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let local: Vec<PageId> = (0..100).map(|_| d.alloc()).collect();
                    ids.lock().unwrap().extend(local);
                });
            }
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }
}
