//! A `B`-frame LRU buffer pool in front of the simulated disk.
//!
//! The pool caches read pages; a hit costs no I/O, a miss costs one read and
//! may evict the least-recently-used frame. Pages are immutable after
//! creation (heap files are append-built and temporaries are written whole),
//! so eviction never writes back — all write I/O is counted at file-creation
//! time, matching how the paper's cost formulas charge `Pt` once per
//! temporary.
//!
//! # Implementation
//!
//! Recency is tracked by an intrusive doubly-linked list threaded through a
//! slab of frames: `head` is the most recently used frame, `tail` the least.
//! Every operation on the hot path — hit, miss, eviction — is O(1): a hit
//! unlinks the frame and relinks it at the head; a miss evicts the tail
//! frame and links the new page at the head. The `PageId → slot` map hashes
//! a page id to itself ([`PageIdHasher`]): ids are dense small integers, so
//! there is nothing for a mixing round to spread.
//!
//! Because `get` strictly interleaves "touch" and "evict" events, this list
//! discipline selects exactly the same victim as a timestamped
//! `min_by_key(last_used)` scan would (timestamps are distinct, so the
//! minimum is unique) — the property test in `tests/buffer_prop.rs` replays
//! randomized traces against that naive model and demands identical
//! hit/miss/resident evolution.
//!
//! Nothing is pinned. A page is an immutable `Arc<Page>`: a reader holds
//! its own reference, so evicting the frame never invalidates what it
//! reads, and a miss always evicts the tail frame, in one step.

use crate::disk::{Disk, Page, PageId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hasher of the resident-page map: the id itself, with its low seven bits
/// repeated at the top. `hashbrown` takes the bucket from the low bits of a
/// hash and a seven-bit tag from the high ones; page ids count up from zero,
/// so the ids resident at one time differ in their low bits already and a
/// multiply-and-fold round (`FxHasher`, 4.9 % of a `kim-refused` select
/// when it was measured) buys nothing. The copy gives neighbouring ids
/// different tags, so a lookup compares one key. Deterministic, like every
/// map here.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a PageId hashes as one u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = id ^ (id << 57);
    }
}

/// Sentinel slot index meaning "no frame" (list terminator / free slot).
const NIL: usize = usize::MAX;

struct Frame {
    id: PageId,
    page: Arc<Page>,
    /// Slot index of the next more-recently-used frame (`NIL` at the head).
    prev: usize,
    /// Slot index of the next less-recently-used frame (`NIL` at the tail).
    next: usize,
}

/// LRU page cache with a fixed number of frames and O(1) get/evict.
pub struct BufferPool {
    disk: Arc<Disk>,
    capacity: usize,
    /// Frame slab; slots are recycled through `free`.
    slots: Vec<Frame>,
    /// Indices of unused slots in `slots`.
    free: Vec<usize>,
    /// Resident-page index into the slab.
    map: HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>,
    /// Most recently used frame, or `NIL` when empty.
    head: usize,
    /// Least recently used frame, or `NIL` when empty.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Pool with `capacity` frames (minimum 1).
    pub fn new(disk: Arc<Disk>, capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            disk,
            capacity,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            map: HashMap::default(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits since the last reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fetch a page, consulting the cache first.
    pub fn get(&mut self, id: PageId) -> Arc<Page> {
        if let Some(&slot) = self.map.get(&id) {
            self.hits += 1;
            self.unlink(slot);
            self.link_front(slot);
            return Arc::clone(&self.slots[slot].page);
        }
        self.misses += 1;
        let page = self.disk.read(id);
        if self.map.len() >= self.capacity {
            let tail = self.tail;
            self.remove_slot(self.slots[tail].id, tail);
        }
        let slot = self.alloc_slot(Frame { id, page: Arc::clone(&page), prev: NIL, next: NIL });
        self.link_front(slot);
        self.map.insert(id, slot);
        page
    }

    /// Whether a page is currently cached (does not touch recency).
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Drop a specific page from the cache (used when a page is freed).
    pub fn evict(&mut self, id: PageId) {
        if let Some(&slot) = self.map.get(&id) {
            self.remove_slot(id, slot);
        }
    }

    /// Drop every frame.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Zero hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of cached pages (≤ capacity; for invariant tests).
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Resident pages from most to least recently used (for trace tests).
    pub fn resident_pages(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NIL {
            out.push(self.slots[slot].id);
            slot = self.slots[slot].next;
        }
        out
    }

    fn alloc_slot(&mut self, frame: Frame) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = frame;
                slot
            }
            None => {
                self.slots.push(frame);
                self.slots.len() - 1
            }
        }
    }

    fn remove_slot(&mut self, id: PageId, slot: usize) {
        self.unlink(slot);
        self.map.remove(&id);
        self.slots[slot].page = Arc::new(Page::new(Vec::new()));
        self.free.push(slot);
    }

    /// Detach a frame from the recency list (its prev/next become dangling;
    /// callers must relink or free the slot).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Tuple, Value};

    fn disk_with_pages(n: u64) -> (Arc<Disk>, Vec<PageId>) {
        let disk = Arc::new(Disk::new());
        let ids: Vec<PageId> = (0..n)
            .map(|i| {
                let id = disk.alloc();
                disk.write(id, Page::new(vec![Tuple::new(vec![Value::Int(i as i64)])]));
                id
            })
            .collect();
        disk.reset_stats();
        (disk, ids)
    }

    #[test]
    fn hit_costs_no_io() {
        let (disk, ids) = disk_with_pages(1);
        let mut pool = BufferPool::new(Arc::clone(&disk), 2);
        pool.get(ids[0]);
        pool.get(ids[0]);
        assert_eq!(disk.stats().reads, 1);
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn never_exceeds_capacity() {
        let (disk, ids) = disk_with_pages(10);
        let mut pool = BufferPool::new(disk, 3);
        for &id in &ids {
            pool.get(id);
            assert!(pool.resident() <= 3);
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let (disk, ids) = disk_with_pages(3);
        let mut pool = BufferPool::new(Arc::clone(&disk), 2);
        pool.get(ids[0]); // miss
        pool.get(ids[1]); // miss
        pool.get(ids[0]); // hit — makes ids[1] the LRU
        pool.get(ids[2]); // miss, evicts ids[1]
        pool.get(ids[0]); // hit — still resident
        pool.get(ids[1]); // miss — was evicted
        assert_eq!(disk.stats().reads, 4);
    }

    #[test]
    fn cyclic_scan_beyond_capacity_thrashes() {
        // Sequential rescan pattern with LRU: every access misses once the
        // working set exceeds the pool. This is the nested-iteration
        // worst case from the paper.
        let (disk, ids) = disk_with_pages(4);
        let mut pool = BufferPool::new(Arc::clone(&disk), 3);
        for _ in 0..3 {
            for &id in &ids {
                pool.get(id);
            }
        }
        assert_eq!(disk.stats().reads, 12, "every access must miss");
    }

    #[test]
    fn clear_empties_pool() {
        let (disk, ids) = disk_with_pages(2);
        let mut pool = BufferPool::new(disk, 2);
        pool.get(ids[0]);
        pool.clear();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn recency_order_is_mru_first() {
        let (disk, ids) = disk_with_pages(3);
        let mut pool = BufferPool::new(disk, 3);
        pool.get(ids[0]);
        pool.get(ids[1]);
        pool.get(ids[2]);
        pool.get(ids[0]); // re-touch
        assert_eq!(pool.resident_pages(), vec![ids[0], ids[2], ids[1]]);
    }

    #[test]
    fn evict_reclaims_slot_for_reuse() {
        let (disk, ids) = disk_with_pages(3);
        let mut pool = BufferPool::new(Arc::clone(&disk), 2);
        pool.get(ids[0]);
        pool.get(ids[1]);
        pool.evict(ids[0]);
        assert_eq!(pool.resident(), 1);
        pool.get(ids[2]);
        pool.get(ids[0]); // evicts ids[1]
        assert_eq!(pool.resident(), 2);
        assert!(pool.contains(ids[2]) && pool.contains(ids[0]));
    }
}
