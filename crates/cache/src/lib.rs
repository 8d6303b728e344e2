#![warn(missing_docs)]

//! Cross-query result cache for nested-query evaluation.
//!
//! NEST-JA2's whole point is materializing an aggregate temp — but without a
//! cache that work is thrown away after every statement. This crate keeps two
//! kinds of entries alive across queries:
//!
//! * [`TempEntry`] — a transform-phase temporary table (the NEST-JA2
//!   `TEMP(G, agg)` and its step-1/2 inputs), keyed on the *inlined* logical
//!   plan text, an options fingerprint, the generation stamp of every base
//!   table the plan reads, and the owning catalog's epoch. Each entry also
//!   carries the recorded counted-I/O event sequence of its original
//!   materialization, so a hit can *replay* the exact page-access pattern:
//!   counted I/O and buffer evolution on a hit are identical to a cold
//!   re-execution by construction.
//! * [`BlockEntry`] — an inner query block's result keyed on a normalized
//!   block signature plus the correlation-binding tuple (Guravannavar-style
//!   binding-keyed reuse), the FROM table's generation, and the epoch.
//!
//! Eviction is byte-budgeted LRU over both kinds. Invalidation is precise:
//! every DML path bumps the affected table's generation stamp (so stale
//! entries can never match) *and* proactively drops entries that read the
//! table (so the budget is returned immediately and the invalidation is
//! observable in [`CacheStats`]).

use nsql_storage::{PageId, TraceEvent};
use nsql_types::{Relation, Schema, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default byte budget: generous enough for the paper-scale workloads,
/// small enough that runaway workloads converge (4 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 4 << 20;

/// Approximate retained bytes of one tuple (storage width plus per-tuple
/// bookkeeping). Shared with the nested-iteration per-binding memo so both
/// budgets are measured with the same yardstick.
pub fn approx_tuple_bytes(t: &Tuple) -> usize {
    t.storage_width() + 16
}

/// Approximate retained bytes of a relation's tuples.
pub fn approx_relation_bytes(rel: &Relation) -> usize {
    rel.tuples().iter().map(approx_tuple_bytes).sum::<usize>() + 64
}

/// Snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served (exact temp-set hits and block hits).
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Entries dropped by DML/reopen invalidation.
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Estimated retained bytes.
    pub bytes: u64,
}

/// A cached transform-phase temporary table.
#[derive(Debug, Clone)]
pub struct TempEntry {
    /// Inlined logical-plan text: references to earlier temps are expanded
    /// to their defining plans, so the key is self-contained.
    pub text: String,
    /// Options fingerprint (join policy, index use, page geometry) — the
    /// knobs that change the materialization's physical I/O.
    pub fingerprint: String,
    /// Sorted `(base table, generation)` pairs the plan transitively reads.
    pub bases: Vec<(String, u64)>,
    /// Owning catalog epoch (bumped by `Database::open` recovery).
    pub epoch: u64,
    /// Output schema as registered (already requalified to the temp name).
    pub schema: Schema,
    /// Output pages in file order: original page id plus page contents.
    pub output_pages: Vec<(PageId, Vec<Tuple>)>,
    /// Output tuple count.
    pub tuple_count: usize,
    /// Column indexes the output is physically sorted by.
    pub sorted_by: Vec<usize>,
    /// The recorded counted-I/O event sequence of the materialization.
    pub trace: Vec<TraceEvent>,
    /// `(temp name, entry id)` of earlier temps this materialization read;
    /// a hit is sound only if those exact entries also hit this query (the
    /// replay pid map then covers every cross-temp page reference).
    pub deps: Vec<(String, u64)>,
}

impl TempEntry {
    fn bytes(&self) -> usize {
        let pages: usize = self
            .output_pages
            .iter()
            .map(|(_, ts)| ts.iter().map(approx_tuple_bytes).sum::<usize>() + 32)
            .sum();
        self.text.len() + self.fingerprint.len() + pages + self.trace.len() * 24 + 128
    }

    /// Position of `pid` in the output file, if it is an output page.
    pub fn output_index(&self, pid: PageId) -> Option<usize> {
        self.output_pages.iter().position(|(p, _)| *p == pid)
    }
}

/// A cached inner-block result under one correlation binding.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Normalized block signature (aliases canonicalized, outer references
    /// replaced by ordinal placeholders).
    pub signature: String,
    /// The correlation-binding values, in placeholder order (empty for
    /// uncorrelated blocks).
    pub binding: Tuple,
    /// The single FROM table the block scans.
    pub table: String,
    /// That table's generation stamp at publication.
    pub generation: u64,
    /// Owning catalog epoch.
    pub epoch: u64,
    /// The block's result (post SELECT phase).
    pub rel: Relation,
}

impl BlockEntry {
    fn bytes(&self) -> usize {
        self.signature.len()
            + approx_tuple_bytes(&self.binding)
            + approx_relation_bytes(&self.rel)
            + 96
    }
}

enum EntryKind {
    Temp(Arc<TempEntry>),
    Block(Arc<BlockEntry>),
}

struct Slot {
    id: u64,
    bytes: usize,
    last_used: u64,
    kind: EntryKind,
}

struct Inner {
    slots: Vec<Slot>,
    next_id: u64,
    tick: u64,
    bytes: usize,
}

/// The shared cross-query cache. Cheap to share (`Arc`), internally
/// synchronized; all counters are monotonic.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl QueryCache {
    /// A cache with the given byte budget.
    pub fn new(budget: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner { slots: Vec::new(), next_id: 1, tick: 0, bytes: 0 }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// A cache with the default budget.
    pub fn with_defaults() -> QueryCache {
        QueryCache::new(DEFAULT_CACHE_BUDGET)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Find a temp entry by exact structural key. Does not touch the
    /// hit/miss counters: the transform consult is all-or-nothing across a
    /// plan's temps, so the caller reports the per-temp outcome once the
    /// whole-plan decision is made (via [`QueryCache::note_hits`] /
    /// [`QueryCache::note_misses`]).
    pub fn find_temp(
        &self,
        text: &str,
        fingerprint: &str,
        bases: &[(String, u64)],
        epoch: u64,
    ) -> Option<(u64, Arc<TempEntry>)> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        for slot in inner.slots.iter_mut() {
            if let EntryKind::Temp(e) = &slot.kind {
                if e.epoch == epoch
                    && e.text == text
                    && e.fingerprint == fingerprint
                    && e.bases == bases
                {
                    slot.last_used = tick;
                    return Some((slot.id, Arc::clone(e)));
                }
            }
        }
        None
    }

    /// Publish a temp entry, evicting LRU-first down to the byte budget.
    /// Returns the entry id (used in dependents' `deps`).
    pub fn publish_temp(&self, entry: TempEntry) -> u64 {
        let bytes = entry.bytes();
        self.insert(EntryKind::Temp(Arc::new(entry)), bytes)
    }

    /// Look up an inner-block result. Bumps hit/miss counters (the block
    /// consult is a single decision point, unlike the temp-set consult).
    pub fn find_block(
        &self,
        signature: &str,
        binding: &Tuple,
        table: &str,
        generation: u64,
        epoch: u64,
    ) -> Option<Arc<BlockEntry>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        for slot in inner.slots.iter_mut() {
            if let EntryKind::Block(e) = &slot.kind {
                if e.epoch == epoch
                    && e.generation == generation
                    && e.table == table
                    && e.signature == signature
                    && &e.binding == binding
                {
                    slot.last_used = tick;
                    let hit = Arc::clone(e);
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(hit);
                }
            }
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publish an inner-block result.
    pub fn publish_block(&self, entry: BlockEntry) {
        let bytes = entry.bytes();
        self.insert(EntryKind::Block(Arc::new(entry)), bytes);
    }

    fn insert(&self, kind: EntryKind, bytes: usize) -> u64 {
        let mut inner = self.lock();
        inner.tick += 1;
        let (tick, id) = (inner.tick, inner.next_id);
        inner.next_id += 1;
        inner.bytes += bytes;
        inner.slots.push(Slot { id, bytes, last_used: tick, kind });
        let mut evicted = 0u64;
        while inner.bytes > self.budget && !inner.slots.is_empty() {
            let lru = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("non-empty");
            let gone = inner.slots.swap_remove(lru);
            inner.bytes -= gone.bytes;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        id
    }

    /// Drop every entry that reads `table` (temp entries via their base
    /// set, block entries via their FROM table). Called by the catalog on
    /// every DML path, so budget is returned immediately.
    pub fn invalidate_table(&self, table: &str) {
        let table = table.to_ascii_uppercase();
        let mut inner = self.lock();
        let mut dropped = 0u64;
        let mut i = 0;
        while i < inner.slots.len() {
            let stale = match &inner.slots[i].kind {
                EntryKind::Temp(e) => e.bases.iter().any(|(t, _)| *t == table),
                EntryKind::Block(e) => e.table == table,
            };
            if stale {
                let gone = inner.slots.swap_remove(i);
                inner.bytes -= gone.bytes;
                dropped += 1;
            } else {
                i += 1;
            }
        }
        drop(inner);
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Report `n` served temp hits.
    pub fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Report `n` temp misses.
    pub fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: inner.slots.len() as u64,
            bytes: inner.bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Schema, Value};

    fn temp_entry(text: &str, fp: &str, gen: u64) -> TempEntry {
        TempEntry {
            text: text.into(),
            fingerprint: fp.into(),
            bases: vec![("SUPPLY".into(), gen)],
            epoch: 0,
            schema: Schema::new(vec![Column::new("A", ColumnType::Int)]),
            output_pages: vec![(PageId(7), vec![Tuple::new(vec![Value::Int(1)])])],
            tuple_count: 1,
            sorted_by: vec![],
            trace: vec![TraceEvent::Write(PageId(7))],
            deps: vec![],
        }
    }

    #[test]
    fn generation_mismatch_never_matches() {
        let c = QueryCache::with_defaults();
        c.publish_temp(temp_entry("Scan SUPPLY", "fp", 1));
        assert!(c.find_temp("Scan SUPPLY", "fp", &[("SUPPLY".into(), 1)], 0).is_some());
        assert!(c.find_temp("Scan SUPPLY", "fp", &[("SUPPLY".into(), 2)], 0).is_none());
        assert!(c.find_temp("Scan SUPPLY", "fp", &[("SUPPLY".into(), 1)], 1).is_none());
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let c = QueryCache::new(600);
        c.publish_temp(temp_entry("plan A", "fp", 1));
        c.publish_temp(temp_entry("plan B", "fp", 1));
        // Touch A so B is the LRU victim when C overflows the budget.
        let _ = c.find_temp("plan A", "fp", &[("SUPPLY".into(), 1)], 0);
        c.publish_temp(temp_entry("plan C", "fp", 1));
        let stats = c.stats();
        assert!(stats.evictions > 0, "600-byte budget must evict: {stats:?}");
        assert!(stats.bytes <= 600, "budget respected: {stats:?}");
        assert!(
            c.find_temp("plan B", "fp", &[("SUPPLY".into(), 1)], 0).is_none(),
            "LRU entry was the victim"
        );
    }

    #[test]
    fn invalidation_drops_matching_tables_only() {
        let c = QueryCache::with_defaults();
        c.publish_temp(temp_entry("plan A", "fp", 1));
        let mut other = temp_entry("plan B", "fp", 1);
        other.bases = vec![("PARTS".into(), 1)];
        c.publish_temp(other);
        c.invalidate_table("SUPPLY");
        let stats = c.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1);
        assert!(c.find_temp("plan B", "fp", &[("PARTS".into(), 1)], 0).is_some());
    }

    #[test]
    fn block_entries_key_on_binding_and_generation() {
        let c = QueryCache::with_defaults();
        let rel = Relation::empty(Schema::new(vec![Column::new("A", ColumnType::Int)]));
        c.publish_block(BlockEntry {
            signature: "sig".into(),
            binding: Tuple::new(vec![Value::Int(3)]),
            table: "SUPPLY".into(),
            generation: 1,
            epoch: 0,
            rel,
        });
        let b3 = Tuple::new(vec![Value::Int(3)]);
        let b4 = Tuple::new(vec![Value::Int(4)]);
        assert!(c.find_block("sig", &b3, "SUPPLY", 1, 0).is_some());
        assert!(c.find_block("sig", &b4, "SUPPLY", 1, 0).is_none());
        assert!(c.find_block("sig", &b3, "SUPPLY", 2, 0).is_none(), "stale generation");
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}
