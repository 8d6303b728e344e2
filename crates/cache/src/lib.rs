#![warn(missing_docs)]

//! What is left of the cross-query result cache: a byte-budgeted LRU of
//! inner-block results that no query path consults.
//!
//! The database no longer caches anything across queries (DESIGN.md "No
//! result cache"). This crate survives only because the benchmark's
//! `cache.*` probes (`benchmark/src/probes.rs`) time [`QueryCache::publish_block`],
//! [`QueryCache::find_block`] and [`QueryCache::invalidate_table`], and
//! benchmark/README.md requires a benchmark change before a listed symbol
//! goes; that change (ROADMAP item 1) deletes the probes and this crate.

use nsql_types::{Relation, Tuple};
use std::sync::{Arc, Mutex, PoisonError};

/// Default byte budget (4 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 4 << 20;

/// Approximate retained bytes of one tuple (storage width plus per-tuple
/// bookkeeping).
fn approx_tuple_bytes(t: &Tuple) -> usize {
    t.storage_width() + 16
}

/// An inner-block result under one correlation binding.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Normalized block text.
    pub signature: String,
    /// The correlation-binding values.
    pub binding: Tuple,
    /// The single FROM table the block scans.
    pub table: String,
    /// That table's generation stamp at publication.
    pub generation: u64,
    /// Owning catalog epoch.
    pub epoch: u64,
    /// The block's result.
    pub rel: Relation,
}

impl BlockEntry {
    fn bytes(&self) -> usize {
        let rows: usize = self.rel.tuples().iter().map(approx_tuple_bytes).sum();
        self.signature.len() + approx_tuple_bytes(&self.binding) + rows + 160
    }
}

struct Slot {
    bytes: usize,
    last_used: u64,
    entry: Arc<BlockEntry>,
}

#[derive(Default)]
struct Inner {
    slots: Vec<Slot>,
    tick: u64,
    bytes: usize,
}

/// A byte-budgeted LRU of [`BlockEntry`]s, internally synchronized.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl QueryCache {
    /// A cache with the given byte budget.
    pub fn new(budget: usize) -> QueryCache {
        QueryCache { inner: Mutex::default(), budget }
    }

    /// A cache with the default budget.
    pub fn with_defaults() -> QueryCache {
        QueryCache::new(DEFAULT_CACHE_BUDGET)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry published under exactly this key, if it is still held.
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
        let slot = inner.slots.iter_mut().find(|s| {
            let e = &s.entry;
            e.epoch == epoch
                && e.generation == generation
                && e.table == table
                && e.signature == signature
                && &e.binding == binding
        })?;
        slot.last_used = tick;
        Some(Arc::clone(&slot.entry))
    }

    /// Publish an entry, evicting least-recently-used ones down to the
    /// byte budget.
    pub fn publish_block(&self, entry: BlockEntry) {
        let bytes = entry.bytes();
        let mut inner = self.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        inner.bytes += bytes;
        inner.slots.push(Slot { bytes, last_used, entry: Arc::new(entry) });
        while inner.bytes > self.budget {
            let Some(lru) = (0..inner.slots.len()).min_by_key(|&i| inner.slots[i].last_used)
            else {
                break;
            };
            let gone = inner.slots.swap_remove(lru);
            inner.bytes -= gone.bytes;
        }
    }

    /// Drop every entry over `table` (any case).
    pub fn invalidate_table(&self, table: &str) {
        let table = table.to_ascii_uppercase();
        let mut inner = self.lock();
        let Inner { slots, bytes, .. } = &mut *inner;
        slots.retain(|s| {
            let keep = s.entry.table != table;
            if !keep {
                *bytes -= s.bytes;
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Schema, Value};

    fn entry(table: &str, key: i64) -> BlockEntry {
        let schema = Schema::new(vec![Column::new("A", ColumnType::Int)]);
        BlockEntry {
            signature: "sig".into(),
            binding: Tuple::new(vec![Value::Int(key)]),
            table: table.into(),
            generation: 1,
            epoch: 0,
            rel: Relation::new(schema, vec![Tuple::new(vec![Value::Int(key)])]).unwrap(),
        }
    }

    fn found(c: &QueryCache, table: &str, key: i64) -> bool {
        c.find_block("sig", &Tuple::new(vec![Value::Int(key)]), table, 1, 0).is_some()
    }

    #[test]
    fn entries_key_on_binding_generation_and_epoch() {
        let c = QueryCache::with_defaults();
        c.publish_block(entry("SUPPLY", 3));
        let b3 = Tuple::new(vec![Value::Int(3)]);
        assert!(c.find_block("sig", &b3, "SUPPLY", 1, 0).is_some());
        assert!(c.find_block("sig", &b3, "SUPPLY", 2, 0).is_none(), "stale generation");
        assert!(c.find_block("sig", &b3, "SUPPLY", 1, 1).is_none(), "other epoch");
        assert!(!found(&c, "SUPPLY", 4));
    }

    #[test]
    fn eviction_keeps_the_recently_used_within_the_budget() {
        let one = entry("SUPPLY", 0).bytes();
        let c = QueryCache::new(2 * one);
        c.publish_block(entry("SUPPLY", 1));
        c.publish_block(entry("SUPPLY", 2));
        assert!(found(&c, "SUPPLY", 1), "touch 1, so 2 is the victim");
        c.publish_block(entry("SUPPLY", 3));
        assert!(found(&c, "SUPPLY", 1) && !found(&c, "SUPPLY", 2) && found(&c, "SUPPLY", 3));
    }

    #[test]
    fn invalidation_drops_the_named_table_only() {
        let c = QueryCache::with_defaults();
        c.publish_block(entry("SUPPLY", 1));
        c.publish_block(entry("PARTS", 1));
        c.invalidate_table("supply");
        assert!(!found(&c, "SUPPLY", 1) && found(&c, "PARTS", 1));
    }
}
