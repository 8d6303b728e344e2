//! Per-operator metrics on sharded relaxed atomics, plus a diagnostic
//! event sink.
//!
//! The hot-path contract: an instrumented site holds an
//! `Option<Arc<OpMetrics>>` (or reaches one through a registry that is
//! `None` when observability is off), so the disabled path is a single
//! branch. The enabled path only touches [`ShardedCounter`] slots —
//! cache-line-padded relaxed atomics indexed by worker id — and never the
//! engine's own I/O counters, so collection cannot perturb the
//! byte-identical accounting invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Number of shards in a [`ShardedCounter`]. Workers index with
/// `worker_id % SHARDS`; 16 covers any plausible core count here while
/// keeping the per-counter footprint at one KiB.
pub const SHARDS: usize = 16;

/// One cache line per shard so concurrent workers never contend.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A u64 counter sharded across [`SHARDS`] cache-line-padded slots.
///
/// All operations are `Relaxed`: these are statistics, not
/// synchronization, and totals are only read after the workers join.
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedU64; SHARDS],
}

impl ShardedCounter {
    /// New counter, all shards zero.
    pub fn new() -> ShardedCounter {
        ShardedCounter::default()
    }

    /// Add `n` on the shard for `worker`.
    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        self.shards[worker % SHARDS].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across shards.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard values, trailing zero shards trimmed — used to report
    /// morsel claims per worker.
    pub fn per_shard(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedCounter({})", self.total())
    }
}

/// Live counters for one physical operator instance.
///
/// Rows and morsels are sharded (workers write concurrently); the I/O and
/// timing fields are written once by the coordinating thread from
/// snapshot deltas, so plain atomics suffice.
#[derive(Default, Debug)]
pub struct OpMetrics {
    /// Operator label, e.g. `"merge join (1 key)"` or `"materialize RT2"`.
    pub label: String,
    /// Tuples consumed (summed over inputs).
    pub rows_in: ShardedCounter,
    /// Tuples produced.
    pub rows_out: ShardedCounter,
    /// Morsel claims, sharded by worker id.
    pub morsels: ShardedCounter,
    /// Column batches processed (vectorized execution; 0 on the row path).
    pub batches: ShardedCounter,
    /// Nonzero when the operator ran its vectorized implementation.
    pub vectorized: AtomicU64,
    /// Pages read during the operator (snapshot delta).
    pub reads: AtomicU64,
    /// Pages written during the operator (snapshot delta).
    pub writes: AtomicU64,
    /// Buffer hits during the operator (snapshot delta).
    pub hits: AtomicU64,
    /// Buffer misses during the operator (snapshot delta).
    pub misses: AtomicU64,
    /// Join build phase, nanoseconds: hash join's table build, nested-loop
    /// join's first inner pass (0 for every other operator).
    pub build_ns: AtomicU64,
    /// Join probe phase, nanoseconds (0 when not a hash or nested-loop join).
    pub probe_ns: AtomicU64,
    /// Total operator wall time, nanoseconds.
    pub wall_ns: AtomicU64,
}

impl OpMetrics {
    /// New zeroed metrics for an operator labelled `label`.
    pub fn new(label: &str) -> OpMetrics {
        OpMetrics {
            label: label.to_string(),
            ..OpMetrics::default()
        }
    }

    /// Freeze current values into an [`OpSnapshot`].
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            label: self.label.clone(),
            rows_in: self.rows_in.total(),
            rows_out: self.rows_out.total(),
            morsels_per_worker: self.morsels.per_shard(),
            batches: self.batches.total(),
            vectorized: self.vectorized.load(Ordering::Relaxed) != 0,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            probe_ns: self.probe_ns.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
        }
    }
}

/// Frozen per-operator metrics, ready to render or export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Operator label.
    pub label: String,
    /// Tuples consumed.
    pub rows_in: u64,
    /// Tuples produced.
    pub rows_out: u64,
    /// Morsel claims per worker (empty when the operator ran serially).
    pub morsels_per_worker: Vec<u64>,
    /// Column batches processed (0 on the row path).
    pub batches: u64,
    /// Whether the operator ran vectorized.
    pub vectorized: bool,
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses.
    pub misses: u64,
    /// Join build nanoseconds (hash join, nested-loop join).
    pub build_ns: u64,
    /// Join probe nanoseconds (hash join, nested-loop join).
    pub probe_ns: u64,
    /// Operator wall nanoseconds.
    pub wall_ns: u64,
}

impl OpSnapshot {
    /// One-line text rendering for EXPLAIN ANALYZE output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{}: rows {} -> {}, io {}r/{}w, buf {}h/{}m, {:.3} ms",
            self.label,
            self.rows_in,
            self.rows_out,
            self.reads,
            self.writes,
            self.hits,
            self.misses,
            self.wall_ns as f64 / 1e6,
        );
        if self.build_ns > 0 || self.probe_ns > 0 {
            let _ = write!(
                s,
                " (build {:.3} ms, probe {:.3} ms)",
                self.build_ns as f64 / 1e6,
                self.probe_ns as f64 / 1e6
            );
        }
        if !self.morsels_per_worker.is_empty() {
            let _ = write!(s, " morsels/worker {:?}", self.morsels_per_worker);
        }
        if self.vectorized {
            let _ = write!(s, ", {} batches [vectorized]", self.batches);
        }
        s
    }

    /// JSON form with every field.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("rows_in", Json::num(self.rows_in as f64)),
            ("rows_out", Json::num(self.rows_out as f64)),
            (
                "morsels_per_worker",
                Json::Arr(
                    self.morsels_per_worker
                        .iter()
                        .map(|&m| Json::num(m as f64))
                        .collect(),
                ),
            ),
            ("batches", Json::num(self.batches as f64)),
            ("vectorized", Json::Bool(self.vectorized)),
            ("reads", Json::num(self.reads as f64)),
            ("writes", Json::num(self.writes as f64)),
            ("hits", Json::num(self.hits as f64)),
            ("misses", Json::num(self.misses as f64)),
            ("build_ns", Json::num(self.build_ns as f64)),
            ("probe_ns", Json::num(self.probe_ns as f64)),
            ("wall_ns", Json::num(self.wall_ns as f64)),
        ])
    }
}

/// Registry of per-operator metrics plus a diagnostic event sink.
///
/// Cloning shares the registry. One registry lives for one observed query
/// execution; [`snapshot`](MetricsRegistry::snapshot) freezes it in
/// operator-creation order.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    ops: Arc<Mutex<Vec<Arc<OpMetrics>>>>,
    events: Arc<Mutex<Vec<String>>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a new operator and return its live metrics handle.
    pub fn op(&self, label: &str) -> Arc<OpMetrics> {
        let m = Arc::new(OpMetrics::new(label));
        self.ops.lock().expect("ops lock").push(Arc::clone(&m));
        m
    }

    /// Record a diagnostic event (the stdout-free replacement for library
    /// `println!`).
    pub fn event(&self, msg: impl Into<String>) {
        self.events.lock().expect("events lock").push(msg.into());
    }

    /// Freeze all operators (creation order) and drain nothing — the
    /// registry stays usable.
    pub fn snapshot(&self) -> Vec<OpSnapshot> {
        self.ops
            .lock()
            .expect("ops lock")
            .iter()
            .map(|m| m.snapshot())
            .collect()
    }

    /// Copy of the recorded events.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().expect("events lock").clone()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} ops)", self.snapshot().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sharded_counter_totals_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let mut handles = Vec::new();
        for w in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(w, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.total(), 8000);
        assert_eq!(c.per_shard(), vec![1000; 8]);
    }

    #[test]
    fn per_shard_trims_trailing_zeros() {
        let c = ShardedCounter::new();
        c.add(0, 5);
        c.add(2, 7);
        assert_eq!(c.per_shard(), vec![5, 0, 7]);
        let empty = ShardedCounter::new();
        assert!(empty.per_shard().is_empty());
    }

    #[test]
    fn registry_snapshot_preserves_creation_order() {
        let r = MetricsRegistry::new();
        let a = r.op("scan PARTS");
        let b = r.op("merge join (1 key)");
        a.rows_out.add(0, 3);
        b.rows_out.add(1, 2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "scan PARTS");
        assert_eq!(snap[0].rows_out, 3);
        assert_eq!(snap[1].rows_out, 2);
    }

    #[test]
    fn events_are_recorded_in_order() {
        let r = MetricsRegistry::new();
        r.event("first");
        r.event(String::from("second"));
        assert_eq!(r.events(), vec!["first", "second"]);
    }

    #[test]
    fn snapshot_render_mentions_build_probe_and_morsels() {
        let m = OpMetrics::new("hash join (1 key)");
        m.build_ns.store(2_000_000, Ordering::Relaxed);
        m.probe_ns.store(3_000_000, Ordering::Relaxed);
        m.morsels.add(0, 4);
        m.morsels.add(1, 2);
        let s = m.snapshot().render();
        assert!(s.contains("build 2.000 ms"));
        assert!(s.contains("probe 3.000 ms"));
        assert!(s.contains("morsels/worker [4, 2]"));
    }
}
