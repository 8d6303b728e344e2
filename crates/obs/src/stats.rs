//! Engine-wide cumulative statistics registry.
//!
//! Unlike a [`crate::profile::Profile`] — which lives for one observed
//! query — a [`StatsRegistry`] lives for the whole database and
//! aggregates *across* queries: per-table access counters, per-statement
//! fingerprint aggregates with log-bucketed latency histograms, and a
//! bounded slow-query log.
//!
//! The crate-level invariant applies unchanged: recording into the
//! registry only ever touches side-state (relaxed atomics and
//! short mutex-guarded map insertions), never the engine's counted I/O,
//! so enabling statistics cannot move a published page count. The
//! disabled path is a single [`AtomicBool`] load.
//!
//! Everything here is integer math — in particular percentiles are
//! derived from power-of-two bucket bounds without floats, so p50/p95/p99
//! are deterministic across platforms.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::profile::Counter;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i - 1]` — enough for any `u64`.
pub const HIST_BUCKETS: usize = 65;

/// Capacity of the slow-query ring buffer.
pub const SLOW_LOG_CAP: usize = 32;

/// A log2-bucketed latency histogram over `u64` microsecond samples.
///
/// Recording is one `leading_zeros` plus one relaxed `fetch_add`;
/// percentile queries walk at most [`HIST_BUCKETS`] buckets and return
/// the *upper bound* of the bucket containing the requested rank, so the
/// reported quantile is always ≥ the exact one and within 2x of it.
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// New empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a value: 0 for 0, else `floor(log2 v) + 1`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (the value a percentile query
    /// reports for ranks landing in that bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `p`-th percentile (`p` in 1..=100) as the upper bound of the
    /// bucket holding rank `ceil(total * p / 100)`. Returns 0 when empty.
    ///
    /// This matches the classic nearest-rank definition applied to the
    /// bucketed distribution: sort all samples, take the value at rank
    /// `ceil(n*p/100)`, and report its bucket's upper bound.
    pub fn percentile(&self, p: u64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as u128 * p as u128).div_ceil(100)).max(1) as u64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }

    /// Nonzero buckets as `(upper_bound, count)` pairs, for export.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((Self::bucket_upper(i), c))
            })
            .collect()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram({} samples)", self.total())
    }
}

/// Live per-table access counters.
#[derive(Default, Debug)]
pub struct TableCounters {
    /// Full-scan starts (one per scan of the heap file, not per page).
    pub scans: Counter,
    /// Index probes (restrictions or back-joins served by a B+tree).
    pub index_probes: Counter,
    /// Tuples read out of the table by scans.
    pub tuples_read: Counter,
    /// Tuples appended by INSERT / load.
    pub tuples_written: Counter,
}

/// Live per-fingerprint statement aggregates.
#[derive(Debug)]
pub struct StatementStats {
    /// Completed calls (successful or failed).
    pub calls: AtomicU64,
    /// Calls that returned an error.
    pub errors: AtomicU64,
    /// Transform refusals observed (statement fell back to another
    /// strategy because the NEST-* preconditions failed).
    pub refusals: AtomicU64,
    /// Sum of wall time over calls, microseconds.
    pub total_us: AtomicU64,
    /// Minimum call wall time, microseconds (`u64::MAX` until first call).
    pub min_us: AtomicU64,
    /// Maximum call wall time, microseconds.
    pub max_us: AtomicU64,
    /// Counted pages read, summed over calls.
    pub reads: AtomicU64,
    /// Counted pages written, summed over calls.
    pub writes: AtomicU64,
    /// Wall-time histogram (microseconds).
    pub hist: LatencyHistogram,
    /// Strategy chosen on the most recent call (e.g. `"transform"`).
    pub last_strategy: Mutex<String>,
}

impl Default for StatementStats {
    fn default() -> StatementStats {
        StatementStats {
            calls: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            hist: LatencyHistogram::new(),
            last_strategy: Mutex::new(String::new()),
        }
    }
}

/// One completed call, ready to fold into a [`StatementStats`] entry.
#[derive(Debug, Clone, Default)]
pub struct StatementSample {
    /// Normalized statement fingerprint (literals replaced by `?`).
    pub fingerprint: String,
    /// Wall time, microseconds.
    pub micros: u64,
    /// Counted pages read by the call.
    pub reads: u64,
    /// Counted pages written by the call.
    pub writes: u64,
    /// Strategy that ran (`"nested-iteration"` or `"transform"`).
    pub strategy: String,
    /// Ignored: there is one execution mode. The field survives only
    /// because `benchmark/` fills it in.
    pub exec_mode: String,
    /// Whether the call returned an error.
    pub error: bool,
    /// Number of transform refusals surfaced by the call.
    pub refusals: u64,
}

/// One slow-query log entry.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Monotonic sequence number (1-based, over the registry lifetime).
    pub seq: u64,
    /// The statement text as submitted.
    pub sql: String,
    /// Normalized fingerprint.
    pub fingerprint: String,
    /// Wall time, microseconds.
    pub micros: u64,
    /// Strategy that ran.
    pub strategy: String,
    /// Counted pages read.
    pub reads: u64,
    /// Counted pages written.
    pub writes: u64,
    /// Rendered EXPLAIN of the offender (may be empty if planning failed).
    pub explain: Vec<String>,
}

/// Frozen per-table counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Table name.
    pub table: String,
    /// Full-scan starts.
    pub scans: u64,
    /// Index probes.
    pub index_probes: u64,
    /// Tuples read.
    pub tuples_read: u64,
    /// Tuples written.
    pub tuples_written: u64,
}

/// Frozen per-fingerprint aggregates with derived percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementSnapshot {
    /// Normalized statement fingerprint.
    pub query: String,
    /// Completed calls.
    pub calls: u64,
    /// Calls that errored.
    pub errors: u64,
    /// Transform refusals.
    pub refusals: u64,
    /// Total wall microseconds.
    pub total_us: u64,
    /// Minimum wall microseconds (0 when no calls).
    pub min_us: u64,
    /// Maximum wall microseconds.
    pub max_us: u64,
    /// 50th percentile (bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile (bucket upper bound).
    pub p95_us: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_us: u64,
    /// Pages read, summed.
    pub reads: u64,
    /// Pages written, summed.
    pub writes: u64,
    /// Strategy on the most recent call.
    pub strategy: String,
}

/// Frozen registry state.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Per-table counters, name order.
    pub tables: Vec<TableSnapshot>,
    /// Per-fingerprint aggregates, fingerprint order.
    pub statements: Vec<StatementSnapshot>,
    /// Slow-query log, oldest first.
    pub slow: Vec<SlowQuery>,
}

impl StatsSnapshot {
    /// Full JSON export via the in-tree writer.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("table", Json::str(&t.table)),
                                ("scans", Json::num(t.scans as f64)),
                                ("index_probes", Json::num(t.index_probes as f64)),
                                ("tuples_read", Json::num(t.tuples_read as f64)),
                                ("tuples_written", Json::num(t.tuples_written as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "statements",
                Json::Arr(
                    self.statements
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("query", Json::str(&s.query)),
                                ("calls", Json::num(s.calls as f64)),
                                ("errors", Json::num(s.errors as f64)),
                                ("refusals", Json::num(s.refusals as f64)),
                                ("total_us", Json::num(s.total_us as f64)),
                                ("min_us", Json::num(s.min_us as f64)),
                                ("max_us", Json::num(s.max_us as f64)),
                                ("p50_us", Json::num(s.p50_us as f64)),
                                ("p95_us", Json::num(s.p95_us as f64)),
                                ("p99_us", Json::num(s.p99_us as f64)),
                                ("reads", Json::num(s.reads as f64)),
                                ("writes", Json::num(s.writes as f64)),
                                ("strategy", Json::str(&s.strategy)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slow_queries",
                Json::Arr(
                    self.slow
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("seq", Json::num(q.seq as f64)),
                                ("sql", Json::str(&q.sql)),
                                ("query", Json::str(&q.fingerprint)),
                                ("micros", Json::num(q.micros as f64)),
                                ("strategy", Json::str(&q.strategy)),
                                ("reads", Json::num(q.reads as f64)),
                                ("writes", Json::num(q.writes as f64)),
                                (
                                    "explain",
                                    Json::Arr(q.explain.iter().map(|l| Json::str(l)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The cumulative statistics registry. One per database; on until a caller
/// disables it ([`StatsRegistry::set_enabled`]), and cheap enough to leave
/// on: the disabled path is one atomic load, the enabled path is relaxed
/// atomics plus short map-lock insertions off the per-page hot loop.
#[derive(Debug)]
pub struct StatsRegistry {
    enabled: AtomicBool,
    tables: Mutex<BTreeMap<String, Arc<TableCounters>>>,
    statements: Mutex<BTreeMap<String, Arc<StatementStats>>>,
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_seq: AtomicU64,
}

impl Default for StatsRegistry {
    fn default() -> StatsRegistry {
        StatsRegistry::new(true)
    }
}

impl StatsRegistry {
    /// New registry, empty.
    pub fn new(enabled: bool) -> StatsRegistry {
        StatsRegistry {
            enabled: AtomicBool::new(enabled),
            tables: Mutex::new(BTreeMap::new()),
            statements: Mutex::new(BTreeMap::new()),
            slow: Mutex::new(VecDeque::new()),
            slow_seq: AtomicU64::new(0),
        }
    }

    /// Whether collection is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off. Already-collected state is kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Live counters for `table`, created on first touch. `None` when
    /// disabled — callers hold the `Option` so the off path is branch-only.
    pub fn table(&self, table: &str) -> Option<Arc<TableCounters>> {
        self.enabled().then(|| self.table_entry(table))
    }

    /// Live counters for `table`, created on first touch regardless of the
    /// enabled flag. Callers that cache the handle to skip the map lock on
    /// hot paths must gate their bumps on [`StatsRegistry::enabled`]
    /// themselves; the entry existing is harmless when disabled (snapshots
    /// render it as an untouched table).
    pub fn table_entry(&self, table: &str) -> Arc<TableCounters> {
        let mut map = self.tables.lock().expect("stats tables lock");
        Arc::clone(map.entry(table.to_string()).or_default())
    }

    /// Fold one completed call into its fingerprint's aggregates.
    pub fn record_statement(&self, sample: &StatementSample) {
        if !self.enabled() {
            return;
        }
        let entry = {
            let mut map = self.statements.lock().expect("stats statements lock");
            Arc::clone(map.entry(sample.fingerprint.clone()).or_default())
        };
        entry.calls.fetch_add(1, Ordering::Relaxed);
        if sample.error {
            entry.errors.fetch_add(1, Ordering::Relaxed);
        }
        if sample.refusals > 0 {
            entry.refusals.fetch_add(sample.refusals, Ordering::Relaxed);
        }
        entry.total_us.fetch_add(sample.micros, Ordering::Relaxed);
        entry.min_us.fetch_min(sample.micros, Ordering::Relaxed);
        entry.max_us.fetch_max(sample.micros, Ordering::Relaxed);
        entry.reads.fetch_add(sample.reads, Ordering::Relaxed);
        entry.writes.fetch_add(sample.writes, Ordering::Relaxed);
        entry.hist.record(sample.micros);
        *entry.last_strategy.lock().expect("strategy lock") = sample.strategy.clone();
    }

    /// Append to the slow-query log (ring of [`SLOW_LOG_CAP`]); assigns
    /// and returns the entry's sequence number.
    pub fn record_slow(&self, mut entry: SlowQuery) -> u64 {
        let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed) + 1;
        entry.seq = seq;
        let mut ring = self.slow.lock().expect("stats slow lock");
        if ring.len() == SLOW_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
        seq
    }

    /// Copy of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().expect("stats slow lock").iter().cloned().collect()
    }

    /// Freeze everything. Tables and statements come out in key order so
    /// the derived system views are deterministic.
    pub fn snapshot(&self) -> StatsSnapshot {
        let tables = self
            .tables
            .lock()
            .expect("stats tables lock")
            .iter()
            .map(|(name, c)| TableSnapshot {
                table: name.clone(),
                scans: c.scans.total(),
                index_probes: c.index_probes.total(),
                tuples_read: c.tuples_read.total(),
                tuples_written: c.tuples_written.total(),
            })
            .collect();
        let statements = self
            .statements
            .lock()
            .expect("stats statements lock")
            .iter()
            .map(|(fp, s)| {
                let calls = s.calls.load(Ordering::Relaxed);
                let min = s.min_us.load(Ordering::Relaxed);
                StatementSnapshot {
                    query: fp.clone(),
                    calls,
                    errors: s.errors.load(Ordering::Relaxed),
                    refusals: s.refusals.load(Ordering::Relaxed),
                    total_us: s.total_us.load(Ordering::Relaxed),
                    min_us: if calls == 0 || min == u64::MAX { 0 } else { min },
                    max_us: s.max_us.load(Ordering::Relaxed),
                    p50_us: s.hist.percentile(50),
                    p95_us: s.hist.percentile(95),
                    p99_us: s.hist.percentile(99),
                    reads: s.reads.load(Ordering::Relaxed),
                    writes: s.writes.load(Ordering::Relaxed),
                    strategy: s.last_strategy.lock().expect("strategy lock").clone(),
                }
            })
            .collect();
        StatsSnapshot { tables, statements, slow: self.slow_queries() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(7), 3);
        assert_eq!(LatencyHistogram::bucket_of(8), 4);
        for k in 0..63 {
            // 2^k opens bucket k+1; 2^(k+1) - 1 closes it.
            assert_eq!(LatencyHistogram::bucket_of(1u64 << k), k + 1);
            assert_eq!(LatencyHistogram::bucket_of((1u64 << (k + 1)) - 1), k + 1);
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_upper(0), 0);
        assert_eq!(LatencyHistogram::bucket_upper(1), 1);
        assert_eq!(LatencyHistogram::bucket_upper(2), 3);
        assert_eq!(LatencyHistogram::bucket_upper(10), 1023);
        assert_eq!(LatencyHistogram::bucket_upper(64), u64::MAX);
        // Every value's bucket upper bound is >= the value.
        for v in [0u64, 1, 2, 3, 100, 1000, 123_456, u64::MAX] {
            assert!(LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(v)) >= v);
        }
    }

    /// Nearest-rank oracle: sort, index at ceil(n*p/100), report that
    /// value's bucket upper bound. The histogram must agree exactly.
    fn oracle(values: &[u64], p: u64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((sorted.len() as u128 * p as u128).div_ceil(100)).max(1) as usize;
        LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(sorted[rank - 1]))
    }

    #[test]
    fn percentiles_match_exact_sort_oracle() {
        // Deterministic xorshift so the test is seed-stable.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..50 {
            let n = 1 + (next() % 400) as usize;
            let values: Vec<u64> = (0..n)
                .map(|_| match case % 3 {
                    0 => next() % 10,            // heavy zero/small
                    1 => next() % 100_000,       // mid spread
                    _ => next(),                 // full u64 range
                })
                .collect();
            let h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            for p in [1, 25, 50, 75, 90, 95, 99, 100] {
                assert_eq!(
                    h.percentile(p),
                    oracle(&values, p),
                    "case {case} n {n} p {p}"
                );
            }
        }
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.total(), 0);
        assert!(h.nonzero().is_empty());
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.total(), 4000);
    }

    #[test]
    fn statement_aggregation_tracks_min_max_and_errors() {
        let r = StatsRegistry::new(true);
        for (us, err) in [(10, false), (500, true), (3, false)] {
            r.record_statement(&StatementSample {
                fingerprint: "SELECT ?".into(),
                micros: us,
                reads: 2,
                writes: 1,
                strategy: "transform".into(),
                error: err,
                refusals: 0,
                ..StatementSample::default()
            });
        }
        let snap = r.snapshot();
        assert_eq!(snap.statements.len(), 1);
        let s = &snap.statements[0];
        assert_eq!(s.query, "SELECT ?");
        assert_eq!(s.calls, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.min_us, 3);
        assert_eq!(s.max_us, 500);
        assert_eq!(s.total_us, 513);
        assert_eq!(s.reads, 6);
        assert_eq!(s.writes, 3);
        assert_eq!(s.strategy, "transform");
    }

    #[test]
    fn disabled_registry_collects_nothing() {
        let r = StatsRegistry::new(false);
        assert!(r.table("PARTS").is_none());
        r.record_statement(&StatementSample {
            fingerprint: "SELECT ?".into(),
            micros: 1,
            reads: 0,
            writes: 0,
            strategy: "ni".into(),
            error: false,
            refusals: 0,
            ..StatementSample::default()
        });
        let snap = r.snapshot();
        assert!(snap.tables.is_empty());
        assert!(snap.statements.is_empty());
        // Re-enable: collection resumes on the same registry.
        r.set_enabled(true);
        assert!(r.table("PARTS").is_some());
    }

    #[test]
    fn slow_log_is_a_ring_with_monotonic_seq() {
        let r = StatsRegistry::new(true);
        for i in 0..(SLOW_LOG_CAP as u64 + 5) {
            r.record_slow(SlowQuery {
                seq: 0,
                sql: format!("SELECT {i}"),
                fingerprint: "SELECT ?".into(),
                micros: i,
                strategy: "ni".into(),
                reads: 0,
                writes: 0,
                explain: vec![],
            });
        }
        let log = r.slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAP);
        assert_eq!(log[0].seq, 6); // oldest 5 evicted
        assert_eq!(log.last().unwrap().seq, SLOW_LOG_CAP as u64 + 5);
    }

    #[test]
    fn snapshot_json_round_trips_through_in_tree_parser() {
        let r = StatsRegistry::new(true);
        let t = r.table("PARTS").unwrap();
        t.scans.add(2);
        t.tuples_read.add(30);
        r.record_statement(&StatementSample {
            fingerprint: "SELECT PNUM FROM PARTS WHERE QOH = ?".into(),
            micros: 120,
            reads: 4,
            writes: 0,
            strategy: "nested-iteration".into(),
            error: false,
            refusals: 1,
            ..StatementSample::default()
        });
        let text = r.snapshot().to_json().to_string();
        let parsed = Json::parse(&text).expect("parse");
        let stmts = parsed.get("statements").and_then(Json::as_arr).expect("statements");
        assert_eq!(stmts.len(), 1);
        assert_eq!(
            stmts[0].get("query").and_then(Json::as_str),
            Some("SELECT PNUM FROM PARTS WHERE QOH = ?")
        );
        let tables = parsed.get("tables").and_then(Json::as_arr).expect("tables");
        assert_eq!(tables[0].get("table").and_then(Json::as_str), Some("PARTS"));
    }
}
