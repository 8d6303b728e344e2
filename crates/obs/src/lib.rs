#![warn(missing_docs)]

//! Zero-dependency observability layer: one profile per query, the
//! cumulative statistics it feeds, and a JSON exporter.
//!
//! The paper states every claim in counted page I/Os, so the one hard rule
//! of this crate is that **observing a query must not change what is
//! observed**: collection only ever *loads* the engine's I/O counters
//! (never mutates them), all of its own counters live on the side, and
//! every collection point is behind a single branch that disabled-mode
//! skips. `crates/bench/tests/obs_prop.rs` proves the invariant end to end
//! (obs on vs off, byte-identical I/O and results).
//!
//! * [`profile::Profile`] — the per-query recorder: one tree of nodes for
//!   the query lifecycle (parse → analyze → transform steps → execute)
//!   whose leaves are the physical operators. Every node carries wall time
//!   and, through a caller-supplied probe, the page-I/O delta it covered;
//!   operator nodes add rows in/out and build/probe timings on
//!   relaxed atomics. Children never sum to
//!   more than their parent, so per-step page I/O can be read off the tree.
//! * [`stats`] — the cumulative, engine-wide layer the statements feed
//!   once they complete: per-table and per-fingerprint counters,
//!   latency histograms and the slow-query log behind the `nsql_stat_*`
//!   views.
//! * [`json`] — a minimal JSON value type with a writer *and* parser, so
//!   exporters and their schema checks share one in-tree implementation.

pub mod json;
pub mod profile;
pub mod stats;

pub use json::Json;
pub use profile::{Counter, IoDelta, OpCounters, OpStats, Profile, ProfileNode};
pub use stats::{
    LatencyHistogram, SlowQuery, StatementSample,
    StatementSnapshot, StatementStats, StatsRegistry, StatsSnapshot, TableCounters,
    TableSnapshot, SLOW_LOG_CAP,
};
