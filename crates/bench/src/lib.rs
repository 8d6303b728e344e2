#![warn(missing_docs)]

//! Experiment harness: every figure and table of the paper as a function
//! from a [`RunConfig`] to text ([`figures`]), the workload generators they
//! run on ([`workload`]), and one thin binary per figure that prints the
//! default configuration's rendering.
//!
//! Workloads are scaled to Kim's configurations: the inner relation is
//! ~100 pages, the outer a few dozen, the buffer 6 pages, and the outer
//! simple predicate selects ≈`f(i)·Ni = 100` tuples — the setting in which
//! Kim reports 10 220 / 10 120 / 3 050 page I/Os for nested iteration
//! (Figure 1).

pub mod figures;
pub mod workload;

pub use workload::{ja_workload, Workload, WorkloadSpec};

use nsql_db::{Database, QueryOptions};
use nsql_engine::Exec;
use nsql_storage::{IoStats, Storage};
use nsql_types::Relation;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Names the file-backed databases of a run apart (see
/// [`RunConfig::data_dir`]).
static NEXT_DATABASE: AtomicU64 = AtomicU64::new(0);

/// Everything a figure run may vary. The published numbers are those of
/// [`RunConfig::default`]; `tests/figures_identity.rs` renders every figure
/// under the other engine configurations and expects the same bytes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The options every query of the run starts from: worker threads,
    /// exec mode, cache mode and so on. A figure pins what it measures on
    /// top of these through [`RunConfig::opts`].
    pub base: QueryOptions,
    /// Where the run's databases live: each one a file-backed store in a
    /// subdirectory of its own under this directory (the caller removes
    /// it), or in memory when `None`.
    pub data_dir: Option<PathBuf>,
    /// Whether the databases' statistics registries collect.
    pub stats: bool,
    /// Workload seed ([`workload::DEFAULT_SEED`] for the published numbers).
    pub seed: u64,
}

impl Default for RunConfig {
    /// The configuration of record: serial, in memory, statistics on, seed
    /// 42, every other option at its default.
    fn default() -> Self {
        RunConfig {
            base: QueryOptions { threads: 1, ..QueryOptions::default() },
            data_dir: None,
            stats: true,
            seed: workload::DEFAULT_SEED,
        }
    }
}

impl RunConfig {
    /// The default configuration with the workload seed taken from the
    /// process's first command-line argument, when there is one — what the
    /// seeded figure binaries run.
    pub fn from_args() -> RunConfig {
        let mut cfg = RunConfig::default();
        if let Some(arg) = std::env::args().nth(1) {
            cfg.seed = arg.parse().unwrap_or_else(|_| {
                eprintln!("bad workload seed {arg:?} (want an unsigned integer)");
                std::process::exit(2);
            });
        }
        cfg
    }

    /// An empty database of the default geometry (`B = 6`, 512-byte pages).
    pub fn database(&self) -> Database {
        self.database_with(nsql_storage::DEFAULT_BUFFER_PAGES, nsql_storage::DEFAULT_PAGE_SIZE)
    }

    /// An empty database with an explicit buffer and page size, on the
    /// configured store.
    pub fn database_with(&self, buffer_pages: usize, page_size: usize) -> Database {
        let db = match &self.data_dir {
            None => Database::with_storage(buffer_pages, page_size),
            Some(root) => {
                let n = NEXT_DATABASE.fetch_add(1, Ordering::Relaxed);
                Database::open_with(buffer_pages, page_size, &root.join(format!("db{n}")))
                    .unwrap_or_else(|e| panic!("cannot open a store under {}: {e}", root.display()))
            }
        };
        db.stats().set_enabled(self.stats);
        db
    }

    /// The seeded PARTS/SUPPLY workload of `spec` on the configured store.
    pub fn workload(&self, spec: WorkloadSpec) -> Workload {
        workload::load(self.database_with(spec.buffer_pages, spec.page_size), spec, self.seed)
    }

    /// The options of one measured query: the figure's `pinned` strategy,
    /// join policy, unnesting variant and cold start; the rest from
    /// [`RunConfig::base`].
    pub fn opts(&self, pinned: QueryOptions) -> QueryOptions {
        QueryOptions {
            strategy: pinned.strategy,
            join_policy: pinned.join_policy,
            unnest: pinned.unnest,
            cold_start: pinned.cold_start,
            ..self.base.clone()
        }
    }

    /// An operator executor for the figures that drive a plan by hand, at
    /// the base options' thread count and exec mode.
    pub fn exec(&self, storage: &Storage) -> Exec {
        Exec::with_requested_threads(storage.clone(), self.base.threads)
            .with_vectorized(self.base.exec_mode.vectorized())
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy label.
    pub label: String,
    /// Page I/Os.
    pub io: IoStats,
    /// Result rows (for cross-checking between strategies).
    pub relation: Relation,
}

/// Run `sql` under `opts` and collect the measurement.
///
/// Under a caching mode the statement runs twice and the second run, whose
/// every cacheable piece is an exact hit, is the one reported: a hit
/// recharges the page events of the evaluation it stands for, so its
/// counted I/O must be that of the uncached run. A single run would only
/// ever populate the cache — the figures run each statement once per
/// database, mostly over unique bindings.
pub fn measure(db: &Database, sql: &str, label: &str, opts: &QueryOptions) -> Measurement {
    let run = || {
        db.query_with(sql, opts)
            .unwrap_or_else(|e| panic!("query failed under {label}: {e}\n{sql}"))
    };
    if opts.cache.enabled() {
        run();
    }
    let out = run();
    Measurement { label: label.to_string(), io: out.io, relation: out.relation }
}

/// Percentage saved by `new` relative to `baseline` (the paper's headline
/// metric: "cost savings of 80% to 95% are possible").
pub fn savings(baseline: &Measurement, new: &Measurement) -> f64 {
    1.0 - new.io.total() as f64 / baseline.io.total() as f64
}

/// Append a simple aligned table to `out`: title, header, rows of cells
/// and a blank line.
pub fn table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    out.push_str(&format!("── {title}\n"));
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut line = |cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("  {:<w$}", c, w = widths[i]));
        }
        out.push('\n');
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_math() {
        let base = Measurement {
            label: "a".into(),
            io: IoStats { reads: 90, writes: 10 },
            relation: Relation::empty(Default::default()),
        };
        let new = Measurement {
            label: "b".into(),
            io: IoStats { reads: 10, writes: 10 },
            relation: Relation::empty(Default::default()),
        };
        assert!((savings(&base, &new) - 0.8).abs() < 1e-9);
    }
}
