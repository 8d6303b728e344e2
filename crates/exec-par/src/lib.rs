#![warn(missing_docs)]

//! Scoped worker pool and morsel dispatcher for parallel query execution.
//!
//! Morsel-driven parallelism (Leis et al.): work is split into small
//! fixed-size chunks ("morsels") that idle workers claim from a shared
//! atomic dispatcher. There is no per-operator thread topology — every
//! worker runs the same pipeline over whichever morsels it wins, so load
//! balances automatically even when per-morsel cost is skewed (e.g. one
//! outer page whose tuples all pass the simple predicate).
//!
//! Built on `std::thread::scope` only — no external dependencies. Worker 0
//! runs on the calling thread, so `run_workers(1, f)` spawns nothing and
//! is an ordinary function call.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The worker count and whether the environment named it, resolved once per
/// process — every statement whose options leave the count open asks, and
/// neither answer changes after start.
fn resolved() -> (usize, bool) {
    static THREADS: OnceLock<(usize, bool)> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("NSQL_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, true),
            _ => panic!("bad NSQL_THREADS: {v:?} (want a positive integer)"),
        },
        Err(_) => (std::thread::available_parallelism().map_or(1, |n| n.get()), false),
    })
}

/// Resolve the thread count from the environment: `NSQL_THREADS` if set
/// (must parse as a positive integer), else `std::thread::available_parallelism`.
pub fn threads_from_env() -> usize {
    resolved().0
}

/// Whether [`threads_from_env`] answers with a count the environment named
/// (`NSQL_THREADS` is set). A named count is an order; the machine's
/// parallelism is only what is there to use, and a caller may treat it as a
/// budget.
pub fn threads_named() -> bool {
    resolved().1
}

/// Run `f(worker_index)` on `threads` workers and wait for all of them.
///
/// Worker 0 executes on the calling thread; workers `1..threads` are scoped
/// std threads. A panic on any worker propagates to the caller once every
/// worker has finished. `threads <= 1` degenerates to a plain call `f(0)`.
pub fn run_workers<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if threads <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || f(w))).collect();
        f(0);
        for h in handles {
            // Re-raise worker panics on the caller.
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    });
}

/// Chunked atomic morsel dispatcher over the index range `0..total`.
///
/// Workers call [`Morsels::claim`] in a loop; each claim hands back a
/// disjoint `Range<usize>` of at most `chunk` indices, in ascending order
/// of starting index, until the range is exhausted. A single fetch-add is
/// the only synchronization, so claiming is contention-free in practice.
#[derive(Debug)]
pub struct Morsels {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl Morsels {
    /// Dispatcher over `0..total` in chunks of `chunk` (minimum 1).
    pub fn new(total: usize, chunk: usize) -> Morsels {
        Morsels { next: AtomicUsize::new(0), total, chunk: chunk.max(1) }
    }

    /// Claim the next morsel, or `None` once the range is exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.chunk).min(self.total))
    }

    /// Number of morsels this dispatcher will hand out in total.
    pub fn morsel_count(&self) -> usize {
        self.total.div_ceil(self.chunk)
    }

    /// The chunk size (indices per morsel, except possibly the last).
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

/// Pick a morsel chunk size: aim for several morsels per worker (for load
/// balancing) while capping per-claim overhead, clamped to `1..=max_chunk`.
pub fn chunk_for(total: usize, threads: usize, max_chunk: usize) -> usize {
    (total / (threads.max(1) * 4)).clamp(1, max_chunk.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn morsels_cover_range_without_overlap() {
        let m = Morsels::new(103, 8);
        let mut seen = vec![false; 103];
        while let Some(r) = m.claim() {
            for i in r {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(Morsels::new(103, 8).morsel_count(), 13);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let m = Morsels::new(0, 4);
        assert!(m.claim().is_none());
        assert_eq!(m.morsel_count(), 0);
    }

    #[test]
    fn workers_collectively_drain_the_queue() {
        let m = Morsels::new(1000, 7);
        let sum = Mutex::new(0u64);
        run_workers(4, |_w| {
            let mut local = 0u64;
            while let Some(r) = m.claim() {
                local += r.map(|i| i as u64).sum::<u64>();
            }
            *sum.lock().unwrap() += local;
        });
        assert_eq!(*sum.lock().unwrap(), (0..1000u64).sum::<u64>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        run_workers(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn chunk_for_balances() {
        assert_eq!(chunk_for(0, 4, 8), 1);
        assert_eq!(chunk_for(100, 4, 8), 6);
        assert_eq!(chunk_for(10_000, 4, 8), 8);
    }
}
