#![warn(missing_docs)]

//! A scoped worker pool and the `NSQL_THREADS` reading, kept only for the
//! standalone `benchmark/` package.
//!
//! The engine runs every operator serially and calls nothing here
//! (DESIGN.md "Execution is serial"). The benchmark's `exec-par.*` probes
//! still time a dispatch and a fan-out through [`run_workers`] and report
//! [`threads_from_env`]; the crate goes once the benchmark stops calling
//! them (ROADMAP.md item 1).
//!
//! Built on `std::thread::scope` only — no external dependencies. Worker 0
//! runs on the calling thread, so `run_workers(1, f)` spawns nothing and
//! is an ordinary function call.

use std::sync::OnceLock;

/// Resolve the thread count from the environment: `NSQL_THREADS` if set
/// (must parse as a positive integer), else `std::thread::available_parallelism`.
/// Resolved once per process.
pub fn threads_from_env() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("NSQL_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("bad NSQL_THREADS: {v:?} (want a positive integer)"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_worker_runs_once() {
        let sum = AtomicU64::new(0);
        run_workers(4, |w| {
            sum.fetch_add(1 << w, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        run_workers(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }
}
