//! Morsel-parallel page mapping with serial-equivalent buffer behaviour.
//!
//! The paper's metric is counted page I/Os, so parallel operators must
//! reproduce the serial buffer-pool evolution exactly. The trick is the
//! **ordered-fetch cursor**: claiming a morsel and fetching its pages
//! through the buffer pool happen under one lock, so the global sequence
//! of buffer fetches is exactly the serial scan order (p0, p1, …) no
//! matter how workers interleave. CPU work on the fetched pages (predicate
//! evaluation, hashing, aggregation) runs outside the lock — that is where
//! the parallel speedup comes from. Per-morsel results land in an ordered
//! slot table, so concatenating them reproduces the serial output order
//! (and therefore identical output page packing and write counts).

use nsql_exec_par::{chunk_for, run_workers};
use nsql_obs::OpCounters;
use nsql_storage::{Page, PageId, Storage};
use std::sync::{Arc, Mutex, PoisonError};

/// Largest number of pages fetched per morsel claim. Small enough that the
/// fetch critical section stays short, large enough to amortize claiming.
const MAX_MORSEL_PAGES: usize = 8;

/// Map `work` over `pages` in morsels on `threads` workers, returning the
/// per-morsel results in morsel (= page) order.
///
/// `work(morsel_index, pages)` must be a pure function of the fetched pages
/// (no storage access!) — all buffered I/O happens inside the cursor so the
/// buffer sees the serial access order.
///
/// When `op` is set, each claim bumps its per-worker morsel counter —
/// outside the cursor lock, on side-state relaxed atomics, so the fetch
/// order and I/O accounting are untouched.
pub(crate) fn par_map_pages<R, F>(
    storage: &Storage,
    pages: &[PageId],
    threads: usize,
    op: Option<&OpCounters>,
    work: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &[Arc<Page>]) -> R + Sync,
{
    let chunk = chunk_for(pages.len(), threads, MAX_MORSEL_PAGES);
    let n_morsels = pages.len().div_ceil(chunk);
    let slots: Vec<Mutex<Option<R>>> = (0..n_morsels).map(|_| Mutex::new(None)).collect();
    let cursor = Mutex::new(0usize);
    run_workers(threads.min(n_morsels.max(1)), |w| loop {
        // Claim AND fetch under the cursor lock: buffer fetch order equals
        // the serial scan order.
        let (morsel, fetched) = {
            let mut next = cursor.lock().unwrap_or_else(PoisonError::into_inner);
            let start = *next;
            if start >= pages.len() {
                return;
            }
            let end = (start + chunk).min(pages.len());
            *next = end;
            let fetched: Vec<Arc<Page>> =
                pages[start..end].iter().map(|&id| storage.read_page(id)).collect();
            (start / chunk, fetched)
        };
        if let Some(op) = op {
            op.morsels.add(w, 1);
        }
        let r = work(morsel, &fetched);
        *slots[morsel].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every morsel below the cursor was claimed and finished")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

    #[test]
    fn parallel_page_map_matches_serial_buffer_trace() {
        let rows: Vec<Tuple> = (0..500).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let schema = Schema::new(vec![Column::new("A", ColumnType::Int)]);

        let mk = || {
            let st = Storage::new(4, 128);
            let f = nsql_storage::HeapFile::from_tuples(&st, schema.clone(), rows.clone());
            st.clear_buffer();
            st.reset_stats();
            (st, f)
        };

        // Serial reference: one buffered pass.
        let (serial, fs) = mk();
        let mut want_sums = Vec::new();
        for &id in fs.page_ids() {
            let p = serial.read_page(id);
            want_sums.push(
                p.tuples()
                    .iter()
                    .map(|t| match t.get(0) {
                        Value::Int(i) => *i,
                        _ => 0,
                    })
                    .sum::<i64>(),
            );
        }

        let (par, fp) = mk();
        let got = par_map_pages(&par, fp.page_ids(), 4, None, |_m, pages| {
            pages
                .iter()
                .flat_map(|p| p.tuples())
                .map(|t| match t.get(0) {
                    Value::Int(i) => *i,
                    _ => 0,
                })
                .sum::<i64>()
        });
        // Per-morsel sums regroup the per-page sums in order.
        let chunk = chunk_for(fp.page_ids().len(), 4, 8);
        let want: Vec<i64> = want_sums.chunks(chunk).map(|c| c.iter().sum()).collect();
        assert_eq!(got, want);
        assert_eq!(par.io_stats(), serial.io_stats(), "identical read totals");
        assert_eq!(par.buffer_stats(), serial.buffer_stats(), "identical hit/miss split");
    }
}
