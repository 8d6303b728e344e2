//! Concurrency smoke test: many threads hammer one shared `Storage` with
//! page reads. The test passing at all shows no deadlock; the assertions
//! check that the hit+miss ledger stays consistent under contention and
//! that the pool never holds more frames than it has.

use nsql_storage::Storage;
use nsql_types::{Tuple, Value};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 4_000;
const PAGES: usize = 64;
const CAPACITY: usize = 8;

/// Tiny deterministic PRNG (xorshift64*) so the schedule is seed-stable
/// per thread even though interleaving is not.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

#[test]
fn threads_hammering_shared_storage() {
    let st = Storage::new(CAPACITY, 512);
    let ids: Vec<_> = (0..PAGES)
        .map(|i| st.write_new_page(vec![Tuple::new(vec![Value::Int(i as i64)])]))
        .collect();
    st.reset_stats();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let st = st.clone();
            let ids = &ids;
            s.spawn(move || {
                let mut rng = Rng(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                for op in 0..OPS_PER_THREAD {
                    let id = ids[(rng.next() as usize) % PAGES];
                    let p = st.read_page(id);
                    assert_eq!(p.len(), 1);
                    if op % 512 == 0 {
                        assert!(st.resident_pages() <= CAPACITY, "the pool grew mid-flight");
                    }
                }
            });
        }
    });

    // Ledger consistency: every buffered access is exactly one hit or one
    // miss, and every miss cost exactly one disk read.
    let (hits, misses) = st.buffer_stats();
    let io = st.io_stats();
    assert_eq!(hits + misses, (THREADS * OPS_PER_THREAD) as u64, "one ledger entry per read");
    assert_eq!(io.reads, misses, "each miss reads exactly one page");
    assert_eq!(io.writes, 0);
    assert!(hits > 0, "with 64 pages over an 8-frame pool some reads must hit");
    assert!(misses > 0, "with 64 pages over an 8-frame pool some reads must miss");
    assert!(st.resident_pages() <= CAPACITY);
}
