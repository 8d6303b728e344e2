//! Name resolution is linear in the statement: resolving an n-deep chain of
//! correlated `IN` blocks allocates the same per block at 50 levels as at
//! 400. A resolver that copied the enclosing scopes into each block would
//! allocate per block in proportion to its depth.
//!
//! A counting global allocator counts the allocations of `validate_query`
//! alone, on the thread that calls it (parsing is done first). The chain is
//! built, resolved and dropped on a thread with a large stack, since every
//! walk over it recurses once per level.

use nsql_analyzer::{validate_query, SchemaSource};
use nsql_sql::parse_query;
use nsql_types::{ColumnType, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation meets the `GlobalAlloc` contract; the count is a side
// effect on an atomic and a thread-local flag, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct OneTable;

impl SchemaSource for OneTable {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        use ColumnType::Int;
        (table == "T").then(|| Schema::of_table("T", &[("A", Int), ("B", Int), ("C", Int)]))
    }
}

/// `n` blocks over `T`, each aliased apart, each but the root correlated
/// with its parent: `SELECT A FROM T T0 WHERE C > 0 AND A IN (SELECT A FROM
/// T T1 WHERE T1.B = T0.B AND A IN (…))`.
fn chain(n: usize) -> String {
    let mut sql = String::new();
    for i in 0..n {
        let outer = if i == 0 { String::new() } else { format!("T{i}.B = T{}.B AND ", i - 1) };
        sql.push_str(&format!("SELECT A FROM T T{i} WHERE {outer}C > {i}"));
        if i + 1 < n {
            sql.push_str(" AND A IN (");
        }
    }
    sql + &")".repeat(n - 1)
}

/// Allocations `validate_query` makes per block on an `n`-deep chain.
fn allocations_per_block(n: usize) -> f64 {
    let q = parse_query(&chain(n)).unwrap();
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let schema = validate_query(&OneTable, &q);
    COUNTING.with(|c| c.set(false));
    assert_eq!(schema.unwrap().arity(), 3);
    ALLOCATIONS.load(Ordering::Relaxed) as f64 / n as f64
}

#[test]
fn resolution_allocates_the_same_per_block_at_any_depth() {
    let worker = std::thread::Builder::new().stack_size(256 << 20);
    let (shallow, deep) = worker
        .spawn(|| (allocations_per_block(50), allocations_per_block(400)))
        .unwrap()
        .join()
        .unwrap();
    assert!(
        deep <= 1.5 * shallow && shallow <= 1.5 * deep,
        "{shallow:.1} allocations per block at 50 levels, {deep:.1} at 400"
    );
}
