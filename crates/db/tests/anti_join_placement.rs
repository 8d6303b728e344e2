//! Two anti-joins of one canonical query, placed by the lowering rather
//! than in the order NEST-G found them: the first reads a column of the
//! second FROM input, so it runs after the join with it, and the second,
//! which reads the first input only, runs before that join. On the memory
//! and the file store the rows are nested iteration's as a bag, and the
//! EXPLAIN lines and the four storage counters are the ones the executor
//! gave when it scheduled anti-joins at run time, but that each restricted
//! input streams into the hash pass that reads it: `SUPPLY` (12 pages) and
//! `S2` (11 pages) were written and read back for their partitioning
//! passes, and `S3` held for its table (236 r + 89 w). `SUPPLY` saves its
//! round trip; `S2`, priced at its bound, is the probe side of a pass built
//! on the 16-page join result, which costs 8 pages more than its round trip
//! and a pass built on its own 11 pages.

use nsql_db::{Database, QueryOptions};
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

const SQL: &str = "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY \
    WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 \
    AND SUPPLY.QUAN NOT IN \
        (SELECT S2.QUAN FROM SUPPLY S2 WHERE S2.PNUM = SUPPLY.PNUM AND S2.EPOCH >= 50) \
    AND NOT EXISTS \
        (SELECT S3.PNUM FROM SUPPLY S3 WHERE S3.PNUM = PARTS.PNUM AND S3.EPOCH > 95)";

/// The default path's EXPLAIN lines but the join choices' prices: `S3`
/// right after `PARTS`, `S2` after the join with `SUPPLY`.
const PINNED: [&str; 13] = [
    "strategy: transform (0 temp tables), join policy: cost-based",
    "plan shapes: restricted inputs",
    "NOT IN: anti-join with [SUPPLY], null-aware",
    "NOT EXISTS: anti-join with [SUPPLY]",
    "canonical: SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY \
     WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 \
     ANTI JOIN SUPPLY S2 ON S2.PNUM = SUPPLY.PNUM AND S2.EPOCH >= 50 \
     NULL-AWARE SUPPLY.QUAN = S2.QUAN \
     ANTI JOIN SUPPLY S3 ON S3.PNUM = PARTS.PNUM AND S3.EPOCH > 95",
    "restrict+project SUPPLY: 315 tuples, streamed into hash join (1 keys)",
    "restrict+project S3: 21 tuples, streamed into hash anti-join (1 keys)",
    "hash anti-join (1 keys), build right",
    "anti-join PARTS with S3: 380 tuples, 8 pages, written",
    "hash join (1 keys), build left, 2 partitions spilled, 2 of 8 pages resident",
    "join PARTS+SUPPLY: 299 tuples, 16 pages, written",
    "restrict+project S2: 285 tuples, streamed into hash anti-join (1 keys, null-aware)",
    "hash anti-join (1 keys, null-aware), build left, \
     4 partitions spilled, 0 of 16 pages resident",
];

/// A four-column integer relation.
fn relation(cols: [&str; 4], rows: &[[i64; 4]]) -> Relation {
    Relation::new(
        Schema::new(cols.iter().map(|c| Column::new(*c, ColumnType::Int)).collect()),
        rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Tuple>()).collect(),
    )
    .unwrap()
}

/// 400 parts and 600 shipments from a fixed LCG stream, at 512-byte pages
/// in a 6-page pool.
fn load(db: &mut Database) {
    let mut x = 12345u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) % m) as i64
    };
    let supply: Vec<[i64; 4]> = (0..600).map(|_| [next(400), next(8), next(100), 0]).collect();
    let parts: Vec<[i64; 4]> = (0..400).map(|p| [p, p % 7, p % 10, 0]).collect();
    let cat = db.catalog_mut();
    cat.load_table("PARTS", &relation(["PNUM", "QOH", "GRP", "SERIAL"], &parts)).unwrap();
    cat.load_table("SUPPLY", &relation(["PNUM", "QUAN", "EPOCH", "TAG"], &supply)).unwrap();
}

#[test]
fn an_anti_join_waits_for_the_input_whose_columns_it_reads() {
    let dir = TempDir::new("anti-join-placement");
    let mut mem = Database::with_storage(6, 512);
    let mut file = Database::open_with(6, 512, dir.path()).unwrap();
    for (backend, db) in [("memory", &mut mem), ("file", &mut file)] {
        load(db);
        let want = db.query_with(SQL, &QueryOptions::nested_iteration()).unwrap().relation;
        let opts = QueryOptions { cold_start: true, ..QueryOptions::default() };
        let before = db.storage().io_snapshot();
        let out = db.query_with(SQL, &opts).unwrap();
        let io = db.storage().io_snapshot().since(&before);
        let got = out.relation;
        assert!(!want.is_empty(), "{backend}: the statement must select something");
        assert!(got.same_bag(&want), "{backend}\nnested iteration:\n{want}\ndefault:\n{got}");
        // Prices follow `cost::PRICES`; the rest is pinned.
        let lines: Vec<&str> = out
            .explain
            .iter()
            .map(String::as_str)
            .filter(|l| !l.starts_with("join choice: "))
            .collect();
        assert_eq!(lines, PINNED, "{backend}");
        assert_eq!(io, IoSnapshot { reads: 228, writes: 81, hits: 0, misses: 171 }, "{backend}");
    }
}
