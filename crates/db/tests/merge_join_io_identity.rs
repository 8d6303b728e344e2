//! Shared rows and the in-place sort / merge-join kernels change CPU only:
//! the rows (in delivery order) and all four storage counters (page reads,
//! page writes, buffer hits, buffer misses) of every statement shape whose
//! plan sorts and merge-joins equal constants pinned from the commit
//! *before* rows were shared — under the cost-based policy and with the
//! merge join forced everywhere, serial and on two threads, on the memory
//! and the file store.

use nsql_db::{Database, JoinPolicy, QueryOptions};
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

const PARTS: i64 = 400;
const SUPPLY: usize = 600;

const N: &str = "SELECT PNUM FROM PARTS WHERE SERIAL IN (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)";
const J: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
const JA_COUNT: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
const ML3: &str = "SELECT PNUM FROM PARTS WHERE QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.EPOCH IN \
    (SELECT S2.EPOCH FROM SUPPLY S2 WHERE S2.PNUM = SUPPLY.PNUM AND S2.QUAN < 10))";
const FLAT_JOIN: &str = "SELECT PARTS.GRP, COUNT(SUPPLY.QUAN) FROM PARTS, SUPPLY \
    WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 GROUP BY PARTS.GRP";

/// `PARTS(PNUM, QOH, GRP, SERIAL)` and `SUPPLY(PNUM, QUAN, EPOCH, TAG)` from
/// a fixed LCG stream; every twentieth `QUAN` is `NULL`, so sort keys and
/// join keys meet `NULL`s.
fn load(db: &mut Database) {
    let mut x = 20260929u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) % m) as i64
    };
    let int = |name: &str| Column::new(name, ColumnType::Int);
    let parts: Vec<Tuple> = (0..PARTS)
        .map(|p| {
            let row = [p, next(6), p % 10, next(3 * PARTS as u64)];
            row.into_iter().map(Value::Int).collect()
        })
        .collect();
    let supply: Vec<Tuple> = (0..SUPPLY)
        .map(|i| {
            let (pnum, quan, epoch, tag) = (next(PARTS as u64), next(6), next(100), next(1200));
            let quan = if i % 20 == 7 { Value::Null } else { Value::Int(quan) };
            Tuple::new(vec![Value::Int(pnum), quan, Value::Int(epoch), Value::Int(tag)])
        })
        .collect();
    let parts_schema = Schema::new(vec![int("PNUM"), int("QOH"), int("GRP"), int("SERIAL")]);
    let supply_schema = Schema::new(vec![int("PNUM"), int("QUAN"), int("EPOCH"), int("TAG")]);
    let cat = db.catalog_mut();
    cat.load_table("PARTS", &Relation::new(parts_schema, parts).unwrap()).unwrap();
    cat.load_table("SUPPLY", &Relation::new(supply_schema, supply).unwrap()).unwrap();
}

/// FNV-1a over the rendered rows, in delivery order.
fn digest(rel: &Relation) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for t in rel.tuples() {
        for b in t.to_string().bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// What one cold-started run leaves observable, and its merge-join count.
#[derive(Debug, PartialEq)]
struct Pinned {
    rows: usize,
    digest: u64,
    io: IoSnapshot,
}

fn run(db: &Database, sql: &str, policy: JoinPolicy, threads: usize) -> (Pinned, usize) {
    let opts = QueryOptions { join_policy: policy, threads, ..QueryOptions::transformed() };
    let before = db.storage().io_snapshot();
    let out = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let io = db.storage().io_snapshot().since(&before);
    let merge_joins = out.explain.iter().filter(|l| l.starts_with("merge join")).count();
    (Pinned { rows: out.relation.len(), digest: digest(&out.relation), io }, merge_joins)
}

fn pin(rows: usize, digest: u64, io: [u64; 4]) -> Pinned {
    let [reads, writes, hits, misses] = io;
    Pinned { rows, digest, io: IoSnapshot { reads, writes, hits, misses } }
}

/// Kim-scale geometry (512-byte pages, `B = 6`: every sort of a base table
/// needs merge passes) on both backends.
fn backends() -> Vec<(&'static str, Database, Option<TempDir>)> {
    let mut mem = Database::with_storage(6, 512);
    load(&mut mem);
    let dir = TempDir::new("merge-join-io-identity");
    let mut file = Database::open_with(6, 512, dir.path()).unwrap();
    load(&mut file);
    vec![("memory", mem, None), ("file", file, Some(dir))]
}

#[test]
fn sort_merge_statements_keep_rows_order_and_all_four_counters() {
    use JoinPolicy::{CostBased, ForceMergeJoin};
    // (statement, policy, merge joins in the plan, what the parent commit
    // delivered). `ja_count`'s cost-based merge join is NEST-JA2 step 2b,
    // TEMP1 LEFT OUTER JOIN TEMP2.
    let cases = [
        ("n", N, CostBased, 1, pin(74, 17996336388470983972, [241, 174, 0, 67])),
        ("n", N, ForceMergeJoin, 1, pin(74, 17996336388470983972, [241, 174, 0, 67])),
        ("j", J, CostBased, 1, pin(14, 4900679159351426149, [241, 174, 0, 67])),
        ("j", J, ForceMergeJoin, 1, pin(14, 4900679159351426149, [241, 174, 0, 67])),
        ("ja_count", JA_COUNT, CostBased, 1, pin(4, 10205813287321647981, [133, 39, 798, 110])),
        ("ja_count", JA_COUNT, ForceMergeJoin, 2, pin(4, 10205813287321647981, [189, 95, 0, 110])),
        ("ml3", ML3, CostBased, 2, pin(108, 18087156695720436538, [449, 342, 0, 123])),
        ("ml3", ML3, ForceMergeJoin, 2, pin(108, 18087156695720436538, [449, 342, 0, 123])),
        ("flat_join", FLAT_JOIN, CostBased, 1, pin(10, 16607894294416972906, [413, 346, 0, 110])),
        ("flat_join", FLAT_JOIN, ForceMergeJoin, 1, pin(10, 16607894294416972906, [413, 346, 0, 110])),
    ];
    let mut wrong = Vec::new();
    for (backend, db, _dir) in backends() {
        for (name, sql, policy, merge_joins, at_parent) in &cases {
            for threads in [1, 2] {
                let (got, joins) = run(&db, sql, *policy, threads);
                if (&got, joins) != (at_parent, *merge_joins) {
                    wrong.push(format!(
                        "{name} {policy:?} threads={threads} on {backend}: \
                         {joins} merge joins, {got:?}"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "differs from the pinned constants:\n{}", wrong.join("\n"));
}
