//! The key-indexed nested-loop join changes CPU only: rows and all four
//! storage counters (page reads, page writes, buffer hits, buffer misses)
//! of every statement that runs a nested-loop join equal constants pinned
//! from the commit *before* the inner index existed — under the cost-based
//! policy (which picks the nested loop for NEST-JA2's small back-join) and
//! with the nested loop forced everywhere, on the memory and the file store.

use nsql_db::{Database, JoinPolicy, QueryOptions};
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

const PARTS: i64 = 400;
const SUPPLY: usize = 600;

const JA_COUNT: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
const JA_MAX: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
const STATIC_N: &str = "SELECT PNUM FROM PARTS WHERE PARTS.GRP IN \
    (SELECT VENDOR.GRP FROM VENDOR WHERE VENDOR.RATING = 4)";

/// `SUPPLY(PNUM, QUAN, EPOCH)` rows from a fixed LCG stream.
fn supply_rows() -> Vec<[i64; 3]> {
    let mut x = 12345u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) % m) as i64
    };
    (0..SUPPLY).map(|_| [next(PARTS as u64), next(8), next(100)]).collect()
}

/// `(count, max)` of `QUAN` over one part's shipments with `EPOCH < 50`.
fn early_shipments(supply: &[[i64; 3]], pnum: i64) -> (i64, Option<i64>) {
    let quans = supply.iter().filter(|s| s[0] == pnum && s[2] < 50).map(|s| s[1]);
    (quans.clone().count() as i64, quans.max())
}

/// `PARTS(PNUM, QOH, GRP)`: a third of the parts carry their early-shipment
/// count as `QOH`, a third the maximum quantity, so neither JA statement
/// answers with the empty set.
fn parts_rows(supply: &[[i64; 3]]) -> Vec<[i64; 3]> {
    (0..PARTS)
        .map(|p| {
            let (count, max) = early_shipments(supply, p);
            let qoh = match p % 3 {
                0 => count,
                1 => max.unwrap_or(0),
                _ => p % 6,
            };
            [p, qoh, p % 10]
        })
        .collect()
}

/// `VENDOR(VNUM, GRP, RATING)`.
fn vendor_rows() -> Vec<[i64; 3]> {
    (0..50).map(|v| [v, v % 10, v % 5]).collect()
}

fn relation(cols: [&str; 3], rows: &[[i64; 3]]) -> Relation {
    Relation::new(
        Schema::new(cols.iter().map(|c| Column::new(*c, ColumnType::Int)).collect()),
        rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Tuple>()).collect(),
    )
    .unwrap()
}

fn load(db: &mut Database) {
    let supply = supply_rows();
    let cat = db.catalog_mut();
    cat.load_table("PARTS", &relation(["PNUM", "QOH", "GRP"], &parts_rows(&supply))).unwrap();
    cat.load_table("SUPPLY", &relation(["PNUM", "QUAN", "EPOCH"], &supply)).unwrap();
    cat.load_table("VENDOR", &relation(["VNUM", "GRP", "RATING"], &vendor_rows())).unwrap();
}

/// Reference answers, straight from the generated rows.
fn expected(sql: &str) -> Vec<i64> {
    let supply = supply_rows();
    let parts = parts_rows(&supply);
    let keep = |p: &[i64; 3]| -> bool {
        let (count, max) = early_shipments(&supply, p[0]);
        match sql {
            JA_COUNT => p[2] == 0 && p[1] == count,
            JA_MAX => p[2] == 0 && Some(p[1]) == max,
            STATIC_N => vendor_rows().iter().any(|v| v[2] == 4 && v[1] == p[2]),
            other => panic!("no reference for {other}"),
        }
    };
    parts.iter().filter(|p| keep(p)).map(|p| p[0]).collect()
}

/// Sorted `PNUM`s, the four-counter delta and the EXPLAIN lines of one
/// cold-started transformed run.
fn run(db: &Database, sql: &str, policy: JoinPolicy) -> (Vec<i64>, IoSnapshot, Vec<String>) {
    let opts = QueryOptions { join_policy: policy, ..QueryOptions::transformed() };
    let before = db.storage().io_snapshot();
    let out = db.query_with(sql, &opts).unwrap();
    let io = db.storage().io_snapshot().since(&before);
    let mut rows: Vec<i64> = out
        .relation
        .tuples()
        .iter()
        .map(|t| match t.get(0) {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect();
    rows.sort_unstable();
    // NEST-N-J may repeat an outer tuple per inner match; the set is the answer.
    rows.dedup();
    (rows, io, out.explain)
}

fn snap(reads: u64, writes: u64, hits: u64, misses: u64) -> IoSnapshot {
    IoSnapshot { reads, writes, hits, misses }
}

/// Kim-scale geometry (512-byte pages, `B = 6`) on both backends.
fn backends() -> Vec<(&'static str, Database, Option<TempDir>)> {
    let mut mem = Database::with_storage(6, 512);
    load(&mut mem);
    let dir = TempDir::new("nl-join-io-identity");
    let mut file = Database::open_with(6, 512, dir.path()).unwrap();
    load(&mut file);
    vec![("memory", mem, None), ("file", file, Some(dir))]
}

#[test]
fn nested_loop_statements_keep_rows_and_all_four_counters() {
    // (statement, policy, nested-loop joins in the plan, counters at the
    // parent commit). Under the cost-based policy the nested loop is the
    // back-join only (TEMP3 fits in B-1 pages); forced, it also runs the
    // step-2b outer join, whose 12-page inner thrashes the 6-page pool.
    let cases = [
        ("ja_count", JA_COUNT, JoinPolicy::CostBased, 1, snap(117, 42, 798, 92)),
        ("ja_count", JA_COUNT, JoinPolicy::ForceNestedLoop, 2, snap(562, 18, 798, 561)),
        ("ja_max", JA_MAX, JoinPolicy::CostBased, 1, snap(116, 41, 399, 91)),
        ("ja_max", JA_MAX, JoinPolicy::ForceNestedLoop, 2, snap(561, 17, 399, 560)),
        ("static_n", STATIC_N, JoinPolicy::CostBased, 1, snap(25, 0, 1197, 25)),
        ("static_n", STATIC_N, JoinPolicy::ForceNestedLoop, 1, snap(25, 0, 1197, 25)),
    ];
    for (backend, db, _dir) in backends() {
        for (name, sql, policy, nl_joins, io_at_parent) in &cases {
            let (rows, io, explain) = run(&db, sql, *policy);
            let at = format!("{name} {policy:?} on {backend}");
            assert_eq!(rows, expected(sql), "{at}");
            assert!(!rows.is_empty(), "{at}: the statement must select something");
            assert_eq!(
                explain.iter().filter(|l| l.starts_with("nested-loop join")).count(),
                *nl_joins,
                "{at}: {explain:#?}"
            );
            assert_eq!(io, *io_at_parent, "{at}");
        }
    }
}

/// NEST-JA2 step 2b in isolation: `TEMP1 LEFT OUTER JOIN TEMP2` forced to
/// the nested loop pads every part without an early shipment, so COUNT
/// answers 0 for it — the COUNT-bug fix must survive the inner index.
#[test]
fn forced_nested_loop_outer_join_still_counts_zero() {
    const ALL_PARTS: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
        (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
    let supply = supply_rows();
    let want: Vec<i64> = parts_rows(&supply)
        .iter()
        .filter(|p| p[1] == early_shipments(&supply, p[0]).0)
        .map(|p| p[0])
        .collect();
    let zero_count = want.iter().filter(|&&p| early_shipments(&supply, p).0 == 0).count();
    assert!(zero_count > 0, "the data must exercise the padded rows");
    for (backend, db, _dir) in backends() {
        let (rows, io, explain) = run(&db, ALL_PARTS, JoinPolicy::ForceNestedLoop);
        assert_eq!(rows, want, "{backend}");
        // The join line between the two materializations is step 2b's.
        let from = explain.iter().position(|l| l.starts_with("materialize TEMP2")).unwrap();
        let to = explain.iter().position(|l| l.starts_with("materialize TEMP3")).unwrap();
        assert!(
            explain[from..to]
                .contains(&"nested-loop join (1 equality keys folded into predicate)".to_string()),
            "{backend}: {explain:#?}"
        );
        assert_eq!(io, snap(10921, 72, 0, 10905), "{backend}");
    }
}
