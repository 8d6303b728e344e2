//! An uncorrelated inner block is evaluated once per query, whatever its use
//! site: a scalar operand, an `IN` list, an `EXISTS` block, an `ANY` / `ALL`
//! block — and once per *query*, not per outer binding, when it sits inside
//! a correlated block. The four use sites share one helper; this pins the
//! rows and all four storage counters of each to constants taken at the
//! commit where the mark / recall / evaluate / store sequence was still
//! written out per use site. The constants are the paper's nested iteration, so the runs are under the
//! 1987 switch: by default the correlated block of the last statement probes
//! (`ni_probe_prop` holds that path to this one's rows).

use nsql_db::{Database, QueryOptions, Strategy};
use nsql_storage::IoSnapshot;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

const SCALAR: &str =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE EPOCH < 50)";
const IN_LIST: &str =
    "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE EPOCH < 3)";
const EXISTS: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND EXISTS \
    (SELECT QUAN FROM SUPPLY WHERE EPOCH = 3)";
const ANY: &str =
    "SELECT PNUM FROM PARTS WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE EPOCH < 10)";
/// The uncorrelated block sits inside a correlated one, which is evaluated
/// for each of the 20 `GRP = 0` parts.
const INSIDE_CORRELATED: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.EPOCH < \
    (SELECT MAX(S2.EPOCH) FROM SUPPLY S2 WHERE S2.QUAN = 1))";

/// `PARTS(PNUM, QOH, GRP)` × 200 and `SUPPLY(PNUM, QUAN, EPOCH)` × 300 from a
/// fixed LCG stream, on Kim-scale geometry (512-byte pages, `B = 6`).
fn database() -> Database {
    let mut x = 4242u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        Value::Int(((x >> 33) % m) as i64)
    };
    let int = |name: &str| Column::new(name, ColumnType::Int);
    let mut db = Database::with_storage(6, 512);
    let parts: Vec<Tuple> =
        (0..200i64).map(|p| Tuple::new(vec![Value::Int(p), next(8), Value::Int(p % 10)])).collect();
    let supply: Vec<Tuple> =
        (0..300).map(|_| Tuple::new(vec![next(200), next(8), next(100)])).collect();
    let cat = db.catalog_mut();
    cat.load_table(
        "PARTS",
        &Relation::new(Schema::new(vec![int("PNUM"), int("QOH"), int("GRP")]), parts).unwrap(),
    )
    .unwrap();
    cat.load_table(
        "SUPPLY",
        &Relation::new(Schema::new(vec![int("PNUM"), int("QUAN"), int("EPOCH")]), supply).unwrap(),
    )
    .unwrap();
    db
}

fn run(db: &Database, sql: &str) -> (usize, IoSnapshot) {
    let unnest = nsql_core::UnnestOptions::faithful();
    let strategy = Strategy::NestedIteration;
    let opts = QueryOptions { strategy, unnest, cold_start: true, ..Default::default() };
    let before = db.storage().io_snapshot();
    let out = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (out.relation.len(), db.storage().io_snapshot().since(&before))
}

fn snap(reads: u64, writes: u64, hits: u64, misses: u64) -> IoSnapshot {
    IoSnapshot { reads, writes, hits, misses }
}

#[test]
fn every_use_site_materialises_its_uncorrelated_block_once_per_query() {
    let db = database();
    let pages = |t: &str| db.catalog().table(t).unwrap().page_ids().len() as u64;
    let (parts, supply) = (pages("PARTS"), pages("SUPPLY"));

    // (statement, rows, nested-iteration delta)
    let pinned = [
        ("scalar", SCALAR, 31, snap(27, 0, 0, 27)),
        ("in", IN_LIST, 128, snap(28, 1, 199, 28)),
        ("exists", EXISTS, 20, snap(28, 1, 19, 28)),
        ("any", ANY, 169, snap(28, 1, 199, 28)),
        ("inside-correlated", INSIDE_CORRELATED, 1, snap(343, 0, 4, 343)),
    ];
    for (name, sql, rows, want) in pinned {
        assert_eq!(run(&db, sql), (rows, want), "{name}");
    }

    // What "once" means in page accesses: a scalar block costs one scan of
    // its table on top of the outer scan, and nothing per outer tuple;
    // inside a correlated block evaluated 20 times, the uncorrelated scan
    // is still paid once.
    let (_, scalar) = run(&db, SCALAR);
    assert_eq!(scalar.hits + scalar.misses, parts + supply);
    let (_, nested) = run(&db, INSIDE_CORRELATED);
    assert_eq!(nested.hits + nested.misses, parts + 20 * supply + supply);
}
