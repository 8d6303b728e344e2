//! Bind-once nested iteration changes CPU only: rows and all four storage
//! counters (page reads, page writes, buffer hits, buffer misses) of every
//! statement shape nested iteration serves equal constants pinned from the
//! commit *before* name resolution left the per-tuple loop — under
//! `Strategy::NestedIteration` (row and vector kernels), at one and two
//! threads, on the memory and the file store. An error raised inside the binding loop surfaces with the same
//! value after the same counter delta.
//!
//! The constants are the paper's nested iteration — every page of the inner
//! relation for every qualifying outer tuple — so every run is under the
//! 1987 switch. What the default path does to the same statements, where a
//! correlated block may probe a B+tree instead, is pinned in
//! `default_path_io` and held to these rows by `ni_probe_prop`.

use nsql_db::{Database, ExecMode, QueryOptions, Strategy};
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

const PARTS: i64 = 200;
const SUPPLY: usize = 300;
const DUP_DISTINCT_PNUM: i64 = 8;

const J_NOTIN: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH NOT IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
const JA_OR: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY \
    WHERE SUPPLY.PNUM = PARTS.PNUM OR SUPPLY.TAG = PARTS.SERIAL)";
/// Uncorrelated: the `IN` list is materialised once and rescanned per test.
const TYPE_N: &str =
    "SELECT PNUM FROM PARTS WHERE SERIAL IN (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)";
/// Type-J inside type-J, depth 3, no outer simple predicate.
const ML3: &str = "SELECT PNUM FROM PARTS WHERE QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.EPOCH IN \
    (SELECT S2.EPOCH FROM SUPPLY S2 WHERE S2.PNUM = SUPPLY.PNUM AND S2.QUAN < 6))";
/// Inner block over a two-file FROM product, correlated through both files.
const TWO_TABLE_INNER: &str = "SELECT PNUM FROM PARTS WHERE GRP < 2 AND QOH IN \
    (SELECT SUPPLY.QUAN FROM SUPPLY, VENDOR WHERE SUPPLY.PNUM = PARTS.PNUM \
    AND VENDOR.GRP = PARTS.GRP AND VENDOR.RATING <= SUPPLY.QUAN)";
/// Grouped aggregate inner block: one row per shipment epoch band.
const GROUPED_INNER: &str = "SELECT PNUM FROM PARTS WHERE GRP < 3 AND QOH IN \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM GROUP BY BAND)";
/// `BAD.PNUM` holds a string on the third page of `BAD`: the inner block's
/// first simple conjunct raises there, on the first qualifying outer tuple.
const ERROR_ON_THIRD_PAGE: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
    (SELECT QUAN FROM BAD WHERE BAD.PNUM = PARTS.PNUM AND BAD.QUAN > 0)";

fn dup(sql: &str) -> String {
    sql.replace("PARTS", "PARTS_D")
        .replace("SUPPLY", "SUPPLY_D")
}

/// `SUPPLY(PNUM, QUAN, EPOCH, TAG, BAND)` rows from a fixed LCG stream; every
/// 29th `QUAN` is NULL (a NULL in a `NOT IN` list makes the test UNKNOWN).
fn supply_rows(distinct_pnum: i64) -> Vec<[Option<i64>; 5]> {
    let mut x = 12345u64;
    let mut next = |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % m) as i64
    };
    (0..SUPPLY)
        .map(|i| {
            let (pnum, quan, epoch) = (next(distinct_pnum as u64), next(8), next(100));
            let quan = (i % 29 != 0).then_some(quan);
            [
                Some(pnum),
                quan,
                Some(epoch),
                Some(1000 + next(2 * PARTS as u64)),
                Some(epoch / 25),
            ]
        })
        .collect()
}

/// `PARTS(PNUM, QOH, GRP, SERIAL)`: every third part carries its shipment
/// count as `QOH`, so the COUNT shapes do not answer with the empty set.
fn parts_rows(supply: &[[Option<i64>; 5]], distinct_pnum: i64) -> Vec<[Option<i64>; 4]> {
    (0..PARTS)
        .map(|p| {
            let pnum = p % distinct_pnum;
            let shipped = supply
                .iter()
                .filter(|s| s[0] == Some(pnum) && s[1].is_some())
                .count() as i64;
            let qoh = if p % 3 == 0 { shipped } else { p % 7 };
            [Some(pnum), Some(qoh), Some(p % 10), Some(1000 + p)]
        })
        .collect()
}

fn relation<const N: usize>(cols: [&str; N], rows: &[[Option<i64>; N]]) -> Relation {
    Relation::new(
        Schema::new(
            cols.iter()
                .map(|c| Column::new(*c, ColumnType::Int))
                .collect(),
        ),
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.map_or(Value::Null, Value::Int))
                    .collect::<Tuple>()
            })
            .collect(),
    )
    .unwrap()
}

fn load(db: &mut Database) {
    let cat = db.catalog_mut();
    for (suffix, distinct) in [("", PARTS), ("_D", DUP_DISTINCT_PNUM)] {
        let supply = supply_rows(distinct);
        let parts = parts_rows(&supply, distinct);
        cat.load_table(
            &format!("PARTS{suffix}"),
            &relation(["PNUM", "QOH", "GRP", "SERIAL"], &parts),
        )
        .unwrap();
        cat.load_table(
            &format!("SUPPLY{suffix}"),
            &relation(["PNUM", "QUAN", "EPOCH", "TAG", "BAND"], &supply),
        )
        .unwrap();
    }
    let vendor: Vec<[Option<i64>; 3]> = (0..20)
        .map(|v| [Some(v), Some(v % 10), Some(v % 5)])
        .collect();
    cat.load_table("VENDOR", &relation(["VNUM", "GRP", "RATING"], &vendor))
        .unwrap();

    // Heap files do not enforce their schema: one string in an INT column.
    let bad = relation(
        ["PNUM", "QUAN"],
        &(0..120)
            .map(|i| [Some(i % 7), Some(i % 5)])
            .collect::<Vec<_>>(),
    );
    let mut rows = bad.tuples().to_vec();
    rows[BAD_ROW] = Tuple::new(vec![Value::str("x"), Value::Int(1)]);
    let bad = Relation::new(bad.schema().clone(), rows).unwrap();
    cat.load_table("BAD", &bad).unwrap();
}

/// Index of the poisoned `BAD` row; the test checks it sits on page 3.
const BAD_ROW: usize = 60;

/// Kim-scale geometry (512-byte pages, `B = 6`) on both backends.
fn backends() -> Vec<(&'static str, Database, Option<TempDir>)> {
    let mut mem = Database::with_storage(6, 512);
    load(&mut mem);
    let dir = TempDir::new("ni-io-identity");
    let mut file = Database::open_with(6, 512, dir.path()).unwrap();
    load(&mut file);
    vec![("memory", mem, None), ("file", file, Some(dir))]
}

/// Every configuration that must be indistinguishable from serial row-mode
/// nested iteration.
fn configurations() -> Vec<QueryOptions> {
    let mut out = Vec::new();
    for exec_mode in [ExecMode::Row, ExecMode::Vector] {
        for threads in [1, 2] {
            out.push(QueryOptions {
                strategy: Strategy::NestedIteration,
                exec_mode,
                threads,
                unnest: nsql_core::UnnestOptions::faithful(),
                cold_start: true,
                ..Default::default()
            });
        }
    }
    out
}

fn snap(reads: u64, writes: u64, hits: u64, misses: u64) -> IoSnapshot {
    IoSnapshot {
        reads,
        writes,
        hits,
        misses,
    }
}

/// Row count and FNV-1a digest of the sorted rows' rendering.
fn digest(rel: &Relation) -> (usize, u64) {
    let mut rows: Vec<Tuple> = rel.tuples().to_vec();
    rows.sort_by(Tuple::total_cmp);
    let mut h = 0xcbf29ce484222325u64;
    for b in rows.iter().flat_map(|t| t.to_string().into_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    (rows.len(), h)
}

/// One cold-started run: the outcome (digest or error rendering) and the
/// four-counter delta around it.
fn run(
    db: &Database,
    sql: &str,
    opts: &QueryOptions,
) -> (Result<(usize, u64), String>, IoSnapshot) {
    let before = db.storage().io_snapshot();
    let out = db.query_with(sql, opts);
    let io = db.storage().io_snapshot().since(&before);
    (
        out.map(|o| digest(&o.relation))
            .map_err(|e| format!("{e:?}")),
        io,
    )
}

#[test]
fn nested_iteration_statements_keep_rows_and_all_four_counters() {
    // (statement, rows digest, counters under nested iteration), all taken
    // at the parent commit.
    type Case = (&'static str, String, (usize, u64), IoSnapshot);
    let cases: Vec<Case> = vec![
        (
            "j_notin",
            J_NOTIN.into(),
            (16, 10062686680816546509),
            snap(514, 0, 0, 514),
        ),
        (
            "ja_or",
            JA_OR.into(),
            (4, 4454498671549598223),
            snap(514, 0, 0, 514),
        ),
        (
            "j_notin_dup",
            dup(J_NOTIN),
            (2, 6027445620735132295),
            snap(514, 0, 0, 514),
        ),
        (
            "ja_or_dup",
            dup(JA_OR),
            (3, 2864121895118047564),
            snap(514, 0, 0, 514),
        ),
        (
            "type_n",
            TYPE_N.into(),
            (51, 17298091154068782242),
            snap(42, 3, 523, 42),
        ),
        (
            "ml3",
            ML3.into(),
            (39, 17762528104417956957),
            snap(12079, 0, 435, 12079),
        ),
        (
            "two_table_inner",
            TWO_TABLE_INNER.into(),
            (8, 4505590272617856876),
            snap(1016, 0, 23998, 1016),
        ),
        (
            "grouped_inner",
            GROUPED_INNER.into(),
            (12, 16468734278807593167),
            snap(1514, 0, 0, 1514),
        ),
    ];
    let mut diffs: Vec<String> = Vec::new();
    for (backend, db, _dir) in backends() {
        for (name, sql, rows_at_parent, io_at_parent) in &cases {
            for opts in configurations() {
                let (rows, io) = run(&db, sql, &opts);
                let at = format!("{name} {:?} threads={} on {backend}", opts.exec_mode, opts.threads);
                if rows != Ok(*rows_at_parent) {
                    diffs.push(format!("{at}: rows {rows:?}, parent {rows_at_parent:?}"));
                }
                if io != *io_at_parent {
                    diffs.push(format!("{at}: {io:?}, parent {io_at_parent:?}"));
                }
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} differences:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
    for (name, _, rows_at_parent, ..) in &cases {
        assert!(rows_at_parent.0 > 0, "{name} must select something");
    }
}

#[test]
fn error_in_the_binding_loop_surfaces_after_the_same_page_reads() {
    let error_at_parent = r#"Engine(Type(Incomparable("string", "int")))"#;
    let io_at_parent = snap(4, 0, 0, 4); // one PARTS page, three BAD pages
    for (backend, db, _dir) in backends() {
        let bad = db.catalog().table("BAD").unwrap();
        let poisoned: Vec<usize> = (0..bad.page_ids().len())
            .filter(|&i| {
                let page = db.storage().read_page(bad.page_ids()[i]);
                page.tuples()
                    .iter()
                    .any(|t| matches!(t.get(0), Value::Str(_)))
            })
            .collect();
        assert_eq!(
            poisoned,
            [2],
            "the poisoned row must sit on BAD's third page"
        );
        for opts in configurations() {
            let (rows, io) = run(&db, ERROR_ON_THIRD_PAGE, &opts);
            let at = format!("{:?} threads={} on {backend}", opts.exec_mode, opts.threads);
            assert_eq!(rows, Err(error_at_parent.to_string()), "{at}");
            assert_eq!(io, io_at_parent, "{at}");
        }
    }
}
