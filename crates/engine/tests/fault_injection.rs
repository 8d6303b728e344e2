//! Fault injection: a tuple evaluation failing mid-operator must surface as
//! a typed `Err` — never a panic, never a wrong answer — and the error must
//! be *deterministic*: the first error in scan order, after a pinned number
//! of counted page reads and writes. Partial output pages must be freed on
//! the error path.
//!
//! Storage reads are infallible by construction (`Arc<Page>`), so faults are
//! injected at the data level: a value of the wrong type planted on a chosen
//! page makes exactly that tuple's evaluation fail with a `TypeError`.

use nsql_engine::{AggSpec, CExpr, CPred, EngineError, Exec, JoinKind, Restriction};
use nsql_sql::{parse_query, AggFunc};
use nsql_storage::{HeapFile, HeldRows, IoSnapshot, Storage};
use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

const ROWS: i64 = 600;

/// A two-column file `T(A, B)` of `ROWS` int rows, with `poison[i] = (row,
/// value)` planting arbitrary values into column B of chosen rows. With
/// 256-byte pages this spans many pages, so chosen rows land on chosen
/// pages.
fn poisoned_file(storage: &Storage, poison: &[(i64, Value)]) -> HeapFile {
    poisoned_file_named(storage, "T", poison)
}

fn poisoned_file_named(storage: &Storage, table: &str, poison: &[(i64, Value)]) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified(table, "A", ColumnType::Int),
        Column::qualified(table, "B", ColumnType::Int),
    ]);
    let file = HeapFile::from_tuples(
        storage,
        schema,
        (0..ROWS).map(|i| {
            let b = poison
                .iter()
                .find(|(r, _)| *r == i)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Int(i % 97));
            Tuple::new(vec![Value::Int(i), b])
        }),
    );
    assert!(file.page_count() > 4, "fault pages must be interior, not the only page");
    file
}

fn filter_pred(f: &HeapFile) -> CPred {
    let q = parse_query("SELECT T.A FROM T WHERE B < 50").unwrap();
    CPred::compile(f.schema(), q.where_clause.as_ref().unwrap()).unwrap()
}

/// Run `op` on a cold six-page pool over a poisoned `T` (and a clean `U`
/// for the joins): it must fail with a typed error after exactly `io` page
/// reads and writes, and the storage must hold exactly the input pages
/// afterwards (no leaked partial output).
fn check_fails<F>(label: &str, poison: &[(i64, Value)], io: (u64, u64), op: F) -> EngineError
where
    F: Fn(&Exec, &HeapFile, &HeapFile) -> Result<(), EngineError>,
{
    check_fails_in(6, label, poison, io, op)
}

/// [`check_fails`] on a cold pool of `pages` pages.
fn check_fails_in<F>(
    pages: usize,
    label: &str,
    poison: &[(i64, Value)],
    io: (u64, u64),
    op: F,
) -> EngineError
where
    F: Fn(&Exec, &HeapFile, &HeapFile) -> Result<(), EngineError>,
{
    let e = Exec::new(Storage::new(pages, 256));
    let t = poisoned_file(e.storage(), poison);
    let u = poisoned_file_named(e.storage(), "U", &[]);
    e.storage().clear_buffer();
    let live_before = e.storage().live_pages();
    let before = e.storage().io_snapshot();
    let err = op(&e, &t, &u).expect_err(&format!("{label}: poisoned run must fail"));
    let IoSnapshot { reads, writes, .. } = e.storage().io_snapshot().since(&before);
    assert_eq!((reads, writes), io, "{label}: page reads and writes of the error path");
    assert_eq!(e.storage().live_pages(), live_before, "{label}: error path leaked output pages");
    err
}

#[test]
fn filter_surfaces_poisoned_page_as_error() {
    // The scan does not stop at the fault: all 43 pages of T are read, and
    // the 23 output pages written before the error surfaces are freed.
    let err = check_fails("filter", &[(300, Value::str("rot"))], (43, 23), |e, t, _| {
        e.filter(t, &filter_pred(t)).map(|_| ())
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

#[test]
fn first_error_in_scan_order_wins() {
    // Two incompatible poisons on different pages: a STR at row 150 and a
    // DATE at row 450. The caller must see the STR comparison failure — the
    // first in scan order.
    let err = check_fails(
        "filter/two-faults",
        &[(450, Value::date("1-1-80").unwrap()), (150, Value::str("rot"))],
        (43, 23),
        |e, t, _| e.filter(t, &filter_pred(t)).map(|_| ()),
    );
    let msg = err.to_string();
    assert!(
        msg.contains("STR") || msg.contains("Str") || msg.to_uppercase().contains("STR"),
        "expected the row-150 STR fault to win, got: {msg}"
    );
}

#[test]
fn aggregation_surfaces_poisoned_page_as_error() {
    let out_schema = Schema::new(vec![Column::new("S", ColumnType::Int)]);
    // The fold stops at the fault: T's pages up to row 300's, the 22nd.
    let err = check_fails("group_aggregate", &[(300, Value::str("rot"))], (22, 0), |e, t, _| {
        e.group_aggregate(t, &[], &[AggSpec::on(AggFunc::Sum, 1)], out_schema.clone(), false)
            .map(|_| ())
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

#[test]
fn restrict_project_surfaces_poisoned_page_as_error() {
    let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
    // Like the filter, with one-column output rows and no cap, so nothing is
    // held: 13 pages written.
    let err = check_fails("restrict_project", &[(300, Value::str("rot"))], (43, 13), |e, t, _| {
        let exprs = [CExpr::Col(0)];
        e.restrict_project_rows(t, &filter_pred(t), &exprs, out_schema.clone(), false, 0)
            .map(|_| ())
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

/// The hash join of the poisoned `T` with `U` on `A`, its residual
/// `T.B < 50`.
fn poisoned_hash_join(e: &Exec, t: &HeapFile, u: &HeapFile) -> Result<(), EngineError> {
    let combined = t.schema().join(u.schema());
    let q = parse_query("SELECT T.A FROM T, U WHERE T.B < 50").unwrap();
    let res = CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap();
    e.hash_join(t, u, &[0], &[0], Some(&res), JoinKind::Inner).map(|_| ())
}

#[test]
fn hash_join_residual_fault_surfaces_as_error() {
    // The poison sits in the probe side's residual-predicate column. T and
    // U are 43 pages each, so the join builds on U (a tie goes right), and
    // 43 pages do not fit the B − 2 = 4 a six-page pool leaves, nor leave
    // room for a resident share: both inputs are read and partitioned five
    // ways. Pair after pair, the build side of 9 pages still exceeds four,
    // so the pair is split again, 1.8 of its pages resident and two
    // partitions spilled, and its sub-pairs joined, each partition read
    // once. The join stops in the sub-pair that holds row 300, 124
    // partition pages written by then (132 when every pass was Grace's).
    // The result is collected before it is written, and every partition is
    // freed.
    let err = check_fails("hash join", &[(300, Value::str("rot"))], (141, 124), poisoned_hash_join);
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

#[test]
fn a_fault_inside_the_hybrid_pass_frees_every_partition() {
    // Every row of T from 300 on is poisoned. Its strings are narrower than
    // ints, so T fills 40 pages to U's 43 and is the build side; on a
    // 24-page pool one pass keeps 18.9 of its pages resident and spills the
    // rest to one partition. U streams past: row 300, on its 22nd page, is
    // the first whose key falls in the resident share and meets a poisoned
    // T row, whose residual fails while U is being split. The pass stops
    // with 31 partition pages written (T's spilled rows, and U's before row
    // 300), frees them without writing the pages it was filling, and drops
    // its table.
    let poison: Vec<(i64, Value)> = (300..ROWS).map(|r| (r, Value::str("rot"))).collect();
    let err = check_fails_in(24, "hybrid pass", &poison, (62, 31), poisoned_hash_join);
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");

    // The table streamed from a pipe over T (41 pages, every row from 400
    // on poisoned) that keeps every row: it first overflows its 22 pages
    // near row 312, and the pass fixes its split on the 22 pages and the
    // bound on T's pages not yet read — 41 pages, 18 resident, two spilled
    // partitions — places what it holds and goes on. The poisoned rows are
    // read after that. Its residual raises where U's row 400, on U's 29th
    // page, meets the resident T row of its key: 37 partition pages written
    // by then (T's spilled rows, and U's before row 400), all freed with the
    // table.
    let poison: Vec<(i64, Value)> = (400..ROWS).map(|r| (r, Value::str("rot"))).collect();
    let err = check_fails_in(24, "streamed build, residual", &poison, (70, 37), |e, t, u| {
        streamed_build_hash_join(e, t, u, "T.A < 1000", true)
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
    // The pipe's own predicate `B < 100` raises on row 400, on T's 29th
    // page, after the split: the 15 partition pages written by then are
    // freed, and the table dropped.
    let err = check_fails_in(24, "streamed build, restriction", &poison, (29, 15), |e, t, u| {
        streamed_build_hash_join(e, t, u, "B < 100", false)
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

/// A pipe over the poisoned `T` restricted by `pred` (over `T`) and
/// projected whole, as the build side of the hash join with `U` on `A`,
/// with the residual `T.B < 50` when `residual`: bounded by T's pages, fewer
/// than U's where T's poisoned strings are narrower than ints, it is the
/// side the table is built on. A join that fails has written partition
/// pages, so it failed after its table overflowed and the pass fixed its
/// split.
fn streamed_build_hash_join(
    e: &Exec,
    t: &HeapFile,
    u: &HeapFile,
    pred: &str,
    residual: bool,
) -> Result<(), EngineError> {
    let st = e.storage();
    let q = parse_query(&format!("SELECT T.A FROM T WHERE {pred}")).unwrap();
    let pred = CPred::compile(t.schema(), q.where_clause.as_ref().unwrap()).unwrap();
    let (exprs, schema) = (vec![CExpr::Col(0), CExpr::Col(1)], t.schema().clone());
    let pipe = Restriction::new(t.clone(), pred, exprs, schema, t.page_count(), st.page_size());
    let combined = t.schema().join(u.schema());
    let q = parse_query("SELECT T.A FROM T, U WHERE T.B < 50").unwrap();
    let res = CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap();
    let res = residual.then_some(&res);
    e.hash_join_cols(&pipe, u, &[0], &[0], res, JoinKind::Inner, None).map(|_| ())
}

/// A pipe over the poisoned `T` restricted by `pred` (over `T`) and
/// projected whole, streamed as the probe side of a hash join on `A` past a
/// table of `U` held in memory — rows `A` = 300 and 0 to 9, one page — with
/// the residual `T.B < 50` when `residual`.
fn streamed_hash_join(e: &Exec, t: &HeapFile, pred: &str, residual: bool) -> Result<(), EngineError> {
    let st = e.storage();
    let rows = [300].into_iter().chain(0..10);
    let rows = rows.map(|a| Tuple::new(vec![Value::Int(a), Value::Int(a % 97)])).collect();
    let u = HeldRows::new(st, t.schema().requalify("U"), rows);
    let q = parse_query(&format!("SELECT T.A FROM T WHERE {pred}")).unwrap();
    let pred = CPred::compile(t.schema(), q.where_clause.as_ref().unwrap()).unwrap();
    let (exprs, schema) = (vec![CExpr::Col(0), CExpr::Col(1)], t.schema().clone());
    let pipe = Restriction::new(t.clone(), pred, exprs, schema, t.page_count(), st.page_size());
    let combined = u.schema().join(t.schema());
    let q = parse_query("SELECT T.A FROM U, T WHERE T.B < 50").unwrap();
    let res = CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap();
    let res = residual.then_some(&res);
    e.hash_join_cols(&u, &pipe, &[0], &[0], res, JoinKind::Inner, None).map(|_| ())
}

#[test]
fn a_fault_read_off_a_streamed_probe_sides_source_frees_the_held_table() {
    // The restriction `T.A < 1000` reads only the clean `A` and keeps every
    // row; row 300, on T's 22nd page, meets the held row of its key, and
    // the residual reads its poisoned `B`. The pass stops there: 22 pages
    // read, nothing written, the table dropped.
    let poison = [(300, Value::str("rot"))];
    let err = check_fails("streamed probe, residual", &poison, (22, 0), |e, t, _| {
        streamed_hash_join(e, t, "T.A < 1000", true)
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

#[test]
fn a_restriction_that_raises_mid_stream_frees_the_held_table() {
    // The pipe's own predicate `B < 50` raises on row 300: as the drained
    // restriction's first error, but the stream stops at its page.
    let poison = [(300, Value::str("rot"))];
    let err = check_fails("streamed probe, restriction", &poison, (22, 0), |e, t, _| {
        streamed_hash_join(e, t, "B < 50", false)
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

/// Sanity: a *clean* run of the same shapes succeeds — the harness fails
/// because of the fault, not the setup.
#[test]
fn unpoisoned_runs_succeed() {
    let e = Exec::new(Storage::new(6, 256));
    let f = poisoned_file(e.storage(), &[]);
    assert!(e.filter(&f, &filter_pred(&f)).is_ok());
    assert!(streamed_hash_join(&e, &f, "T.A < 1000", true).is_ok());
    assert!(streamed_hash_join(&e, &f, "B < 50", false).is_ok());
    let e = Exec::new(Storage::new(24, 256));
    let t = poisoned_file(e.storage(), &[]);
    let u = poisoned_file_named(e.storage(), "U", &[]);
    assert!(streamed_build_hash_join(&e, &t, &u, "T.A < 1000", true).is_ok());
    assert!(streamed_build_hash_join(&e, &t, &u, "B < 100", false).is_ok());
}
