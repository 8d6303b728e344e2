//! Fault injection: a tuple evaluation failing mid-operator must surface as
//! a typed `Err` — never a panic, never a wrong answer — and the error must
//! be *deterministic*: the first error in scan order, after a pinned number
//! of counted page reads and writes. Partial output pages must be freed on
//! the error path.
//!
//! Storage reads are infallible by construction (`Arc<Page>`), so faults are
//! injected at the data level: a value of the wrong type planted on a chosen
//! page makes exactly that tuple's evaluation fail with a `TypeError`.

use nsql_engine::{AggSpec, CExpr, CPred, EngineError, Exec, JoinKind};
use nsql_sql::{parse_query, AggFunc};
use nsql_storage::{HeapFile, IoSnapshot, Storage};
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
    let e = Exec::new(Storage::new(6, 256));
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
    // Like the filter, with one-column output rows: 13 pages written.
    let err = check_fails("restrict_project", &[(300, Value::str("rot"))], (43, 13), |e, t, _| {
        e.restrict_project(t, &filter_pred(t), &[CExpr::Col(0)], out_schema.clone(), false)
            .map(|_| ())
    });
    assert!(matches!(err, EngineError::Type(_)), "want TypeError, got {err:?}");
}

#[test]
fn hash_join_residual_fault_surfaces_as_error() {
    // The poison sits in the probe side's residual-predicate column. T and
    // U are 43 pages each, so the join builds on U (a tie goes right), and
    // 43 pages do not fit the B − 2 = 4 a six-page pool leaves: both inputs
    // are read and partitioned five ways. Pair after pair, the build side
    // still exceeds four pages, so the pair is partitioned three ways again
    // and its sub-pairs joined, each partition read once. The join stops
    // in the sub-pair that holds row 300, 132 partition pages written by
    // then. The result is collected before it is written, and every
    // partition is freed.
    let err = check_fails("hash join", &[(300, Value::str("rot"))], (151, 132), |e, t, u| {
        let combined = t.schema().join(u.schema());
        let q = parse_query("SELECT T.A FROM T, U WHERE T.B < 50").unwrap();
        let res = CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap();
        e.hash_join(t, u, &[0], &[0], Some(&res), JoinKind::Inner).map(|_| ())
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
}
