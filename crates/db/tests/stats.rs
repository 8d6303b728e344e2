//! End-to-end behavior of the engine-wide statistics subsystem: the
//! `nsql_stat_*` system views answer plain and *nested* SELECTs under both
//! strategies, fingerprint aggregation counts calls/errors/refusals with
//! percentiles that match an exact-sort oracle, the slow-query log captures
//! offenders with their rendered EXPLAIN, index probes are attributed to
//! their table, and per-column distinct-count statistics survive a durable reopen.

use nsql_db::{Database, IndexUse, QueryOptions, Strategy};
use nsql_obs::stats::{LatencyHistogram, StatementSample};
use nsql_testkit::TempDir;
use nsql_types::Value;

/// Kiessling's example database (the paper's Section 4 walkthrough).
const SETUP: &str = "CREATE TABLE PARTS (PNUM INT, QOH INT);
     CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
     INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
     INSERT INTO SUPPLY VALUES
       (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
       (10, 2, 8-10-81), (8, 5, 5-7-83);";

/// Kiessling's Q2 — the COUNT-bug query.
const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

fn mem_db() -> Database {
    let mut db = Database::new();
    db.execute_script(SETUP).unwrap();
    db
}

fn ints(rel: &nsql_types::Relation, col: usize) -> Vec<i64> {
    rel.tuples()
        .iter()
        .map(|t| match t.get(col) {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

/// The acceptance query: `SELECT query, calls, p99_us FROM
/// nsql_stat_statements` works end-to-end after a workload, and the
/// aggregates reflect it.
#[test]
fn stat_statements_is_queryable_with_correct_aggregates() {
    let db = mem_db();
    for _ in 0..3 {
        db.query(Q2).unwrap();
    }
    let rel = db
        .query("SELECT query, calls, p99_us FROM nsql_stat_statements")
        .unwrap();
    let fp = nsql_analyzer::query_fingerprint(&nsql_sql::parse_query(Q2).unwrap());
    let row = rel
        .tuples()
        .iter()
        .find(|t| t.get(0) == &Value::Str(fp.clone()))
        .unwrap_or_else(|| panic!("no row for {fp} in {rel}"));
    assert_eq!(row.get(1), &Value::Int(3), "three calls");
    match row.get(2) {
        Value::Int(p99) => assert!(*p99 > 0, "p99 must be positive"),
        other => panic!("p99_us not an int: {other:?}"),
    }
}

/// System views compose: a stat view works as the *inner* block of a
/// nested query, under both nested iteration and transform.
#[test]
fn stat_views_work_as_nested_inner_blocks() {
    let db = mem_db();
    db.query(Q2).unwrap();
    // Type-A inner block over a stat view: tables scanned at least as
    // often as the busiest statement was called.
    let nested = "SELECT TABLE_NAME FROM NSQL_STAT_TABLES \
        WHERE SCANS >= (SELECT MAX(CALLS) FROM NSQL_STAT_STATEMENTS)";
    for strategy in [Strategy::NestedIteration, Strategy::Transform] {
        let opts = QueryOptions { strategy, cold_start: true, ..Default::default() };
        let out = db.run_query(&nsql_sql::parse_query(nested).unwrap(), &opts).unwrap();
        let names: Vec<String> =
            out.relation.tuples().iter().map(|t| t.get(0).to_string()).collect();
        assert!(
            names.iter().any(|n| n.contains("PARTS")),
            "{strategy:?}: PARTS scanned by Q2 must qualify, got {names:?}"
        );
    }
}

/// Percentiles served through SQL match a nearest-rank exact-sort oracle
/// mapped through the histogram's bucket upper bounds.
#[test]
fn percentiles_match_exact_sort_oracle_end_to_end() {
    let db = mem_db();
    let samples: Vec<u64> = vec![3, 17, 90, 1000, 1001, 4096, 70000, 3, 90, 255];
    for &micros in &samples {
        db.stats().record_statement(&StatementSample {
            fingerprint: "SYNTHETIC".into(),
            micros,
            reads: 0,
            writes: 0,
            strategy: "transform".into(),
            error: false,
            refusals: 0,
            ..StatementSample::default()
        });
    }
    let rel = db
        .query(
            "SELECT P50_US, P95_US, P99_US FROM NSQL_STAT_STATEMENTS \
             WHERE QUERY = 'SYNTHETIC'",
        )
        .unwrap();
    assert_eq!(rel.len(), 1);
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    for (col, p) in [(0usize, 50u64), (1, 95), (2, 99)] {
        // Nearest-rank oracle, then map the chosen sample through its
        // bucket's upper bound (the histogram's reporting granularity).
        let rank = ((sorted.len() as u128 * p as u128).div_ceil(100)).max(1) as usize;
        let expect =
            LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(sorted[rank - 1]));
        assert_eq!(
            ints(&rel, col)[0],
            i64::try_from(expect).unwrap(),
            "p{p} mismatch against oracle"
        );
    }
}

/// Errors are aggregated per fingerprint too (a statement that fails
/// validation still lands in the registry), and a transform refusal is
/// counted separately from ordinary errors.
#[test]
fn errors_and_refusals_are_counted() {
    let db = mem_db();
    // Unknown column: fails semantic analysis under any strategy.
    let bad = "SELECT NOPE FROM PARTS WHERE QOH = 7";
    assert!(db.query(bad).is_err());
    let snap = db.stats().snapshot();
    let fp = nsql_analyzer::query_fingerprint(&nsql_sql::parse_query(bad).unwrap());
    let s = snap.statements.iter().find(|s| s.query == fp).expect("error recorded");
    assert_eq!((s.calls, s.errors, s.refusals), (1, 1, 0));

    // ORDER BY in a nested block: parses and validates, but the transform
    // engine refuses the shape — counted as error *and* refusal.
    let refused = "SELECT PNUM FROM PARTS WHERE QOH IN \
        (SELECT QUAN FROM SUPPLY ORDER BY QUAN)";
    let opts = QueryOptions { strategy: Strategy::Transform, ..Default::default() };
    let q = nsql_sql::parse_query(refused).unwrap();
    if db.run_query(&q, &opts).is_err() {
        let snap = db.stats().snapshot();
        let fp = nsql_analyzer::query_fingerprint(&q);
        let s = snap.statements.iter().find(|s| s.query == fp).expect("refusal recorded");
        assert_eq!(s.calls, 1);
        assert_eq!(s.errors, 1, "refusal is also an error: {s:?}");
        assert_eq!(s.refusals, 1, "transform refusal must be counted: {s:?}");
    }
}

/// The slow-query log captures threshold crossers with SQL, fingerprint,
/// I/O, and the rendered EXPLAIN; `Some(0)` logs everything.
#[test]
fn slow_query_log_captures_explain() {
    let db = mem_db();
    let opts = QueryOptions { slow_query_ms: Some(0), cold_start: true, ..Default::default() };
    db.run_query(&nsql_sql::parse_query(Q2).unwrap(), &opts).unwrap();
    let slow = db.stats().slow_queries();
    assert_eq!(slow.len(), 1, "threshold 0 logs every statement");
    let entry = &slow[0];
    assert_eq!(entry.seq, 1);
    assert!(entry.sql.starts_with("SELECT PNUM FROM PARTS"), "{}", entry.sql);
    assert!(entry.fingerprint.contains('?'), "literals masked: {}", entry.fingerprint);
    assert!(entry.reads > 0, "Q2 reads pages");
    assert!(
        entry.explain.iter().any(|l| l.contains("strategy:")),
        "rendered EXPLAIN captured: {:?}",
        entry.explain
    );
    // Unset threshold: nothing further logged.
    db.run_query(&nsql_sql::parse_query(Q2).unwrap(), &QueryOptions::default()).unwrap();
    assert_eq!(db.stats().slow_queries().len(), 1);
}

/// The JSON snapshot export aggregates a mixed workload correctly — both
/// strategies, a failing statement and a slow-logged one — and
/// round-trips through the in-tree parser: per-fingerprint calls and
/// errors, consistent timings, per-table scan counters and the slow entry
/// with its rendered EXPLAIN.
#[test]
fn json_export_aggregates_a_mixed_workload() {
    use nsql_obs::Json;
    let db = mem_db();
    let q_in = "SELECT PNUM FROM PARTS WHERE QOH IN \
        (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
    let q_max = "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY)";
    let bad = "SELECT NO_SUCH_COL FROM PARTS";
    db.query_with(q_max, &QueryOptions::nested_iteration()).unwrap();
    for _ in 0..3 {
        db.query_with(q_in, &QueryOptions::transformed()).unwrap();
    }
    for _ in 0..2 {
        db.query_with(Q2, &QueryOptions::nested_iteration()).unwrap();
    }
    assert!(db.query(bad).is_err());
    let slow_sql = "SELECT PNUM FROM PARTS WHERE QOH > 0";
    let slow = QueryOptions { slow_query_ms: Some(0), ..QueryOptions::nested_iteration() };
    db.query_with(slow_sql, &slow).unwrap();

    let json = Json::parse(&db.stats().snapshot().to_json().to_string())
        .expect("stats export parses with the in-tree parser");
    let num = |j: &Json, key: &str| {
        j.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("no numeric `{key}` in {j}"))
    };
    let stmts = json.get("statements").and_then(Json::as_arr).expect("statements array");
    for (sql, calls, errors) in
        [(q_max, 1.0, 0.0), (q_in, 3.0, 0.0), (Q2, 2.0, 0.0), (slow_sql, 1.0, 0.0), (bad, 1.0, 1.0)]
    {
        let fp = nsql_analyzer::query_fingerprint(&nsql_sql::parse_query(sql).unwrap());
        let s = stmts
            .iter()
            .find(|s| s.get("query").and_then(Json::as_str) == Some(fp.as_str()))
            .unwrap_or_else(|| panic!("fingerprint missing from export: {fp}"));
        assert_eq!(num(s, "calls"), calls, "calls mismatch for {sql}");
        assert_eq!(num(s, "errors"), errors, "errors mismatch for {sql}");
        assert!(num(s, "min_us") <= num(s, "max_us"), "inconsistent timings for {sql}");
    }
    let tables = json.get("tables").and_then(Json::as_arr).expect("tables array");
    for name in ["PARTS", "SUPPLY"] {
        let t = tables
            .iter()
            .find(|t| t.get("table").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from tables export"));
        assert!(num(t, "scans") > 0.0, "{name} was scanned");
        assert!(num(t, "tuples_read") > 0.0, "{name} yielded tuples");
    }
    let slow_log = json.get("slow_queries").and_then(Json::as_arr).expect("slow array");
    assert_eq!(slow_log.len(), 1, "exactly one statement ran over threshold 0");
    assert!(
        slow_log[0].get("explain").and_then(Json::as_arr).is_some_and(|e| !e.is_empty()),
        "slow entry carries its rendered EXPLAIN"
    );
}

/// Index probes are attributed to the probed table in `nsql_stat_tables`.
#[test]
fn index_probes_are_attributed() {
    let mut db = mem_db();
    db.catalog_mut().create_index("SUPPLY", "PNUM").unwrap();
    let before: u64 = {
        let rel = db
            .query("SELECT INDEX_PROBES FROM NSQL_STAT_TABLES WHERE TABLE_NAME = 'SUPPLY'")
            .unwrap();
        ints(&rel, 0)[0] as u64
    };
    let opts = QueryOptions {
        strategy: Strategy::Transform,
        index_use: IndexUse::Prefer,
        cold_start: true,
        ..Default::default()
    };
    // Flat equi-join probing SUPPLY's PNUM index once per PARTS row.
    let join = "SELECT QUAN FROM PARTS, SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM";
    db.run_query(&nsql_sql::parse_query(join).unwrap(), &opts).unwrap();
    let rel = db
        .query("SELECT INDEX_PROBES FROM NSQL_STAT_TABLES WHERE TABLE_NAME = 'SUPPLY'")
        .unwrap();
    let after = ints(&rel, 0)[0] as u64;
    assert!(after > before, "index path under Prefer must record probes ({before} -> {after})");
}

/// `nsql_stat_storage` reports live storage counters, including WAL
/// commits and checkpoints on a durable backend.
#[test]
fn stat_storage_reports_durable_counters() {
    let dir = TempDir::new("nsql-stats-storage");
    let mut db = Database::open_with(8, 256, dir.path()).unwrap();
    db.execute_script(SETUP).unwrap();
    let rel = db
        .query("SELECT READS, WRITES, DURABLE, COMMITS FROM NSQL_STAT_STORAGE")
        .unwrap();
    assert_eq!(rel.len(), 1);
    let row = &rel.tuples()[0];
    assert_eq!(row.get(2), &Value::Int(1), "durable backend");
    match (row.get(1), row.get(3)) {
        (Value::Int(writes), Value::Int(commits)) => {
            assert!(*writes > 0, "setup wrote pages");
            assert!(*commits >= 4, "each DDL/DML statement commits: {commits}");
        }
        other => panic!("unexpected row {other:?}"),
    }
}

/// Per-column distinct-count statistics survive a durable restart: the
/// versioned catalog snapshot in the WAL commit record carries them.
#[test]
fn distinct_counts_survive_reopen() {
    let dir = TempDir::new("nsql-stats-distinct");
    {
        let mut db = Database::open_with(8, 256, dir.path()).unwrap();
        db.execute_script(SETUP).unwrap();
        // PARTS.PNUM has 3 distinct values, SUPPLY.PNUM has 3, QUAN has 4.
        assert_eq!(db.catalog().distinct_count("PARTS", 0), Some(3));
        assert_eq!(db.catalog().distinct_count("SUPPLY", 1), Some(4));
    }
    let db = Database::open_with(8, 256, dir.path()).unwrap();
    assert_eq!(
        db.catalog().distinct_count("PARTS", 0),
        Some(3),
        "distinct counts must come back from the snapshot"
    );
    assert_eq!(db.catalog().distinct_count("SUPPLY", 1), Some(4));
    // And the restored database keeps collecting into a fresh registry.
    db.query(Q2).unwrap();
    assert!(!db.stats().snapshot().statements.is_empty());
}

/// With collection disabled the views still answer (zero-filled tables
/// rows, empty statements) — turning stats off never breaks a dashboard
/// query, it only stops the counters.
#[test]
fn disabled_registry_keeps_views_queryable() {
    let db = mem_db();
    db.stats().set_enabled(false);
    db.query(Q2).unwrap();
    let rel = db.query("SELECT QUERY, CALLS FROM NSQL_STAT_STATEMENTS").unwrap();
    assert_eq!(rel.len(), 0, "disabled registry aggregates nothing");
    let rel = db
        .query("SELECT SCANS FROM NSQL_STAT_TABLES WHERE TABLE_NAME = 'PARTS'")
        .unwrap();
    assert_eq!(rel.len(), 1, "base tables still listed");
}
