//! The statistics registry's load-bearing invariant: **observation never
//! perturbs the figure of merit**. Every figure and table in the repo is
//! denominated in counted page I/O, and PR-over-PR those numbers must not
//! move because an always-on statistics subsystem appeared under them.
//!
//! For generated databases and nested queries, a run with statistics
//! collection ON must be byte-identical to a run with it OFF in
//!
//! * the result rows (values *and* order),
//! * the full four-counter I/O trace (reads, writes, buffer hits, buffer
//!   misses — not just the reads+writes headline), and
//! * the error rendering when the query fails,
//!
//! across both evaluation strategies (nested iteration and transform) and
//! both storage backends (in-memory
//! and the durable page store). The stats side additionally queries a
//! system view after the workload, proving that *reading* statistics
//! moves no counter either (system views live on uncounted system pages).
//!
//! Replays and shrinks through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nested_query_opt::diff::{gen_case, DiffCase};
use nsql_db::{Database, QueryOptions, Strategy};
use nsql_storage::IoSnapshot;
use nsql_testkit::TempDir;
use nsql_types::Relation;

fn opts(strategy: Strategy) -> QueryOptions {
    QueryOptions {
        strategy,
        cold_start: true,
        ..Default::default()
    }
}

/// Load the case's tables into a fresh in-memory database.
fn mem_db(tables: &[(String, Relation)]) -> Database {
    let mut db = Database::with_storage(8, 256);
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
    }
    db
}

/// Load the case's tables into a fresh file-backed database under `dir`.
fn file_db(tables: &[(String, Relation)], dir: &TempDir) -> Database {
    let mut db = Database::open_with(8, 256, dir.path()).expect("open durable store");
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
    }
    db
}

/// One observed run: the query outcome (rows in output order, or the error
/// rendering) plus the *full* four-counter I/O delta across the run —
/// errors must reproduce with identical traces too.
type Observed = (Result<Vec<nsql_types::Tuple>, String>, IoSnapshot);

fn observe(db: &Database, case: &DiffCase, o: &QueryOptions, stats_on: bool) -> Observed {
    db.stats().set_enabled(stats_on);
    let before = db.storage().io_snapshot();
    let outcome = match db.run_query(&case.query, o) {
        Ok(out) => Ok(out.relation.tuples().to_vec()),
        Err(e) => Err(format!("{e}")),
    };
    if stats_on {
        // Reading statistics back is part of the stats-on run: the system
        // view materializes onto uncounted system pages, so even this
        // query-over-the-registry must leave the trace untouched.
        db.query("SELECT CALLS FROM NSQL_STAT_STATEMENTS")
            .expect("system view is always queryable");
    }
    (outcome, db.storage().io_snapshot().since(&before))
}

/// Rows and the four-counter I/O trace are byte-identical with statistics
/// collection on vs off, for both strategies and both storage backends.
#[test]
fn stats_collection_is_invisible_in_rows_and_io() {
    nsql_testkit::forall(80, "stats_on_off_invariance", gen_case, |case| {
        // Shrink candidates may drop a FROM entry whose alias is still
        // referenced; such queries run nowhere, so there is nothing to pin.
        {
            let db = mem_db(&case.tables);
            if nsql_analyzer::validate_query(db.catalog(), &case.query).is_err() {
                return Ok(());
            }
        }
        for strategy in [Strategy::NestedIteration, Strategy::Transform] {
            let o = opts(strategy);
            // In-memory backend.
            let off = observe(&mem_db(&case.tables), case, &o, false);
            let on = observe(&mem_db(&case.tables), case, &o, true);
            if on != off {
                return Err(diverged("mem", strategy, case, &off, &on));
            }
            // Durable page-store backend.
            let dir = TempDir::new("nsql-stats-prop-off");
            let off = observe(&file_db(&case.tables, &dir), case, &o, false);
            let dir = TempDir::new("nsql-stats-prop-on");
            let on = observe(&file_db(&case.tables, &dir), case, &o, true);
            if on != off {
                return Err(diverged("file", strategy, case, &off, &on));
            }
        }
        Ok(())
    });
}

fn diverged(
    backend: &str,
    strategy: Strategy,
    case: &DiffCase,
    off: &Observed,
    on: &Observed,
) -> String {
    format!(
        "stats collection perturbed the run ({backend}, {})\n\
         off: {off:?}\non:  {on:?}\nsql: {}",
        strategy.name(),
        nsql_sql::print_query(&case.query)
    )
}

/// After a stats-on run, the registry actually holds the workload: the
/// fingerprint aggregates are queryable and count every call. (The
/// invariance test above would pass vacuously if collection silently never
/// happened; this pins the other side.)
#[test]
fn stats_on_actually_collects() {
    nsql_testkit::forall(40, "stats_on_collects", gen_case, |case| {
        let db = mem_db(&case.tables);
        if nsql_analyzer::validate_query(db.catalog(), &case.query).is_err() {
            return Ok(());
        }
        db.stats().set_enabled(true);
        let o = opts(Strategy::NestedIteration);
        let _ = db.run_query(&case.query, &o);
        let _ = db.run_query(&case.query, &o);
        let fp = nsql_analyzer::query_fingerprint(&case.query);
        let snap = db.stats().snapshot();
        let Some(stmt) = snap.statements.iter().find(|s| s.query == fp) else {
            return Err(format!("fingerprint not aggregated: {fp}"));
        };
        if stmt.calls != 2 {
            return Err(format!("expected 2 calls for {fp}, saw {}", stmt.calls));
        }
        if stmt.min_us > stmt.max_us || stmt.total_us < stmt.max_us {
            return Err(format!("inconsistent timing aggregates: {stmt:?}"));
        }
        Ok(())
    });
}
