//! The queryable `nsql_stat_*` system views.
//!
//! Four virtual tables expose the cumulative [`StatsRegistry`] through the
//! ordinary query path — plain SELECTs, nested blocks, EXPLAIN, every
//! strategy — by materializing registry snapshots as heap files on
//! *system pages* (uncounted, unbuffered, memory-only; see
//! `nsql_storage::SYSTEM_PAGE_BASE`). Reading statistics therefore moves
//! no counter that statistics report: the invariant the whole repo's
//! figures depend on.
//!
//! | view                   | one row per | contents                       |
//! |------------------------|-------------|--------------------------------|
//! | `nsql_stat_tables`     | base table  | scans, index probes, tuples    |
//! | `nsql_stat_statements` | fingerprint | calls, wall time, percentiles  |
//! | `nsql_stat_cache`      | database    | lifetime result-cache counters |
//! | `nsql_stat_storage`    | database    | page I/O, buffer, WAL, commits |
//!
//! Views are refreshed once per statement for exactly the views the
//! statement references (nested blocks included), so every scan within one
//! statement sees a single consistent snapshot.

use nsql_obs::stats::{StatsRegistry, StatsSnapshot};
use nsql_storage::Storage;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// `nsql_stat_tables` — per-table access counters.
pub const STAT_TABLES: &str = "NSQL_STAT_TABLES";
/// `nsql_stat_statements` — per-fingerprint aggregates.
pub const STAT_STATEMENTS: &str = "NSQL_STAT_STATEMENTS";
/// `nsql_stat_cache` — lifetime result-cache counters.
pub const STAT_CACHE: &str = "NSQL_STAT_CACHE";
/// `nsql_stat_storage` — storage-layer counters.
pub const STAT_STORAGE: &str = "NSQL_STAT_STORAGE";

/// All system view names (uppercase, the catalog's key form).
pub const STAT_VIEWS: [&str; 4] = [STAT_TABLES, STAT_STATEMENTS, STAT_CACHE, STAT_STORAGE];

/// Whether `name` (any case) names a system view.
pub fn is_stat_view(name: &str) -> bool {
    STAT_VIEWS.iter().any(|v| v.eq_ignore_ascii_case(name))
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn cols(view: &str, spec: &[(&str, ColumnType)]) -> Schema {
    Schema::new(spec.iter().map(|(n, t)| Column::qualified(view, *n, *t)).collect())
}

/// The schema of a system view (`None` for non-view names). Columns are
/// qualified by the view name, exactly like a stored table's.
pub fn stat_view_schema(name: &str) -> Option<Schema> {
    let key = name.to_ascii_uppercase();
    Some(match key.as_str() {
        STAT_TABLES => cols(
            &key,
            &[
                ("TABLE_NAME", ColumnType::Str),
                ("SCANS", ColumnType::Int),
                ("INDEX_PROBES", ColumnType::Int),
                ("TUPLES_READ", ColumnType::Int),
                ("TUPLES_WRITTEN", ColumnType::Int),
            ],
        ),
        STAT_STATEMENTS => cols(
            &key,
            &[
                ("QUERY", ColumnType::Str),
                ("CALLS", ColumnType::Int),
                ("ERRORS", ColumnType::Int),
                ("REFUSALS", ColumnType::Int),
                ("TOTAL_US", ColumnType::Int),
                ("MIN_US", ColumnType::Int),
                ("MAX_US", ColumnType::Int),
                ("P50_US", ColumnType::Int),
                ("P95_US", ColumnType::Int),
                ("P99_US", ColumnType::Int),
                ("READS", ColumnType::Int),
                ("WRITES", ColumnType::Int),
                ("STRATEGY", ColumnType::Str),
                ("EXEC_MODE", ColumnType::Str),
            ],
        ),
        STAT_CACHE => cols(
            &key,
            &[
                ("HITS", ColumnType::Int),
                ("MISSES", ColumnType::Int),
                ("EVICTIONS", ColumnType::Int),
                ("INVALIDATIONS", ColumnType::Int),
                ("ENTRIES", ColumnType::Int),
                ("BYTES", ColumnType::Int),
            ],
        ),
        STAT_STORAGE => cols(
            &key,
            &[
                ("READS", ColumnType::Int),
                ("WRITES", ColumnType::Int),
                ("BUF_HITS", ColumnType::Int),
                ("BUF_MISSES", ColumnType::Int),
                ("LIVE_PAGES", ColumnType::Int),
                ("RESIDENT_PAGES", ColumnType::Int),
                ("DURABLE", ColumnType::Int),
                ("WAL_BYTES", ColumnType::Int),
                ("COMMITS", ColumnType::Int),
                ("CHECKPOINTS", ColumnType::Int),
            ],
        ),
        _ => return None,
    })
}

/// Build the current contents of one system view.
///
/// `base_tables` is the catalog's live table list (name order): the
/// tables view reports a row for every base table even before its first
/// access, merged with any registry counters (including counters for
/// since-dropped tables). Reads of `registry` and `storage` are pure
/// loads — assembling a view perturbs nothing it reports.
pub fn stat_view_relation(
    name: &str,
    registry: &StatsRegistry,
    base_tables: &[String],
    storage: &Storage,
) -> Option<Relation> {
    let key = name.to_ascii_uppercase();
    let schema = stat_view_schema(&key)?;
    let snap = registry.snapshot();
    let tuples: Vec<Tuple> = match key.as_str() {
        STAT_TABLES => tables_rows(&snap, base_tables),
        STAT_STATEMENTS => snap
            .statements
            .iter()
            .map(|s| {
                Tuple::new(vec![
                    Value::Str(s.query.clone()),
                    int(s.calls),
                    int(s.errors),
                    int(s.refusals),
                    int(s.total_us),
                    int(s.min_us),
                    int(s.max_us),
                    int(s.p50_us),
                    int(s.p95_us),
                    int(s.p99_us),
                    int(s.reads),
                    int(s.writes),
                    Value::Str(s.strategy.clone()),
                    Value::Str(s.exec_mode.clone()),
                ])
            })
            .collect(),
        STAT_CACHE => {
            let c = snap.cache;
            vec![Tuple::new(vec![
                int(c.hits),
                int(c.misses),
                int(c.evictions),
                int(c.invalidations),
                int(c.entries),
                int(c.bytes),
            ])]
        }
        STAT_STORAGE => {
            let io = storage.io_snapshot();
            let durable = storage.durable();
            vec![Tuple::new(vec![
                int(io.reads),
                int(io.writes),
                int(io.hits),
                int(io.misses),
                int(storage.live_pages() as u64),
                int(storage.resident_pages() as u64),
                int(u64::from(durable.is_some())),
                int(durable.map_or(0, |d| d.wal_len())),
                int(durable.map_or(0, |d| d.commits())),
                int(durable.map_or(0, |d| d.checkpoints())),
            ])]
        }
        _ => return None,
    };
    Some(Relation::new(schema, tuples).expect("stat view rows match their schema"))
}

/// One row per base table (name order), merged with registry counters;
/// registry entries for tables no longer in the catalog are appended so
/// history survives drops.
fn tables_rows(snap: &StatsSnapshot, base_tables: &[String]) -> Vec<Tuple> {
    let mut rows = Vec::new();
    let mut covered: Vec<&str> = Vec::new();
    for name in base_tables {
        let t = snap.tables.iter().find(|t| &t.table == name);
        covered.push(name.as_str());
        rows.push(Tuple::new(vec![
            Value::Str(name.clone()),
            int(t.map_or(0, |t| t.scans)),
            int(t.map_or(0, |t| t.index_probes)),
            int(t.map_or(0, |t| t.tuples_read)),
            int(t.map_or(0, |t| t.tuples_written)),
        ]));
    }
    for t in &snap.tables {
        if !covered.contains(&t.table.as_str()) {
            rows.push(Tuple::new(vec![
                Value::Str(t.table.clone()),
                int(t.scans),
                int(t.index_probes),
                int(t.tuples_read),
                int(t.tuples_written),
            ]));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_names_resolve_case_insensitively() {
        assert!(is_stat_view("nsql_stat_statements"));
        assert!(is_stat_view("NSQL_STAT_TABLES"));
        assert!(!is_stat_view("PARTS"));
        assert!(stat_view_schema("nsql_stat_cache").is_some());
        assert!(stat_view_schema("SUPPLY").is_none());
    }

    #[test]
    fn statements_view_rows_match_schema_and_registry() {
        let st = Storage::with_defaults();
        let reg = StatsRegistry::new(true);
        reg.record_statement(&nsql_obs::stats::StatementSample {
            fingerprint: "SELECT A FROM T WHERE B = ?".into(),
            micros: 90,
            reads: 3,
            writes: 1,
            strategy: "nested-iteration".into(),
            exec_mode: "row".into(),
            error: false,
            refusals: 0,
        });
        let rel = stat_view_relation(STAT_STATEMENTS, &reg, &[], &st).unwrap();
        assert_eq!(rel.tuples().len(), 1);
        let t = &rel.tuples()[0];
        assert_eq!(t.get(0), &Value::Str("SELECT A FROM T WHERE B = ?".into()));
        assert_eq!(t.get(1), &Value::Int(1)); // calls
        // p50 of one 90us sample: bucket upper of bucket_of(90) = 127.
        assert_eq!(t.get(7), &Value::Int(127));
    }

    #[test]
    fn tables_view_includes_untouched_base_tables() {
        let st = Storage::with_defaults();
        let reg = StatsRegistry::new(true);
        reg.table("OLD").unwrap().scans.add(0, 4);
        let rel = stat_view_relation(
            STAT_TABLES,
            &reg,
            &["PARTS".to_string(), "SUPPLY".to_string()],
            &st,
        )
        .unwrap();
        let names: Vec<&Value> = rel.tuples().iter().map(|t| t.get(0)).collect();
        assert_eq!(
            names,
            vec![
                &Value::Str("PARTS".into()),
                &Value::Str("SUPPLY".into()),
                &Value::Str("OLD".into())
            ]
        );
        assert_eq!(rel.tuples()[2].get(1), &Value::Int(4));
    }

    #[test]
    fn storage_view_reports_io_without_perturbing_it() {
        let st = Storage::with_defaults();
        let before = st.io_snapshot();
        let rel = stat_view_relation(STAT_STORAGE, &StatsRegistry::new(true), &[], &st).unwrap();
        assert_eq!(rel.tuples().len(), 1);
        let after = st.io_snapshot();
        assert_eq!(before, after, "assembling the view must not move counters");
    }
}
