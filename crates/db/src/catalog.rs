//! The table catalog: names → stored heap files (+ their B+tree indexes).
//!
//! On a file-backed [`Storage`] the catalog is also the unit of durability:
//! every DDL/DML statement ends by committing the open page batch together
//! with a self-describing snapshot of the whole catalog (table schemas, page
//! ids, tuple counts, encoded indexes). Recovery hands that snapshot back and
//! [`Catalog::restore`] rebuilds the in-memory maps without any counted page
//! I/O.
//!
//! Pages are immutable and every change is copy-on-write: `INSERT` writes
//! the pages it changes again — the table's last page, one leaf per row of
//! each index, a parent when a leaf splits — frees the ones they replace and
//! shares the rest, so a statement's commit carries a handful of page
//! images whatever the table's size.

use crate::error::DbError;
use crate::stat_views;
use crate::Result;
use nsql_analyzer::resolve::SchemaSource;
use nsql_engine::TableProvider;
use nsql_index::BTreeIndex;
use nsql_obs::stats::{StatsRegistry, TableCounters};
use nsql_storage::durable::codec::{self, ByteReader, ByteWriter};
use nsql_storage::{HeapFile, PageId, Storage, StorageError};
use nsql_types::{Relation, Schema, Tuple, TypeError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Version tag leading every catalog snapshot (room to evolve the layout).
/// v1: tables + indexes. v2: adds per-table per-column distinct counts, so
/// the statistics survive restarts; v1 snapshots still restore (without
/// stats).
const SNAPSHOT_VERSION: u32 = 2;

fn store_err(e: StorageError) -> DbError {
    DbError::Engine(nsql_engine::EngineError::Storage(e))
}

/// Catalog of base tables bound to one [`Storage`].
pub struct Catalog {
    storage: Storage,
    tables: BTreeMap<String, HeapFile>,
    indexes: BTreeMap<String, Vec<Arc<BTreeIndex>>>,
    /// Per-table, per-column distinct-value counts, gathered while a loaded
    /// relation passes through memory. Their consumer is the cardinality
    /// estimator of ROADMAP item 7 (how many distinct bindings, so how many
    /// evaluations, a correlated block will see); today only tests read
    /// them. An INSERT does not look at the table, so it leaves `None`
    /// (stale): [`Catalog::distinct_count`], the counts' one reader, recounts
    /// from the pages when next asked and keeps the result until the next
    /// INSERT. The v2 catalog snapshot persists the counts it has, so the
    /// statistics survive restarts; a table restored from a v1 snapshot has
    /// no entry at all, and an estimate must fall back to the tuple count as
    /// a conservative upper bound.
    stats: Mutex<BTreeMap<String, Option<Vec<usize>>>>,
    /// The cumulative statistics registry shared with the owning
    /// `Database`. Per-table access counters are bumped here at the
    /// table-fetch and DML seams; the `nsql_stat_*` views render it.
    stats_registry: Arc<StatsRegistry>,
    /// Cached handles into the registry's per-table counters, maintained
    /// alongside `tables`. The table-fetch seam sits on nested iteration's
    /// per-binding loop, so it must not take the registry's map lock (or
    /// allocate a key) per call — it bumps these pre-resolved relaxed
    /// atomics instead, gated on one `enabled()` load.
    counters: BTreeMap<String, Arc<TableCounters>>,
    /// Materialized `nsql_stat_*` views, keyed by uppercase view name.
    /// Heap files on uncounted system pages; refreshed once per statement
    /// for the views that statement references (interior mutability:
    /// refresh and lazy materialization happen behind `&self` during
    /// planning and execution).
    system_views: Mutex<BTreeMap<String, HeapFile>>,
}

/// Distinct values per column of an in-memory tuple set.
fn column_distincts(tuples: &[Tuple], arity: usize) -> Vec<usize> {
    (0..arity)
        .map(|i| {
            tuples
                .iter()
                .map(|t| t.get(i))
                .collect::<std::collections::HashSet<_>>()
                .len()
        })
        .collect()
}

impl Catalog {
    /// Empty catalog over `storage`. The statistics registry is created
    /// here, collecting, and shared outward via
    /// [`Catalog::stats_registry`].
    pub fn new(storage: Storage) -> Catalog {
        Catalog {
            storage,
            tables: BTreeMap::new(),
            indexes: BTreeMap::new(),
            stats: Mutex::new(BTreeMap::new()),
            stats_registry: Arc::new(StatsRegistry::default()),
            counters: BTreeMap::new(),
            system_views: Mutex::new(BTreeMap::new()),
        }
    }

    /// The cumulative statistics registry this catalog reports into.
    pub fn stats_registry(&self) -> Arc<StatsRegistry> {
        Arc::clone(&self.stats_registry)
    }

    /// Re-materialize the `nsql_stat_*` views named in `referenced`
    /// (non-view names are ignored). Called once per statement with the
    /// statement's full recursive table list, so every scan inside the
    /// statement — nested blocks included — sees one consistent snapshot.
    /// Views land on uncounted system pages: refreshing moves no counter.
    pub fn refresh_stat_views<'a>(&self, referenced: impl IntoIterator<Item = &'a str>) {
        for name in referenced {
            if stat_views::is_stat_view(name) {
                self.materialize_stat_view(&name.to_ascii_uppercase());
            }
        }
    }

    fn materialize_stat_view(&self, key: &str) -> Option<HeapFile> {
        let base: Vec<String> = self.tables.keys().cloned().collect();
        let rel =
            stat_views::stat_view_relation(key, &self.stats_registry, &base, &self.storage)?;
        let file = self.storage.store_relation_system(&rel);
        let mut views = self.system_views.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = views.insert(key.to_string(), file.clone()) {
            old.drop_pages(&self.storage);
        }
        Some(file)
    }

    /// The current materialization of a stat view, building it on first
    /// touch (a statement-start refresh normally got there first).
    fn stat_view_file(&self, key: &str) -> Option<HeapFile> {
        if let Some(f) = self
            .system_views
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            return Some(f.clone());
        }
        self.materialize_stat_view(key)
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Option<Vec<usize>>>> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Distinct values in `table`'s `col`-th column. `None` when the table
    /// came from a snapshot without statistics — callers fall back to the
    /// tuple count as an upper bound. Counts an INSERT made stale are taken
    /// again here, from the table's pages through the uncounted side channel
    /// (no I/O counter or buffer frame moves), and kept.
    pub fn distinct_count(&self, table: &str, col: usize) -> Option<usize> {
        let key = table.to_ascii_uppercase();
        let mut stats = self.stats();
        let counts = stats.get_mut(&key)?;
        if counts.is_none() {
            let file = self.tables.get(&key)?;
            let tuples: Vec<Tuple> = file
                .page_ids()
                .iter()
                .flat_map(|&id| self.storage.read_page_tuples_uncounted(id))
                .collect();
            *counts = Some(column_distincts(&tuples, file.schema().arity()));
        }
        counts.as_ref()?.get(col).copied()
    }

    /// The storage handle.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Create a table with `schema` (columns are requalified by the table
    /// name) and no rows.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_uppercase();
        if stat_views::is_stat_view(&key) {
            return Err(DbError::Catalog(format!("{key} is a reserved system view name")));
        }
        if self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!("table {key} already exists")));
        }
        let schema = schema.requalify(&key);
        self.stats().insert(key.clone(), Some(vec![0; schema.arity()]));
        self.counters.insert(key.clone(), self.stats_registry.table_entry(&key));
        let file = HeapFile::from_tuples(&self.storage, schema, Vec::new());
        self.tables.insert(key.clone(), file);
        self.persist()
    }

    /// Register a relation as a table (stores it; one write per page).
    /// Replaces any previous table of the same name, including its indexes.
    pub fn load_table(&mut self, name: &str, rel: &Relation) -> Result<()> {
        let key = name.to_ascii_uppercase();
        if stat_views::is_stat_view(&key) {
            return Err(DbError::Catalog(format!("{key} is a reserved system view name")));
        }
        let counters = self
            .counters
            .entry(key.clone())
            .or_insert_with(|| self.stats_registry.table_entry(&key));
        if self.stats_registry.enabled() {
            counters.tuples_written.add(rel.tuples().len() as u64);
        }
        let requalified =
            Relation::new(rel.schema().requalify(&key), rel.tuples().to_vec())?;
        self.stats().insert(
            key.clone(),
            Some(column_distincts(requalified.tuples(), requalified.schema().arity())),
        );
        let file = self.storage.store_relation(&requalified);
        if let Some(old) = self.tables.insert(key.clone(), file) {
            old.drop_pages(&self.storage);
        }
        for ix in self.indexes.remove(&key).unwrap_or_default() {
            ix.drop_pages(&self.storage);
        }
        self.persist()
    }

    /// Append rows to a table, at a cost that does not depend on its size:
    /// the heap file's last page is written again with the rows
    /// ([`HeapFile::append`]), every index takes them one leaf at a time
    /// ([`BTreeIndex::insert`]), and the table's distinct counts are marked
    /// stale instead of recounted. The table is not scanned and no index is
    /// built.
    ///
    /// This is the one write path fed from outside the program, so the rows
    /// are checked before anything is written: each must have the table's
    /// arity, and each non-`NULL` value the comparison class of its column
    /// (a string in an `INT` column would fail every later comparison
    /// against it). An INSERT of no rows changes nothing and commits
    /// nothing.
    pub fn insert(&mut self, name: &str, rows: Vec<Tuple>) -> Result<usize> {
        let key = name.to_ascii_uppercase();
        let file = self
            .tables
            .get(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {key}")))?;
        let schema = file.schema();
        for r in &rows {
            if r.arity() != schema.arity() {
                return Err(DbError::Type(TypeError::ArityMismatch {
                    schema: schema.arity(),
                    tuple: r.arity(),
                }));
            }
            for (column, v) in schema.columns().iter().zip(r.values()) {
                if let Some(found) = v.column_type().filter(|_| !column.ty.admits(v)) {
                    return Err(DbError::Type(TypeError::ColumnMismatch {
                        column: column.qualified_name(),
                        declared: column.ty,
                        found,
                    }));
                }
            }
        }
        let n = rows.len();
        if n == 0 {
            return Ok(0);
        }
        if self.stats_registry.enabled() {
            if let Some(t) = self.counters.get(&key) {
                t.tuples_written.add(n as u64);
            }
        }
        for slot in self.indexes.get_mut(&key).into_iter().flatten() {
            *slot = Arc::new(slot.insert(&self.storage, &rows));
        }
        let grown = file.append(&self.storage, rows);
        self.tables.insert(key.clone(), grown);
        if let Some(counts) = self.stats().get_mut(&key) {
            *counts = None;
        }
        self.persist()?;
        Ok(n)
    }

    /// Drop a table, freeing its pages and any indexes on it.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_uppercase();
        match self.tables.remove(&key) {
            Some(f) => {
                f.drop_pages(&self.storage);
                for ix in self.indexes.remove(&key).unwrap_or_default() {
                    ix.drop_pages(&self.storage);
                }
                self.stats().remove(&key);
                // Keep the registry's entry (dropped tables stay in the
                // history the views render); only the hot-path cache goes.
                self.counters.remove(&key);
                self.persist()
            }
            None => Err(DbError::Catalog(format!("unknown table {key}"))),
        }
    }

    /// Build a B+tree index on one column of `table` (resolved by
    /// unqualified column name, case-insensitively). Returns the generated
    /// index name. The index is a clustered copy of the table sorted by the
    /// key; an INSERT into the table adds its rows to it.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<String> {
        let key = table.to_ascii_uppercase();
        let file = self
            .tables
            .get(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {key}")))?
            .clone();
        let col = file
            .schema()
            .columns()
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(column))
            .ok_or_else(|| {
                DbError::Catalog(format!("no column {column} in table {key}"))
            })?;
        let existing = self.indexes.entry(key.clone()).or_default();
        if existing.iter().any(|ix| ix.key_col() == col) {
            return Err(DbError::Catalog(format!(
                "index on {key}.{} already exists",
                column.to_ascii_uppercase()
            )));
        }
        let ix_name = format!("IX_{key}_{}", column.to_ascii_uppercase());
        let ix = BTreeIndex::build(&self.storage, &ix_name, col, &file);
        existing.push(Arc::new(ix));
        self.persist()?;
        Ok(ix_name)
    }

    /// The indexes on `table` (empty slice when none).
    pub fn indexes(&self, table: &str) -> &[Arc<BTreeIndex>] {
        self.indexes
            .get(&table.to_ascii_uppercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of indexes across all tables.
    pub fn index_count(&self) -> usize {
        self.indexes.values().map(Vec::len).sum()
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The heap file of a table.
    pub fn table(&self, name: &str) -> Option<&HeapFile> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// Commit the open durable batch with a full catalog snapshot as the
    /// commit metadata. No-op on memory storage — every DDL/DML path calls
    /// this unconditionally.
    pub fn persist(&self) -> Result<()> {
        if !self.storage.is_durable() {
            return Ok(());
        }
        let snapshot = self.snapshot();
        self.storage.commit_durable(&snapshot).map_err(store_err)
    }

    /// Serialize the catalog: every table's schema, page ids, and tuple
    /// count, plus every index, plus (v2) the per-column distinct counts.
    /// The snapshot is self-describing — restoring needs no page reads.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u32(self.tables.len() as u32);
        for (key, file) in &self.tables {
            w.put_str(key);
            codec::put_schema(&mut w, file.schema());
            w.put_u64(file.tuple_count() as u64);
            w.put_u32(file.page_count() as u32);
            for pid in file.page_ids() {
                w.put_u64(pid.0);
            }
            let ixs = self.indexes.get(key).map(Vec::as_slice).unwrap_or(&[]);
            w.put_u32(ixs.len() as u32);
            for ix in ixs {
                ix.encode(&mut w);
            }
        }
        // v2 trailer: per-table per-column distinct counts, so a reopened
        // catalog has its statistics intact. A table whose counts are stale
        // has no entry.
        let stats = self.stats();
        let known = || stats.iter().filter_map(|(key, counts)| Some((key, counts.as_ref()?)));
        w.put_u32(known().count() as u32);
        for (key, counts) in known() {
            w.put_str(key);
            w.put_u32(counts.len() as u32);
            for &d in counts {
                w.put_u64(d as u64);
            }
        }
        w.into_bytes()
    }

    /// Rebuild a catalog from the snapshot handed back by crash recovery
    /// (`None`/empty → a fresh, empty catalog). Metadata work: no counted
    /// page I/O happens until the first query touches a table (decoding an
    /// index looks at its few internal pages through the uncounted side
    /// channel, see [`BTreeIndex::decode`]).
    pub fn restore(storage: Storage, snapshot: Option<&[u8]>) -> Result<Catalog> {
        let mut cat = Catalog::new(storage);
        let storage = &cat.storage;
        let Some(bytes) = snapshot.filter(|b| !b.is_empty()) else {
            return Ok(cat);
        };
        let mut r = ByteReader::new(bytes);
        let version = r.get_u32().map_err(store_err)?;
        if !(1..=SNAPSHOT_VERSION).contains(&version) {
            return Err(store_err(StorageError::Corrupt(format!(
                "unsupported catalog snapshot version {version}"
            ))));
        }
        let n_tables = r.get_u32().map_err(store_err)?;
        for _ in 0..n_tables {
            let key = r.get_str().map_err(store_err)?;
            let schema = codec::get_schema(&mut r).map_err(store_err)?;
            let tuple_count = r.get_u64().map_err(store_err)? as usize;
            let n_pages = r.get_u32().map_err(store_err)? as usize;
            let mut pages = Vec::with_capacity(n_pages);
            for _ in 0..n_pages {
                pages.push(PageId(r.get_u64().map_err(store_err)?));
            }
            let n_ixs = r.get_u32().map_err(store_err)? as usize;
            let mut ixs = Vec::with_capacity(n_ixs);
            for _ in 0..n_ixs {
                ixs.push(Arc::new(BTreeIndex::decode(&mut r, storage).map_err(store_err)?));
            }
            cat.counters.insert(key.clone(), cat.stats_registry.table_entry(&key));
            cat.tables.insert(key.clone(), HeapFile::from_parts(schema, pages, tuple_count));
            if !ixs.is_empty() {
                cat.indexes.insert(key, ixs);
            }
        }
        // v2 trailer: distinct-count statistics. A v1 snapshot ends here
        // and restores without stats (cost estimation falls back to tuple
        // counts, as before); a table the trailer leaves out had stale
        // counts when the snapshot was taken, and still has.
        if version >= 2 {
            let mut stats = cat.stats();
            stats.extend(cat.tables.keys().map(|key| (key.clone(), None)));
            let n_stats = r.get_u32().map_err(store_err)?;
            for _ in 0..n_stats {
                let key = r.get_str().map_err(store_err)?;
                let arity = r.get_u32().map_err(store_err)? as usize;
                let mut counts = Vec::with_capacity(arity);
                for _ in 0..arity {
                    counts.push(r.get_u64().map_err(store_err)? as usize);
                }
                stats.insert(key, Some(counts));
            }
        }
        Ok(cat)
    }
}

impl SchemaSource for Catalog {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        let key = table.to_ascii_uppercase();
        if let Some(schema) = stat_views::stat_view_schema(&key) {
            return Some(schema);
        }
        self.tables.get(&key).map(|f| f.schema().clone())
    }
}

impl TableProvider for Catalog {
    fn get_table(&self, table: &str) -> Option<HeapFile> {
        let key = table.to_ascii_uppercase();
        if stat_views::is_stat_view(&key) {
            // System views scan like tables but are never access-counted
            // themselves: they report the registry, they don't feed it.
            return self.stat_view_file(&key);
        }
        let file = self.tables.get(&key).cloned();
        if let Some(f) = &file {
            // Every heap-file fetch is the head of a scan (operators pull
            // the file once, then iterate its pages), so this one seam
            // charges both the scan and its tuple volume. It also sits on
            // nested iteration's per-binding loop, so it goes through the
            // pre-resolved counter cache — one relaxed load when disabled,
            // two relaxed adds when enabled, never the registry map lock.
            // Pure side-state: counted I/O is untouched, figures cannot
            // move.
            if self.stats_registry.enabled() {
                if let Some(t) = self.counters.get(&key) {
                    t.scans.add(1);
                    t.tuples_read.add(f.tuple_count() as u64);
                }
            }
        }
        file
    }

    fn get_indexes(&self, table: &str) -> Vec<Arc<BTreeIndex>> {
        self.indexes(table).to_vec()
    }

    fn note_index_probes(&self, table: &str, probes: u64) {
        if self.stats_registry.enabled() {
            if let Some(t) = self.counters.get(&table.to_ascii_uppercase()) {
                t.index_probes.add(probes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("A", ColumnType::Int),
            Column::new("B", ColumnType::Int),
        ])
    }

    #[test]
    fn create_insert_and_read_back() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        let n = cat
            .insert(
                "t",
                vec![
                    Tuple::new(vec![Value::Int(1), Value::Int(2)]),
                    Tuple::new(vec![Value::Int(3), Value::Int(4)]),
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        let file = cat.get_table("T").unwrap();
        assert_eq!(file.tuple_count(), 2);
        // Columns got requalified by the table name.
        assert!(file.schema().resolve(Some("T"), "A").is_ok());
    }

    #[test]
    fn duplicate_create_fails() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        assert!(cat.create_table("t", schema()).is_err());
    }

    #[test]
    fn insert_checks_arity() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        assert!(cat.insert("T", vec![Tuple::new(vec![Value::Int(1)])]).is_err());
    }

    #[test]
    fn drop_table_removes() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        cat.drop_table("T").unwrap();
        assert!(cat.get_table("T").is_none());
        assert!(cat.drop_table("T").is_err());
    }

    #[test]
    fn stat_view_names_are_reserved() {
        let mut cat = Catalog::new(Storage::with_defaults());
        assert!(cat.create_table("nsql_stat_tables", schema()).is_err());
        let rel = Relation::empty(schema());
        assert!(cat.load_table("NSQL_STAT_STORAGE", &rel).is_err());
    }

    #[test]
    fn get_table_serves_stat_views_and_counts_base_scans() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        cat.insert("T", vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])]).unwrap();
        let _ = cat.get_table("T").unwrap();
        let _ = cat.get_table("T").unwrap();
        cat.refresh_stat_views(["nsql_stat_tables"]);
        let view = cat.get_table("nsql_stat_tables").unwrap();
        let rows: Vec<_> = view.scan(cat.storage()).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Str("T".into()));
        assert_eq!(rows[0].get(1), &Value::Int(2), "two scans of T");
        assert_eq!(rows[0].get(4), &Value::Int(1), "one tuple written");
        // Views have a schema and are absent from the base-table list.
        assert!(cat.table_schema("NSQL_STAT_TABLES").is_some());
        assert!(!cat.table_names().contains(&"NSQL_STAT_TABLES"));
    }

    #[test]
    fn snapshot_roundtrips_distinct_counts() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        cat.insert(
            "T",
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(7)]),
                Tuple::new(vec![Value::Int(2), Value::Int(7)]),
                Tuple::new(vec![Value::Int(2), Value::Int(8)]),
            ],
        )
        .unwrap();
        assert_eq!(cat.distinct_count("T", 0), Some(2));
        assert_eq!(cat.distinct_count("T", 1), Some(2));
        let snap = cat.snapshot();
        let restored = Catalog::restore(Storage::with_defaults(), Some(&snap)).unwrap();
        assert_eq!(restored.distinct_count("T", 0), Some(2));
        assert_eq!(restored.distinct_count("T", 1), Some(2));
        assert_eq!(restored.distinct_count("T", 9), None);
    }

    #[test]
    fn distinct_counts_after_inserts_are_a_recount_across_snapshot_and_restore() {
        let storage = Storage::with_defaults();
        let mut cat = Catalog::new(storage.clone());
        cat.create_table("T", schema()).unwrap();
        let mut rows = Vec::new();
        for batch in 0..6i64 {
            let new: Vec<Tuple> = (0..40)
                .map(|i| Tuple::new(vec![Value::Int((batch * 40 + i) % 70), Value::Int(i % 9)]))
                .collect();
            rows.extend(new.iter().cloned());
            cat.insert("T", new).unwrap();
        }
        let recount = column_distincts(&rows, 2);
        assert_eq!(recount, [70, 9]);

        // Stale in the snapshot (no entry), recounted after restore.
        assert!(cat_stats(&cat).is_empty(), "an INSERT leaves the counts stale");
        let restored = Catalog::restore(storage.clone(), Some(&cat.snapshot())).unwrap();
        assert_eq!(restored.distinct_count("T", 0), Some(70));
        assert_eq!(restored.distinct_count("T", 1), Some(9));

        // Recounted on demand without counted I/O, kept, and then persisted.
        let before = storage.io_snapshot();
        assert_eq!(cat.distinct_count("T", 0), Some(70));
        assert_eq!(cat.distinct_count("T", 1), Some(9));
        assert_eq!(cat.distinct_count("T", 2), None);
        assert_eq!(storage.io_snapshot(), before, "the recount moves no counter");
        assert_eq!(cat_stats(&cat)["T"], recount);
        let restored = Catalog::restore(storage.clone(), Some(&cat.snapshot())).unwrap();
        assert_eq!(cat_stats(&restored)["T"], recount);

        // The next INSERT makes them stale again.
        cat.insert("T", vec![Tuple::new(vec![Value::Int(500), Value::Int(0)])]).unwrap();
        assert!(cat_stats(&cat).is_empty());
        assert_eq!(cat.distinct_count("T", 0), Some(71));
    }

    #[test]
    fn insert_rejects_a_value_of_the_wrong_class_before_writing() {
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        cat.create_index("T", "A").unwrap();
        let (snapshot, live) = (cat.snapshot(), cat.storage().live_pages());
        let err = cat
            .insert(
                "T",
                vec![
                    Tuple::new(vec![Value::Int(1), Value::Int(2)]),
                    Tuple::new(vec![Value::Int(3), Value::str("x")]),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            DbError::Type(TypeError::ColumnMismatch {
                column: "T.B".into(),
                declared: nsql_types::ColumnType::Int,
                found: nsql_types::ColumnType::Str,
            })
        );
        assert_eq!(cat.table("T").unwrap().tuple_count(), 0, "the good row is not stored either");
        assert_eq!((cat.snapshot(), cat.storage().live_pages()), (snapshot, live));
        // NULL fits every column, a float an INT column (one comparison class).
        cat.insert("T", vec![Tuple::new(vec![Value::Null, Value::Float(1.5)])]).unwrap();
        // No rows: nothing changes, not even the distinct counts.
        let snapshot = cat.snapshot();
        assert_eq!(cat.insert("T", Vec::new()).unwrap(), 0);
        assert_eq!(cat.snapshot(), snapshot);
    }

    #[test]
    fn insert_keeps_every_index_answering_like_a_filter() {
        let mut cat = Catalog::new(Storage::new(6, 128));
        cat.create_table("T", schema()).unwrap();
        cat.create_index("T", "A").unwrap();
        cat.create_index("T", "B").unwrap();
        let mut rows = Vec::new();
        for batch in 0..30i64 {
            let new: Vec<Tuple> = (0..5)
                .map(|i| Tuple::new(vec![Value::Int((batch * 7 + i) % 23), Value::Int(batch)]))
                .collect();
            rows.extend(new.iter().cloned());
            cat.insert("T", new).unwrap();
        }
        let storage = cat.storage().clone();
        for (ix, col) in cat.indexes("T").iter().zip([0usize, 1]) {
            assert_eq!(ix.key_col(), col);
            assert_eq!(ix.stats().tuples, rows.len());
            for k in 0..30 {
                let mut want: Vec<Tuple> =
                    rows.iter().filter(|t| t.get(col) == &Value::Int(k)).cloned().collect();
                want.sort_by(Tuple::total_cmp);
                assert_eq!(ix.probe_eq(&storage, &Value::Int(k)), want, "column {col}, key {k}");
            }
        }
        let pages = cat.table("T").unwrap().page_count()
            + cat.indexes("T").iter().map(|ix| ix.page_count()).sum::<usize>();
        assert_eq!(storage.live_pages(), pages, "replaced pages are freed");
    }

    #[test]
    fn v1_snapshots_still_restore_without_stats() {
        // Hand-build a v1 image: same layout, version 1, no stats trailer.
        let mut cat = Catalog::new(Storage::with_defaults());
        cat.create_table("T", schema()).unwrap();
        let v2 = cat.snapshot();
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let mut v1 = w.into_bytes();
        // Body up to the stats trailer: everything after the version word,
        // minus the trailer this catalog wrote (one u32 count + one entry).
        let body_start = 4;
        let mut trailer = ByteWriter::new();
        let stats = cat_stats(&cat);
        trailer.put_u32(stats.len() as u32);
        for (key, counts) in &stats {
            trailer.put_str(key);
            trailer.put_u32(counts.len() as u32);
            for &d in counts {
                trailer.put_u64(d as u64);
            }
        }
        let trailer_len = trailer.into_bytes().len();
        v1.extend_from_slice(&v2[body_start..v2.len() - trailer_len]);
        let restored = Catalog::restore(Storage::with_defaults(), Some(&v1)).unwrap();
        assert!(restored.get_table("T").is_some());
        assert_eq!(restored.distinct_count("T", 0), None, "v1 carries no stats");
        // Unknown future versions are still rejected.
        let mut bad = ByteWriter::new();
        bad.put_u32(99);
        assert!(Catalog::restore(Storage::with_defaults(), Some(&bad.into_bytes())).is_err());
    }

    /// The counts the snapshot's trailer carries.
    fn cat_stats(cat: &Catalog) -> BTreeMap<String, Vec<usize>> {
        cat.stats().iter().filter_map(|(k, c)| Some((k.clone(), c.clone()?))).collect()
    }
}
