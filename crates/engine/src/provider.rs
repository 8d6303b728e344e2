//! Access to stored tables by name.

use nsql_index::BTreeIndex;
use nsql_storage::HeapFile;
use nsql_types::Schema;
use std::sync::Arc;

/// Source of stored tables. Implemented by the catalog in `nsql-db` and by
/// lightweight maps in tests. Temporary tables created during query
/// processing are registered under their generated names.
pub trait TableProvider {
    /// The heap file for `table`, if it exists (lookup is
    /// case-insensitive). The file's schema columns are qualified by the
    /// base table name.
    fn get_table(&self, table: &str) -> Option<HeapFile>;

    /// The schema of `table`, if it exists: what names are resolved
    /// against. Defaulted to the heap file's; the catalog overrides it with
    /// a lookup its statistics do not count as a scan.
    fn schema_of(&self, table: &str) -> Option<Schema> {
        self.get_table(table).map(|f| f.schema().clone())
    }

    /// The B+tree indexes on `table`, if any. Defaulted to none so
    /// lightweight test providers need not care; the catalog overrides it.
    fn get_indexes(&self, _table: &str) -> Vec<Arc<BTreeIndex>> {
        Vec::new()
    }

    /// Tell the provider the executor took an index path on `table`
    /// (`probes` key lookups or one range scan). Defaulted to a no-op;
    /// the catalog folds it into its cumulative statistics. Pure
    /// side-state — implementations must not touch counted I/O.
    fn note_index_probes(&self, _table: &str, _probes: u64) {}
}

impl<T: TableProvider + ?Sized> TableProvider for &T {
    fn get_table(&self, table: &str) -> Option<HeapFile> {
        (**self).get_table(table)
    }

    fn schema_of(&self, table: &str) -> Option<Schema> {
        (**self).schema_of(table)
    }

    fn get_indexes(&self, table: &str) -> Vec<Arc<BTreeIndex>> {
        (**self).get_indexes(table)
    }

    fn note_index_probes(&self, table: &str, probes: u64) {
        (**self).note_index_probes(table, probes)
    }
}

/// A simple in-memory provider: a map from table name to heap file.
/// The standalone provider used by tests, examples, and the benchmark
/// harness; `nsql-db`'s catalog supersedes it for full databases.
#[derive(Default)]
pub struct MemoryProvider {
    tables: std::collections::HashMap<String, HeapFile>,
}

impl MemoryProvider {
    /// Empty provider.
    pub fn new() -> MemoryProvider {
        MemoryProvider::default()
    }

    /// Register a table.
    pub fn register(&mut self, name: impl Into<String>, file: HeapFile) {
        self.tables.insert(name.into().to_ascii_uppercase(), file);
    }
}

impl TableProvider for MemoryProvider {
    fn get_table(&self, table: &str) -> Option<HeapFile> {
        self.tables.get(&table.to_ascii_uppercase()).cloned()
    }
}
