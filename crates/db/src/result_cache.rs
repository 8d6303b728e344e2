//! Transform-path glue for the cross-query result cache (`nsql-cache`).
//!
//! The cacheable unit on the transform path is one materialized temporary
//! (NEST-JA2's `TEMP1..TEMP3`, Kim's aggregate temp, NEST-N-J's projected
//! lists). Two concerns live here:
//!
//! * **Keys** — a temp is identified by its *deep* plan text (its
//!   [`LogicalPlan::explain`] rendering with every referenced temp's
//!   definition appended), the options fingerprint, the sorted
//!   `(base table, generation)` pairs it transitively reads, and the
//!   catalog epoch. Two queries that produce structurally identical temps
//!   over unchanged bases share entries, whatever their SQL spelling.
//! * **Replay** — an exact hit does not skip I/O, it *recharges* it: the
//!   recorded page-event sequence is re-issued against the live buffer
//!   pool with fresh page ids, so reads, writes, the hit/miss split, and
//!   the final buffer state are identical to re-running the
//!   materialization (see DESIGN.md "Result caching").

use nsql_cache::{QueryCache, TempEntry};
use nsql_core::LogicalPlan;
use nsql_storage::{HeapFile, PageId, Storage, TraceEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Per-query cache context threaded into the plan executor.
#[derive(Clone)]
pub struct CacheCtx {
    /// The shared cache.
    pub cache: Arc<QueryCache>,
    /// Options fingerprint: every knob that changes the recorded I/O
    /// sequence of a materialization (join policy, index use, page and
    /// buffer geometry). Threads and exec mode are deliberately absent —
    /// both are sequence-invariant by the workspace's standing gates.
    pub fingerprint: String,
    /// Catalog incarnation stamp (see `Catalog::epoch`).
    pub epoch: u64,
}

/// Everything needed to probe, publish, and explain one temp's cache
/// interaction, derived before any materialization happens.
pub struct TempKey {
    /// The temp's name as the plan spells it (`TEMP1`, …).
    pub name: String,
    /// Deep plan text (referenced temp definitions inlined).
    pub text: String,
    /// Sorted `(base table, generation)` pairs transitively read.
    pub bases: Vec<(String, u64)>,
    /// Earlier temps this plan scans (uppercased), for the entry-identity
    /// dependency check.
    pub dep_names: Vec<String>,
}

/// Tables scanned directly by `plan`, uppercased.
fn scanned_tables(plan: &LogicalPlan, out: &mut BTreeSet<String>) {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            out.insert(table.to_ascii_uppercase());
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => scanned_tables(input, out),
        LogicalPlan::Join { left, right, .. } => {
            scanned_tables(left, out);
            scanned_tables(right, out);
        }
    }
}

/// Build the [`TempKey`]s for a plan's temps in creation order. Returns
/// `None` — caching must be skipped wholesale — when any transitively
/// scanned base table has no generation stamp (a provider that doesn't
/// track DML can't be invalidated soundly).
pub fn temp_keys(
    temps: &[nsql_core::TempTable],
    generation_of: impl Fn(&str) -> Option<u64>,
) -> Option<Vec<TempKey>> {
    let mut deep_texts: BTreeMap<String, String> = BTreeMap::new();
    let mut deep_bases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut keys = Vec::with_capacity(temps.len());
    for temp in temps {
        let upper = temp.name.to_ascii_uppercase();
        let mut scans = BTreeSet::new();
        scanned_tables(&temp.plan, &mut scans);
        let mut text = temp.plan.explain();
        let mut bases_set: BTreeSet<String> = BTreeSet::new();
        let mut dep_names = Vec::new();
        for t in &scans {
            if let Some(def) = deep_texts.get(t) {
                // Inline the referenced temp so the text pins the whole
                // computation, not a name that means something else in
                // another query.
                text.push_str(&format!("WITH {t} :=\n{def}"));
                dep_names.push(t.clone());
                bases_set.extend(deep_bases[t].iter().cloned());
            } else {
                bases_set.insert(t.clone());
            }
        }
        let mut bases = Vec::with_capacity(bases_set.len());
        for b in &bases_set {
            bases.push((b.clone(), generation_of(b)?));
        }
        deep_texts.insert(upper.clone(), text.clone());
        deep_bases.insert(upper, bases_set);
        keys.push(TempKey { name: temp.name.clone(), text, bases, dep_names });
    }
    Some(keys)
}

/// Re-issue a cached temp's recorded page-event sequence against live
/// storage and rebuild its heap file on the fresh pages.
///
/// `pid_map` carries recorded→live page-id translations *across* the
/// temps of one query: a later temp's recorded reads of an earlier temp's
/// pages must land on that temp's replayed pages. Events over unmapped
/// ids are base-table accesses — live under the very generation match
/// that produced the hit — and pass through untranslated. Every recorded
/// `Write` allocates a live page (scratch writes get an empty one) so the
/// write count, and the global page-id sequence after the replay, match
/// the recorded run exactly.
pub fn replay_temp(
    storage: &Storage,
    entry: &TempEntry,
    pid_map: &mut HashMap<PageId, PageId>,
) -> HeapFile {
    let mapped = |m: &HashMap<PageId, PageId>, pid: PageId| m.get(&pid).copied().unwrap_or(pid);
    for ev in &entry.trace {
        match *ev {
            TraceEvent::Read(pid) => {
                let _ = storage.read_page(mapped(pid_map, pid));
            }
            TraceEvent::ReadDirect(pid) => {
                let _ = storage.read_page_direct(mapped(pid_map, pid));
            }
            TraceEvent::Write(pid) => {
                let live = match entry.output_index(pid) {
                    Some(i) => storage.write_new_page(entry.output_pages[i].1.clone()),
                    None => storage.write_new_page(Vec::new()),
                };
                pid_map.insert(pid, live);
            }
            TraceEvent::Free(pid) => {
                // Only replayed pages are ours to free; the recorded run
                // never frees base pages inside a materialization.
                if let Some(live) = pid_map.get(&pid) {
                    storage.free_page(*live);
                }
            }
        }
    }
    let pages: Vec<PageId> =
        entry.output_pages.iter().map(|(pid, _)| mapped(pid_map, *pid)).collect();
    HeapFile::from_parts(entry.schema.clone(), pages, entry.tuple_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_core::{LogicalPlan, TempTable};
    use nsql_sql::{parse_query, Predicate};

    fn scan(t: &str) -> LogicalPlan {
        LogicalPlan::Scan { table: t.to_string(), alias: None }
    }

    fn pred(sql: &str) -> Predicate {
        parse_query(&format!("SELECT X FROM T WHERE {sql}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    #[test]
    fn deep_text_pins_referenced_temp_definitions() {
        let temps = vec![
            TempTable { name: "TEMP1".into(), plan: scan("BASE") },
            TempTable {
                name: "TEMP2".into(),
                plan: LogicalPlan::Filter {
                    input: Box::new(scan("TEMP1")),
                    pred: pred("A = 1"),
                },
            },
        ];
        let keys = temp_keys(&temps, |_| Some(7)).unwrap();
        assert!(keys[1].text.contains("WITH TEMP1 :="), "{}", keys[1].text);
        assert_eq!(keys[1].dep_names, vec!["TEMP1".to_string()]);
        // TEMP2's bases resolve through TEMP1 to the base table.
        assert_eq!(keys[1].bases, vec![("BASE".to_string(), 7)]);
    }

    #[test]
    fn missing_generation_disables_caching() {
        let temps = vec![TempTable { name: "TEMP1".into(), plan: scan("BASE") }];
        assert!(temp_keys(&temps, |_| None).is_none());
    }
}
