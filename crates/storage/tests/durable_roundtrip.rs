//! Durable store round-trips: commit → reopen, checkpoint → reopen,
//! free-list reuse, and I/O-count equivalence with the memory backend.

use nsql_storage::{Storage, StorageError};
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

fn int_relation(name: &str, n: i64) -> Relation {
    let schema = Schema::new(vec![
        Column::qualified(name, "A", ColumnType::Int),
        Column::qualified(name, "B", ColumnType::Str),
    ]);
    let mut rel = Relation::empty(schema);
    for i in 0..n {
        rel.push(Tuple::new(vec![Value::Int(i), Value::str(format!("row-{i}"))])).unwrap();
    }
    rel
}

fn page_ids_tuples(st: &Storage, file: &nsql_storage::HeapFile) -> Vec<Tuple> {
    file.scan(st).collect()
}

#[test]
fn committed_pages_survive_reopen() {
    let dir = TempDir::new("nsql-durable-roundtrip");
    let rel = int_relation("T", 120);
    let (pages, want) = {
        let (st, report) = Storage::file_backed(8, 256, dir.path()).unwrap();
        assert_eq!(report, nsql_storage::RecoveryReport::default());
        let file = st.store_relation(&rel);
        st.commit_durable(b"meta-v1").unwrap();
        (file.page_ids().to_vec(), page_ids_tuples(&st, &file))
    };
    assert!(pages.len() > 1, "should span pages");

    let (st2, report) = Storage::file_backed(8, 256, dir.path()).unwrap();
    assert_eq!(report.wal_records_applied, pages.len() + 1);
    assert_eq!(report.commits_applied, 1);
    assert!(!report.torn_tail);
    assert_eq!(st2.durable().unwrap().committed_meta().as_deref(), Some(&b"meta-v1"[..]));
    assert_eq!(st2.live_pages(), pages.len());
    let mut got = Vec::new();
    for &id in &pages {
        got.extend(st2.read_page(id).tuples().iter().cloned());
    }
    assert_eq!(got, want);
}

#[test]
fn uncommitted_batch_rolls_back_on_reopen() {
    let dir = TempDir::new("nsql-durable-rollback");
    {
        let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
        let _committed = st.store_relation(&int_relation("T", 40));
        st.commit_durable(b"v1").unwrap();
        // Uncommitted writes: never reach a commit record.
        let _lost = st.store_relation(&int_relation("U", 40));
    }
    let (st2, report) = Storage::file_backed(8, 256, dir.path()).unwrap();
    // Logging is deferred to commit: the uncommitted batch never reached
    // the WAL, so recovery sees a clean log ending at the commit.
    assert_eq!(report.wal_records_discarded, 0);
    assert!(!report.torn_tail);
    assert_eq!(st2.durable().unwrap().committed_meta().as_deref(), Some(&b"v1"[..]));
    let committed_pages = report.wal_records_applied - 1; // minus the commit record
    assert_eq!(st2.live_pages(), committed_pages);
}

#[test]
fn checkpoint_then_reopen_reads_no_wal() {
    let dir = TempDir::new("nsql-durable-ckpt");
    let rel = int_relation("T", 200);
    let pages = {
        let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
        let file = st.store_relation(&rel);
        st.commit_durable(b"v1").unwrap();
        st.durable().unwrap().checkpoint().unwrap();
        assert_eq!(st.durable().unwrap().wal_len(), 0);
        file.page_ids().to_vec()
    };
    let (st2, report) = Storage::file_backed(8, 256, dir.path()).unwrap();
    assert!(report.had_checkpoint);
    assert_eq!(report.pages_from_checkpoint, pages.len());
    assert_eq!(report.wal_records_scanned, 0);
    assert_eq!(st2.live_pages(), pages.len());
    // Content still intact.
    let total: usize = pages.iter().map(|&id| st2.read_page(id).len()).sum();
    assert_eq!(total, 200);
}

#[test]
fn frees_and_rewrites_across_checkpoints_reuse_slots() {
    let dir = TempDir::new("nsql-durable-freelist");
    let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
    let f1 = st.store_relation(&int_relation("T", 100));
    st.commit_durable(b"v1").unwrap();
    st.durable().unwrap().checkpoint().unwrap();
    let extents_before = st.durable().unwrap().live_extents().unwrap().len();

    // Drop the relation, write a same-sized replacement, checkpoint again:
    // the file should not balloon (slots are reused).
    for &id in f1.page_ids() {
        st.free_page(id);
    }
    let f2 = st.store_relation(&int_relation("T", 100));
    st.commit_durable(b"v2").unwrap();
    st.durable().unwrap().checkpoint().unwrap();
    let extents_after = st.durable().unwrap().live_extents().unwrap().len();
    assert_eq!(extents_before, extents_after);

    let (st3, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
    assert_eq!(st3.live_pages(), f2.page_ids().len());
    let size1 = std::fs::metadata(dir.path().join("pages.nsql")).unwrap().len();
    // One more cycle must not grow the file at all.
    for &id in f2.page_ids() {
        st.free_page(id);
    }
    let _f3 = st.store_relation(&int_relation("T", 100));
    st.commit_durable(b"v3").unwrap();
    st.durable().unwrap().checkpoint().unwrap();
    let size2 = std::fs::metadata(dir.path().join("pages.nsql")).unwrap().len();
    assert_eq!(size1, size2, "slot reuse must keep the page file stable");
}

#[test]
fn io_counts_match_memory_backend_exactly() {
    let dir = TempDir::new("nsql-durable-iocount");
    let rel = int_relation("T", 150);

    let mem = Storage::new(4, 256);
    let (file_st, _) = Storage::file_backed(4, 256, dir.path()).unwrap();

    let mut snaps = Vec::new();
    for st in [&mem, &file_st] {
        let f = st.store_relation(&rel);
        st.commit_durable(b"v").unwrap(); // memory: no-op
        st.clear_buffer();
        st.reset_stats();
        let _ = st.load_relation(&f);
        let _ = st.load_relation(&f); // second scan exercises the buffer
        snaps.push(st.io_snapshot());
    }
    assert_eq!(snaps[0], snaps[1], "counted I/O must be backend-independent");
}

#[test]
fn page_id_allocation_resumes_after_reopen() {
    let dir = TempDir::new("nsql-durable-nextid");
    let max_id = {
        let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
        let f = st.store_relation(&int_relation("T", 50));
        st.commit_durable(b"v").unwrap();
        f.page_ids().iter().map(|p| p.0).max().unwrap()
    };
    let (st2, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
    let fresh = st2.write_new_page(vec![Tuple::new(vec![Value::Int(1)])]);
    assert!(fresh.0 > max_id, "recovered allocator must not reuse live ids");
}

#[test]
fn reopen_respects_stored_page_size() {
    let dir = TempDir::new("nsql-durable-pagesize");
    {
        let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
        let f = st.store_relation(&int_relation("T", 50));
        st.commit_durable(b"v").unwrap();
        st.durable().unwrap().checkpoint().unwrap();
        drop(f);
    }
    // Caller passes a different default; the header's 256 must win.
    let (st2, _) = Storage::file_backed(8, 4096, dir.path()).unwrap();
    assert_eq!(st2.page_size(), 256);
}

#[test]
fn checkpoint_mid_batch_is_a_typed_error() {
    let dir = TempDir::new("nsql-durable-midbatch");
    let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
    let _f = st.store_relation(&int_relation("T", 10));
    let err = st.durable().unwrap().checkpoint().unwrap_err();
    assert!(matches!(err, StorageError::Invalid(_)), "got {err:?}");
}
