//! Page-corruption detection: flipped bits in committed data must surface
//! as a typed [`StorageError`], never a panic or a silent wrong answer.
//!
//! Random byte flips are drawn from the testkit PRNG at a pinned seed, so
//! the suite is deterministic yet covers many offsets; the targets are the
//! *live extents* of the page file (chunk headers + payloads reachable
//! from the current checkpoint) and the committed region of the WAL.

use nsql_storage::{Storage, StorageError};
use nsql_testkit::{Rng, TempDir};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

fn relation(n: i64) -> Relation {
    let schema = Schema::new(vec![
        Column::qualified("T", "K", ColumnType::Int),
        Column::qualified("T", "S", ColumnType::Str),
    ]);
    let mut rel = Relation::empty(schema);
    for i in 0..n {
        rel.push(Tuple::new(vec![Value::Int(i), Value::str(format!("value-{i}"))])).unwrap();
    }
    rel
}

/// Build a checkpointed store and return its directory guard.
fn checkpointed_store(dir: &TempDir) -> Vec<(u64, u64)> {
    let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
    let _f = st.store_relation(&relation(80));
    st.commit_durable(b"meta").unwrap();
    st.durable().unwrap().checkpoint().unwrap();
    st.durable().unwrap().live_extents().unwrap()
}

#[test]
fn flipped_bits_in_committed_pages_yield_typed_errors() {
    let mut rng = Rng::from_seed(0xc0_44u64);
    for round in 0..25 {
        let dir = TempDir::new("nsql-corrupt-page");
        let extents = checkpointed_store(&dir);
        assert!(!extents.is_empty());
        // Pick a live extent, flip one random byte inside it.
        let (off, len) = *rng.choose(&extents);
        let at = off + rng.gen_range(0..len.max(1) as i64) as u64;
        let path = dir.path().join("pages.nsql");
        let mut bytes = std::fs::read(&path).unwrap();
        let bit = 1u8 << rng.gen_range(0..8);
        bytes[at as usize] ^= bit;
        std::fs::write(&path, &bytes).unwrap();

        match Storage::file_backed(8, 256, dir.path()) {
            Err(
                StorageError::Checksum { .. } | StorageError::Corrupt(_) | StorageError::Io(_),
            ) => {}
            Err(other) => panic!("round {round}: unexpected error kind {other:?}"),
            Ok((st, _)) => panic!(
                "round {round}: flip at offset {at} (bit {bit:#x}) opened silently \
                 with {} pages",
                st.live_pages()
            ),
        }
    }
}

#[test]
fn flipped_bits_in_committed_wal_truncate_but_never_lie() {
    // A flip in the WAL's committed region must either (a) surface as a
    // typed error, or (b) roll recovery back to an earlier commit — but
    // never produce a state that claims the later commit while carrying
    // damaged data. Here there is one commit, so the only honest fallback
    // is the empty store.
    let mut rng = Rng::from_seed(0x3a17_u64);
    for round in 0..25 {
        let dir = TempDir::new("nsql-corrupt-wal");
        {
            let (st, _) = Storage::file_backed(8, 256, dir.path()).unwrap();
            let _f = st.store_relation(&relation(60));
            st.commit_durable(b"meta-1").unwrap();
            // No checkpoint: the WAL is the entire durable history.
        }
        let path = dir.path().join("wal.nsql");
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(!bytes.is_empty());
        let at = rng.gen_range(0..bytes.len() as i64) as usize;
        bytes[at] ^= 1u8 << rng.gen_range(0..8);
        std::fs::write(&path, &bytes).unwrap();

        match Storage::file_backed(8, 256, dir.path()) {
            Err(
                StorageError::Checksum { .. } | StorageError::Corrupt(_) | StorageError::Io(_),
            ) => {}
            Err(other) => panic!("round {round}: unexpected error kind {other:?}"),
            Ok((st, report)) => {
                // The damaged record and everything after it must be gone;
                // with a single commit that means a fully empty store.
                assert_eq!(
                    (st.live_pages(), st.durable().unwrap().committed_meta()),
                    (0, None),
                    "round {round}: flip at {at} survived as a wrong answer ({report:?})"
                );
            }
        }
    }
}

#[test]
fn truncated_page_file_is_detected() {
    let dir = TempDir::new("nsql-corrupt-trunc");
    let _ = checkpointed_store(&dir);
    let path = dir.path().join("pages.nsql");
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);
    let err = Storage::file_backed(8, 256, dir.path());
    assert!(
        matches!(err, Err(StorageError::Corrupt(_)) | Err(StorageError::Checksum { .. })),
        "got {:?}",
        err.map(|(st, r)| (st.live_pages(), r))
    );
}
