//! A B+tree grown by `BTreeIndex::insert` is the tree `BTreeIndex::build`
//! would have made of the same rows — the same leaf sequence, the same
//! answers, the same statistics (the two shape figures apart) — whatever the
//! interleaving of batches, and it owns exactly the pages it says it does.

use nsql_index::{BTreeIndex, KeyBound};
use nsql_storage::durable::codec::{ByteReader, ByteWriter};
use nsql_storage::{HeapFile, Storage};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

/// `(key, payload)`: a `None` key is NULL; the payload also sets the row's
/// width (12 to 48 bytes of padding, so rows pass half a 64-byte page).
type Row = (Option<i64>, i64);

fn schema() -> Schema {
    Schema::new(vec![
        Column::qualified("T", "K", ColumnType::Int),
        Column::qualified("T", "V", ColumnType::Int),
        Column::qualified("T", "PAD", ColumnType::Str),
    ])
}

fn tuple(&(k, v): &Row) -> Tuple {
    let pad = "p".repeat(v.rem_euclid(5) as usize * 9);
    Tuple::new(vec![k.map_or(Value::Null, Value::Int), Value::Int(v), Value::str(pad)])
}

/// Up to `max` rows.
fn rows(rng: &mut Rng, max: usize, serial: &mut i64) -> Vec<Row> {
    (0..rng.gen_range(0..max))
        .map(|_| {
            *serial += 1;
            let key = match rng.gen_range(0u32..20) {
                0 | 1 => None,
                // Below every key so far, and above.
                2 => Some(-1000 - *serial),
                3 => Some(1000 + *serial),
                // Few values: runs of one key that span leaves.
                _ => Some(rng.gen_range(-20i64..21)),
            };
            // A payload repeats now and then: identical rows.
            (key, if rng.gen_bool(0.1) { 7 } else { *serial })
        })
        .collect()
}

fn naive(all: &[Row], lo: &KeyBound, hi: &KeyBound) -> Vec<Tuple> {
    let admits = |k: i64| {
        let low = match lo {
            KeyBound::Unbounded => true,
            KeyBound::Incl(Value::Int(b)) => k >= *b,
            KeyBound::Excl(Value::Int(b)) => k > *b,
            _ => unreachable!(),
        };
        let high = match hi {
            KeyBound::Unbounded => true,
            KeyBound::Incl(Value::Int(b)) => k <= *b,
            KeyBound::Excl(Value::Int(b)) => k < *b,
            _ => unreachable!(),
        };
        low && high
    };
    let mut out: Vec<Tuple> = all.iter().filter(|r| r.0.is_some_and(admits)).map(tuple).collect();
    out.sort_by(|a, b| a.get(0).total_cmp(b.get(0)).then_with(|| a.total_cmp(b)));
    out
}

#[test]
fn inserts_grow_the_tree_a_build_would_make() {
    forall(
        48,
        "inserts_grow_the_tree_a_build_would_make",
        |rng| {
            let mut serial = 0i64;
            let initial = rows(rng, 60, &mut serial);
            let batches: Vec<Vec<Row>> =
                (0..rng.gen_range(1usize..40)).map(|_| rows(rng, 12, &mut serial)).collect();
            (*rng.choose(&[64usize, 128, 512]), initial, batches, rng.next_u64())
        },
        |(page_size, initial, batches, probe_seed)| {
            let st = Storage::new(8, *page_size);
            let mut all: Vec<Row> = initial.clone();
            let mut file = HeapFile::from_tuples(&st, schema(), all.iter().map(tuple));
            let mut ix = BTreeIndex::build(&st, "IX", 0, &file);
            for batch in batches {
                let tuples: Vec<Tuple> = batch.iter().map(tuple).collect();
                let before = st.io_stats();
                ix = ix.insert(&st, &tuples);
                let spent = st.io_stats().since(&before);
                // O(height) pages a row, splits included (a row wider than
                // half a page may take a page more at each level).
                let per_row = 4 * (ix.stats().height as u64 + 1);
                prop_assert!(
                    spent.writes <= per_row * tuples.len() as u64,
                    "{} writes for {} rows at height {}",
                    spent.writes,
                    tuples.len(),
                    ix.stats().height
                );
                file = file.append(&st, tuples);
                all.extend(batch.iter().copied());
            }
            let fresh = BTreeIndex::build(&st, "IX", 0, &file);

            // The same leaf sequence, hence the same answers.
            let everything =
                |ix: &BTreeIndex| ix.range_scan(&st, &KeyBound::Unbounded, &KeyBound::Unbounded);
            prop_assert_eq!(everything(&ix), everything(&fresh));
            prop_assert_eq!(
                everything(&ix),
                naive(&all, &KeyBound::Unbounded, &KeyBound::Unbounded)
            );

            // Every statistic the cost model reads; the shape may differ (a
            // split leaves half-full pages, a build packs them).
            let (a, b) = (ix.stats(), fresh.stats());
            prop_assert_eq!(
                (a.tuples, a.null_keys, a.distinct_keys, &a.min_key, &a.max_key),
                (b.tuples, b.null_keys, b.distinct_keys, &b.min_key, &b.max_key)
            );
            prop_assert!(a.leaf_pages >= b.leaf_pages && a.height >= b.height);
            prop_assert_eq!(
                st.live_pages(),
                file.page_count() + ix.page_count() + fresh.page_count(),
                "an insert frees exactly the pages it replaces"
            );

            // The metadata round-trips, and the decoded tree keeps growing.
            let mut w = ByteWriter::new();
            ix.encode(&mut w);
            let bytes = w.into_bytes();
            let back = BTreeIndex::decode(&mut ByteReader::new(&bytes), &st)
                .map_err(|e| format!("decode: {e}"))?;
            prop_assert_eq!(back.stats(), ix.stats());
            prop_assert_eq!(back.page_count(), ix.page_count());
            let extra = tuple(&(Some(3), -5));
            let ix = back.insert(&st, std::slice::from_ref(&extra));
            all.push((Some(3), -5));

            let mut rng = Rng::from_seed(*probe_seed);
            let mut probes: Vec<i64> = (-22..23).collect();
            probes.extend(all.iter().filter_map(|r| r.0).filter(|k| k.abs() >= 1000).take(6));
            for k in probes {
                let b = KeyBound::Incl(Value::Int(k));
                prop_assert_eq!(ix.probe_eq(&st, &Value::Int(k)), naive(&all, &b, &b), "key {k}");
            }
            prop_assert!(ix.probe_eq(&st, &Value::Null).is_empty());
            for _ in 0..12 {
                let (x, y) = (rng.gen_range(-25i64..26), rng.gen_range(-25i64..26));
                let bound = |rng: &mut Rng, v: i64| match rng.gen_range(0u32..5) {
                    0 => KeyBound::Unbounded,
                    1 | 2 => KeyBound::Incl(Value::Int(v)),
                    _ => KeyBound::Excl(Value::Int(v)),
                };
                let (lo, hi) = (bound(&mut rng, x.min(y)), bound(&mut rng, x.max(y)));
                prop_assert_eq!(
                    ix.range_scan(&st, &lo, &hi),
                    naive(&all, &lo, &hi),
                    "{lo:?}..{hi:?}"
                );
            }

            ix.drop_pages(&st);
            fresh.drop_pages(&st);
            file.drop_pages(&st);
            prop_assert_eq!(st.live_pages(), 0);
            Ok(())
        },
    );
}
