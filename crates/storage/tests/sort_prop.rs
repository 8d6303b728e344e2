//! Property tests for the external (B−1)-way merge sort: output is a
//! sorted permutation of the input, duplicate elimination matches the
//! in-memory reference, I/O stays within the model envelope across random
//! buffer sizes, the reference-sorting kernel is indistinguishable from
//! the decorate–sort–undecorate one it replaced, stable, and copies no row,
//! and a sort whose last pass goes to its caller hands over what the sort
//! writes, for one write and one read less per page written.

use nsql_storage::sort::{compare, SortKey};
use nsql_storage::{external_sort, sorted_with, HeapFile, IoSnapshot, Storage, TraceEvent};
use std::cell::Cell;
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Date, Schema, Tuple, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("A", ColumnType::Int),
        Column::new("B", ColumnType::Int),
    ])
}

fn file_of(st: &Storage, rows: &[(i64, i64)]) -> HeapFile {
    HeapFile::from_tuples(
        st,
        schema(),
        rows.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)])),
    )
}

fn rows_of(rng: &mut Rng, max_len: usize, a_span: i64, b_span: i64) -> Vec<(i64, i64)> {
    let n = rng.gen_range(0usize..max_len);
    (0..n)
        .map(|_| (rng.gen_range(0i64..a_span), rng.gen_range(0i64..b_span)))
        .collect()
}

#[test]
fn sort_is_a_sorted_permutation() {
    forall(
        64,
        "sort_is_a_sorted_permutation",
        |rng| {
            (
                rows_of(rng, 400, 50, 50),
                rng.gen_range(3usize..10),
                *rng.choose(&[64usize, 128, 512]),
            )
        },
        |(rows, buffer, page_size)| {
            let st = Storage::new(*buffer, *page_size);
            let f = file_of(&st, rows);
            let keys = [SortKey::asc(0), SortKey::desc(1)];
            let sorted = external_sort(&st, &f, &keys, false);
            let got: Vec<Tuple> = sorted.scan(&st).collect();
            // Sorted?
            for w in got.windows(2) {
                prop_assert!(compare(&w[0], &w[1], &keys) != std::cmp::Ordering::Greater);
            }
            // Permutation?
            let mut want: Vec<Tuple> = f.scan(&st).collect();
            let mut have = got;
            want.sort_by(Tuple::total_cmp);
            have.sort_by(Tuple::total_cmp);
            prop_assert_eq!(want, have);
            Ok(())
        },
    );
}

#[test]
fn unique_sort_matches_in_memory_dedup() {
    forall(
        64,
        "unique_sort_matches_in_memory_dedup",
        |rng| (rows_of(rng, 200, 8, 4), rng.gen_range(3usize..8)),
        |(rows, buffer)| {
            let st = Storage::new(*buffer, 64);
            let f = file_of(&st, rows);
            let sorted = external_sort(&st, &f, &[], true);
            let got = sorted.tuple_count();
            let mut want = rows.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want.len());
            Ok(())
        },
    );
}

#[test]
fn sort_io_within_model_envelope() {
    forall(
        64,
        "sort_io_within_model_envelope",
        |rng| (rng.gen_range(50usize..600), rng.gen_range(4usize..8)),
        |&(n, buffer)| {
            let st = Storage::new(buffer, 64);
            let rows: Vec<(i64, i64)> = (0..n as i64).map(|i| ((i * 7919) % 601, i)).collect();
            let f = file_of(&st, &rows);
            let p = f.page_count() as f64;
            let before = st.io_stats();
            let _ = external_sort(&st, &f, &[SortKey::asc(0)], false);
            let used = st.io_stats().since(&before).total() as f64;
            // Upper bound: 2P per pass, passes ≤ 1 + ceil(log_{B-1}(runs)) + 1 slack.
            let b = buffer as f64;
            let runs = (p / b).ceil().max(1.0);
            let passes = 1.0 + if runs > 1.0 { runs.log(b - 1.0).ceil() } else { 0.0 };
            prop_assert!(
                used <= 2.0 * p * (passes + 1.0) + 4.0,
                "sort of {p} pages with B={buffer} used {used} I/Os (≈{passes} passes expected)"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// The reference-sorting kernel vs. the decorate–sort–undecorate one it
// replaced.
// ---------------------------------------------------------------------

/// The external sort as it was before rows were shared, moved here
/// verbatim: every tuple deep-cloned off its page by a `HeapScan`, a
/// projected key tuple per tuple per pass, separate plain and `unique`
/// merges. The kernel in `sort.rs` must be indistinguishable from it —
/// tuples per output page, counters, page-event sequence, residency.
mod decorated {
    use nsql_storage::sort::SortKey;
    use nsql_storage::{HeapFile, Storage};
    use nsql_types::Tuple;
    use std::cmp::Ordering;

    /// Compare two already-extracted key tuples, position `j` reversed when
    /// `desc[j]`. The decorated counterpart of `compare`.
    fn key_cmp(a: &Tuple, b: &Tuple, desc: &[bool]) -> Ordering {
        for (j, &d) in desc.iter().enumerate() {
            let o = a.get(j).total_cmp(b.get(j));
            let o = if d { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// `external_sort` as it was.
    pub fn external_sort(
        storage: &Storage,
        input: &HeapFile,
        keys: &[SortKey],
        unique: bool,
    ) -> HeapFile {
        let b = storage.buffer_pages().max(2);
        // Decorate–sort–undecorate: each tuple's key fields are extracted into a
        // small key tuple exactly once (per pass), so comparisons — of which
        // there are Θ(N·log N) — never re-index through the `SortKey` list. In
        // `unique` mode the whole tuple is its own key (whole-tuple ordering so
        // equal rows become adjacent everywhere) and no decoration is needed at
        // all: runs compare via `Tuple::total_cmp`, which is exactly the
        // all-fields-ascending order the old key list spelled out.
        let key_idx: Vec<usize> = keys.iter().map(|k| k.index).collect();
        let desc: Vec<bool> = keys.iter().map(|k| k.desc).collect();

        // Sort one pass-0 chunk in memory (CPU only, no I/O).
        let sort_chunk = |mut chunk: Vec<Tuple>| -> Vec<Tuple> {
            if unique {
                chunk.sort_by(Tuple::total_cmp);
                chunk.dedup();
                chunk
            } else {
                let mut dec: Vec<(Tuple, Tuple)> =
                    chunk.into_iter().map(|t| (t.project(&key_idx), t)).collect();
                dec.sort_by(|x, y| key_cmp(&x.0, &y.0, &desc));
                dec.into_iter().map(|(_, t)| t).collect()
            }
        };

        // Pass 0: produce sorted runs of up to `b` pages each.
        let page_ids = input.page_ids();
        let mut runs: Vec<HeapFile> = Vec::new();
        let mut chunk: Vec<Tuple> = Vec::new();
        let mut pages_in_chunk = 0usize;
        let flush = |chunk: &mut Vec<Tuple>, runs: &mut Vec<HeapFile>| {
            if chunk.is_empty() {
                return;
            }
            runs.push(HeapFile::from_tuples(
                storage,
                input.schema().clone(),
                sort_chunk(std::mem::take(chunk)),
            ));
        };
        for &page_id in page_ids {
            let page = storage.read_page_direct(page_id);
            chunk.extend(page.tuples().iter().cloned());
            pages_in_chunk += 1;
            if pages_in_chunk == b {
                flush(&mut chunk, &mut runs);
                pages_in_chunk = 0;
            }
        }
        flush(&mut chunk, &mut runs);

        if runs.is_empty() {
            return HeapFile::from_tuples(storage, input.schema().clone(), Vec::new());
        }

        // Merge passes: (B−1)-way.
        let fan_in = (b - 1).max(2);
        while runs.len() > 1 {
            let mut next: Vec<HeapFile> = Vec::new();
            for group in runs.chunks(fan_in) {
                let merged = if unique {
                    merge_runs_unique(storage, group, input)
                } else {
                    merge_runs(storage, group, &key_idx, &desc, input)
                };
                for r in group {
                    r.drop_pages(storage);
                }
                next.push(merged);
            }
            runs = next;
        }
        runs.pop().expect("at least one run")
    }

    /// Merge sorted runs, heads decorated with their extracted key so the
    /// per-output linear scan over candidates compares pre-built key tuples.
    fn merge_runs(
        storage: &Storage,
        runs: &[HeapFile],
        key_idx: &[usize],
        desc: &[bool],
        input: &HeapFile,
    ) -> HeapFile {
        let mut iters: Vec<nsql_storage::heap::HeapScan> =
            runs.iter().map(|r| r.scan_direct(storage)).collect();
        let mut heads: Vec<Option<(Tuple, Tuple)>> = iters
            .iter_mut()
            .map(|it| it.next().map(|t| (t.project(key_idx), t)))
            .collect();
        let merged = std::iter::from_fn(move || {
            let mut best: Option<usize> = None;
            for i in 0..heads.len() {
                if heads[i].is_none() {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(j) => {
                        let (ki, kj) = (
                            &heads[i].as_ref().expect("checked above").0,
                            &heads[j].as_ref().expect("best is non-empty").0,
                        );
                        if key_cmp(ki, kj, desc) == Ordering::Less {
                            Some(i)
                        } else {
                            Some(j)
                        }
                    }
                };
            }
            let i = best?;
            let (_, t) = heads[i].take().expect("best is non-empty");
            heads[i] = iters[i].next().map(|t| (t.project(key_idx), t));
            Some(t)
        });
        HeapFile::from_tuples(storage, input.schema().clone(), merged)
    }

    /// Merge sorted runs under whole-tuple order, dropping exact duplicates.
    ///
    /// Dedup is a clone-free one-element delay line: the previous winner is
    /// *held back* rather than copied, each new winner is compared against it,
    /// and only on inequality is the held tuple released downstream.
    fn merge_runs_unique(storage: &Storage, runs: &[HeapFile], input: &HeapFile) -> HeapFile {
        let mut iters: Vec<nsql_storage::heap::HeapScan> =
            runs.iter().map(|r| r.scan_direct(storage)).collect();
        let mut heads: Vec<Option<Tuple>> = iters.iter_mut().map(Iterator::next).collect();
        let mut pending: Option<Tuple> = None;
        let deduped = std::iter::from_fn(move || {
            loop {
                let mut best: Option<usize> = None;
                for i in 0..heads.len() {
                    if heads[i].is_none() {
                        continue;
                    }
                    best = match best {
                        None => Some(i),
                        Some(j) => {
                            let (ti, tj) = (
                                heads[i].as_ref().expect("checked above"),
                                heads[j].as_ref().expect("best is non-empty"),
                            );
                            if ti.total_cmp(tj) == Ordering::Less {
                                Some(i)
                            } else {
                                Some(j)
                            }
                        }
                    };
                }
                let Some(i) = best else {
                    return pending.take(); // release the final held tuple
                };
                let w = heads[i].take().expect("best is non-empty");
                heads[i] = iters[i].next();
                if pending.as_ref() == Some(&w) {
                    continue; // duplicate of the held tuple
                }
                let out = pending.replace(w);
                if out.is_some() {
                    return out;
                }
                // First winner: hold it, keep looking for something to emit.
            }
        });
        HeapFile::from_tuples(storage, input.schema().clone(), deduped)
    }
}

/// Column profiles, addressed (like the cells) by small codes so inputs
/// shrink with the stock integer shrinker. Heap files do not enforce their
/// schema, so a column holds whatever its profile says.
const PROFILES: u8 = 7;

fn cell(profile: u8, code: u8) -> Value {
    let c = i64::from(code);
    match profile % PROFILES {
        // Duplicate-heavy integers.
        0 => Value::Int(c % 4),
        // Spread-out integers of both signs.
        1 => Value::Int((c * 37) % 251 - 100),
        // Integers with NULLs.
        2 if code.is_multiple_of(4) => Value::Null,
        2 => Value::Int(c % 7),
        // One numeric class, two kinds: twins that compare equal but print
        // differently, the three zeros, NaN (which no integer image places).
        3 => match code % 12 {
            0 => Value::Int(0),
            1 => Value::Float(0.0),
            2 => Value::Float(-0.0),
            3 => Value::Int(1),
            4 => Value::Float(1.0),
            5 => Value::Float(2.5),
            6 => Value::Int(2),
            7 => Value::Int(3),
            8 => Value::Float(f64::NAN),
            9 => Value::Null,
            10 => Value::Float(-1.5),
            _ => Value::Int(-1),
        },
        // Strings with NULLs.
        4 if code.is_multiple_of(6) => Value::Null,
        4 => Value::str(["", "a", "ab", "b", "k"][usize::from(code % 5)]),
        // Dates with NULLs.
        5 if code.is_multiple_of(11) => Value::Null,
        5 => Value::Date(date(code)),
        // NULLs, integers and dates in one column: every prefix rank.
        _ => match code % 3 {
            0 => Value::Null,
            1 => Value::Int(c % 5 - 2),
            _ => Value::Date(date(code)),
        },
    }
}

fn date(code: u8) -> Date {
    Date::new(1977 + i32::from(code % 4), 1 + code % 12, 1 + code % 28).unwrap()
}

type RowCodes = (u8, u8, u8);

/// `(profiles, rows, keys as (column, desc), unique, B, page size)`.
type SortCase = (RowCodes, Vec<RowCodes>, Vec<(u8, bool)>, bool, usize, usize);

fn sort_case(rng: &mut Rng) -> SortCase {
    let code = |rng: &mut Rng| rng.gen_range(0u8..48);
    let profiles = (
        rng.gen_range(0..PROFILES),
        rng.gen_range(0..PROFILES),
        rng.gen_range(0..PROFILES),
    );
    let n = if rng.gen_bool(0.2) { rng.gen_range(0usize..4) } else { rng.gen_range(0usize..160) };
    let rows = (0..n).map(|_| (code(rng), code(rng), code(rng))).collect();
    let unique = rng.gen_bool(0.3);
    let keys = if unique {
        // What a unique sort accepts: nothing, or a prefix of the columns.
        (0..rng.gen_range(0u8..4)).map(|i| (i, false)).collect()
    } else {
        (0..rng.gen_range(1usize..4)).map(|_| (rng.gen_range(0u8..3), rng.gen_bool(0.4))).collect()
    };
    (
        profiles,
        rows,
        keys,
        unique,
        *rng.choose(&[2usize, 3, 6, 64]),
        *rng.choose(&[64usize, 512, 4096]),
    )
}

fn mixed_file(st: &Storage, profiles: RowCodes, rows: &[RowCodes]) -> HeapFile {
    let schema = Schema::new(vec![
        Column::new("A", ColumnType::Int),
        Column::new("B", ColumnType::Int),
        Column::new("C", ColumnType::Int),
    ]);
    HeapFile::from_tuples(
        st,
        schema,
        rows.iter().map(|&(a, b, c)| {
            Tuple::new(vec![cell(profiles.0, a), cell(profiles.1, b), cell(profiles.2, c)])
        }),
    )
}

/// What one sort leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `Debug` rendering (so `-0.0` vs `0.0`, `Int(1)` vs `Float(1.0)` and
    /// NaN are told apart) of the tuples of each output page.
    pages: Vec<Vec<String>>,
    io: IoSnapshot,
    events: Vec<TraceEvent>,
    /// Buffer residency of every input page, then the resident total.
    resident: (Vec<bool>, usize),
}

fn observe(case: &SortCase, reference: bool) -> Observed {
    let (profiles, rows, keys, unique, b, page_size) = case;
    let st = Storage::new(*b, *page_size);
    let f = mixed_file(&st, *profiles, rows);
    let keys: Vec<SortKey> =
        keys.iter().map(|&(i, desc)| SortKey { index: usize::from(i), desc }).collect();
    // Leave something in the buffer for the sort not to disturb.
    let _ = f.scan(&st).count();
    let before = st.io_snapshot();
    st.start_recording();
    let sorted = if reference {
        decorated::external_sort(&st, &f, &keys, *unique)
    } else {
        external_sort(&st, &f, &keys, *unique)
    };
    let events = st.take_recording();
    let io = st.io_snapshot().since(&before);
    let pages = sorted
        .page_ids()
        .iter()
        .map(|&id| st.read_page_tuples_uncounted(id).iter().map(|t| format!("{t:?}")).collect())
        .collect();
    let resident = (
        f.page_ids().iter().map(|&p| st.page_resident(p)).collect(),
        st.resident_pages(),
    );
    Observed { pages, io, events, resident }
}

#[test]
fn sort_is_indistinguishable_from_decorated_sort() {
    forall(300, "sort_is_indistinguishable_from_decorated_sort", sort_case, |case| {
        let want = observe(case, true);
        let got = observe(case, false);
        prop_assert_eq!(&got.pages, &want.pages);
        prop_assert_eq!(got.io, want.io);
        prop_assert_eq!(&got.events, &want.events);
        prop_assert_eq!(&got.resident, &want.resident);
        Ok(())
    });
}

#[test]
fn sort_is_stable() {
    // Column B numbers the rows in file order; among equal keys it must come
    // out ascending, through run generation and every merge pass.
    forall(
        64,
        "sort_is_stable",
        |rng| {
            let n = rng.gen_range(0usize..400);
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..5)).collect();
            // B = 64 makes chunks of 128 tuples: long enough that an
            // unstable sort would not fall back to (stable) insertion.
            (keys, rng.gen_bool(0.5), *rng.choose(&[2usize, 6, 64]))
        },
        |(keys, desc, buffer)| {
            let st = Storage::new(*buffer, 64);
            let rows: Vec<(i64, i64)> = keys.iter().copied().zip(0..).collect();
            let f = file_of(&st, &rows);
            let key = SortKey { index: 0, desc: *desc };
            let sorted = external_sort(&st, &f, &[key], false);
            let got: Vec<Tuple> = sorted.scan(&st).collect();
            prop_assert_eq!(got.len(), rows.len());
            for w in got.windows(2) {
                let by_key = compare(&w[0], &w[1], &[key]);
                prop_assert!(by_key != std::cmp::Ordering::Greater, "{:?} before {:?}", w[0], w[1]);
                if by_key == std::cmp::Ordering::Equal {
                    prop_assert!(
                        w[0].get(1).total_cmp(w[1].get(1)) == std::cmp::Ordering::Less,
                        "{:?} overtook {:?}",
                        w[1],
                        w[0]
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn sorted_rows_are_shared_not_copied() {
    forall(
        32,
        "sorted_rows_are_shared_not_copied",
        |rng| (rows_of(rng, 300, 12, 6), rng.gen_bool(0.5), *rng.choose(&[3usize, 64])),
        |(rows, unique, buffer)| {
            let st = Storage::new(*buffer, 64);
            let f = file_of(&st, rows);
            let values_of = |file: &HeapFile| -> Vec<*const Value> {
                file.page_ids()
                    .iter()
                    .flat_map(|&id| st.read_page_tuples_uncounted(id))
                    .map(|t| t.values().as_ptr())
                    .collect()
            };
            let input: std::collections::HashSet<*const Value> = values_of(&f).into_iter().collect();
            let sorted = external_sort(&st, &f, &[SortKey::asc(0)], *unique);
            let output = values_of(&sorted);
            prop_assert!(*unique || output.len() == rows.len());
            prop_assert!(
                output.iter().all(|p| input.contains(p)),
                "an output row is not one of the input's allocations"
            );
            Ok(())
        },
    );
}

/// `sorted_with` against `external_sort`, the consumer that writes: the
/// same rows in the same order, the same counted reads — the last pass's
/// runs are read as they are merged either way — and the writes less the
/// output file's pages; no page left behind. Over empty inputs, inputs of
/// at most `B` pages (sorted in memory, no run written) and inputs that
/// need merge passes before the last.
#[test]
fn the_last_pass_hands_over_what_external_sort_writes() {
    let (empty, in_memory, merged) = (Cell::new(0), Cell::new(0), Cell::new(0));
    forall(
        200,
        "the_last_pass_hands_over_what_external_sort_writes",
        |rng| {
            let n = match rng.gen_range(0u8..4) {
                0 => 0,
                1 => rng.gen_range(1usize..12),
                _ => rng.gen_range(12usize..900),
            };
            let rows: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0i64..40), rng.gen_range(0i64..4))).collect();
            (rows, rng.gen_bool(0.4), rng.gen_range(3usize..10), *rng.choose(&[64usize, 128, 512]))
        },
        |(rows, unique, b, page_size)| {
            let st = Storage::new(*b, *page_size);
            let f = file_of(&st, rows);
            let keys = if *unique { vec![] } else { vec![SortKey::asc(0), SortKey::desc(1)] };
            let live = st.live_pages();

            let before = st.io_snapshot();
            let written = external_sort(&st, &f, &keys, *unique);
            let writing = st.io_snapshot().since(&before);
            let page = |&id| st.read_page_tuples_uncounted(id);
            let want: Vec<Tuple> = written.page_ids().iter().flat_map(page).collect();
            let out_pages = written.page_count() as u64;
            written.drop_pages(&st);
            prop_assert_eq!(st.live_pages(), live);

            let before = st.io_snapshot();
            let got: Vec<Tuple> = sorted_with(&st, &f, &keys, *unique, |rows| rows.collect());
            let streaming = st.io_snapshot().since(&before);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(streaming.reads, writing.reads);
            prop_assert_eq!(streaming.writes, writing.writes - out_pages);
            prop_assert_eq!((streaming.hits, streaming.misses), (writing.hits, writing.misses));
            prop_assert_eq!(st.live_pages(), live, "the runs are freed");

            let (p, b) = (f.page_count(), st.buffer_pages().max(2));
            let counter = match p {
                0 => &empty,
                p if p <= b => &in_memory,
                // Pass 0 leaves more runs than the last pass merges.
                p if p.div_ceil(b) > b - 1 => &merged,
                _ => return Ok(()),
            };
            counter.set(counter.get() + 1);
            Ok(())
        },
    );
    let scaled = ["NSQL_TEST_CASES", "NSQL_TEST_SEED"].iter().any(|v| std::env::var_os(v).is_some());
    if !scaled {
        let kinds = [&empty, &in_memory, &merged].map(Cell::get);
        assert!(kinds.iter().all(|&n| n > 0), "empty, in memory, merged: {kinds:?}");
    }
}
