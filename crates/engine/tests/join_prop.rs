//! Property tests: the three join algorithms agree with each other on
//! random inputs (including NULL keys, duplicates, and empty sides), for
//! inner, left-outer and anti-joins, strict and null-aware (`NOT IN`'s
//! comparison, [`CPred::NotFalse`]); the key-indexed nested-loop kernel is
//! indistinguishable from the pair-scanning loop it replaced; the in-place
//! merge join from the scan–clone–project one it replaced; and a merge or
//! hash join that sorts or partitions rows narrowed to the columns it reads
//! gives its all-column rows projected — in the same order for the merge
//! join — through pools of 3 to 64 pages.

use nsql_engine::{CPred, EngineError, Exec, JoinKind, Joined};
use nsql_sql::parse_query;
use nsql_storage::sort::SortKey;
use nsql_storage::{HeapFile, IoSnapshot, Storage, TraceEvent};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

fn file_of(st: &Storage, table: &str, rows: &[(Option<i64>, i64)]) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified(table, "K", ColumnType::Int),
        Column::qualified(table, "V", ColumnType::Int),
    ]);
    HeapFile::from_tuples(
        st,
        schema,
        rows.iter().map(|&(k, v)| {
            Tuple::new(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)])
        }),
    )
}

/// The join kinds, by an index a case holds (and shrinks toward the inner
/// join).
const KINDS: [JoinKind; 3] = [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Anti];

fn eq_pred(l: &HeapFile, r: &HeapFile) -> CPred {
    let combined = l.schema().join(r.schema());
    let q = parse_query("SELECT L.V FROM L, R WHERE L.K = R.K").unwrap();
    CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
}

/// Keys: mostly small ints (forcing duplicates and matches), some NULLs.
fn side(rng: &mut Rng) -> Vec<(Option<i64>, i64)> {
    let n = rng.gen_range(0usize..25);
    (0..n)
        .map(|_| {
            let k = if rng.gen_bool(0.9) { Some(rng.gen_range(0i64..6)) } else { None };
            (k, rng.gen_range(0i64..100))
        })
        .collect()
}

#[test]
fn all_join_algorithms_agree() {
    forall(
        128,
        "all_join_algorithms_agree",
        |rng| (side(rng), side(rng), rng.gen_range(0..KINDS.len())),
        |(left, right, kind)| {
            let st = Storage::with_defaults();
            let e = Exec::new(st.clone());
            let l = file_of(&st, "L", left);
            let r = file_of(&st, "R", right);
            let kind = KINDS[*kind];

            let nl = e.nl_join(&l, &r, &eq_pred(&l, &r), kind).unwrap();
            let mj = e
                .merge_join(&l, &r, &[0], &[0], None, kind, false, false)
                .unwrap();
            let hj = e.hash_join(&l, &r, &[0], &[0], None, kind).unwrap();

            let nl_rel = e.collect(&nl);
            let mj_rel = e.collect(&mj);
            let hj_rel = e.collect(&hj);
            prop_assert!(
                nl_rel.same_bag(&mj_rel),
                "{kind:?} NL vs MJ\nNL:\n{nl_rel}\nMJ:\n{mj_rel}"
            );
            prop_assert!(
                nl_rel.same_bag(&hj_rel),
                "{kind:?} NL vs HJ\nNL:\n{nl_rel}\nHJ:\n{hj_rel}"
            );
            Ok(())
        },
    );
}

/// The missing residual coverage: all three algorithms must also agree when
/// an extra non-equi predicate filters the key matches — strict `L.V < R.V`,
/// or null-aware `(L.V = R.V) IS NOT FALSE` over values that repeat. NL
/// evaluates the conjunction directly; MJ and HJ take the equi part as keys
/// and the rest as a residual — three different code paths, one bag.
#[test]
fn all_join_algorithms_agree_with_residual_predicate() {
    forall(
        128,
        "all_join_algorithms_agree_with_residual_predicate",
        |rng| (side(rng), side(rng), rng.gen_range(0..KINDS.len()), rng.gen_bool(0.5)),
        |(left, right, kind, null_aware)| {
            let st = Storage::with_defaults();
            let e = Exec::new(st.clone());
            // Null-aware: values that repeat, so that some pairs are equal.
            let values = |rows: &[(Option<i64>, i64)]| -> Vec<(Option<i64>, i64)> {
                let m = if *null_aware { 4 } else { i64::MAX };
                rows.iter().map(|&(k, v)| (k, v % m)).collect()
            };
            let l = file_of(&st, "L", &values(left));
            let r = file_of(&st, "R", &values(right));
            let kind = KINDS[*kind];

            let residual = if *null_aware { "NA L.V = R.V" } else { "L.V < R.V" };
            let residual = compile_on(&l, &r, residual);
            let on = CPred::And(vec![eq_pred(&l, &r), residual.clone()]);

            let nl = e.nl_join(&l, &r, &on, kind).unwrap();
            let mj = e
                .merge_join(&l, &r, &[0], &[0], Some(&residual), kind, false, false)
                .unwrap();
            let hj = e.hash_join(&l, &r, &[0], &[0], Some(&residual), kind).unwrap();

            let nl_rel = e.collect(&nl);
            let mj_rel = e.collect(&mj);
            let hj_rel = e.collect(&hj);
            let pairs = pair_scan_oracle(&st, &l, &r, &on, kind).unwrap();
            let pairs = nsql_types::Relation::new(nl_rel.schema().clone(), pairs).unwrap();
            prop_assert!(nl_rel.same_bag(&pairs), "{kind:?} NL vs pairs\nNL:\n{nl_rel}");
            prop_assert!(
                nl_rel.same_bag(&mj_rel),
                "{kind:?} NL vs MJ (residual)\nNL:\n{nl_rel}\nMJ:\n{mj_rel}"
            );
            prop_assert!(
                nl_rel.same_bag(&hj_rel),
                "{kind:?} NL vs HJ (residual)\nNL:\n{nl_rel}\nHJ:\n{hj_rel}"
            );
            Ok(())
        },
    );
}

/// A join that emits a column list builds exactly the rows its all-column
/// form would, projected: every kernel (nested loop, sort-merge, hash),
/// inner and left outer with its `NULL` padding, in the same
/// order, under a residual that reads columns the list leaves out.
#[test]
fn emitted_columns_equal_the_projected_all_column_result() {
    forall(
        128,
        "emitted_columns_equal_the_projected_all_column_result",
        |rng| {
            // A non-empty list of distinct columns of `L.K, L.V, R.K, R.V`,
            // in any order.
            let mut cols: Vec<usize> = (0..4).filter(|_| rng.gen_bool(0.5)).collect();
            if cols.is_empty() {
                cols.push(rng.gen_range(0usize..4));
            }
            if rng.gen_bool(0.3) {
                cols.reverse();
            }
            (side(rng), side(rng), rng.gen_range(0..KINDS.len()), cols)
        },
        |(left, right, kind, cols)| {
            let st = Storage::with_defaults();
            let l = file_of(&st, "L", left);
            let r = file_of(&st, "R", right);
            let kind = KINDS[*kind];
            let on = compile_on(&l, &r, "L.K = R.K AND L.V < R.V");
            let residual = compile_on(&l, &r, "L.V < R.V");
            let (res, cols) = (Some(&residual), Some(cols.as_slice()));

            let row = Exec::new(st);
            let kernels = [
                (
                    "nested loop",
                    row.nl_join_cols(&l, &r, &on, kind, None),
                    row.nl_join_cols(&l, &r, &on, kind, cols),
                ),
                (
                    "merge",
                    row.merge_join_cols(&l, &r, &[0], &[0], res, kind, false, false, None),
                    row.merge_join_cols(&l, &r, &[0], &[0], res, kind, false, false, cols),
                ),
                (
                    "hash",
                    row.hash_join_cols(&l, &r, &[0], &[0], res, kind, None).map(|(rel, _)| rel),
                    row.hash_join_cols(&l, &r, &[0], &[0], res, kind, cols).map(|(rel, _)| rel),
                ),
            ];
            let cols = cols.unwrap();
            for (kernel, all, listed) in kernels {
                let (all, listed) = (all.unwrap(), listed.unwrap());
                prop_assert_eq!(listed.schema(), &all.schema().project(cols), "{kernel} {kind:?}");
                let projected: Vec<Tuple> = all.tuples().iter().map(|t| t.project(cols)).collect();
                prop_assert_eq!(listed.tuples(), &projected[..], "{kernel} {kind:?} {cols:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn outer_join_covers_every_left_tuple_exactly_once_or_more() {
    forall(
        128,
        "outer_join_covers_every_left_tuple_exactly_once_or_more",
        |rng| (side(rng), side(rng)),
        |(left, right)| {
            let st = Storage::with_defaults();
            let e = Exec::new(st.clone());
            let l = file_of(&st, "L", left);
            let r = file_of(&st, "R", right);
            let mj = e
                .merge_join(&l, &r, &[0], &[0], None, JoinKind::LeftOuter, false, false)
                .unwrap();
            let rel = e.collect(&mj);
            // Every left tuple appears at least once (padded or matched), and
            // left tuples with NULL keys appear exactly once (padded).
            prop_assert!(rel.len() >= l.tuple_count());
            let null_key_count = left.iter().filter(|(k, _)| k.is_none()).count();
            let padded_nulls = rel
                .tuples()
                .iter()
                .filter(|t| t.get(0).is_null() && t.get(2).is_null())
                .count();
            prop_assert_eq!(padded_nulls, null_key_count);
            Ok(())
        },
    );
}

#[test]
fn inner_join_cardinality_matches_key_histogram() {
    forall(
        128,
        "inner_join_cardinality_matches_key_histogram",
        |rng| (side(rng), side(rng)),
        |(left, right)| {
            use std::collections::HashMap;
            let st = Storage::with_defaults();
            let e = Exec::new(st.clone());
            let l = file_of(&st, "L", left);
            let r = file_of(&st, "R", right);
            let hj = e.hash_join(&l, &r, &[0], &[0], None, JoinKind::Inner).unwrap();
            let mut hist: HashMap<i64, usize> = HashMap::new();
            for (k, _) in right {
                if let Some(k) = k {
                    *hist.entry(*k).or_default() += 1;
                }
            }
            let expected: usize = left
                .iter()
                .filter_map(|(k, _)| k.as_ref())
                .map(|k| hist.get(k).copied().unwrap_or(0))
                .sum();
            prop_assert_eq!(hj.tuple_count(), expected);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Key-indexed nested loop vs. the pair-scanning loop it replaced.
// ---------------------------------------------------------------------

/// The nested-loop join as it was before the inner index: `on` evaluated on
/// every pair, every inner page read once per left tuple. This is the
/// reference the kernel in `ops/join.rs` must be indistinguishable from —
/// rows, order, error, counters and page-event sequence.
fn pair_scan_oracle(
    st: &Storage,
    left: &HeapFile,
    right: &HeapFile,
    on: &CPred,
    kind: JoinKind,
) -> Result<Vec<Tuple>, EngineError> {
    let right_arity = right.schema().arity();
    let mut out = Vec::new();
    for lt in left.scan(st) {
        let mut matched = false;
        let mut err = None;
        for &pid in right.page_ids() {
            let page = st.read_page(pid);
            for rt in page.tuples() {
                match on.accepts_row(&Joined::new(&lt, rt)) {
                    Ok(true) => {
                        matched = true;
                        if kind != JoinKind::Anti {
                            out.push(lt.join(rt));
                        }
                    }
                    Ok(false) => {}
                    Err(e) => {
                        err.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        if !matched && kind != JoinKind::Inner {
            out.push(lt.join_nulls(right_arity));
        }
    }
    Ok(out)
}

const TWO_53: i64 = 1 << 53;

/// Cell zoo, addressed by a small code so inputs shrink with the stock
/// integer shrinker. Heap files do not enforce their schema, so any code
/// may land in any column: `NULL`s, the three zeros, Int/Float twins, NaN,
/// integers that collide only after rounding to `f64`, and a string that
/// raises a typed error against every number.
fn cell(code: u8) -> Value {
    match code % 13 {
        0 => Value::Null,
        1 => Value::Int(0),
        2 => Value::Float(0.0),
        3 => Value::Float(-0.0),
        4 => Value::Int(1),
        5 => Value::Float(1.0),
        6 => Value::Int(2),
        7 => Value::Float(2.5),
        8 => Value::Float(f64::NAN),
        9 => Value::str("k"),
        10 => Value::Int(TWO_53),
        11 => Value::Int(TWO_53 + 1),
        _ => Value::Float(TWO_53 as f64),
    }
}

/// NULL- and duplicate-biased cell code; the string (a type error against
/// any number) comes with probability `p_str`, kept low so that most cases
/// get past the first left tuple.
fn cell_code(rng: &mut Rng, p_str: f64) -> u8 {
    if rng.gen_bool(0.15) {
        0
    } else if rng.gen_bool(p_str) {
        9
    } else {
        *rng.choose(&[1, 2, 3, 4, 5, 6, 6, 6, 7, 8, 10, 11, 12])
    }
}

type RowCodes = (u8, u8, u8);

fn rows(rng: &mut Rng, max: usize) -> Vec<RowCodes> {
    let n = rng.gen_range(0usize..max);
    // Residuals read V, so that is where most of the errors are planted.
    (0..n).map(|_| (cell_code(rng, 0.03), cell_code(rng, 0.03), cell_code(rng, 0.12))).collect()
}

/// `table(K1, K2, V, S)`; the two sides declare K1/K2 with swapped numeric
/// types (one class), and S is a string column derived from V's code.
fn mixed_file(st: &Storage, table: &str, k1: ColumnType, k2: ColumnType, rows: &[RowCodes]) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified(table, "K1", k1),
        Column::qualified(table, "K2", k2),
        Column::qualified(table, "V", ColumnType::Int),
        Column::qualified(table, "S", ColumnType::Str),
    ]);
    HeapFile::from_tuples(
        st,
        schema,
        rows.iter().map(|&(a, b, v)| {
            let s = match v % 4 {
                0 => Value::Null,
                1 => Value::str("a"),
                2 => Value::str("b"),
                _ => Value::Int(7),
            };
            Tuple::new(vec![cell(a), cell(b), cell(v), s])
        }),
    )
}

/// ON-predicate shapes: 0/1/2 leading keys, both operand orders, a string
/// key, residuals that can raise typed errors, keys that are *not* leading
/// (behind a residual, behind a literal test, under OR), and a pair of
/// columns whose declared classes differ. A shape led by `NA` has its last
/// conjunct null-aware (`… IS NOT FALSE`, [`compile_on`]): alone, a key
/// over NULL-laden columns as uncorrelated `NOT IN` has; behind keys, as
/// correlated `NOT IN` has.
const SHAPES: &[&str] = &[
    "NA L.V = R.V",
    "NA L.K1 = R.K1 AND L.V = R.V",
    "NA L.K1 = R.K1 AND L.K2 = R.K2",
    "NA L.K1 = R.K1 AND L.S = R.S",
    "NA L.K1 = R.S",
    "L.K1 = R.K1",
    "L.K1 = R.K1 AND L.K2 = R.K2",
    "L.K1 = R.K1 AND L.V < R.V",
    "R.K1 = L.K1 AND L.K2 = R.K2 AND L.V <> R.V",
    "L.S = R.S AND L.K1 = R.K1",
    "L.V < R.V",
    "L.V < R.V AND L.K1 = R.K1",
    "L.K1 = 1 AND L.K1 = R.K1",
    "L.K1 = R.K1 AND L.K1 = L.K2 AND L.K2 = R.K2",
    "L.K1 = R.K1 OR L.V < R.V",
    "L.K1 = R.S",
    "L.K1 = R.K1 AND (L.K2 = R.K2 OR L.V = R.V)",
];

/// What one execution leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `Debug` rendering, so `-0.0` vs `0.0` and NaN are told apart.
    result: Result<Vec<String>, EngineError>,
    io: IoSnapshot,
    events: Vec<TraceEvent>,
    resident: Vec<bool>,
}

/// Build the two files on a fresh `pool`-frame storage, run `join` over
/// them and collect what it leaves observable.
fn observe(
    left: &[RowCodes],
    right: &[RowCodes],
    pool: usize,
    join: impl FnOnce(&Storage, &HeapFile, &HeapFile) -> Result<Vec<Tuple>, EngineError>,
) -> Observed {
    // 40-byte pages hold one or two of these tuples, so a handful of rows
    // spans more pages than the small pools and fewer than the large one.
    let st = Storage::new(pool, 40);
    let l = mixed_file(&st, "L", ColumnType::Int, ColumnType::Float, left);
    let r = mixed_file(&st, "R", ColumnType::Float, ColumnType::Int, right);
    let before = st.io_snapshot();
    st.start_recording();
    let result = join(&st, &l, &r);
    let events = st.take_recording();
    let io = st.io_snapshot().since(&before);
    let resident =
        l.page_ids().iter().chain(r.page_ids()).map(|&p| st.page_resident(p)).collect();
    Observed {
        result: result.map(|ts| ts.iter().map(|t| format!("{t:?}")).collect()),
        io,
        events,
        resident,
    }
}

/// `cond` over `L ++ R`; led by `NA `, the rest with its last conjunct
/// null-aware.
fn compile_on(l: &HeapFile, r: &HeapFile, cond: &str) -> CPred {
    let combined = l.schema().join(r.schema());
    let (null_aware, cond) = match cond.strip_prefix("NA ") {
        Some(cond) => (true, cond),
        None => (false, cond),
    };
    let q = parse_query(&format!("SELECT L.V FROM L, R WHERE {cond}")).unwrap();
    let p = CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap();
    let aware = |p: CPred| CPred::NotFalse(Box::new(p));
    match (null_aware, p) {
        (false, p) => p,
        (true, CPred::And(mut ps)) => {
            let last = aware(ps.pop().expect("a conjunct"));
            ps.push(last);
            CPred::And(ps)
        }
        (true, p) => aware(p),
    }
}

fn observe_nl(
    left: &[RowCodes],
    right: &[RowCodes],
    shape: &str,
    kind: JoinKind,
    pool: usize,
    indexed: bool,
) -> Observed {
    observe(left, right, pool, |st, l, r| {
        let on = compile_on(l, r, shape);
        if indexed {
            Exec::new(st.clone()).nl_join_collect(l, r, &on, kind).map(|rel| rel.tuples().to_vec())
        } else {
            pair_scan_oracle(st, l, r, &on, kind)
        }
    })
}

#[test]
fn indexed_nl_join_is_indistinguishable_from_pair_scan() {
    forall(
        600,
        "indexed_nl_join_is_indistinguishable_from_pair_scan",
        |rng| {
            (
                rows(rng, 12),
                rows(rng, 16),
                rng.gen_range(0usize..SHAPES.len()),
                rng.gen_range(0..KINDS.len()),
                // Pools smaller than, about, and larger than the inner file.
                *rng.choose(&[2usize, 5, 64]),
            )
        },
        |(left, right, shape, kind, pool)| {
            let shape = SHAPES[*shape % SHAPES.len()];
            let kind = KINDS[*kind % KINDS.len()];
            let want = observe_nl(left, right, shape, kind, *pool, false);
            let got = observe_nl(left, right, shape, kind, *pool, true);
            prop_assert_eq!(got.result, want.result, "{shape} {kind:?} B={pool}");
            prop_assert_eq!(got.io, want.io, "{shape} {kind:?} B={pool}");
            prop_assert_eq!(got.events, want.events, "{shape} {kind:?} B={pool}");
            prop_assert_eq!(got.resident, want.resident, "{shape} {kind:?} B={pool}");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// In-place merge join vs. the scan–clone–project one it replaced.
// ---------------------------------------------------------------------

/// The merge join as it was before rows were shared, moved here verbatim
/// (`self.sort` spelled `e.sort`): both inputs deep-cloned off their pages
/// by a `HeapScan`, the right one under `Peekable`, a projected key tuple
/// per tuple on either side. This is the reference the kernel in
/// `ops/join.rs` must be indistinguishable from — rows, order, error,
/// counters, page-event sequence and residency. One thing differs from the
/// code as it was: the two `drop_pages` at the end run after an erroring
/// residual too (the merge loop is a closure so that `?` leaves it, not the
/// function). Leaving the sorted inputs behind was a defect, not reference
/// behaviour.
#[allow(clippy::too_many_arguments)]
fn scan_clone_merge_oracle(
    e: &Exec,
    left: &HeapFile,
    right: &HeapFile,
    left_keys: &[usize],
    right_keys: &[usize],
    residual: Option<&CPred>,
    kind: JoinKind,
    left_presorted: bool,
    right_presorted: bool,
) -> Result<Vec<Tuple>, EngineError> {
    use std::cmp::Ordering;
    let storage = e.storage();
    assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
    let lsort: Vec<SortKey> = left_keys.iter().map(|&i| SortKey::asc(i)).collect();
    let rsort: Vec<SortKey> = right_keys.iter().map(|&i| SortKey::asc(i)).collect();
    let (lfile, l_temp) = if left_presorted {
        (left.clone(), false)
    } else {
        (e.sort(left, &lsort, false), true)
    };
    let (rfile, r_temp) = if right_presorted {
        (right.clone(), false)
    } else {
        (e.sort(right, &rsort, false), true)
    };

    let right_arity = right.schema().arity();
    let mut out = Vec::new();
    let liter = lfile.scan(storage).peekable();
    // Decorate–merge: extract each right tuple's key exactly once as it
    // comes off the scan, instead of re-projecting on every comparison.
    let mut riter = rfile
        .scan(storage)
        .map(|rt| (rt.project(right_keys), rt))
        .peekable();
    // Current right group: consecutive right tuples sharing a key.
    let mut group: Vec<Tuple> = Vec::new();
    let mut group_key: Option<Tuple> = None;

    let merged = (|| -> Result<(), EngineError> {
    for lt in liter {
        // Advance the right side until its key >= left key, refreshing
        // the buffered group when we land on equality.
        let lkey = lt.project(left_keys);
        let need_new_group = match &group_key {
            Some(k) => k.total_cmp(&lkey) != Ordering::Equal,
            None => true,
        };
        if need_new_group {
            // Skip right tuples with smaller keys.
            while let Some((rkey, _)) = riter.peek() {
                if rkey.total_cmp(&lkey) == Ordering::Less {
                    riter.next();
                } else {
                    break;
                }
            }
            group.clear();
            group_key = None;
            if riter
                .peek()
                .is_some_and(|(rkey, _)| rkey.total_cmp(&lkey) == Ordering::Equal)
            {
                group_key = Some(lkey.clone());
                while let Some((rkey, _)) = riter.peek() {
                    if rkey.total_cmp(&lkey) == Ordering::Equal {
                        group.push(riter.next().expect("peek just returned Some").1);
                    } else {
                        break;
                    }
                }
            }
        }
        // NULL keys never join (SQL equality is unknown on NULL).
        let key_has_null = lkey.values().iter().any(nsql_types::Value::is_null);
        let mut matched = false;
        if !key_has_null
            && group_key.as_ref().is_some_and(|k| k.total_cmp(&lkey) == Ordering::Equal)
        {
            for rt in &group {
                let ok = match residual {
                    Some(p) => p.accepts_row(&Joined::new(&lt, rt))?,
                    None => true,
                };
                if ok {
                    matched = true;
                    if kind != JoinKind::Anti {
                        out.push(lt.join(rt));
                    }
                }
            }
        }
        if !matched && kind != JoinKind::Inner {
            out.push(lt.join_nulls(right_arity));
        }
    }
    Ok(())
    })();

    if l_temp {
        lfile.drop_pages(storage);
    }
    if r_temp {
        rfile.drop_pages(storage);
    }
    merged.map(|()| out)
}

/// Key cells for the merge join: `NULL`s, the zeros, Int/Float twins, NaN
/// and the off-class string — everything in [`cell`] except the integers
/// that collide only after rounding to `f64`, under which the total order
/// the sort relies on is not transitive.
fn key_code(rng: &mut Rng) -> u8 {
    if rng.gen_bool(0.15) {
        0
    } else {
        *rng.choose(&[1, 2, 3, 4, 5, 6, 6, 6, 7, 8, 9])
    }
}

fn merge_rows(rng: &mut Rng, max: usize) -> Vec<RowCodes> {
    let n = rng.gen_range(0usize..max);
    (0..n).map(|_| (key_code(rng), key_code(rng), cell_code(rng, 0.06))).collect()
}

/// Residuals over `L ++ R`; the last three raise a typed error on a
/// string. A residual led by `NA` has its last conjunct null-aware.
const RESIDUALS: &[Option<&str>] = &[
    None,
    Some("L.K2 = R.K2"),
    Some("L.V < R.V"),
    Some("L.V <> R.V AND L.S = R.S"),
    Some("NA L.V = R.V"),
    Some("NA L.K2 = R.K2"),
];

#[test]
fn merge_join_is_indistinguishable_from_scan_clone_merge() {
    forall(
        600,
        "merge_join_is_indistinguishable_from_scan_clone_merge",
        |rng| {
            (
                merge_rows(rng, 14),
                merge_rows(rng, 18),
                (rng.gen_range(0..KINDS.len()), rng.gen_bool(0.3)),
                rng.gen_range(0usize..RESIDUALS.len()),
                // Presorted flags: set, the files are merged as they lie,
                // sorted or not — the two kernels must still agree.
                (rng.gen_bool(0.25), rng.gen_bool(0.25)),
                *rng.choose(&[2usize, 5, 64]),
            )
        },
        |(left, right, (kind, two_keys), residual, (lsorted, rsorted), pool)| {
            let kind = KINDS[*kind % KINDS.len()];
            let keys: &[usize] = if *two_keys { &[0, 1] } else { &[0] };
            let residual = RESIDUALS[*residual % RESIDUALS.len()];
            let run = |in_place: bool| {
                observe(left, right, *pool, |st, l, r| {
                    let e = Exec::new(st.clone());
                    let res = residual.map(|cond| compile_on(l, r, cond));
                    if in_place {
                        e.merge_join_collect(l, r, keys, keys, res.as_ref(), kind, *lsorted, *rsorted)
                            .map(|rel| rel.tuples().to_vec())
                    } else {
                        scan_clone_merge_oracle(
                            &e, l, r, keys, keys, res.as_ref(), kind, *lsorted, *rsorted,
                        )
                    }
                })
            };
            let (want, got) = (run(false), run(true));
            let at = format!("{kind:?} keys={keys:?} residual={residual:?} B={pool}");
            prop_assert_eq!(&got.result, &want.result, "{at}");
            prop_assert_eq!(got.io, want.io, "{at}");
            prop_assert_eq!(&got.events, &want.events, "{at}");
            prop_assert_eq!(&got.resident, &want.resident, "{at}");
            Ok(())
        },
    );
}

/// Rows of `(K, A, B, C)` with keys that are `NULL`, equal (duplicates), at
/// 2^53 and one past it, or all one value.
type Wide = (Option<i64>, i64, i64, i64);

fn wide_file(st: &Storage, table: &str, rows: &[Wide]) -> HeapFile {
    let schema = Schema::new(
        ["K", "A", "B", "C"].iter().map(|c| Column::qualified(table, *c, ColumnType::Int)).collect(),
    );
    let tuple = |&(k, a, b, c): &Wide| {
        let k = k.map_or(Value::Null, Value::Int);
        Tuple::new(vec![k, Value::Int(a), Value::Int(b), Value::Int(c)])
    };
    HeapFile::from_tuples(st, schema, rows.iter().map(tuple))
}

fn wide_side(rng: &mut Rng, one_key: bool) -> Vec<Wide> {
    const P: i64 = 1 << 53;
    let n = rng.gen_range(0usize..90);
    (0..n)
        .map(|_| {
            let k = match rng.gen_range(0..10) {
                _ if one_key => Some(7),
                0 => None,
                1 => Some(P + rng.gen_range(0..2)),
                _ => Some(rng.gen_range(0..12)),
            };
            (k, rng.gen_range(0..40), rng.gen_range(0..40), rng.gen_range(0..40))
        })
        .collect()
}

/// The pages a join wrote: in all, and before it read a page of its own
/// back past the pool — a hash join's first partitioning pass.
#[derive(Debug)]
struct Writes {
    first_pass: usize,
    all: usize,
}

impl Writes {
    fn of(events: &[TraceEvent]) -> Writes {
        let back = events.iter().position(|e| matches!(e, TraceEvent::ReadDirect(_)));
        let writes = |es: &[TraceEvent]| es.iter().filter(|e| matches!(e, TraceEvent::Write(_))).count();
        Writes { first_pass: writes(&events[..back.unwrap_or(events.len())]), all: writes(events) }
    }
}

#[test]
fn a_narrowed_sort_or_partition_gives_the_whole_join_projected() {
    forall(
        160,
        "a_narrowed_sort_or_partition_gives_the_whole_join_projected",
        |rng| {
            let one_key = rng.gen_bool(0.15);
            let (l, r) = (wide_side(rng, one_key), wide_side(rng, one_key));
            // Emitted: any of the eight columns but `L.B` and `R.B`, which
            // only the residual reads.
            let mut cols: Vec<usize> =
                [0, 1, 3, 4, 5, 7].into_iter().filter(|_| rng.gen_bool(0.4)).collect();
            if cols.is_empty() {
                cols.push(5);
            }
            let pool = *rng.choose(&[3usize, 4, 6, 64]);
            (l, r, pool, rng.gen_range(0..KINDS.len()), rng.gen_bool(0.6), cols)
        },
        |(left, right, pool, kind, residual, cols)| {
            let kind = KINDS[*kind];
            // Each kernel and form on a pool of its own.
            let run = |merge: bool, cols: Option<&[usize]>| {
                let st = Storage::new(*pool, 128);
                let e = Exec::new(st.clone());
                let (l, r) = (wide_file(&st, "L", left), wide_file(&st, "R", right));
                let res = compile_on(&l, &r, "L.B < R.B");
                let res = residual.then_some(&res);
                st.start_recording();
                let rows = match merge {
                    true => e.merge_join_cols(&l, &r, &[0], &[0], res, kind, false, false, cols),
                    false => {
                        e.hash_join_cols(&l, &r, &[0], &[0], res, kind, cols).map(|(rel, _)| rel)
                    }
                };
                (rows.unwrap(), Writes::of(&st.take_recording()))
            };
            for merge in [true, false] {
                let (whole, whole_w) = run(merge, None);
                let (narrow, narrow_w) = run(merge, Some(cols));
                let projected = whole.tuples().iter().map(|t| t.project(cols)).collect();
                let projected = nsql_types::Relation::new(narrow.schema().clone(), projected);
                let projected = projected.unwrap();
                if merge {
                    prop_assert_eq!(narrow.tuples(), projected.tuples(), "merge {kind:?} {cols:?}");
                    prop_assert!(narrow_w.all <= whole_w.all, "{narrow_w:?} vs {whole_w:?}");
                } else {
                    prop_assert!(narrow.same_bag(&projected), "hash {kind:?} {cols:?}");
                    // The first pass splits both forms alike: its fanout
                    // follows the inputs' pages, so a partition holds the
                    // same rows, narrower. Below it each form splits by its
                    // own partitions' pages; only when the whole join stops
                    // after one pass must the narrowed one too.
                    let first = narrow_w.first_pass <= whole_w.first_pass;
                    prop_assert!(first, "first pass: {narrow_w:?} vs {whole_w:?}");
                    if whole_w.all == whole_w.first_pass {
                        prop_assert!(narrow_w.all <= whole_w.all, "{narrow_w:?} vs {whole_w:?}");
                    }
                }
            }
            Ok(())
        },
    );
}
