//! Property tests of the hash join under the paper's memory model: random
//! inputs (NULL keys, duplicates, empty sides, an all-one-key build side)
//! through pools of `B ∈ {3, 4, 6, 64}` pages, inner, left outer and anti,
//! with no residual, a strict one or a null-aware comparison (`NOT IN`'s,
//! over a column with NULLs). On every case:
//!
//! * the rows are bag-equal to the nested-loop join's, and both to the
//!   join's definition scanned pair by pair;
//! * every input page is read once through the pool, every page the join
//!   writes besides its output is a partition page, read back once past the
//!   pool and freed before the join returns, and nothing else is read or
//!   written;
//! * the counted I/O is `cost::hash_join_cost`'s pages when the build side
//!   fits `B − 2` pages. When it does not, it is `Pl + Pr` plus twice the
//!   pages spilled; each partitioning level spills at most what the level
//!   above it held plus one partly filled page per partition; the first
//!   spills at least the build side's keyed rows beyond the `B − 2 − k`
//!   pages its resident table may hold; and a join that partitions as many
//!   levels as the formula counts spills no more than Grace's pass would,
//!   every row at every level, plus those partly filled pages. The share of
//!   the rows a resident table keeps is the formula's only where the keys
//!   spread evenly: uneven keys may keep fewer, take a pair a level deeper,
//!   demote the table, and a build side of one key goes to the depth cap:
//!   that is the estimate's error, not the kernel's. Where the keys do
//!   spread, the I/O is the formula's to the spread of a hash over a few
//!   hundred keys (`on_spread_keys_the_io_is_the_formulas`);
//! * on keys across the Int/Float boundary — a Float key on one side
//!   (integral values, `-0.0`, `NaN`) and keys at 2^53 ± 1, where `Value`
//!   equality stops being transitive — the rows are the nested loop's, value
//!   for value, and so are the merge join's.
//!
//! The debug assertion in the kernel — no in-memory pass below the depth cap
//! holds more than `B − 2` pages of build tuples, and no resident table of a
//! pass that spills `k` partitions more than `B − 2 − k` — runs on every
//! case too.
//!
//! On build sides of one key, or of one key in most rows, the resident table
//! is demoted in some cases, and the rows are still the nested loop's
//! (`a_demoted_table_joins_as_the_nested_loop`).
//!
//! On wider rows, a join that emits a column list partitions rows narrowed
//! to the columns it reads — keys, residual, emitted columns — and gives
//! the rows of its all-column form projected onto the list, spilling no more
//! pages (`a_narrowed_join_is_the_whole_join_projected`); and a build side
//! handed over in memory gives the rows, in order, that its file gives
//! (`a_held_build_side_joins_as_its_file`).
//!
//! A restriction of a file not yet run (a pipe, `Restriction`) on either
//! side of a pass, or on both, in memory or partitioning, inner, left outer
//! and anti (strict and null-aware), makes the rows, and counts the pages,
//! that the restriction written to a file gives, and the join gives the
//! rows the written restriction joined gives: as a bag, and in its order
//! where both kept the left input's. A pipe probe side of a file's table is
//! split as it streams: the same split as the drained path's, the reads and
//! the writes each less by exactly the restricted pages the drained path
//! wrote — past a table that fits, the file's pages read once and nothing
//! written. A pipe build side fixes its split when its table first
//! overflows, on the pages made and the pipe's bound on the rest; where
//! keys spread it demotes no table the drained pass keeps, and its reads
//! and writes are at most the drained path's unless that split keeps a
//! smaller share of the keys resident than exact sizes would — a probe side
//! far larger than the restriction can then spill more than the round trip
//! saved (`a_pipe_on_either_side_of_a_pass_joins_as_its_drained_rows`).
//! A pipe whose rows all come in its source's last pages is sized by that
//! bound, not by a selectivity extrapolated from the pages read, and no
//! table is demoted (`a_pipe_whose_rows_come_last_is_not_demoted`).

use nsql_engine::cost::{
    hash_join_cost, hash_levels, narrowed_pages, HashShape, JoinInput, GRACE_MAX_DEPTH,
};
use nsql_engine::ops::demotions;
use nsql_engine::{CExpr, CPred, Exec, HashInput, JoinKind, Joined, Restriction};
use nsql_sql::parse_query;
use nsql_storage::{HeapFile, HeldRows, IoSnapshot, Storage, TraceEvent};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng, Shrink};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// Pool sizes: one page of table, two, four, and a pool nothing here
/// overflows.
const POOLS: [usize; 4] = [3, 4, 6, 64];
/// Seven 18-byte tuples to the page.
const PAGE_SIZE: usize = 128;

type Rows = Vec<(Option<i64>, Option<i64>)>;

fn file_of(st: &Storage, table: &str, rows: &Rows) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified(table, "K", ColumnType::Int),
        Column::qualified(table, "V", ColumnType::Int),
    ]);
    let value = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let tuple = |&(k, v): &(Option<i64>, Option<i64>)| Tuple::new(vec![value(k), value(v)]);
    HeapFile::from_tuples(st, schema, rows.iter().map(tuple))
}

/// What a join matches on beside its key.
#[derive(Debug, Clone, Copy)]
enum Residual {
    None,
    /// `L.V < R.V`.
    Strict,
    /// `(L.V = R.V) IS NOT FALSE`: `NOT IN`'s comparison, a `NULL` on either
    /// side a match.
    NullAware,
}

impl Residual {
    fn of(self, l: &HeapFile, r: &HeapFile) -> Option<CPred> {
        match self {
            Residual::None => None,
            Residual::Strict => Some(pred(l, r, "L.V < R.V")),
            Residual::NullAware => Some(CPred::NotFalse(Box::new(pred(l, r, "L.V = R.V")))),
        }
    }

    fn draw(rng: &mut Rng) -> Residual {
        *rng.choose(&[Residual::None, Residual::Strict, Residual::NullAware])
    }
}

impl Shrink for Residual {}

/// The join kinds, by an index a case holds (and shrinks toward the inner
/// join).
const KINDS: [JoinKind; 3] = [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Anti];

fn draw_kind(rng: &mut Rng) -> usize {
    rng.gen_range(0..KINDS.len())
}

/// The join of `kind` by its definition, every pair tested: a pair matches
/// when its keys (column 0 of each side) are equal and `residual` accepts
/// it. The inner join emits the matches, the left outer join them and each
/// left tuple with none padded, the anti-join only those padded tuples.
fn pair_scan(l: &Relation, r: &Relation, residual: Option<&CPred>, kind: JoinKind) -> Relation {
    let mut out = Vec::new();
    for lt in l.tuples() {
        let mut matched = false;
        for rt in r.tuples() {
            let keys = lt.get(0).sql_eq(rt.get(0)).unwrap() == Some(true);
            let ok = keys && residual.is_none_or(|p| p.accepts_row(&Joined::new(lt, rt)).unwrap());
            matched |= ok;
            if ok && kind != JoinKind::Anti {
                out.push(lt.join(rt));
            }
        }
        if !matched && kind != JoinKind::Inner {
            out.push(lt.join_nulls(r.schema().arity()));
        }
    }
    Relation::new(l.schema().join(r.schema()), out).unwrap()
}

fn pred(l: &HeapFile, r: &HeapFile, cond: &str) -> CPred {
    let combined = l.schema().join(r.schema());
    let q = parse_query(&format!("SELECT L.V FROM L, R WHERE {cond}")).unwrap();
    CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
}

/// Up to 20 pages of rows over a key domain from one key (every row the
/// same key: nothing splits it) to more keys than rows, one key in ten and
/// one value in ten `NULL`; values span `values` (few: the null-aware
/// comparison matches often).
fn side(rng: &mut Rng, keys: i64, values: i64) -> Rows {
    let n = rng.gen_range(0usize..140);
    let maybe = |rng: &mut Rng, m: i64| rng.gen_bool(0.9).then(|| rng.gen_range(0..m));
    (0..n).map(|_| (maybe(rng, keys), maybe(rng, values))).collect()
}

/// (left, right, index into `POOLS`, index into `KINDS`, residual).
type Case = (Rows, Rows, usize, usize, Residual);

fn case(rng: &mut Rng) -> Case {
    let keys = *rng.choose(&[1, 4, 40, 400]);
    let values = *rng.choose(&[3, 100]);
    (
        side(rng, keys, values),
        side(rng, keys, values),
        rng.gen_range(0usize..POOLS.len()),
        draw_kind(rng),
        Residual::draw(rng),
    )
}

/// What one hash join did: its rows, the four counters, the recorded page
/// events and the pages of its output.
struct Run {
    rows: Relation,
    io: IoSnapshot,
    events: Vec<TraceEvent>,
    out_pages: Vec<u64>,
    inputs: (HeapFile, HeapFile),
    live_after: usize,
    live_before: usize,
}

fn run(c: &Case) -> Run {
    let (left, right, pool, kind, residual) = c;
    let st = Storage::new(POOLS[*pool], PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (l, r) = (file_of(&st, "L", left), file_of(&st, "R", right));
    let res = residual.of(&l, &r);
    st.clear_buffer();
    let live_before = st.live_pages();
    let before = st.io_snapshot();
    st.start_recording();
    let out = e.hash_join(&l, &r, &[0], &[0], res.as_ref(), KINDS[*kind]).unwrap();
    let events = st.take_recording();
    let io = st.io_snapshot().since(&before);
    let out_pages = out.page_ids().iter().map(|p| p.0).collect();
    let live_after = st.live_pages() - out.page_count();
    Run {
        rows: e.collect(&out),
        io,
        events,
        out_pages,
        inputs: (l, r),
        live_after,
        live_before,
    }
}

#[test]
fn the_hash_join_is_the_nested_loop_join_under_b_pages() {
    forall(
        300,
        "the_hash_join_is_the_nested_loop_join_under_b_pages",
        case,
        |c| {
            let (_, _, pool, kind, residual) = c;
            let (b, kind) = (POOLS[*pool] as f64, &KINDS[*kind]);
            let got = run(c);

            // Rows: the nested loop's, on a pool of its own, and both the
            // definition's.
            let st = Storage::new(64, PAGE_SIZE);
            let e = Exec::new(st.clone());
            let (l, r) = (file_of(&st, "L", &c.0), file_of(&st, "R", &c.1));
            let res = residual.of(&l, &r);
            let keys = std::iter::once(pred(&l, &r, "L.K = R.K"));
            let on = CPred::And(keys.chain(res.clone()).collect());
            let want = e.collect(&e.nl_join(&l, &r, &on, *kind).unwrap());
            let defined = pair_scan(&e.collect(&l), &e.collect(&r), res.as_ref(), *kind);
            prop_assert!(want.same_bag(&defined), "nested loop:\n{want}\npairs:\n{defined}");
            prop_assert!(
                got.rows.same_bag(&want),
                "rows\nhash:\n{}\nnested loop:\n{want}",
                got.rows
            );

            // Pages: each input once through the pool, each partition page
            // written, read once past it and freed; the output written.
            let (l, r) = &got.inputs;
            let mut reads: HashMap<u64, (u32, u32)> = HashMap::new();
            let (mut written, mut freed) = (Vec::new(), Vec::new());
            for ev in &got.events {
                match ev {
                    TraceEvent::Read(p) => reads.entry(p.0).or_default().0 += 1,
                    TraceEvent::ReadDirect(p) => reads.entry(p.0).or_default().1 += 1,
                    TraceEvent::Write(p) => written.push(p.0),
                    TraceEvent::Free(p) => freed.push(p.0),
                }
            }
            for p in l.page_ids().iter().chain(r.page_ids()) {
                prop_assert_eq!(
                    reads.remove(&p.0),
                    Some((1, 0)),
                    "input page {} read once, pooled",
                    p.0
                );
            }
            let mut spilled: Vec<u64> = written
                .iter()
                .copied()
                .filter(|p| !got.out_pages.contains(p))
                .collect();
            for p in &spilled {
                prop_assert_eq!(
                    reads.remove(p),
                    Some((0, 1)),
                    "partition page {p} read once, direct"
                );
            }
            prop_assert!(
                reads.is_empty(),
                "pages read that are neither input nor partition: {reads:?}"
            );
            freed.sort_unstable();
            spilled.sort_unstable();
            prop_assert_eq!(
                &freed,
                &spilled,
                "every partition page, and nothing else, freed"
            );
            prop_assert_eq!(got.live_after, got.live_before, "the partitions are gone");

            // The formula. The counted I/O is `Pl + Pr` plus every partition
            // page written and read once.
            let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
            let formula = formula_pages(c, lp, rp, b);
            let io = got.io.reads + got.io.writes - got.out_pages.len() as u64;
            prop_assert_eq!(
                io,
                lp as u64 + rp as u64 + 2 * spilled.len() as u64,
                "Pl + Pr + 2·spilled"
            );
            let shape = HashShape::of(lp, rp, *kind, b);
            let build = if shape.build_left { lp } else { rp };
            if shape.spilled == 0 {
                prop_assert_eq!(io, formula, "in memory: Pl + Pr");
                prop_assert!(spilled.is_empty(), "in memory: nothing spilled");
                return Ok(());
            }
            // Partitioned: level by level, the pages written while reading the
            // level above (the inputs are level 0). A level writes at most the
            // pages of the level above, plus one partly filled page per
            // partition of either side (a pass spills at most `B − 1`); the
            // first writes at least what the build side's non-`NULL` rows
            // fill beyond the resident table's `B − 2 − k` pages.
            let written = pages_per_level(&got.events, &got.out_pages);
            let levels = written.len() - 1;
            prop_assert!(
                (1..=GRACE_MAX_DEPTH as usize).contains(&levels),
                "{levels} levels"
            );
            let fanout = POOLS[*pool] as u64 - 1;
            let mut slack = 0;
            for (level, pair) in written.windows(2).enumerate() {
                let partitions = 2 * fanout.pow(level as u32 + 1);
                slack += 2 * partitions;
                prop_assert!(
                    pair[1] <= pair[0] + partitions,
                    "level {}: {written:?}",
                    level + 1
                );
            }
            let built = if shape.build_left { &c.0 } else { &c.1 };
            let keyed: u64 = built.iter().filter(|(k, _)| k.is_some()).map(|(_, v)| {
                if v.is_some() { 18 } else { 11 }
            }).sum();
            let resident = (shape.resident_budget(b) * PAGE_SIZE as f64) as u64;
            prop_assert!(
                (written[1] * PAGE_SIZE as u64 + resident) >= keyed,
                "{written:?}, {resident} bytes resident"
            );
            // So when the join partitions as many levels as the formula counts,
            // it spills no more than Grace's pass — every row at every level —
            // up to those partly filled pages. The formula's resident share is
            // an even spread's; these few keys need not spread so.
            if levels == hash_levels(build, b) as usize {
                let grace = lp as u64 + rp as u64 + 2 * levels as u64 * (lp as u64 + rp as u64);
                prop_assert!(io <= grace + slack, "{io} page I/Os, Grace's {grace} + {slack}");
                prop_assert!(formula <= grace, "formula {formula}, Grace's {grace}");
            }
            Ok(())
        },
    );
}

/// `cost::hash_join_cost`'s pages for the case on its files of `lp` and
/// `rp` pages.
fn formula_pages(c: &Case, lp: f64, rp: f64, b: f64) -> u64 {
    let side = |pages, rows: usize| JoinInput {
        pages,
        rows: rows as f64,
        sorted: false,
        spill: pages,
    };
    hash_join_cost(side(lp, c.0.len()), side(rp, c.1.len()), KINDS[c.3], b, false).total() as u64
}

/// Pages the join spilled per partitioning level, from its page events:
/// level 0 is the inputs (read through the pool), and a page written while
/// the join reads a page of level `d` is of level `d + 1` — a partition pass
/// reads one level and writes the next, an in-memory pass writes nothing.
fn pages_per_level(events: &[TraceEvent], out_pages: &[u64]) -> Vec<u64> {
    let mut level: HashMap<u64, usize> = HashMap::new();
    let (mut reading, mut inputs) = (0, HashSet::new());
    let mut written = vec![0];
    for ev in events {
        match ev {
            TraceEvent::Read(p) => {
                reading = 0;
                inputs.insert(p.0);
            }
            TraceEvent::ReadDirect(p) => reading = level[&p.0],
            TraceEvent::Write(p) if !out_pages.contains(&p.0) => {
                level.insert(p.0, reading + 1);
                if written.len() == reading + 1 {
                    written.push(0);
                }
                written[reading + 1] += 1;
            }
            TraceEvent::Write(_) | TraceEvent::Free(_) => {}
        }
    }
    written[0] = inputs.len() as u64;
    written
}

/// Where the formula's assumption holds — distinct keys, none `NULL`, a
/// build side a little over `B − 2` pages, which one pass splits into a
/// resident share and one spilled partition that fits with room to spare —
/// the join reads and writes the formula's pages, up to a few pages: the
/// partly filled page of each side's partition, written and read, and the
/// few rows by which the keys a hash sends to the resident share miss its
/// exact share.
#[test]
fn on_spread_keys_the_io_is_the_formulas() {
    forall(
        40,
        "on_spread_keys_the_io_is_the_formulas",
        |rng| {
            let n = rng.gen_range(63usize * 7..100 * 7);
            let mut keys: Vec<i64> = (0..n as i64).collect();
            rng.shuffle(&mut keys);
            let right: Rows = keys.iter().map(|&k| (Some(k), Some(k % 100))).collect();
            let left: Rows = (0..rng.gen_range(n..2 * n))
                .map(|i| (Some(i as i64 % (2 * n as i64)), Some(0)))
                .collect();
            (left, right, 3usize, draw_kind(rng), Residual::None)
        },
        |c| {
            let got = run(c);
            let (l, r) = &got.inputs;
            let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
            let formula = formula_pages(c, lp, rp, 64.0);
            let shape = HashShape::of(lp, rp, KINDS[c.3], 64.0);
            prop_assert_eq!((shape.build_left, shape.spilled), (false, 1));
            prop_assert_eq!(hash_levels(rp, 64.0), 1);
            prop_assert_eq!(
                pages_per_level(&got.events, &got.out_pages).len(),
                2,
                "one level"
            );
            let io = got.io.reads + got.io.writes - got.out_pages.len() as u64;
            prop_assert!(io.abs_diff(formula) <= 8, "{io} page I/Os, formula {formula}");
            Ok(())
        },
    );
}

/// An anti-join, strict and null-aware, built on either side and
/// Grace-partitioned on a three-page pool, is its definition: the left
/// tuples with a `NULL` key, with no key in the right side, and — strict —
/// with no right tuple of their key above their value, or — null-aware —
/// none of their key equal to their value or `NULL`, a `NULL` value of
/// their own matching any right tuple of their key.
#[test]
fn an_anti_join_partitions_on_either_build_side() {
    let rows = |n: i64, keys: i64| -> Rows {
        let row = |i: i64| {
            ((i % 11 != 0).then_some(i % keys), (i % 7 != 0).then_some((i * i + i / 60) % 5))
        };
        (0..n).map(row).collect()
    };
    let st = Storage::new(3, PAGE_SIZE);
    let e = Exec::new(st.clone());
    // 30 pages against 8: the smaller side is built, and partitioned.
    let (small, big) = (rows(50, 40), rows(200, 60));
    for (left, right, build_left) in [(&small, &big, true), (&big, &small, false)] {
        let (l, r) = (file_of(&st, "L", left), file_of(&st, "R", right));
        let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
        let shape = HashShape::of(lp, rp, JoinKind::Anti, 3.0);
        assert_eq!((shape.build_left, shape.spilled > 0), (build_left, true));
        for residual in [Residual::None, Residual::Strict, Residual::NullAware] {
            let res = residual.of(&l, &r);
            let got = e.hash_join(&l, &r, &[0], &[0], res.as_ref(), JoinKind::Anti).unwrap();
            let got = e.collect(&got);
            let want = pair_scan(&e.collect(&l), &e.collect(&r), res.as_ref(), JoinKind::Anti);
            assert!(!want.is_empty() && want.len() < left.len(), "{residual:?}: {}", want.len());
            assert!(got.same_bag(&want), "{residual:?}, build left {build_left}\n{got}\n{want}");
        }
    }
}

/// 2^53: beyond it `Value` equality is not transitive. `Float(2^53)` equals
/// `Int(2^53)` and `Int(2^53 + 1)`, which differ from each other.
const P: i64 = 1 << 53;

/// Up to 20 pages of rows whose keys cross the Int/Float boundary, one in
/// ten `NULL`: Float keys (small integral values, `-0.0`, `NaN`, and 2^53 − 1
/// through 2^53 + 2 as floats, where 2^53 + 1 rounds to 2^53) or Int keys
/// (small values and 2^53 ± 1).
fn numeric_side(rng: &mut Rng, float: bool) -> Vec<(Value, i64)> {
    let n = rng.gen_range(0usize..140);
    (0..n)
        .map(|_| {
            let k = match (rng.gen_bool(0.1), float, rng.gen_range(0u32..4)) {
                (true, ..) => Value::Null,
                (false, true, 0) => Value::Float(-0.0),
                (false, true, 1) => Value::Float(f64::NAN),
                (false, true, 2) => Value::Float((P + rng.gen_range(-1i64..3)) as f64),
                (false, true, _) => Value::Float(rng.gen_range(0i64..4) as f64),
                (false, false, 0 | 1) => Value::Int(P + rng.gen_range(-1i64..2)),
                (false, false, _) => Value::Int(rng.gen_range(0i64..4)),
            };
            (k, rng.gen_range(0i64..100))
        })
        .collect()
}

fn numeric_file(st: &Storage, table: &str, float: bool, rows: &[(Value, i64)]) -> HeapFile {
    let ty = if float { ColumnType::Float } else { ColumnType::Int };
    let schema = Schema::new(vec![
        Column::qualified(table, "K", ty),
        Column::qualified(table, "V", ColumnType::Int),
    ]);
    HeapFile::from_tuples(
        st,
        schema,
        rows.iter().map(|(k, v)| Tuple::new(vec![k.clone(), Value::Int(*v)])),
    )
}

/// The rows rendered value by value, sorted: a bag comparison that tells
/// `Int(2^53)` from `Int(2^53 + 1)` and `-0.0` from `0.0`, which
/// [`Relation::same_bag`]'s `Value` equality does not.
fn exact_bag(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.tuples().iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows
}

#[test]
fn keys_across_the_int_float_boundary_join_as_the_nested_loop_joins_them() {
    forall(
        300,
        "keys_across_the_int_float_boundary_join_as_the_nested_loop_joins_them",
        |rng| {
            let float_left = rng.gen_bool(0.5);
            let left = numeric_side(rng, float_left);
            let right = numeric_side(rng, !float_left);
            let pool = rng.gen_range(0usize..POOLS.len());
            (left, right, float_left, pool, draw_kind(rng), rng.gen_bool(0.5))
        },
        |(left, right, float_left, pool, kind, residual)| {
            let kind = KINDS[*kind];
            let join = |b: usize, method: &str| {
                let st = Storage::new(b, PAGE_SIZE);
                let e = Exec::new(st.clone());
                let l = numeric_file(&st, "L", *float_left, left);
                let r = numeric_file(&st, "R", !*float_left, right);
                let res = pred(&l, &r, "L.V < R.V");
                let res = residual.then_some(&res);
                let out = match method {
                    "hash" => e.hash_join(&l, &r, &[0], &[0], res, kind),
                    "merge" => e.merge_join(&l, &r, &[0], &[0], res, kind, false, false),
                    _ => {
                        let on = if *residual { "L.K = R.K AND L.V < R.V" } else { "L.K = R.K" };
                        e.nl_join(&l, &r, &pred(&l, &r, on), kind)
                    }
                };
                exact_bag(&e.collect(&out.unwrap()))
            };
            let want = join(64, "nested loop");
            for method in ["hash", "merge"] {
                let got = join(POOLS[*pool], method);
                prop_assert_eq!(got, want.clone(), "{method}, B = {}, {kind:?}", POOLS[*pool]);
            }
            Ok(())
        },
    );
}

/// A row of `W(K, A, B, C)`: a key (`NULL` one time in ten, one of two
/// values at 2^53 one time in ten, else one of `keys`) and three numbers.
type Wide = (Option<i64>, i64, i64, i64);

fn wide_side(rng: &mut Rng, keys: i64) -> Vec<Wide> {
    const P: i64 = 1 << 53;
    let n = rng.gen_range(0usize..120);
    (0..n)
        .map(|_| {
            let k = match rng.gen_range(0..10) {
                0 => None,
                1 => Some(P + rng.gen_range(0..2)),
                _ => Some(rng.gen_range(0..keys)),
            };
            (k, rng.gen_range(0..50), rng.gen_range(0..50), rng.gen_range(0..50))
        })
        .collect()
}

fn wide_file(st: &Storage, table: &str, rows: &[Wide]) -> HeapFile {
    let cols = ["K", "A", "B", "C"];
    let schema =
        Schema::new(cols.iter().map(|c| Column::qualified(table, *c, ColumnType::Int)).collect());
    let tuple = |&(k, a, b, c): &Wide| {
        let k = k.map_or(Value::Null, Value::Int);
        Tuple::new(vec![k, Value::Int(a), Value::Int(b), Value::Int(c)])
    };
    HeapFile::from_tuples(st, schema, rows.iter().map(tuple))
}

/// Emitted columns of `L.K, L.A, L.B, L.C, R.K, R.A, R.B, R.C`: a non-empty
/// list that leaves out `L.B` and `R.B`, which the residual reads.
fn emitted(rng: &mut Rng) -> Vec<usize> {
    let mut cols: Vec<usize> =
        [0, 1, 3, 4, 5, 7].into_iter().filter(|_| rng.gen_bool(0.4)).collect();
    if cols.is_empty() {
        cols.push(*rng.choose(&[1, 5]));
    }
    if rng.gen_bool(0.3) {
        cols.reverse();
    }
    cols
}

/// (left, right, index into `POOLS`, index into `KINDS`, with residual,
/// emitted).
type WideCase = (Vec<Wide>, Vec<Wide>, usize, usize, bool, Vec<usize>);

fn wide_case(rng: &mut Rng) -> WideCase {
    // One key: every row of a side in one partition, down to the depth cap.
    let keys = *rng.choose(&[1, 4, 40, 400]);
    let (l, r) = (wide_side(rng, keys), wide_side(rng, keys));
    let pool = rng.gen_range(0usize..POOLS.len());
    (l, r, pool, draw_kind(rng), rng.gen_bool(0.6), emitted(rng))
}

#[test]
fn a_narrowed_join_is_the_whole_join_projected() {
    forall(200, "a_narrowed_join_is_the_whole_join_projected", wide_case, |c| {
        let (left, right, pool, kind, residual, cols) = c;
        let kind = KINDS[*kind];
        // Each form on a pool of its own, so the two count their own pages.
        let join = |cols: Option<&[usize]>| {
            let st = Storage::new(POOLS[*pool], PAGE_SIZE);
            let e = Exec::new(st.clone());
            let (l, r) = (wide_file(&st, "L", left), wide_file(&st, "R", right));
            let res = pred(&l, &r, "L.B < R.B");
            st.clear_buffer();
            let before = st.io_snapshot();
            let rows = e.hash_join_cols(&l, &r, &[0], &[0], residual.then_some(&res), kind, cols);
            let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
            let shape = HashShape::of(lp, rp, kind, POOLS[*pool] as f64);
            (rows.unwrap().0, st.io_snapshot().since(&before), shape)
        };
        let (whole, whole_io, shape) = join(None);
        let (narrow, narrow_io, _) = join(Some(cols));
        let projected: Vec<Tuple> = whole.tuples().iter().map(|t| t.project(cols)).collect();
        prop_assert_eq!(narrow.schema(), &whole.schema().project(cols), "{cols:?}");
        let projected = Relation::new(narrow.schema().clone(), projected).unwrap();
        let same = narrow.same_bag(&projected);
        prop_assert!(same, "{kind:?} {cols:?}\nnarrow:\n{narrow}\nwhole:\n{projected}");
        // An anti-join that did not partition keeps the left input's order
        // built on either side.
        let anti = kind == JoinKind::Anti && shape.spilled == 0;
        if shape.keeps_left_order() || anti {
            prop_assert_eq!(narrow.tuples(), projected.tuples(), "the left input's order");
        }
        // Narrower rows fill no more pages; in memory nothing is spilled.
        prop_assert!(narrow_io.writes <= whole_io.writes, "{narrow_io:?} against {whole_io:?}");
        if shape.spilled == 0 {
            prop_assert_eq!(narrow_io, whole_io, "in memory: the inputs once");
        }
        Ok(())
    });
}

#[test]
fn a_held_build_side_joins_as_its_file() {
    forall(200, "a_held_build_side_joins_as_its_file", wide_case, |c| {
        let (left, right, pool, kind, residual, cols) = c;
        let kind = KINDS[*kind];
        let (b, st) = (POOLS[*pool] as f64, Storage::new(POOLS[*pool], PAGE_SIZE));
        let e = Exec::new(st.clone());
        let (l, r) = (wide_file(&st, "L", left), wide_file(&st, "R", right));
        let shape = HashShape::of(l.page_count() as f64, r.page_count() as f64, kind, b);
        if shape.spilled > 0 {
            return Ok(()); // a side that does not fit is written, never held
        }
        let res = pred(&l, &r, "L.B < R.B");
        let res = residual.then_some(&res);
        let cols = Some(cols.as_slice());
        let held = |f: &HeapFile| {
            let held = HeldRows::new(&st, f.schema().clone(), e.collect(f).into_tuples());
            prop_assert_eq!(held.page_count(), f.page_count(), "the file's pages");
            Ok(held)
        };
        let (stored, _) = e.hash_join_cols(&l, &r, &[0], &[0], res, kind, cols).unwrap();
        let build = held(if shape.build_left { &l } else { &r })?;
        st.clear_buffer();
        let before = st.io_snapshot();
        let got = if shape.build_left {
            e.hash_join_cols(&build, &r, &[0], &[0], res, kind, cols)
        } else {
            e.hash_join_cols(&l, &build, &[0], &[0], res, kind, cols)
        };
        let (io, (got, _)) = (st.io_snapshot().since(&before), got.unwrap());
        let probe = if shape.build_left { r.page_count() } else { l.page_count() };
        prop_assert_eq!(got.tuples(), stored.tuples(), "rows and order");
        prop_assert_eq!((io.reads, io.writes), (probe as u64, 0), "only the probe side is read");
        Ok(())
    });
}

/// A build side a little over the pool — `B − 1` pages to a few more — of
/// one key in every row or in nine rows in ten, the rest over 40 keys or
/// `NULL`, and a probe side a page or more larger, its rows of that
/// key one time in three. Where the key falls in the resident share, the
/// table outgrows its `B − 2 − k` pages and is demoted; elsewhere, the key's
/// partition is split down the levels. Either way the rows are the nested
/// loop's and every partition is freed. The cases are fixed by their seeds:
/// each pool, kind and build side twice.
#[test]
fn a_demoted_table_joins_as_the_nested_loop() {
    let mut demoted = [0; POOLS.len()];
    for seed in 0..48u64 {
        let mut rng = Rng::from_seed(seed);
        let pool = seed as usize % POOLS.len();
        let kind = seed as usize / POOLS.len() % KINDS.len();
        let build_left = (seed as usize / (POOLS.len() * KINDS.len())).is_multiple_of(2);
        let m = POOLS[pool] - 2;
        let pages = m + 1 + rng.gen_range(0..m.min(6) + 1);
        let (hot, heavy) = (rng.gen_range(0..1000i64), *rng.choose(&[0.9, 1.0]));
        let side = |rng: &mut Rng, rows: usize, heavy: f64| -> Rows {
            let key = |rng: &mut Rng| match rng.gen_bool(heavy) {
                true => Some(hot),
                false => rng.gen_bool(0.9).then(|| rng.gen_range(0..40)),
            };
            (0..rows).map(|_| (key(rng), Some(rng.gen_range(0..3)))).collect()
        };
        let build = side(&mut rng, 7 * pages, heavy);
        let extra = rng.gen_range(0..21);
        let probe = side(&mut rng, 7 * (pages + 1) + extra, 1.0 / 3.0);
        let (left, right) = if build_left { (build, probe) } else { (probe, build) };
        let c: Case = (left, right, pool, kind, Residual::draw(&mut rng));

        let before = demotions();
        let got = run(&c);
        demoted[pool] += demotions() - before;
        let st = Storage::new(64, PAGE_SIZE);
        let e = Exec::new(st.clone());
        let (l, r) = (file_of(&st, "L", &c.0), file_of(&st, "R", &c.1));
        let res = c.4.of(&l, &r);
        let on = CPred::And(std::iter::once(pred(&l, &r, "L.K = R.K")).chain(res).collect());
        let want = e.collect(&e.nl_join(&l, &r, &on, KINDS[kind]).unwrap());
        let at = format!("seed {seed}, B = {}, {:?}, {:?}", POOLS[pool], KINDS[kind], c.4);
        assert!(got.rows.same_bag(&want), "{at}\nhash:\n{}\nnested loop:\n{want}", got.rows);
        assert_eq!(got.live_after, got.live_before, "{at}: the partitions are gone");
    }
    // Pools of three and four pages leave a build side of whole pages no
    // resident share; the others demote some of these tables.
    assert_eq!(&demoted[..2], &[0, 0], "{demoted:?}");
    assert!(demoted[2..].iter().all(|&n| n > 0), "{demoted:?}");
}

/// The columns of `W(K, A, B, C)` a restriction keeps, in order: always the
/// key, first, and `B`, which a residual reads.
const KEPT: [&[usize]; 4] = [&[0, 1, 2, 3], &[0, 1, 2], &[0, 2], &[0, 2, 3]];

/// Which inputs of a streamed case are pipes: the left, the right, or both.
const PIPED: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];

/// (left, right, index into `POOLS`, index into `KINDS`, residual, index
/// into `PIPED`, (a pipe keeps `C` below this, each side's index into
/// `KEPT`), the keys the sides were drawn over).
type StreamCase = (Vec<Wide>, Vec<Wide>, usize, usize, Residual, usize, (i64, usize, usize), i64);

/// Up to `most` rows of `W(K, A, B, C)`, as [`wide_side`] draws them.
fn wide_rows(rng: &mut Rng, keys: i64, most: usize) -> Vec<Wide> {
    let n = rng.gen_range(0..most);
    let mut rows = Vec::new();
    while rows.len() < n {
        rows.extend(wide_side(rng, keys));
    }
    rows.truncate(n);
    rows
}

/// Sides that partition on every pool: up to 40 pages of whole rows, and
/// up to 300 on the 64-page pool, over many keys there (a side of one key
/// joins every pair at the depth cap).
fn stream_case(rng: &mut Rng) -> StreamCase {
    let pool = rng.gen_range(0usize..POOLS.len());
    let (keys, most) = match POOLS[pool] {
        64 => (*rng.choose(&[40, 400]), 900),
        _ => (*rng.choose(&[1, 4, 40, 400]), 120),
    };
    let (left, right) = (wide_rows(rng, keys, most), wide_rows(rng, keys, most));
    let piped = rng.gen_range(0..PIPED.len());
    let below = *rng.choose(&[0, 25, 40, 50]);
    let pipes = (below, rng.gen_range(0..KEPT.len()), rng.gen_range(0..KEPT.len()));
    (left, right, pool, draw_kind(rng), Residual::draw(rng), piped, pipes, keys)
}

/// What one join of a streamed case did.
struct StreamRun {
    rows: Relation,
    io: IoSnapshot,
    build_left: bool,
    /// Partitions its first pass spilled.
    spilled: usize,
    /// The share of the build side's keys its first pass kept resident.
    share: f64,
    /// Tables it demoted.
    demoted: u64,
    /// Per pipe, the rows it made and the pages they fill.
    made: Vec<(usize, usize)>,
    /// Pages of restricted rows written (the drained path's).
    written: u64,
}

/// The join of a streamed case, its pipes streamed (`drained` false) or
/// first written to files by `Exec::drain` and those files joined, on a cold
/// pool of its own. A streamed join must free every partition it wrote.
fn stream_run(c: &StreamCase, drained: bool) -> StreamRun {
    let (left, right, pool, kind, residual, piped, (below, lkept, rkept), _) = c;
    let (kind, b) = (KINDS[*kind], POOLS[*pool] as f64);
    let st = Storage::new(POOLS[*pool], PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (lf, rf) = (wide_file(&st, "L", left), wide_file(&st, "R", right));
    let pipe = |f: &HeapFile, name: &str, kept: usize| {
        let q = parse_query(&format!("SELECT {name}.K FROM {name} WHERE {name}.C < {below}"));
        let pred = CPred::compile(f.schema(), q.unwrap().where_clause.as_ref().unwrap()).unwrap();
        let kept = KEPT[kept];
        let exprs: Vec<CExpr> = kept.iter().map(|&c| CExpr::Col(c)).collect();
        let (pages, rows) = (f.page_count() as f64, f.tuple_count() as f64);
        let bound = narrowed_pages(f.schema(), kept, pages, rows, PAGE_SIZE) as usize;
        Restriction::new(f.clone(), pred, exprs, f.schema().project(kept), bound, PAGE_SIZE)
    };
    let (lpiped, rpiped) = PIPED[*piped];
    let l = lpiped.then(|| pipe(&lf, "L", *lkept));
    let r = rpiped.then(|| pipe(&rf, "R", *rkept));
    let ls = l.as_ref().map_or(lf.schema(), Restriction::schema);
    let rs = r.as_ref().map_or(rf.schema(), Restriction::schema);
    let on_b = |cond: &str| {
        let q = parse_query(&format!("SELECT L.K FROM L, R WHERE {cond}")).unwrap();
        CPred::compile(&ls.join(rs), q.where_clause.as_ref().unwrap()).unwrap()
    };
    let res = match residual {
        Residual::None => None,
        Residual::Strict => Some(on_b("L.B < R.B")),
        Residual::NullAware => Some(CPred::NotFalse(Box::new(on_b("L.B = R.B")))),
    };
    let res = res.as_ref();
    st.clear_buffer();
    let live = st.live_pages();
    let (before, demotions_before) = (st.io_snapshot(), demotions());
    let ((rows, shape), made, written) = if drained {
        let drain = |p: &Option<Restriction>| {
            let rows = p.as_ref().map(|p| e.drain(p, 0).unwrap());
            rows.map(|rows| rows.file().expect("nothing is held with no cap").clone())
        };
        let (ld, rd) = (drain(&l), drain(&r));
        let made: Vec<_> =
            [&ld, &rd].into_iter().flatten().map(|f| (f.tuple_count(), f.page_count())).collect();
        let written = made.iter().map(|&(_, pages)| pages as u64).sum();
        let (lx, rx) = (ld.as_ref().unwrap_or(&lf), rd.as_ref().unwrap_or(&rf));
        let ran = e.hash_join_cols(lx, rx, &[0], &[0], res, kind, None).unwrap();
        let planned = HashShape::of(lx.page_count() as f64, rx.page_count() as f64, kind, b);
        assert_eq!(ran.1, planned, "files run the shape their pages give");
        (ran, made, written)
    } else {
        let (lin, rin) = (input(&l, &lf), input(&r, &rf));
        let ran = e.hash_join_cols(lin, rin, &[0], &[0], res, kind, None).unwrap();
        assert_eq!(st.live_pages(), live, "a streamed pass frees every partition");
        let made = [&l, &r].into_iter().flatten().map(Restriction::made).collect();
        (ran, made, 0)
    };
    let (io, demoted) = (st.io_snapshot().since(&before), demotions() - demotions_before);
    let (build_left, spilled, share) = (shape.build_left, shape.spilled, shape.resident_share());
    StreamRun { rows, io, build_left, spilled, share, demoted, made, written }
}

/// The pipe `pipe` as a pass reads it, or the file `file` where there is
/// none.
fn input<'a>(pipe: &'a Option<Restriction>, file: &'a HeapFile) -> HashInput<'a> {
    match pipe {
        Some(pipe) => pipe.into(),
        None => file.into(),
    }
}

#[test]
fn a_pipe_on_either_side_of_a_pass_joins_as_its_drained_rows() {
    // Per pool: cases whose streamed pass partitioned with a pipe build
    // side, partitioned with a pipe on the probe side only, and held its
    // whole table.
    let counts: [[std::cell::Cell<usize>; 3]; POOLS.len()] = Default::default();
    let name = "a_pipe_on_either_side_of_a_pass_joins_as_its_drained_rows";
    forall(300, name, stream_case, |c| {
        let (got, want) = (stream_run(c, false), stream_run(c, true));
        prop_assert_eq!(&got.made, &want.made, "the rows made and the pages they fill");
        let kind = KINDS[c.3];
        let same_build = got.build_left == want.build_left;
        let in_memory = got.spilled == 0 && want.spilled == 0;
        // In memory on the same input, both emit the same rows in the same
        // order: a table's chains keep its rows' order, and the probe side
        // streams in its own.
        if same_build && in_memory {
            prop_assert_eq!(got.rows.tuples(), want.rows.tuples(), "{kind:?}: rows and order");
        } else {
            let same = got.rows.same_bag(&want.rows);
            prop_assert!(same, "{kind:?}\nstreamed:\n{}\ndrained:\n{}", got.rows, want.rows);
        }
        let (lpiped, rpiped) = PIPED[c.5];
        let build_piped = if got.build_left { lpiped } else { rpiped };
        if !build_piped && (same_build || in_memory) {
            // A pipe only on the probe side: in memory, whichever side the
            // drained run built on, each input is read once; partitioning,
            // the same split of the same build side. Either way only the
            // restricted pages are neither written nor read back.
            prop_assert_eq!(got.io.reads, want.io.reads - want.written, "reads");
            prop_assert_eq!(got.io.writes, want.io.writes - want.written, "writes");
        }
        if !same_build {
            return Ok(());
        }
        let count = &counts[c.2][if got.spilled == 0 { 2 } else { usize::from(!build_piped) }];
        count.set(count.get() + 1);
        if build_piped {
            // The split is fixed on a bound, which leaves no table too large
            // a share: where keys spread, it demotes no table the drained
            // pass does not. Reads and writes fall, unless the bound's split
            // keeps a smaller share resident than exact sizes would: that
            // spills more of both sides, which a probe side far larger than
            // the restriction may make cost more than the restriction's
            // round trip saved. Where a heavy key sends most rows down one
            // chain of partitions, the levels below the first differ with
            // the split, either way.
            if c.7 >= 40 {
                let demoted = (got.demoted, want.demoted);
                prop_assert!(demoted.0 <= demoted.1, "demoted {demoted:?}");
                let (got_io, want_io) =
                    (got.io.reads + got.io.writes, want.io.reads + want.io.writes);
                let less = got.share < want.share;
                prop_assert!(
                    got_io <= want_io || less,
                    "{:?} against {:?}, resident share {} against {}",
                    got.io,
                    want.io,
                    got.share,
                    want.share
                );
            }
        }
        Ok(())
    });
    let counts = counts.map(|pool| pool.map(std::cell::Cell::into_inner));
    assert!(counts.iter().flatten().all(|&n| n > 3), "cases per pool: {counts:?}");
}

/// A pipe whose qualifying rows all lie in its source's last pages, built
/// on: when its table first overflows, nearly all it will hold is still to
/// come. A selectivity extrapolated from the pages read so far would size
/// the table at little more than what it holds and plan too large a
/// resident share; the bound on the unread pages does not, and no table is
/// demoted. The rows are the drained restriction's.
#[test]
fn a_pipe_whose_rows_come_last_is_not_demoted() {
    // (pool, source rows, of them qualifying at the end, probe rows)
    for (b, n, last, probe) in [(6, 200, 60, 100), (64, 1500, 600, 700)] {
        let st = Storage::new(b, PAGE_SIZE);
        let e = Exec::new(st.clone());
        let rows: Vec<Wide> = (0..n as i64)
            .map(|i| (Some(i), i % 50, i % 7, if i < n as i64 - last { 50 } else { i % 25 }))
            .collect();
        let src = wide_file(&st, "L", &rows);
        let probe: Vec<Wide> = (0..probe).map(|i| (Some(i * 3), 0, 0, 0)).collect();
        let t = wide_file(&st, "R", &probe);
        let q = parse_query("SELECT L.K FROM L WHERE L.C < 25").unwrap();
        let pred = CPred::compile(src.schema(), q.where_clause.as_ref().unwrap()).unwrap();
        let kept = [0, 2];
        let (pages, count) = (src.page_count() as f64, src.tuple_count() as f64);
        let bound = narrowed_pages(src.schema(), &kept, pages, count, PAGE_SIZE) as usize;
        let exprs = vec![CExpr::Col(0), CExpr::Col(2)];
        let schema = src.schema().project(&kept);
        let pipe = Restriction::new(src.clone(), pred, exprs, schema, bound, PAGE_SIZE);
        let shape = HashShape::of(bound as f64, t.page_count() as f64, JoinKind::Inner, b as f64);
        assert!(shape.build_left, "B = {b}: the pipe is the build side");
        let before = demotions();
        let (got, split) =
            e.hash_join_cols(&pipe, &t, &[0], &[0], None, JoinKind::Inner, None).unwrap();
        assert_eq!(demotions(), before, "B = {b}: no table demoted");
        assert!(split.build_left && split.spilled > 0, "B = {b}: the table overflowed: {split:?}");
        let (made, made_pages) = pipe.made();
        assert_eq!(made as i64, last, "B = {b}");
        assert_eq!(split.table, made_pages as f64, "B = {b}: over the pages the pipe made");
        let file = e.drain(&pipe, 0).unwrap().file().expect("written").clone();
        let (want, _) =
            e.hash_join_cols(&file, &t, &[0], &[0], None, JoinKind::Inner, None).unwrap();
        assert!(got.same_bag(&want), "B = {b}\nstreamed:\n{got}\ndrained:\n{want}");
        assert!(!got.is_empty(), "B = {b}");
    }
}
