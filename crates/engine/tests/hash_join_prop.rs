//! Property tests of the hash join under the paper's memory model: random
//! inputs (NULL keys, duplicates, empty sides, an all-one-key build side)
//! through pools of `B ∈ {3, 4, 6, 64}` pages, inner and left outer, with
//! and without a residual. On every case:
//!
//! * the rows are bag-equal to the nested-loop join's;
//! * every input page is read once through the pool, every page the join
//!   writes besides its output is a partition page, read back once past the
//!   pool and freed before the join returns, and nothing else is read or
//!   written;
//! * the counted I/O is `cost::hash_join_cost`'s pages when the build side
//!   fits `B − 2` pages. When it does not, it is `Pl + Pr` plus twice the
//!   pages spilled; each partitioning level spills at most what the level
//!   above it held plus one partly filled page per partition; and a join
//!   that partitions as many levels as the formula counts stays within the
//!   formula's pages plus those partly filled pages. Uneven keys may take a
//!   pair a level deeper, and a build side of one key to the depth cap:
//!   that is the estimate's error, not the kernel's. Where the keys spread
//!   evenly, the I/O is the formula's to a few partly filled pages
//!   (`on_spread_keys_the_io_is_the_formulas`);
//! * on keys across the Int/Float boundary — a Float key on one side
//!   (integral values, `-0.0`, `NaN`) and keys at 2^53 ± 1, where `Value`
//!   equality stops being transitive — the rows are the nested loop's, value
//!   for value.
//!
//! The debug assertion in the kernel — no in-memory pass below the depth cap
//! holds more than `B − 2` pages of build tuples — runs on every case too.

use nsql_engine::cost::{
    grace_levels, hash_join_cost, HashShape, JoinInput, GRACE_MAX_DEPTH,
};
use nsql_engine::{CPred, Exec, JoinKind};
use nsql_sql::parse_query;
use nsql_storage::{HeapFile, IoSnapshot, Storage, TraceEvent};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// Pool sizes: one page of table, two, four, and a pool nothing here
/// overflows.
const POOLS: [usize; 4] = [3, 4, 6, 64];
/// Seven 18-byte tuples to the page.
const PAGE_SIZE: usize = 128;

type Rows = Vec<(Option<i64>, i64)>;

fn file_of(st: &Storage, table: &str, rows: &Rows) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified(table, "K", ColumnType::Int),
        Column::qualified(table, "V", ColumnType::Int),
    ]);
    HeapFile::from_tuples(
        st,
        schema,
        rows.iter()
            .map(|&(k, v)| Tuple::new(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)])),
    )
}

fn pred(l: &HeapFile, r: &HeapFile, cond: &str) -> CPred {
    let combined = l.schema().join(r.schema());
    let q = parse_query(&format!("SELECT L.V FROM L, R WHERE {cond}")).unwrap();
    CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
}

/// Up to 20 pages of rows over a key domain from one key (every row the
/// same key: nothing splits it) to more keys than rows, one in ten `NULL`.
fn side(rng: &mut Rng, keys: i64) -> Rows {
    let n = rng.gen_range(0usize..140);
    (0..n)
        .map(|_| {
            let k = if rng.gen_bool(0.9) {
                Some(rng.gen_range(0..keys))
            } else {
                None
            };
            (k, rng.gen_range(0i64..100))
        })
        .collect()
}

/// (left, right, index into `POOLS`, left outer, with residual).
type Case = (Rows, Rows, usize, bool, bool);

fn case(rng: &mut Rng) -> Case {
    let keys = *rng.choose(&[1, 4, 40, 400]);
    (
        side(rng, keys),
        side(rng, keys),
        rng.gen_range(0usize..POOLS.len()),
        rng.gen_bool(0.5),
        rng.gen_bool(0.5),
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
    let (left, right, pool, outer, residual) = c;
    let st = Storage::new(POOLS[*pool], PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (l, r) = (file_of(&st, "L", left), file_of(&st, "R", right));
    let res = pred(&l, &r, "L.V < R.V");
    let kind = if *outer {
        JoinKind::LeftOuter
    } else {
        JoinKind::Inner
    };
    st.clear_buffer();
    let live_before = st.live_pages();
    let before = st.io_snapshot();
    st.start_recording();
    let out = e
        .hash_join(&l, &r, &[0], &[0], residual.then_some(&res), kind)
        .unwrap();
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
            let (_, _, pool, outer, residual) = c;
            let b = POOLS[*pool] as f64;
            let got = run(c);

            // Rows: the nested loop's, on a pool of its own.
            let st = Storage::new(64, PAGE_SIZE);
            let e = Exec::new(st.clone());
            let (l, r) = (file_of(&st, "L", &c.0), file_of(&st, "R", &c.1));
            let on = pred(
                &l,
                &r,
                if *residual {
                    "L.K = R.K AND L.V < R.V"
                } else {
                    "L.K = R.K"
                },
            );
            let kind = if *outer {
                JoinKind::LeftOuter
            } else {
                JoinKind::Inner
            };
            let want = e.collect(&e.nl_join(&l, &r, &on, kind).unwrap());
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
            let shape = HashShape::of(lp, rp, *outer, b);
            let build = if shape.build_left { lp } else { rp };
            if shape.partitions == 0 {
                prop_assert_eq!(io, formula, "in memory: Pl + Pr");
                prop_assert!(spilled.is_empty(), "in memory: nothing spilled");
                return Ok(());
            }
            // Partitioned: level by level, the pages written while reading the
            // level above (the inputs are level 0). A level writes at most the
            // pages of the level above, plus one partly filled page per
            // partition of either side; the first writes at least what the
            // non-`NULL` rows fill.
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
            let keyed = c.0.iter().chain(&c.1).filter(|(k, _)| k.is_some()).count() as u64;
            prop_assert!(written[1] * PAGE_SIZE as u64 >= keyed * 18, "{written:?}");
            // So when the join partitions as many levels as the formula counts,
            // it reads and writes the formula's pages, up to those partly
            // filled pages (the formula does not know which keys are `NULL`).
            if levels == grace_levels(build, b) as usize {
                prop_assert!(
                    io <= formula + slack,
                    "{io} page I/Os, formula {formula} + {slack}"
                );
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
    };
    hash_join_cost(side(lp, c.0.len()), side(rp, c.1.len()), c.3, b, false).total() as u64
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
/// build side a little over `B − 2` pages, which one pass splits into
/// halves that fit with room to spare — the join reads and writes the
/// formula's pages, up to one partly filled page per partition, written and
/// read.
#[test]
fn on_spread_keys_the_io_is_the_formulas() {
    forall(
        40,
        "on_spread_keys_the_io_is_the_formulas",
        |rng| {
            let n = rng.gen_range(63usize * 7..100 * 7);
            let mut keys: Vec<i64> = (0..n as i64).collect();
            rng.shuffle(&mut keys);
            let right: Rows = keys.iter().map(|&k| (Some(k), k % 100)).collect();
            let left: Rows = (0..rng.gen_range(n..2 * n))
                .map(|i| (Some(i as i64 % (2 * n as i64)), 0))
                .collect();
            (left, right, 3usize, rng.gen_bool(0.5), false)
        },
        |c| {
            let got = run(c);
            let (l, r) = &got.inputs;
            let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
            let formula = formula_pages(c, lp, rp, 64.0);
            prop_assert_eq!(grace_levels(rp, 64.0), 1);
            prop_assert_eq!(
                pages_per_level(&got.events, &got.out_pages).len(),
                2,
                "one level"
            );
            let io = got.io.reads + got.io.writes - got.out_pages.len() as u64;
            // Two partitions, two sides: four partly filled pages at most.
            prop_assert!(
                formula <= io && io <= formula + 2 * 4,
                "{io} page I/Os, formula {formula}"
            );
            Ok(())
        },
    );
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
            (left, right, float_left, pool, rng.gen_bool(0.5), rng.gen_bool(0.5))
        },
        |(left, right, float_left, pool, outer, residual)| {
            let kind = if *outer { JoinKind::LeftOuter } else { JoinKind::Inner };
            let join = |b: usize, hash: bool| {
                let st = Storage::new(b, PAGE_SIZE);
                let e = Exec::new(st.clone());
                let l = numeric_file(&st, "L", *float_left, left);
                let r = numeric_file(&st, "R", !*float_left, right);
                let out = if hash {
                    let res = pred(&l, &r, "L.V < R.V");
                    e.hash_join(&l, &r, &[0], &[0], residual.then_some(&res), kind)
                } else {
                    let on = if *residual { "L.K = R.K AND L.V < R.V" } else { "L.K = R.K" };
                    e.nl_join(&l, &r, &pred(&l, &r, on), kind)
                };
                exact_bag(&e.collect(&out.unwrap()))
            };
            let (got, want) = (join(POOLS[*pool], true), join(64, false));
            prop_assert_eq!(got, want, "B = {}, {kind:?}", POOLS[*pool]);
            Ok(())
        },
    );
}
