//! Property tests of the groupjoin (`Exec::hash_groupjoin`) against what it
//! replaces: the hash join followed by a GROUP BY on every column of the
//! left input, over a duplicate-free left input. Random inputs (`NULL` keys
//! on both sides, `NULL` aggregate arguments, an empty right side, a left
//! side of one key) through pools of `B ∈ {3, 4, 6, 64}` pages, inner and
//! left outer, with and without a residual, computing a random choice of
//! `COUNT(col)`, `COUNT(*)`, `MIN`, `MAX`, `SUM` and `AVG`. On every case:
//!
//! * the rows are bag-equal to the join's grouped, value for value;
//! * a groupjoin whose table fits `B − 2` pages emits its rows in the left
//!   input's order, reads each input page once and writes nothing; one that
//!   partitions frees every partition before it returns.
//!
//! On left sides of one key, or of one key in most rows, a partitioned
//! groupjoin's resident table is demoted in some cases, and the rows are
//! still the join's grouped (`a_demoted_table_groups_as_the_join`).
//!
//! Keys across the Int/Float boundary — `Float(2^53)` equals `Int(2^53)` and
//! `Int(2^53 + 1)`, which differ — are folded as the join pairs them. The
//! debug assertion in the kernel (no in-memory pass below the depth cap
//! holds more than `B − 2` pages of table, and no resident table of a pass
//! that spills `k` partitions more than `B − 2 − k`) runs on every case
//! too.
//!
//! A groupjoin over a list of key sets — a correlation `D1 OR D2 [OR D3]`,
//! one disjunct of two columns, sometimes with a non-equality ANDed on —
//! is held to a nested-loop join on that predicate followed by a GROUP BY
//! per left row, for every way of emitting a left row nothing joined, over
//! left sides with duplicate rows and `NULL` keys in every column: the rows
//! in the left input's order and nothing written; and a table over `B − 2`
//! pages reads the right side once per chunk of it, as many chunks as
//! `cost::groupjoin_passes` estimates give or take one.
//!
//! A right side that is a restriction of a file not yet run (a pipe,
//! `Restriction`), streamed into a table that fits `B − 2` pages or one
//! that partitions, for every way of emitting a left row nothing joined,
//! makes the rows and counts the pages the restriction written to a file
//! gives, and the groupjoin gives the drained path's rows — in the left
//! input's order where the table fit. It saves exactly the restricted
//! pages' write and read: past a table that fits, the file's pages are read
//! once and nothing is written
//! (`a_streamed_right_side_groups_as_its_drained_rows`).

use nsql_engine::aggregate::AggState;
use nsql_engine::cost::{groupjoin_passes, groupjoin_table_pages, narrowed_pages, HashShape};
use nsql_engine::ops::demotions;
use nsql_engine::{AggSpec, CExpr, CPred, Exec, JoinKind, Joined, KeySet, Restriction, Unjoined};
use nsql_sql::{parse_query, AggFunc};
use nsql_storage::{HeapFile, Storage};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// Pool sizes: one page of table, two, four, and a pool nothing here
/// overflows.
const POOLS: [usize; 4] = [3, 4, 6, 64];
/// Seven 18-byte tuples to the page.
const PAGE_SIZE: usize = 128;

/// The aggregates a case picks from, over the right input's `V` (column 1).
const AGGS: [(AggFunc, Option<usize>, ColumnType); 6] = [
    (AggFunc::Count, Some(1), ColumnType::Int),
    (AggFunc::Count, None, ColumnType::Int),
    (AggFunc::Min, Some(1), ColumnType::Int),
    (AggFunc::Max, Some(1), ColumnType::Int),
    (AggFunc::Sum, Some(1), ColumnType::Int),
    (AggFunc::Avg, Some(1), ColumnType::Float),
];

/// 2^53: beyond it `Value` equality is not transitive.
const P: i64 = 1 << 53;

/// (left keys, right rows, index into `POOLS`, left outer, with residual,
/// indices into `AGGS`). A left row is its key and its position, so no two
/// left rows are equal.
type Case = (Vec<Value>, Vec<(Value, Option<i64>)>, usize, bool, bool, Vec<usize>);

/// A key: one in ten `NULL`; otherwise an int below `keys`, or, with
/// `numeric`, a value across the Int/Float boundary — a float (small
/// integral values, `-0.0`, `NaN`, 2^53 − 1 through 2^53 + 2 as floats) on
/// the `float` side, an int (small values and 2^53 ± 1) on the other.
fn key(rng: &mut Rng, keys: i64, numeric: bool, float: bool) -> Value {
    if rng.gen_bool(0.1) {
        return Value::Null;
    }
    match (numeric, float, rng.gen_range(0u32..4)) {
        (false, ..) => Value::Int(rng.gen_range(0..keys)),
        (true, true, 0) => Value::Float(-0.0),
        (true, true, 1) => Value::Float(f64::NAN),
        (true, true, 2) => Value::Float((P + rng.gen_range(-1i64..3)) as f64),
        (true, true, _) => Value::Float(rng.gen_range(0i64..4) as f64),
        (true, false, 0 | 1) => Value::Int(P + rng.gen_range(-1i64..2)),
        (true, false, _) => Value::Int(rng.gen_range(0i64..4)),
    }
}

/// Up to 20 pages a side (the right one empty one time in eight), over a
/// key domain from one key to more keys than rows, or across the Int/Float
/// boundary; one right `V` in ten `NULL`.
fn case(rng: &mut Rng) -> Case {
    let keys = *rng.choose(&[1, 4, 40, 400]);
    let (numeric, float_left) = (rng.gen_bool(0.25), rng.gen_bool(0.5));
    let n = rng.gen_range(0usize..140);
    let left = (0..n).map(|_| key(rng, keys, numeric, float_left)).collect();
    let n = if rng.gen_bool(0.125) { 0 } else { rng.gen_range(0usize..140) };
    let right = (0..n)
        .map(|_| {
            let v = if rng.gen_bool(0.1) { None } else { Some(rng.gen_range(0i64..200)) };
            (key(rng, keys, numeric, !float_left), v)
        })
        .collect();
    let mut aggs: Vec<usize> = (0..AGGS.len()).collect();
    rng.shuffle(&mut aggs);
    aggs.truncate(rng.gen_range(1usize..AGGS.len() + 1));
    let pool = rng.gen_range(0usize..POOLS.len());
    (left, right, pool, rng.gen_bool(0.5), rng.gen_bool(0.5), aggs)
}

fn key_type(rows: &[Value]) -> ColumnType {
    if rows.iter().any(|k| matches!(k, Value::Float(_))) {
        ColumnType::Float
    } else {
        ColumnType::Int
    }
}

/// `L(K, V)`: the keys, each row's `V` its position.
fn left_file(st: &Storage, keys: &[Value]) -> HeapFile {
    let schema = Schema::new(vec![
        Column::qualified("L", "K", key_type(keys)),
        Column::qualified("L", "V", ColumnType::Int),
    ]);
    let rows = keys.iter().enumerate().map(|(i, k)| vec![k.clone(), Value::Int(i as i64)].into());
    HeapFile::from_tuples(st, schema, rows)
}

/// `R(K, V)`.
fn right_file(st: &Storage, rows: &[(Value, Option<i64>)]) -> HeapFile {
    let keys: Vec<Value> = rows.iter().map(|(k, _)| k.clone()).collect();
    let schema = Schema::new(vec![
        Column::qualified("R", "K", key_type(&keys)),
        Column::qualified("R", "V", ColumnType::Int),
    ]);
    let rows = rows.iter().map(|(k, v)| vec![k.clone(), v.map_or(Value::Null, Value::Int)].into());
    HeapFile::from_tuples(st, schema, rows)
}

fn residual(l: &HeapFile, r: &HeapFile) -> CPred {
    let combined = l.schema().join(r.schema());
    let q = parse_query("SELECT L.V FROM L, R WHERE L.V < R.V").unwrap();
    CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
}

/// The aggregates of a case, their arguments offset by `offset` columns,
/// and the output schema: the left's two columns, then one per aggregate.
fn aggregates(picked: &[usize], offset: usize) -> (Vec<AggSpec>, Schema) {
    let mut cols = vec![Column::new("K", ColumnType::Int), Column::new("V", ColumnType::Int)];
    let specs = picked
        .iter()
        .map(|&a| {
            let (func, arg, ty) = AGGS[a];
            cols.push(Column::new(format!("A{a}"), ty));
            AggSpec { func, arg: arg.map(|i| i + offset) }
        })
        .collect();
    (specs, Schema::new(cols))
}

/// The rows rendered value by value, sorted: a bag comparison that tells
/// `Int(2^53)` from `Int(2^53 + 1)` and `-0.0` from `0.0`, which
/// [`Relation::same_bag`]'s `Value` equality does not.
fn exact_bag(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.tuples().iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows
}

fn kind_of(outer: bool) -> JoinKind {
    if outer {
        JoinKind::LeftOuter
    } else {
        JoinKind::Inner
    }
}

/// What the groupjoin that stands in for a join of `kind_of(outer)` and a
/// GROUP BY emits for a left row nothing joined.
fn unjoined_of(outer: bool) -> Unjoined {
    if outer {
        Unjoined::Padded
    } else {
        Unjoined::Dropped
    }
}

/// The one key set `L.K = R.K`.
fn on_k() -> [KeySet; 1] {
    [KeySet { left: vec![0], right: vec![0] }]
}

/// The hash join of the case, grouped by both left columns, in a pool
/// nothing overflows.
fn joined_then_grouped(c: &Case) -> Relation {
    let (left, right, _, outer, with_residual, picked) = c;
    let st = Storage::new(64, PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (l, r) = (left_file(&st, left), right_file(&st, right));
    let res = residual(&l, &r);
    let joined = e
        .hash_join(&l, &r, &[0], &[0], with_residual.then_some(&res), kind_of(*outer))
        .unwrap();
    let (specs, schema) = aggregates(picked, 2);
    e.group_aggregate_collect(&joined, &[0, 1], &specs, schema, false).unwrap()
}

#[test]
fn the_groupjoin_is_the_join_grouped_by_the_left() {
    forall(400, "the_groupjoin_is_the_join_grouped_by_the_left", case, |c| {
        let (left, right, pool, outer, with_residual, picked) = c;
        let b = POOLS[*pool];
        let st = Storage::new(b, PAGE_SIZE);
        let e = Exec::new(st.clone());
        let (l, r) = (left_file(&st, left), right_file(&st, right));
        let res = residual(&l, &r);
        let (specs, schema) = aggregates(picked, 0);
        st.clear_buffer();
        let live = st.live_pages();
        let before = st.io_snapshot();
        let got = e
            .hash_groupjoin(
                &l,
                &r,
                &on_k(),
                with_residual.then_some(&res),
                unjoined_of(*outer),
                &specs,
                schema,
            )
            .unwrap();
        let io = st.io_snapshot().since(&before);
        prop_assert_eq!(st.live_pages(), live, "every partition freed");

        let want = joined_then_grouped(c);
        prop_assert_eq!(exact_bag(&got), exact_bag(&want), "B = {b}");

        let table = groupjoin_table_pages(
            l.page_count() as f64,
            l.tuple_count() as f64,
            specs.len(),
            PAGE_SIZE,
        );
        if HashShape::built_on(true, table, b as f64).spilled == 0 {
            // In memory: the left's order, each input page read once.
            let order: Vec<i64> = got
                .tuples()
                .iter()
                .map(|t| match t.get(1) {
                    Value::Int(v) => *v,
                    other => panic!("L.V is an int, not {other}"),
                })
                .collect();
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "left order: {order:?}");
            let pages = (l.page_count() + r.page_count()) as u64;
            prop_assert_eq!((io.reads, io.writes), (pages, 0), "in memory: Pl + Pr");
        }
        Ok(())
    });
}

/// A left side that partitions, of one key (no hash splits it: the passes
/// go down to the depth cap) and of many (the first pass splits it), inner
/// and left outer, through a three-page pool: the join's rows grouped, and
/// the partitions written, read and freed.
#[test]
fn a_left_side_over_b_minus_2_pages_is_partitioned() {
    for keys in [1, 400] {
        for outer in [false, true] {
            let left: Vec<Value> = (0..60).map(|i| Value::Int(i * 7 % keys)).collect();
            let right = (0..90).map(|i| (Value::Int(i * 13 % keys), Some(i))).collect();
            let c: Case = (left, right, 0, outer, false, (0..AGGS.len()).collect());
            let st = Storage::new(POOLS[0], PAGE_SIZE);
            let e = Exec::new(st.clone());
            let (l, r) = (left_file(&st, &c.0), right_file(&st, &c.1));
            let (specs, schema) = aggregates(&c.5, 0);
            let table = groupjoin_table_pages(
                l.page_count() as f64,
                l.tuple_count() as f64,
                specs.len(),
                PAGE_SIZE,
            );
            let shape = HashShape::built_on(true, table, POOLS[0] as f64);
            assert!(shape.spilled > 0, "{table} pages of table");
            let live = st.live_pages();
            let before = st.io_snapshot();
            let got = e
                .hash_groupjoin(&l, &r, &on_k(), None, unjoined_of(outer), &specs, schema)
                .unwrap();
            let io = st.io_snapshot().since(&before);
            assert!(io.writes > 0, "{keys} keys, outer {outer}: partitions written");
            assert_eq!(st.live_pages(), live, "{keys} keys, outer {outer}: and freed");
            assert_eq!(exact_bag(&got), exact_bag(&joined_then_grouped(&c)), "{keys} keys");
            let rows = if outer || keys == 1 { 60 } else { got.len() };
            assert_eq!(got.len(), rows, "{keys} keys, outer {outer}");
        }
    }
}

/// A left side whose table is a little over the pool, of one key in every
/// row or in nine rows in ten, the rest over 40 keys or `NULL`, and a right
/// side whose rows have that key one time in three, inner and left outer,
/// with and without the residual, computing every aggregate.
/// Where the key falls in the resident share, the table outgrows its
/// `B − 2 − k` pages and is demoted; elsewhere its partition is split down
/// the levels. Either way the rows are the join's grouped and every
/// partition is freed. The cases are fixed by their seeds: each pool,
/// inner and outer, with and without the residual, three times.
#[test]
fn a_demoted_table_groups_as_the_join() {
    let mut demoted = [0; POOLS.len()];
    let aggs: Vec<usize> = (0..AGGS.len()).collect();
    for seed in 0..48u64 {
        let mut rng = Rng::from_seed(seed);
        let pool = seed as usize % POOLS.len();
        let (outer, with_residual) = (seed / 4 % 2 == 1, seed / 8 % 2 == 1);
        let b = POOLS[pool] as f64;
        // A left row and its slots fill a sixteenth of a page per aggregate
        // beside its seventh: a table of `B − 1` to `2(B − 2) + 1` pages.
        let per_row = 1.0 / 7.0 + AGGS.len() as f64 / 16.0;
        let pages = b - 1.0 + rng.gen_range(0..POOLS[pool] - 2) as f64;
        let (hot, heavy) = (rng.gen_range(0..1000i64), *rng.choose(&[0.9, 1.0]));
        let key = |rng: &mut Rng, heavy: f64| match rng.gen_bool(heavy) {
            true => Value::Int(hot),
            false => key(rng, 40, false, false),
        };
        let left: Vec<Value> =
            (0..(pages / per_row) as usize).map(|_| key(&mut rng, heavy)).collect();
        let n = rng.gen_range(left.len()..2 * left.len());
        let right =
            (0..n).map(|_| (key(&mut rng, 1.0 / 3.0), Some(rng.gen_range(0..200)))).collect();
        let c: Case = (left, right, pool, outer, with_residual, aggs.clone());

        let st = Storage::new(POOLS[pool], PAGE_SIZE);
        let e = Exec::new(st.clone());
        let (l, r) = (left_file(&st, &c.0), right_file(&st, &c.1));
        let res = residual(&l, &r);
        let (specs, schema) = aggregates(&c.5, 0);
        let table = groupjoin_table_pages(
            l.page_count() as f64,
            l.tuple_count() as f64,
            specs.len(),
            PAGE_SIZE,
        );
        let at = format!("seed {seed}, B = {b}, {table:.2} pages of table");
        assert!(HashShape::built_on(true, table, b).spilled > 0, "{at}");
        let live = st.live_pages();
        let before = demotions();
        let got = e
            .hash_groupjoin(
                &l,
                &r,
                &on_k(),
                with_residual.then_some(&res),
                unjoined_of(outer),
                &specs,
                schema,
            )
            .unwrap();
        demoted[pool] += demotions() - before;
        assert_eq!(st.live_pages(), live, "{at}: every partition freed");
        assert_eq!(exact_bag(&got), exact_bag(&joined_then_grouped(&c)), "{at}");
    }
    // A widened table has a resident share even in a four-page pool; a
    // three-page one leaves it none.
    assert_eq!(demoted[0], 0, "{demoted:?}");
    assert!(demoted[1..].iter().all(|&n| n > 0), "{demoted:?}");
}

/// `Float(2^53)` on the right is folded into both `Int(2^53)` and
/// `Int(2^53 + 1)` on the left, and a left `NULL` key, unmatched, counts
/// one row under `COUNT(*)` and none under `COUNT(col)` in a left outer
/// groupjoin.
#[test]
fn a_float_beyond_2_53_feeds_every_int_it_equals() {
    let left = vec![Value::Int(P), Value::Int(P + 1), Value::Null];
    let right = vec![(Value::Float(P as f64), Some(5)), (Value::Int(P + 1), Some(7))];
    let c: Case = (left, right, 3, true, false, vec![0, 1, 4]);
    let st = Storage::new(64, PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (l, r) = (left_file(&st, &c.0), right_file(&st, &c.1));
    let (specs, schema) = aggregates(&c.5, 0);
    let got = e
        .hash_groupjoin(&l, &r, &on_k(), None, Unjoined::Padded, &specs, schema)
        .unwrap();
    let rows: Vec<String> = got.tuples().iter().map(|t| format!("{:?}", t.values())).collect();
    assert_eq!(
        rows,
        [
            "[Int(9007199254740992), Int(0), Int(1), Int(1), Int(5)]",
            "[Int(9007199254740993), Int(1), Int(2), Int(2), Int(12)]",
            "[Null, Int(2), Int(0), Int(1), Null]",
        ]
    );
    assert_eq!(exact_bag(&got), exact_bag(&joined_then_grouped(&c)));
}

/// The disjunctions a key-set case draws from, over `L(K1, K2, K3, V)` and
/// `R(K1, K2, K3, V)`, and their key sets (columns 0 to 2 on both sides).
const DISJUNCTIONS: [(&str, &[&[usize]]); 3] = [
    ("L.K1 = R.K1 OR L.K2 = R.K2", &[&[0], &[1]]),
    ("L.K1 = R.K1 AND L.K2 = R.K2 OR R.K3 = L.K3", &[&[0, 1], &[2]]),
    ("L.K1 = R.K1 OR L.K2 = R.K2 AND L.K3 > R.V OR L.K3 = R.K3", &[&[0], &[1], &[2]]),
];

/// A row `(K1, K2, K3, V)`.
type Row = (Value, Value, Value, Value);

/// (left rows, right rows, index into `POOLS`, index into `DISJUNCTIONS`,
/// with a non-equality ANDed on, how an unjoined left row is emitted,
/// indices into `AGGS`).
type SetsCase = (Vec<Row>, Vec<Row>, usize, usize, bool, usize, Vec<usize>);

fn values(row: &Row) -> Vec<Value> {
    vec![row.0.clone(), row.1.clone(), row.2.clone(), row.3.clone()]
}

const UNJOINED: [Unjoined; 3] = [Unjoined::Dropped, Unjoined::Padded, Unjoined::Empty];

/// Up to 140 rows a side (the right one empty one time in eight), keys
/// over one to 40 values with one in ten `NULL`, and a left side drawn from
/// a few rows repeated one time in four.
fn sets_case(rng: &mut Rng) -> SetsCase {
    let keys = *rng.choose(&[1, 4, 40]);
    let row = |rng: &mut Rng| -> Row {
        let mut k = || key(rng, keys, false, false);
        let (k1, k2, k3) = (k(), k(), k());
        let v = if rng.gen_bool(0.1) { Value::Null } else { Value::Int(rng.gen_range(0i64..200)) };
        (k1, k2, k3, v)
    };
    let n = rng.gen_range(0usize..140);
    let mut left: Vec<Row> = (0..n).map(|_| row(rng)).collect();
    if rng.gen_bool(0.25) && !left.is_empty() {
        let few = rng.gen_range(1usize..4).min(left.len());
        for i in few..left.len() {
            left[i] = left[rng.gen_range(0..few)].clone();
        }
    }
    let n = if rng.gen_bool(0.125) { 0 } else { rng.gen_range(0usize..140) };
    let right = (0..n).map(|_| row(rng)).collect();
    let mut aggs: Vec<usize> = (0..AGGS.len()).collect();
    rng.shuffle(&mut aggs);
    aggs.truncate(rng.gen_range(1usize..AGGS.len() + 1));
    let pool = rng.gen_range(0usize..POOLS.len());
    let disjunction = rng.gen_range(0usize..DISJUNCTIONS.len());
    let unjoined = rng.gen_range(0usize..UNJOINED.len());
    (left, right, pool, disjunction, rng.gen_bool(0.5), unjoined, aggs)
}

/// `name(K1, K2, K3, V)` of `rows`.
fn four_columns(st: &Storage, name: &str, rows: &[Row]) -> HeapFile {
    let cols = ["K1", "K2", "K3", "V"];
    let column = |c: &&str| Column::qualified(name, *c, ColumnType::Int);
    let schema = Schema::new(cols.iter().map(column).collect());
    HeapFile::from_tuples(st, schema, rows.iter().map(|r| Tuple::new(values(r))))
}

/// The case's correlation over `L ++ R`.
fn correlation(c: &SetsCase, l: &HeapFile, r: &HeapFile) -> CPred {
    let (text, _) = DISJUNCTIONS[c.3];
    let text = if c.4 { format!("({text}) AND L.V < R.V") } else { text.to_string() };
    let q = parse_query(&format!("SELECT L.V FROM L, R WHERE {text}")).unwrap();
    CPred::compile(&l.schema().join(r.schema()), q.where_clause.as_ref().unwrap()).unwrap()
}

/// The nested-loop join of `l` and `r` on `pred` grouped per left row: each
/// left row (duplicates apart) then `specs` over the right rows `pred` is
/// TRUE for, and a row nothing joined emitted as `unjoined` says.
fn nested_loop_grouped(
    l: &[Row],
    r: &[Row],
    pred: &CPred,
    specs: &[AggSpec],
    unjoined: Unjoined,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for lv in l.iter().map(values) {
        let lt = Tuple::new(lv.clone());
        let mut states: Vec<AggState> = specs.iter().map(|a| AggState::new(a.func)).collect();
        let mut matched = false;
        for rv in r.iter().map(values) {
            let rt = Tuple::new(rv.clone());
            if !pred.accepts_row(&Joined::new(&lt, &rt)).unwrap() {
                continue;
            }
            matched = true;
            for (state, spec) in states.iter_mut().zip(specs) {
                match spec.arg {
                    Some(i) => state.accumulate(&rv[i]).unwrap(),
                    None => state.accumulate_row(),
                }
            }
        }
        match (matched, unjoined) {
            (false, Unjoined::Dropped) => continue,
            (false, Unjoined::Padded) => {
                for (state, spec) in states.iter_mut().zip(specs) {
                    if spec.arg.is_none() {
                        state.accumulate_row();
                    }
                }
            }
            _ => {}
        }
        out.push(lv.iter().cloned().chain(states.iter().map(AggState::finish)).collect());
    }
    out
}

#[test]
fn key_sets_are_the_or_join_grouped_per_left_row() {
    forall(300, "key_sets_are_the_or_join_grouped_per_left_row", sets_case, |c| {
        let (left, right, pool, disjunction, _, unjoined, picked) = c;
        let b = POOLS[*pool];
        let st = Storage::new(b, PAGE_SIZE);
        let e = Exec::new(st.clone());
        let (l, r) = (four_columns(&st, "L", left), four_columns(&st, "R", right));
        let pred = correlation(c, &l, &r);
        let keys: Vec<KeySet> = DISJUNCTIONS[*disjunction]
            .1
            .iter()
            .map(|cols| KeySet { left: cols.to_vec(), right: cols.to_vec() })
            .collect();
        // Arguments over `R.V`, column 3.
        let mut cols: Vec<Column> =
            ["K1", "K2", "K3", "V"].iter().map(|c| Column::new(*c, ColumnType::Int)).collect();
        let specs: Vec<AggSpec> = picked
            .iter()
            .map(|&a| {
                let (func, arg, ty) = AGGS[a];
                cols.push(Column::new(format!("A{a}"), ty));
                AggSpec { func, arg: arg.map(|_| 3) }
            })
            .collect();
        let unjoined = UNJOINED[*unjoined];
        st.clear_buffer();
        let live = st.live_pages();
        let before = st.io_snapshot();
        let got = e
            .hash_groupjoin(&l, &r, &keys, Some(&pred), unjoined, &specs, Schema::new(cols))
            .unwrap();
        let io = st.io_snapshot().since(&before);
        prop_assert_eq!(st.live_pages(), live, "nothing left behind");

        // The same rows in the same order: the left input's, chunk by chunk.
        let want = nested_loop_grouped(left, right, &pred, &specs, unjoined);
        let got: Vec<String> = got.tuples().iter().map(|t| format!("{:?}", t.values())).collect();
        let want: Vec<String> = want.iter().map(|t| format!("{t:?}")).collect();
        prop_assert_eq!(got, want, "B = {b}");

        let table = groupjoin_table_pages(
            l.page_count() as f64,
            l.tuple_count() as f64,
            specs.len(),
            PAGE_SIZE,
        );
        let (lp, rp) = (l.page_count() as u64, r.page_count() as u64);
        prop_assert_eq!(io.writes, 0, "chunks are held, never written");
        if HashShape::built_on(true, table, b as f64).spilled == 0 {
            prop_assert_eq!(io.reads, lp + rp, "in memory: Pl + Pr");
        } else {
            // The left side once, the right side once per chunk through the
            // pool: a chunk holds a row at least.
            let rows = l.tuple_count() as u64;
            prop_assert!(io.reads >= lp + rp, "{io:?}");
            prop_assert!(io.reads <= lp + rows * rp, "{rows} left rows: {io:?}");
        }
        Ok(())
    });
}

/// Through a three-page pool a table of a left side of 60 rows is several
/// chunks, each a pass over a right side of more pages than the pool: the
/// right side is read once per chunk, as many as `cost::groupjoin_passes`
/// says, give or take the last row of a chunk.
#[test]
fn a_table_over_b_minus_2_pages_reads_the_right_once_per_chunk() {
    let row = |i: i64| (Value::Int(i % 7), Value::Int(i % 5), Value::Null, Value::Int(i));
    let left: Vec<Row> = (0..60).map(row).collect();
    let right: Vec<Row> = (0..90).map(|i| row(i * 3)).collect();
    let st = Storage::new(POOLS[0], PAGE_SIZE);
    let e = Exec::new(st.clone());
    let (l, r) = (four_columns(&st, "L", &left), four_columns(&st, "R", &right));
    let c: SetsCase = (left.clone(), right.clone(), 0, 0, false, 2, vec![1]);
    let pred = correlation(&c, &l, &r);
    let keys = [KeySet { left: vec![0], right: vec![0] }, KeySet { left: vec![1], right: vec![1] }];
    let specs = [AggSpec { func: AggFunc::Count, arg: None }];
    let schema = Schema::new(
        ["K1", "K2", "K3", "V", "N"].iter().map(|c| Column::new(*c, ColumnType::Int)).collect(),
    );
    let table = groupjoin_table_pages(l.page_count() as f64, 60.0, 1, PAGE_SIZE);
    let passes = groupjoin_passes(table, POOLS[0] as f64) as u64;
    assert!(passes > 2 && r.page_count() > POOLS[0], "{passes} passes");
    st.clear_buffer();
    let before = st.io_snapshot();
    let got =
        e.hash_groupjoin(&l, &r, &keys, Some(&pred), Unjoined::Empty, &specs, schema).unwrap();
    let io = st.io_snapshot().since(&before);
    let (lp, rp) = (l.page_count() as u64, r.page_count() as u64);
    assert_eq!(io.writes, 0);
    assert_eq!((io.reads - lp) % rp, 0, "{io:?}");
    assert!((io.reads - lp) / rp >= passes - 1 && (io.reads - lp) / rp <= passes + 1, "{io:?}");
    let want = nested_loop_grouped(&left, &right, &pred, &specs, Unjoined::Empty);
    let got: Vec<Vec<Value>> = got.tuples().iter().map(|t| t.values().to_vec()).collect();
    assert_eq!(got, want);
}

/// (left keys, right rows, index into `POOLS`, the keys were drawn over this
/// many values, across the Int/Float boundary when set, each right row's `W`,
/// which the pipe keeps below `below`, `below`, (index into `UNJOINED`, with
/// residual), indices into `AGGS`).
type StreamCase = (
    Vec<Value>,
    Vec<(Value, Option<i64>)>,
    usize,
    (i64, bool),
    (Vec<i64>, i64),
    (usize, bool),
    Vec<usize>,
);

/// Tables that fit and tables that partition on every pool: up to 140 rows
/// a side, and up to 600 on the 64-page pool, over many keys there.
fn stream_case(rng: &mut Rng) -> StreamCase {
    let pool = rng.gen_range(0usize..POOLS.len());
    let (keys, most) = match POOLS[pool] {
        64 => (*rng.choose(&[40, 400]), 600),
        _ => (*rng.choose(&[1, 4, 40, 400]), 140),
    };
    let (numeric, float_left) = (rng.gen_bool(0.2), rng.gen_bool(0.5));
    // Half the left sides a few rows, most of them a table within `B − 2`
    // pages.
    let small = 5 * (POOLS[pool] - 2).min(8);
    let left_most = if rng.gen_bool(0.5) { small } else { most };
    let n = rng.gen_range(0..left_most);
    let left: Vec<Value> = (0..n).map(|_| key(rng, keys, numeric, float_left)).collect();
    let n = rng.gen_range(0..most);
    let right: Vec<(Value, Option<i64>)> = (0..n)
        .map(|_| {
            let v = if rng.gen_bool(0.1) { None } else { Some(rng.gen_range(0i64..200)) };
            (key(rng, keys, numeric, !float_left), v)
        })
        .collect();
    let ws = (0..right.len()).map(|_| rng.gen_range(0i64..50)).collect();
    let pipe = (ws, *rng.choose(&[0, 25, 40, 50]));
    let how = (rng.gen_range(0..UNJOINED.len()), rng.gen_bool(0.5));
    let mut aggs: Vec<usize> = (0..AGGS.len()).collect();
    rng.shuffle(&mut aggs);
    aggs.truncate(rng.gen_range(1usize..AGGS.len() + 1));
    (left, right, pool, (keys, numeric), pipe, how, aggs)
}

/// What one groupjoin of a streamed case did.
struct StreamRun {
    rows: Relation,
    io: (u64, u64),
    /// The table's first pass partitioned.
    spilled: bool,
    /// The rows the pipe made and the pages they fill.
    made: (usize, usize),
}

/// The groupjoin of a streamed case on a cold pool of its own, its left
/// side `L(K, V)` and its right side `R(K, V, W)` restricted by `W < below`
/// onto `K, V` and streamed (`drained` false) or written to a file by
/// `Exec::drain` and that file read. A streamed groupjoin must free every
/// partition it wrote.
fn stream_groupjoin(c: &StreamCase, drained: bool) -> StreamRun {
    let (left, right, pool, _, (ws, below), (unjoined, with_residual), picked) = c;
    let b = POOLS[*pool];
    let st = Storage::new(b, PAGE_SIZE);
    let e = Exec::new(st.clone());
    let l = left_file(&st, left);
    let keys: Vec<Value> = right.iter().map(|(k, _)| k.clone()).collect();
    let cols = [("K", key_type(&keys)), ("V", ColumnType::Int), ("W", ColumnType::Int)];
    let src_schema =
        Schema::new(cols.iter().map(|(c, ty)| Column::qualified("R", *c, *ty)).collect());
    let rows = right.iter().zip(ws).map(|((k, v), w)| {
        Tuple::new(vec![k.clone(), v.map_or(Value::Null, Value::Int), Value::Int(*w)])
    });
    let src = HeapFile::from_tuples(&st, src_schema, rows);
    let q = parse_query(&format!("SELECT R.K FROM R WHERE R.W < {below}")).unwrap();
    let pred = CPred::compile(src.schema(), q.where_clause.as_ref().unwrap()).unwrap();
    let (pages, n) = (src.page_count() as f64, src.tuple_count() as f64);
    let bound = narrowed_pages(src.schema(), &[0, 1], pages, n, PAGE_SIZE) as usize;
    let out = src.schema().project(&[0, 1]);
    let exprs = vec![CExpr::Col(0), CExpr::Col(1)];
    let pipe = Restriction::new(src, pred, exprs, out.clone(), bound, PAGE_SIZE);
    let res = {
        let q = parse_query("SELECT L.V FROM L, R WHERE L.V < R.V").unwrap();
        CPred::compile(&l.schema().join(&out), q.where_clause.as_ref().unwrap()).unwrap()
    };
    let res = with_residual.then_some(&res);
    let unjoined = UNJOINED[*unjoined];
    let (specs, schema) = aggregates(picked, 0);
    let (lp, ln) = (l.page_count() as f64, l.tuple_count() as f64);
    let table = groupjoin_table_pages(lp, ln, specs.len(), PAGE_SIZE);
    let spilled = HashShape::built_on(true, table, b as f64).spilled > 0;
    st.clear_buffer();
    let live = st.live_pages();
    let before = st.io_snapshot();
    let (rows, made) = if drained {
        let rows = e.drain(&pipe, 0).unwrap();
        let file = rows.file().expect("nothing is held with no cap").clone();
        let rows = e.hash_groupjoin(&l, &file, &on_k(), res, unjoined, &specs, schema).unwrap();
        (rows, (file.tuple_count(), file.page_count()))
    } else {
        let rows = e.hash_groupjoin(&l, &pipe, &on_k(), res, unjoined, &specs, schema).unwrap();
        assert_eq!(st.live_pages(), live, "a streamed pass frees every partition");
        (rows, pipe.made())
    };
    let io = st.io_snapshot().since(&before);
    StreamRun { rows, io: (io.reads, io.writes), spilled, made }
}

#[test]
fn a_streamed_right_side_groups_as_its_drained_rows() {
    // Per pool: cases whose table partitioned, and cases whose table fit.
    let counts: [[std::cell::Cell<usize>; 2]; POOLS.len()] = Default::default();
    forall(300, "a_streamed_right_side_groups_as_its_drained_rows", stream_case, |c| {
        let (got, want) = (stream_groupjoin(c, false), stream_groupjoin(c, true));
        let count = &counts[c.2][usize::from(!got.spilled)];
        count.set(count.get() + 1);
        prop_assert_eq!(got.made, want.made, "the rows made and the pages they fill");
        if got.spilled {
            prop_assert_eq!(exact_bag(&got.rows), exact_bag(&want.rows));
        } else {
            prop_assert_eq!(got.rows.tuples(), want.rows.tuples(), "rows and the left's order");
        }
        // The same split of the same table: only the restricted pages are
        // neither written nor read back.
        let pages = want.made.1 as u64;
        prop_assert_eq!(got.io, (want.io.0 - pages, want.io.1 - pages), "drained {:?}", want.io);
        Ok(())
    });
    let counts = counts.map(|pool| pool.map(std::cell::Cell::into_inner));
    assert!(counts.iter().flatten().all(|&n| n > 3), "cases per pool: {counts:?}");
}
