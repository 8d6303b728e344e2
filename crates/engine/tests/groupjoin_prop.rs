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
//! Keys across the Int/Float boundary — `Float(2^53)` equals `Int(2^53)` and
//! `Int(2^53 + 1)`, which differ — are folded as the join pairs them. The
//! debug assertion in the kernel (no in-memory pass below the depth cap
//! holds more than `B − 2` pages of table) runs on every case too.

use nsql_engine::cost::{groupjoin_table_pages, hash_partitions};
use nsql_engine::{AggSpec, CPred, Exec, JoinKind};
use nsql_sql::{parse_query, AggFunc};
use nsql_storage::{HeapFile, Storage};
use nsql_testkit::{forall, prop_assert, prop_assert_eq, Rng};
use nsql_types::{Column, ColumnType, Relation, Schema, Value};

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
                &[0],
                &[0],
                with_residual.then_some(&res),
                kind_of(*outer),
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
        if hash_partitions(table, b as f64) == 0 {
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
            assert!(hash_partitions(table, POOLS[0] as f64) > 0, "{table} pages of table");
            let live = st.live_pages();
            let before = st.io_snapshot();
            let got = e
                .hash_groupjoin(&l, &r, &[0], &[0], None, kind_of(outer), &specs, schema)
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
        .hash_groupjoin(&l, &r, &[0], &[0], None, JoinKind::LeftOuter, &specs, schema)
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
