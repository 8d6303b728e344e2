//! A block correlated by a disjunction is evaluated off the paper's literal
//! plans as one groupjoin per outer row (DESIGN.md "Disjunctive
//! correlation"). This suite holds it to nested iteration on generated
//! statements: an aggregate block — `COUNT(*)`, `COUNT(col)`, `SUM`, `MIN`,
//! `MAX` or `AVG` — or an `EXISTS` / `NOT EXISTS` block, which Section 8
//! turns into `COUNT(*)` and which must not become an anti-join, correlated
//! by two or three disjuncts, one of them of two columns, sometimes with a
//! correlated non-equality ANDed on, a restriction of the inner relation, a
//! restriction of the outer one, or a second relation in the outer block.
//! The tables hold `NULL` keys on both sides, duplicate outer rows, inner
//! rows that match one outer row through two disjuncts, and now and then no
//! inner row at all; their 128-byte pages make the outer table exceed
//! `B − 2` pages at `B ∈ {3, 4, 6}`, so the groupjoin makes several passes.
//!
//! Per case and per pool `B ∈ {3, 4, 6, 64}`:
//!
//! * the default path answers, with a groupjoin over key sets and no
//!   anti-join, the bag nested iteration answers;
//! * `live_pages()` is where it was: the temporary is freed.
//!
//! Replays and shrinks through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nsql_db::{Database, QueryOptions, Strategy};
use nsql_testkit::{forall, prop_assert, Rng, Shrink};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::cell::Cell;

/// Pool sizes: one page of table, two, four, and a pool nothing here
/// overflows.
const POOLS: [usize; 4] = [3, 4, 6, 64];
/// Three 34-byte rows to the page.
const PAGE_SIZE: usize = 128;

/// The correlations, over the outer `O(A, B, C, X)` and the inner
/// `I(A, B, C, Y)`: each disjunct holds a key.
const DISJUNCTIONS: [&str; 3] = [
    "I.A = O.A OR I.B = O.B",
    "I.A = O.A AND O.B = I.B OR I.C = O.C",
    "I.A = O.A OR I.B = O.B OR O.C = I.C AND I.Y > 2",
];

const AGGREGATES: [&str; 6] =
    ["COUNT(*)", "COUNT(I.Y)", "SUM(I.Y)", "MIN(I.Y)", "MAX(I.Y)", "AVG(I.Y)"];

const OPS: [&str; 3] = ["=", "<", ">="];

/// How the outer block consumes the inner one.
#[derive(Clone, Copy, Debug)]
enum Link {
    /// `O.X op (SELECT aggregate …)`: indices into `OPS` and `AGGREGATES`.
    Aggregate(usize, usize),
    /// `[NOT] EXISTS (SELECT I.Y …)`.
    Exists { negated: bool },
}

/// A row `(A, B, C, X)` of `O`, `(A, B, C, Y)` of `I`.
type Row = [Value; 4];

#[derive(Clone, Debug)]
struct Case {
    outer: Vec<Row>,
    inner: Vec<Row>,
    disjunction: usize,
    link: Link,
    /// `AND I.Y < O.X` onto the disjunction.
    non_equality: bool,
    /// `AND I.C < 3` in the inner block.
    inner_simple: bool,
    /// `O.C > 0` in the outer block.
    outer_simple: bool,
    /// `P` in the outer block, joined on `P.A = O.B`.
    joined: bool,
}

impl Shrink for Case {
    fn shrink(&self) -> Vec<Case> {
        let mut out = Vec::new();
        // Rows only go; a smaller value would be another key.
        for (outer, len) in [(true, self.outer.len()), (false, self.inner.len())] {
            for keep in [len / 2, len.saturating_sub(1)] {
                if keep < len {
                    let mut c = self.clone();
                    if outer {
                        c.outer.truncate(keep)
                    } else {
                        c.inner.truncate(keep)
                    }
                    out.push(c);
                }
            }
        }
        for flag in 0..4 {
            let mut c = self.clone();
            let f = [&mut c.non_equality, &mut c.inner_simple, &mut c.outer_simple, &mut c.joined];
            if std::mem::take(f[flag]) {
                out.push(c);
            }
        }
        out
    }
}

/// A key over four values, one in seven `NULL`.
fn key(rng: &mut Rng) -> Value {
    if rng.gen_bool(1.0 / 7.0) {
        Value::Null
    } else {
        Value::Int(rng.gen_range(0i64..4))
    }
}

fn row(rng: &mut Rng) -> Row {
    let v = if rng.gen_bool(0.1) { Value::Null } else { Value::Int(rng.gen_range(0i64..7)) };
    [key(rng), key(rng), key(rng), v]
}

fn case(rng: &mut Rng) -> Case {
    let mut outer: Vec<Row> = (0..rng.gen_range(0usize..40)).map(|_| row(rng)).collect();
    if rng.gen_bool(0.3) && !outer.is_empty() {
        // A few rows, each many times over.
        let few = rng.gen_range(1usize..4).min(outer.len());
        for i in few..outer.len() {
            outer[i] = outer[rng.gen_range(0..few)].clone();
        }
    }
    let n = if rng.gen_bool(0.125) { 0 } else { rng.gen_range(0usize..50) };
    let inner = (0..n).map(|_| row(rng)).collect();
    let link = if rng.gen_bool(0.25) {
        Link::Exists { negated: rng.gen_bool(0.5) }
    } else {
        Link::Aggregate(rng.gen_range(0..OPS.len()), rng.gen_range(0..AGGREGATES.len()))
    };
    Case {
        outer,
        inner,
        disjunction: rng.gen_range(0..DISJUNCTIONS.len()),
        link,
        non_equality: rng.gen_bool(0.3),
        inner_simple: rng.gen_bool(0.3),
        outer_simple: rng.gen_bool(0.3),
        joined: rng.gen_bool(0.2),
    }
}

impl Case {
    fn sql(&self) -> String {
        let mut correlated = format!("({})", DISJUNCTIONS[self.disjunction]);
        if self.non_equality {
            correlated.push_str(" AND I.Y < O.X");
        }
        if self.inner_simple {
            correlated.push_str(" AND I.C < 3");
        }
        let nested = match self.link {
            Link::Aggregate(op, agg) => {
                format!("O.X {} (SELECT {} FROM I WHERE {correlated})", OPS[op], AGGREGATES[agg])
            }
            Link::Exists { negated } => format!(
                "{}EXISTS (SELECT I.Y FROM I WHERE {correlated})",
                if negated { "NOT " } else { "" }
            ),
        };
        let mut conjuncts = Vec::new();
        if self.outer_simple {
            conjuncts.push("O.C > 0".to_string());
        }
        if self.joined {
            conjuncts.push("P.A = O.B".to_string());
        }
        conjuncts.push(nested);
        let (select, from) =
            if self.joined { ("O.A, O.X, P.Z", "O, P") } else { ("O.A, O.X", "O") };
        format!("SELECT {select} FROM {from} WHERE {}", conjuncts.join(" AND "))
    }

    fn database(&self, pool: usize) -> Database {
        let mut db = Database::with_storage(pool, PAGE_SIZE);
        let table = |name: &str, last: &str, rows: &[Row]| {
            let cols = ["A", "B", "C", last].map(|c| Column::qualified(name, c, ColumnType::Int));
            let rows = rows.iter().map(|r| Tuple::new(r.to_vec())).collect();
            Relation::new(Schema::new(cols.to_vec()), rows).unwrap()
        };
        let p: Vec<Row> = [(Some(0), 10), (Some(1), 11), (Some(2), 12), (Some(2), 13), (None, 14)]
            .map(|(a, z)| {
                [a.map_or(Value::Null, Value::Int), Value::Int(z), Value::Null, Value::Null]
            })
            .to_vec();
        let cat = db.catalog_mut();
        cat.load_table("O", &table("O", "X", &self.outer)).unwrap();
        cat.load_table("I", &table("I", "Y", &self.inner)).unwrap();
        cat.load_table("P", &table("P", "Z", &p)).unwrap();
        db
    }
}

#[test]
fn or_correlated_blocks_agree_with_nested_iteration() {
    // Groupjoins that took more than one pass over the inner relation.
    let chunked = Cell::new(0);
    forall(150, "or_correlated_blocks_agree_with_nested_iteration", case, |c| {
        let sql = c.sql();
        for pool in POOLS {
            let db = c.database(pool);
            let at = format!("B = {pool}: {sql}");
            let ni = QueryOptions {
                strategy: Strategy::NestedIteration,
                cold_start: true,
                ..QueryOptions::default()
            };
            let want = db.query_with(&sql, &ni).map_err(|e| format!("{at}: {e}"))?.relation;
            let live = db.storage().live_pages();
            let default = QueryOptions { cold_start: true, ..QueryOptions::default() };
            let out = db.query_with(&sql, &default).map_err(|e| format!("{at}: {e}"))?;
            prop_assert!(
                out.relation.same_bag(&want),
                "{at}\nnested iteration:\n{want}\ndefault:\n{}\n{:#?}",
                out.relation,
                out.explain
            );
            prop_assert!(db.storage().live_pages() == live, "{at}: pages left behind");
            let groupjoin = out.explain.iter().find(|l| l.contains(" key sets)"));
            let anti = out.explain.iter().any(|l| l.contains("anti-join"));
            prop_assert!(groupjoin.is_some() && !anti, "{at}\n{:#?}", out.explain);
            let passes =
                groupjoin.and_then(|l| l.split(", ").nth(1)?.split(' ').next()?.parse().ok());
            if passes.is_some_and(|p: usize| p > 1) {
                chunked.set(chunked.get() + 1);
            }
        }
        Ok(())
    });
    assert!(chunked.get() > 20, "only {} groupjoins took several passes", chunked.get());
}
