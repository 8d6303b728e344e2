//! Bind-once nested iteration against the independent oracle.
//!
//! Nested iteration resolves a block's names once and evaluates its simple
//! conjuncts by index; the by-name interpreter is no longer a separate path
//! to compare against, so the reference here is `nsql-oracle`, which shares
//! no code with the engine. Generated statements put a correlated inner
//! block — over one FROM file or two, optionally with a third block inside
//! it — under NULL-biased data, with `OR` / `NOT` / `IN`-list / `IS NULL`
//! conjuncts and outer references one and two levels up. Two faults are
//! planted on purpose, both of which must *decline* binding and leave the
//! interpreter to raise its error: a reference that is ambiguous in the
//! inner block's own scope, and an outer reference that resolves nowhere.
//!
//! Per case: the serial run agrees with the oracle (rows as bags, error
//! presence), and a run offered four threads — which nested iteration
//! ignores — agrees with the serial one on rows in order, the error value,
//! and the four storage counters. (There is one kernel: the lane kernel this
//! suite also used to cross-check is gone.)
//!
//! Replays and shrinks through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nsql_engine::provider::MemoryProvider;
use nsql_engine::{EngineError, NestedIter};
use nsql_oracle::Oracle;
use nsql_sql::parse_query;
use nsql_storage::{IoSnapshot, Storage};
use nsql_testkit::{Rng, Shrink};
use nsql_types::{ColumnType, Relation, Schema, Tuple, TypeError, Value};

type Row = (Option<i64>, Option<i64>, Option<i64>);

/// How the outer block consumes the inner one.
#[derive(Clone, Copy, Debug)]
enum Link {
    In,
    NotIn,
    Exists,
    Count,
    Max,
}

/// A reference planted in the inner block that cannot be bound.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Unqualified `V` under `FROM B, C`: ambiguous in the block's own scope.
    Ambiguous,
    /// `Z.K`: no enclosing scope has a `Z`.
    Unresolved,
}

#[derive(Clone, Debug)]
struct Case {
    /// Rows of `A`, `B`, `C` (columns `K`, `V`, `W`).
    tables: [Vec<Row>; 3],
    /// A simple conjunct on `A`, evaluated before the nested one.
    outer_simple: Option<String>,
    link: Link,
    /// Inner block over `FROM B, C` instead of `FROM B`.
    two_file: bool,
    /// The inner block's simple conjuncts, in order.
    inner: Vec<String>,
    /// Conjuncts of a third block nested in the inner one (`FROM C C2`):
    /// its outer references reach `B` (one level up) and `A` (two).
    deep: Option<Vec<String>>,
    /// The planted fault, and whether it is the inner block's *first*
    /// conjunct. Only then is its error independent of evaluation order
    /// (the engine stops a binding at the first non-TRUE conjunct, SQL's
    /// `AND` in the oracle evaluates past UNKNOWN), so only then is error
    /// presence compared with the oracle.
    fault: Option<(Fault, bool)>,
}

impl Case {
    fn sql(&self) -> String {
        let mut inner: Vec<String> = self.inner.clone();
        if let Some(deep) = &self.deep {
            let body = if deep.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", deep.join(" AND "))
            };
            inner.push(format!("B.W IN (SELECT C2.W FROM C C2{body})"));
        }
        if let Some((fault, first)) = self.fault {
            let text = match fault {
                Fault::Ambiguous => "V = 1".to_string(),
                Fault::Unresolved => "B.K = Z.K".to_string(),
            };
            inner.insert(if first { 0 } else { inner.len() }, text);
        }
        let from = if self.two_file { "B, C" } else { "B" };
        let body = if inner.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", inner.join(" AND "))
        };
        let nested = match self.link {
            Link::In => format!("A.V IN (SELECT B.V FROM {from}{body})"),
            Link::NotIn => format!("A.V NOT IN (SELECT B.V FROM {from}{body})"),
            Link::Exists => format!("EXISTS (SELECT B.V FROM {from}{body})"),
            Link::Count => format!("A.V = (SELECT COUNT(B.V) FROM {from}{body})"),
            Link::Max => format!("A.W = (SELECT MAX(B.W) FROM {from}{body})"),
        };
        match &self.outer_simple {
            Some(p) => format!("SELECT A.K, A.V FROM A WHERE {p} AND {nested}"),
            None => format!("SELECT A.K, A.V FROM A WHERE {nested}"),
        }
    }

    fn relations(&self) -> Vec<(&'static str, Relation)> {
        ["A", "B", "C"]
            .into_iter()
            .zip(&self.tables)
            .map(|(name, rows)| {
                let schema = Schema::of_table(
                    name,
                    &[
                        ("K", ColumnType::Int),
                        ("V", ColumnType::Int),
                        ("W", ColumnType::Int),
                    ],
                );
                let tuples = rows
                    .iter()
                    .map(|&(k, v, w)| {
                        [k, v, w]
                            .into_iter()
                            .map(|x| x.map_or(Value::Null, Value::Int))
                            .collect::<Tuple>()
                    })
                    .collect();
                (name, Relation::new(schema, tuples).expect("arity 3"))
            })
            .collect()
    }
}

impl Shrink for Case {
    fn shrink(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for t in 0..3 {
            // Every table keeps a row: the planted faults raise on the first
            // binding of a non-empty FROM product.
            for rows in self.tables[t]
                .shrink()
                .into_iter()
                .filter(|r| !r.is_empty())
            {
                let mut c = self.clone();
                c.tables[t] = rows;
                out.push(c);
            }
        }
        if self.outer_simple.is_some() {
            out.push(Case {
                outer_simple: None,
                ..self.clone()
            });
        }
        if self.deep.is_some() {
            out.push(Case {
                deep: None,
                ..self.clone()
            });
        }
        for i in 0..self.inner.len() {
            let mut c = self.clone();
            c.inner.remove(i);
            out.push(c);
        }
        out
    }
}

fn gen_rows(rng: &mut Rng, max: usize) -> Vec<Row> {
    let cell = |rng: &mut Rng| (!rng.gen_bool(0.25)).then(|| rng.gen_range(0..4i64));
    (0..rng.gen_range(1..max + 1))
        .map(|_| (cell(rng), cell(rng), cell(rng)))
        .collect()
}

/// Up to `max` distinct entries of `pool`, in pool order, with `{n}` / `{m}`
/// replaced by small constants.
fn pick(rng: &mut Rng, pool: &[&str], max: usize) -> Vec<String> {
    let want = rng.gen_range(0..max + 1);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(want);
    idx.sort_unstable();
    idx.into_iter()
        .map(|i| {
            pool[i]
                .replace("{n}", &rng.gen_range(0..4i64).to_string())
                .replace("{m}", &rng.gen_range(0..4i64).to_string())
        })
        .collect()
}

fn gen_case(rng: &mut Rng) -> Case {
    const INNER: [&str; 8] = [
        "B.K = A.K",
        "B.V < A.W OR B.W IS NULL",
        "NOT (B.V = {n})",
        "B.W IN ({n}, {m}, NULL)",
        "B.V IS NOT NULL",
        "B.W NOT IN ({n}, {m})",
        "(B.K = A.K OR B.V = A.V)",
        "NOT (B.W > A.W AND B.V IS NULL)",
    ];
    const INNER_C: [&str; 3] = [
        "C.K = B.K",
        "C.V <> A.V OR C.W IS NULL",
        "C.W IN (0, {n}, {m})",
    ];
    const DEEP: [&str; 4] = [
        "C2.K = B.K",
        "C2.V <= A.V",
        "C2.W IS NULL OR C2.W = A.W",
        "NOT (C2.V = B.V)",
    ];
    const OUTER: [&str; 3] = [
        "A.K < {n}",
        "A.W IS NOT NULL",
        "NOT (A.K = {n} OR A.W = {m})",
    ];

    let two_file = rng.gen_bool(0.4);
    let mut inner = pick(rng, &INNER, 3);
    if two_file {
        inner.extend(pick(rng, &INNER_C, 2));
    }
    let fault = rng.gen_bool(0.25).then(|| {
        let fault = if two_file && rng.gen_bool(0.5) {
            Fault::Ambiguous
        } else {
            Fault::Unresolved
        };
        (fault, rng.gen_bool(0.6))
    });
    Case {
        tables: [gen_rows(rng, 12), gen_rows(rng, 14), gen_rows(rng, 6)],
        // A planted fault is compared with the oracle only if the inner
        // block runs for every outer row.
        outer_simple: (fault.is_none() && rng.gen_bool(0.5))
            .then(|| pick(rng, &OUTER, 1).pop())
            .flatten(),
        link: *rng.choose(&[Link::In, Link::NotIn, Link::Exists, Link::Count, Link::Max]),
        two_file,
        inner,
        deep: rng.gen_bool(0.35).then(|| pick(rng, &DEEP, 2)),
        fault,
    }
}

type Outcome = (Result<Relation, EngineError>, IoSnapshot);

#[test]
fn bound_blocks_agree_with_the_oracle_and_across_threads() {
    nsql_testkit::forall(250, "bind_once_vs_oracle", gen_case, |case| {
        let sql = case.sql();
        let q = parse_query(&sql).map_err(|e| format!("generated SQL must parse: {e}\n{sql}"))?;

        let mut oracle = Oracle::new();
        // Four tuples to a page and a four-page pool: every table spans
        // pages.
        let storage = Storage::new(4, 128);
        let mut provider = MemoryProvider::new();
        for (name, rel) in case.relations() {
            provider.register(name, storage.store_relation(&rel));
            oracle.load(name, rel);
        }
        let run = |threads: usize| -> Outcome {
            storage.clear_buffer();
            storage.reset_stats();
            let before = storage.io_snapshot();
            let ni = NestedIter::new(&provider, storage.clone());
            let res = ni.eval_query_threads(&q, threads);
            (res, storage.io_snapshot().since(&before))
        };

        let base = run(1);
        let par = run(4);
        if par != base {
            return Err(format!(
                "4 threads diverged from the serial run\nsql: {sql}\nserial: {base:?}\n\
                 parallel: {par:?}"
            ));
        }

        // The planted faults decline binding; what surfaces is the
        // interpreter's error, by name.
        if let Some((fault, true)) = case.fault {
            let want = match fault {
                Fault::Ambiguous => TypeError::AmbiguousColumn("V".into()),
                Fault::Unresolved => TypeError::UnknownColumn("Z.K".into()),
            };
            if base.0 != Err(EngineError::Type(want.clone())) {
                return Err(format!("expected {want:?}, got {:?}\nsql: {sql}", base.0));
            }
        }
        if matches!(case.fault, Some((_, false))) {
            return Ok(()); // raised or not depends on evaluation order
        }
        match (oracle.eval(&q), &base.0) {
            (Ok(want), Ok(got)) if got.same_bag(&want) => Ok(()),
            (Err(_), Err(_)) => Ok(()),
            (want, got) => Err(format!(
                "oracle disagreement\nsql: {sql}\noracle: {want:?}\nengine: {got:?}"
            )),
        }
    });
}
