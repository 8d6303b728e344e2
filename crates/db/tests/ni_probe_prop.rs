//! A correlated block that probes is indistinguishable from one that scans,
//! except in pages.
//!
//! By default nested iteration takes a correlated block's tuples from a
//! B+tree on its correlation column when the Section-7 arithmetic says so —
//! the catalog's index, or one it bulk-loads once per query — and under the
//! 1987 switch it reads every page of the inner file on every evaluation, as
//! the paper's does. This suite holds the first to the second on generated
//! two- and three-level statements over NULL-bearing, duplicate-heavy tables
//! whose key column is `INT` on one side and `FLOAT` on the other: the key
//! conjunct first, last and in the middle of the WHERE; behind a conjunct
//! that can raise; as an `OR` of two keys (on two columns, and on one); on a
//! string column against an integer; with a third block nested under the
//! probing one; under a scalar use that two matching rows turn into a
//! cardinality error; with the catalog's index, a temporary one, or a table
//! too small to repay either; with a string planted in the integer key
//! column of a late page (heap files do not enforce their schema); on the
//! memory and on the file store.
//!
//! Per case, under `Strategy::NestedIteration`:
//!
//! * the default run returns the bag — or the error, rendered — of the same
//!   call under `faithful_1987`, which in turn agrees with `nsql-oracle`
//!   wherever both answer (so the oracle sees the probing path, which the
//!   one-page tables of `diff_prop` never choose);
//! * `live_pages()` is where it was: the temporary trees are freed;
//! * a run none of whose blocks probes reads no more pages than the
//!   faithful run, and writes as many: the default run evaluates a nested
//!   conjunct once per distinct binding, the faithful one once per binding;
//! * a run that probes builds each tree at most once, and apart from those
//!   builds counts no more page I/O than the faithful run — what a probe
//!   reads in place of a scan. (The builds are the arithmetic's wager on an
//!   *estimated* number of evaluations, so the total is pinned where the
//!   number is known: `default_path_io`.)
//!
//! Replays and shrinks through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nsql_core::UnnestOptions;
use nsql_db::{Database, QueryOptions, Strategy};
use nsql_obs::ProfileNode;
use nsql_oracle::Oracle;
use nsql_sql::parse_query;
use nsql_storage::IoSnapshot;
use nsql_testkit::{Rng, Shrink, TempDir};
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// How the outer block consumes the inner one.
#[derive(Clone, Copy, Debug)]
enum Link {
    In,
    NotIn,
    Exists,
    NotExists,
    Count,
    Max,
    /// `SUM` over the float column: candidate order must not show.
    Sum,
    Avg,
    /// `A.V = (SELECT B.V …)`: two surviving rows are a cardinality error.
    Scalar,
}

#[derive(Clone, Debug)]
struct Case {
    /// Rows of `A(K, V, F)`, `B(K, V, F, S, U)` and `C(K, V, W)`.
    a: Vec<Vec<Value>>,
    b: Vec<Vec<Value>>,
    c: Vec<Vec<Value>>,
    /// `B.K` is declared `FLOAT` (and `A.K` stays `INT`).
    float_key: bool,
    /// B+trees on `B.K` and `C.K` in the catalog.
    indexed: bool,
    file_store: bool,
    outer_simple: Option<String>,
    link: Link,
    /// The inner block's conjuncts in WHERE order, the key conjunct (if
    /// any) and a nested one (if any) among them.
    inner: Vec<String>,
}

impl Case {
    fn sql(&self) -> String {
        let body = if self.inner.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", self.inner.join(" AND "))
        };
        let nested = match self.link {
            Link::In => format!("A.V IN (SELECT B.V FROM B{body})"),
            Link::NotIn => format!("A.V NOT IN (SELECT B.V FROM B{body})"),
            Link::Exists => format!("EXISTS (SELECT B.V FROM B{body})"),
            Link::NotExists => format!("NOT EXISTS (SELECT B.V FROM B{body})"),
            Link::Count => format!("A.V = (SELECT COUNT(B.V) FROM B{body})"),
            Link::Max => format!("A.V <= (SELECT MAX(B.V) FROM B{body})"),
            Link::Sum => format!("A.F <= (SELECT SUM(B.F) FROM B{body})"),
            Link::Avg => format!("A.F >= (SELECT AVG(B.F) FROM B{body})"),
            Link::Scalar => format!("A.V = (SELECT B.V FROM B{body})"),
        };
        match &self.outer_simple {
            Some(p) => format!("SELECT A.K, A.V, A.F FROM A WHERE {p} AND {nested}"),
            None => format!("SELECT A.K, A.V, A.F FROM A WHERE {nested}"),
        }
    }

    fn relations(&self) -> [(&'static str, Relation); 3] {
        use ColumnType::{Float, Int, Str};
        let key = if self.float_key { Float } else { Int };
        let rel = |name: &str, cols: &[(&str, ColumnType)], rows: &[Vec<Value>]| {
            let schema = Schema::new(cols.iter().map(|(c, ty)| Column::new(*c, *ty)).collect());
            let tuples = rows.iter().map(|r| Tuple::new(r.clone())).collect();
            Relation::new(schema, tuples).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        [
            ("A", rel("A", &[("K", Int), ("V", Int), ("F", Float)], &self.a)),
            (
                "B",
                rel("B", &[("K", key), ("V", Int), ("F", Float), ("S", Str), ("U", Int)], &self.b),
            ),
            ("C", rel("C", &[("K", Int), ("V", Int), ("W", Int)], &self.c)),
        ]
    }

    fn database(&self, dir: &TempDir) -> Database {
        let mut db = if self.file_store {
            Database::open_with(6, 256, dir.path()).expect("fresh store opens")
        } else {
            Database::with_storage(6, 256)
        };
        for (name, rel) in self.relations() {
            db.catalog_mut().load_table(name, &rel).expect("fresh catalog");
        }
        if self.indexed {
            db.catalog_mut().create_index("B", "K").expect("B.K exists");
            db.catalog_mut().create_index("C", "K").expect("C.K exists");
        }
        db
    }
}

impl Shrink for Case {
    fn shrink(&self) -> Vec<Case> {
        let mut out = Vec::new();
        // Rows only go; a smaller value would be another key.
        for table in 0..3 {
            let len = [&self.a, &self.b, &self.c][table].len();
            for keep in [len / 2, len.saturating_sub(1)] {
                if keep < len {
                    let mut c = self.clone();
                    [&mut c.a, &mut c.b, &mut c.c][table].truncate(keep);
                    out.push(c);
                }
            }
        }
        if self.outer_simple.is_some() {
            out.push(Case { outer_simple: None, ..self.clone() });
        }
        for i in 0..self.inner.len() {
            let mut c = self.clone();
            c.inner.remove(i);
            out.push(c);
        }
        if self.file_store {
            out.push(Case { file_store: false, ..self.clone() });
        }
        out
    }
}

/// An integer below `below`, or NULL about one time in twelve.
fn int(rng: &mut Rng, below: i64) -> Value {
    let v = Value::Int(rng.gen_range(0..below));
    nullable(rng, v)
}

/// `v`, or NULL about one time in twelve.
fn nullable(rng: &mut Rng, v: Value) -> Value {
    if rng.gen_bool(0.08) {
        Value::Null
    } else {
        v
    }
}

fn gen_case(rng: &mut Rng) -> Case {
    // Few keys, many rows: every probe meets duplicates. The keys are drawn
    // evenly — the arithmetic prices a probe at a tenth of the leaves.
    let distinct = rng.gen_range(4i64..25);
    let float_key = rng.gen_bool(0.4);
    let tenths = |rng: &mut Rng| {
        let v = Value::Float(rng.gen_range(-40i64..400) as f64 / 10.0);
        nullable(rng, v)
    };
    let a: Vec<Vec<Value>> = (0..rng.gen_range(30usize..90))
        .map(|_| {
            vec![
                int(rng, distinct),
                int(rng, 6),
                tenths(rng),
            ]
        })
        .collect();
    // One case in eight keeps B to a page or two: nothing to repay.
    let small = rng.gen_bool(0.125);
    let b_rows = if small { rng.gen_range(4usize..16) } else { rng.gen_range(120usize..320) };
    let key = |k: i64| if float_key { Value::Float(k as f64) } else { Value::Int(k) };
    let mut b: Vec<Vec<Value>> = (0..b_rows)
        .map(|_| {
            // With a float key, a few keys fall between the integers.
            let k = match rng.gen_range(0i64..distinct) {
                k if float_key && rng.gen_bool(0.1) => Value::Float(k as f64 + 0.5),
                k => key(k),
            };
            vec![
                nullable(rng, k),
                int(rng, 6),
                tenths(rng),
                Value::Null,
                Value::Int(rng.gen_range(0i64..12)),
            ]
        })
        .collect();
    // Strings only under a key no part has, late in the file: a comparison
    // of `B.S` with a number raises on these rows and on no row a probe for
    // an outer key would fetch.
    for _ in 0..rng.gen_range(1usize..4) {
        let at = b.len() - rng.gen_range(0..b.len().min(20));
        let row = vec![key(-1), Value::Int(1), Value::Float(0.5), Value::str("x"), Value::Int(3)];
        b.insert(at, row);
    }
    if rng.gen_bool(0.08) {
        // Heap files do not enforce their schema.
        let at = b.len() - 1 - rng.gen_range(0..b.len().min(10));
        b[at][0] = Value::str("k");
    }
    let c: Vec<Vec<Value>> = (0..rng.gen_range(40usize..140))
        .map(|_| {
            vec![
                int(rng, distinct),
                int(rng, 6),
                Value::Int(rng.gen_range(0i64..6)),
            ]
        })
        .collect();

    const KEYS: [&str; 6] = [
        "B.K = A.K",
        "A.K = B.K",
        "(B.K = A.K OR B.V = A.V)",
        "(B.K = A.K OR B.K = A.V)",
        // A string column against an integer: no tree can stand in for that.
        "B.S = A.K",
        // Correlated, and no equality to probe by.
        "B.K < A.K",
    ];
    const INFALLIBLE: [&str; 8] = [
        "B.V < {n}",
        "B.F >= {n}.5",
        "B.V IS NOT NULL",
        "B.V IN (1, {n}, NULL)",
        "NOT (B.V = {n})",
        "B.F < A.V",
        "B.U <> {n}",
        "(B.S = 'x' OR B.U < 9)",
    ];
    // Each raises on a row whose `S` is a string, and only there.
    const FALLIBLE: [&str; 2] = ["B.S >= A.K", "(B.S < 3 OR B.U >= 0)"];
    const NESTED: [&str; 5] = [
        // Raises for most tuples, with a count that depends on the tuple:
        // which one raises first is a matter of order.
        "B.V = (SELECT C.V FROM C WHERE C.K = B.U)",
        "B.V IN (SELECT C.V FROM C WHERE C.K = B.K)",
        "B.V IN (SELECT C.V FROM C WHERE C.K = B.K AND C.W <= A.V)",
        "EXISTS (SELECT C.W FROM C WHERE C.K = A.K AND C.V = B.V)",
        "B.V < (SELECT MAX(C.V) FROM C)",
    ];
    const OUTER: [&str; 4] = ["A.V < {n}", "A.V >= 0", "A.K = {n}", "NOT (A.V = {n})"];

    let fill = |rng: &mut Rng, text: &str| text.replace("{n}", &rng.gen_range(0i64..6).to_string());
    // The plain keys are the common case.
    let plain = rng.gen_bool(0.5);
    let key_form = if plain { KEYS[rng.gen_range(0..2usize)] } else { *rng.choose(&KEYS) };
    let mut inner = vec![key_form.to_string()];
    for _ in 0..rng.gen_range(0usize..3) {
        let text = *rng.choose(&INFALLIBLE[..]);
        inner.push(fill(rng, text));
    }
    if rng.gen_bool(0.15) {
        inner.push(rng.choose(&FALLIBLE).to_string());
    }
    if rng.gen_bool(0.35) {
        inner.push(rng.choose(&NESTED).to_string());
    }
    let link = *rng.choose(&[
        Link::In,
        Link::NotIn,
        Link::Exists,
        Link::NotExists,
        Link::Count,
        Link::Count,
        Link::Max,
        Link::Sum,
        Link::Avg,
        Link::Scalar,
    ]);
    if matches!(link, Link::Scalar) {
        // Most bindings keep one row or none; some keep two.
        inner.push(format!("B.U = {}", rng.gen_range(0i64..12)));
    }
    rng.shuffle(&mut inner);
    Case {
        a,
        b,
        c,
        float_key,
        indexed: rng.gen_bool(0.4),
        file_store: rng.gen_bool(0.25),
        outer_simple: rng.gen_bool(0.6).then(|| {
            let text = *rng.choose(&OUTER[..]);
            fill(rng, text)
        }),
        link,
        inner,
    }
}

/// What one run shows: the rows canonically ordered, or the error rendered;
/// the four counters; the EXPLAIN lines; the profile.
struct Seen {
    outcome: Result<Vec<Tuple>, String>,
    io: IoSnapshot,
    explain: Vec<String>,
    profile: Vec<ProfileNode>,
}

fn run(db: &Database, sql: &str, faithful_1987: bool) -> Seen {
    let opts = QueryOptions {
        strategy: Strategy::NestedIteration,
        cold_start: true,
        observe: true,
        unnest: UnnestOptions { faithful_1987, ..UnnestOptions::default() },
        ..QueryOptions::default()
    };
    let before = db.storage().io_snapshot();
    let out = db.query_with(sql, &opts);
    let io = db.storage().io_snapshot().since(&before);
    match out {
        Ok(out) => {
            let mut rows = out.relation.tuples().to_vec();
            rows.sort_by(Tuple::total_cmp);
            let profile = out.obs.map(|o| o.profile).unwrap_or_default();
            Seen { outcome: Ok(rows), io, explain: out.explain, profile }
        }
        Err(e) => {
            Seen { outcome: Err(format!("{e:?}")), io, explain: Vec::new(), profile: Vec::new() }
        }
    }
}

/// The `build temp index …` nodes of a profile, wherever they nest.
fn builds<'p>(nodes: &'p [ProfileNode], out: &mut Vec<&'p ProfileNode>) {
    for n in nodes {
        if n.name.starts_with("build temp index on ") {
            out.push(n);
        }
        builds(&n.children, out);
    }
}

/// Rows as bits: `same_bag` would let `3` pass for `3.0` and a sum for its
/// neighbour one ulp away.
fn bits(rows: &[Tuple]) -> Vec<Vec<String>> {
    let bit = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter().map(|t| t.values().iter().map(bit).collect()).collect()
}

#[test]
fn probing_returns_what_scanning_returns() {
    use std::cell::Cell;
    let [probing, temporary, catalog, errors] = [(); 4].map(|()| Cell::new(0u32));
    nsql_testkit::forall(120, "ni_probe_vs_scan", gen_case, |case| {
        let sql = case.sql();
        let q = parse_query(&sql).map_err(|e| format!("generated SQL must parse: {e}\n{sql}"))?;
        let dir = TempDir::new("ni-probe-prop");
        let db = case.database(&dir);
        let mut oracle = Oracle::new();
        for (name, rel) in case.relations() {
            oracle.load(name, rel);
        }
        let live = db.storage().live_pages();

        let at = |what: &str| format!("{what}\n{sql}");
        let paper = run(&db, &sql, true);
        let default = run(&db, &sql, false);
        if bits_or_err(&default.outcome) != bits_or_err(&paper.outcome) {
            return Err(format!(
                "{}\n1987: {:?}\ndefault: {:?}\n{:#?}",
                at("the default run answers differently"),
                paper.outcome,
                default.outcome,
                default.explain
            ));
        }
        if db.storage().live_pages() != live {
            return Err(at("pages leaked"));
        }
        if let (Ok(rows), Ok(want)) = (&paper.outcome, oracle.eval(&q)) {
            let got =
                Relation::new(want.schema().clone(), rows.clone()).map_err(|e| e.to_string())?;
            if !got.same_bag(&want) {
                let at = at("oracle disagreement");
                return Err(format!("{at}\noracle:\n{want}\nengine:\n{got}"));
            }
        }

        let Ok(_) = &default.outcome else {
            errors.set(errors.get() + 1);
            return Ok(());
        };
        let probes: Vec<&String> =
            default.explain.iter().filter(|l| l.contains(": probe ")).collect();
        if probes.is_empty() {
            if default.io.reads > paper.io.reads || default.io.writes != paper.io.writes {
                return Err(format!(
                    "{}\n1987: {:?}\ndefault: {:?}\n{:#?}",
                    at("no block probes, yet the default run read more or wrote otherwise"),
                    paper.io,
                    default.io,
                    default.explain
                ));
            }
            return Ok(());
        }
        probing.set(probing.get() + 1);
        let named = |what: &str| probes.iter().map(|l| l.matches(what).count()).sum::<usize>();
        temporary.set(temporary.get() + u32::from(named("temp index on ") > 0));
        catalog.set(catalog.get() + u32::from(named("IX_") > 0));
        let mut built = Vec::new();
        builds(&default.profile, &mut built);
        if built.len() > named("temp index on ") {
            return Err(format!(
                "{}\n{:#?}\n{:#?}",
                at("a tree was built more than once"),
                default.explain,
                built.iter().map(|n| &n.name).collect::<Vec<_>>()
            ));
        }
        let building: u64 = built.iter().map(|n| n.io.reads + n.io.writes).sum();
        if default.io.total() - building > paper.io.total() {
            return Err(format!(
                "{}\n1987: {:?}\ndefault: {:?}, of which {building} building\n{:#?}",
                at("probing read more than scanning"),
                paper.io,
                default.io,
                default.explain
            ));
        }
        Ok(())
    });
    // Without NSQL_TEST_CASES scaling the sweep down, every regime occurs.
    eprintln!(
        "probing runs: {} ({} with a temporary tree, {} with the catalog's), runs that raised: {}",
        probing.get(),
        temporary.get(),
        catalog.get(),
        errors.get()
    );
    let scaled = ["NSQL_TEST_CASES", "NSQL_TEST_SEED"].iter().any(|v| std::env::var_os(v).is_some());
    if !scaled {
        assert!(temporary.get() >= 20 && catalog.get() >= 20 && errors.get() >= 10);
    }
}

fn bits_or_err(outcome: &Result<Vec<Tuple>, String>) -> Result<Vec<Vec<String>>, &String> {
    outcome.as_ref().map(|rows| bits(rows))
}
