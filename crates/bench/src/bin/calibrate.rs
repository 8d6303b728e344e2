//! Fit `nsql_engine::cost::PRICES`: run the benchmark's fourteen transformed
//! statements at both of its geometries under the cost-based and the three
//! forced join policies, observed, and regress the wall time of every join
//! node on the work of the method that ran. Prints the fitted list as Rust,
//! every node's residual and the statements × policies table. Optional
//! arguments: the workload seed (default 42) and the repetitions per
//! statement (default 60).
//!
//! A join node's work is what the join choice priced it at: the terms of
//! its method on EXPLAIN's `join choice:` (or `index join candidate`) line,
//! computed from the exact sizes of the inputs. A groupjoin node (NEST-JA2's
//! `TEMP3` folded in one hash pass) is fitted on the hash terms its own
//! `groupjoin` line priced it at. The solver is least squares
//! on the relative error (every node counts alike, a 10 µs join as much as
//! a 10 ms one) with the prices kept nonnegative: a term whose price comes
//! out negative is dropped and the rest refitted.
//!
//! It then runs the two statements `kim-refused` retries by nested
//! iteration on Kim's tables and reads every `build temp index on …` node:
//! its counted pages and the rows its sort passes (the estimate's term),
//! priced at the committed `PRICES` beside the measured time. These nodes
//! are not fitted.

use nsql_bench::workload::{self, WorkloadSpec};
use nsql_db::{Database, JoinPolicy, QueryOptions, Strategy};
use nsql_engine::cost::{temp_tree_estimate, Prices, Work, PRICES};
use nsql_obs::ProfileNode;
use nsql_testkit::Rng;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::path::Path;
use std::time::Instant;

/// The statements, as `benchmark/src/workloads.rs` words them.
const STATEMENTS: [(&str, &str); 8] = [
    ("n", "SELECT PNUM FROM PARTS WHERE SERIAL IN (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)"),
    (
        "j",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
            (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    ),
    (
        "ja_count",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
            (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)",
    ),
    (
        "ja_max",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
            (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)",
    ),
    (
        "ml3",
        "SELECT PNUM FROM PARTS WHERE QOH IN \
            (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.EPOCH IN \
            (SELECT S2.EPOCH FROM SUPPLY S2 WHERE S2.PNUM = SUPPLY.PNUM AND S2.QUAN < 10))",
    ),
    (
        "flat_join",
        "SELECT PARTS.GRP, COUNT(SUPPLY.QUAN) FROM PARTS, SUPPLY \
            WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 GROUP BY PARTS.GRP",
    ),
    (
        "static_n",
        "SELECT PNUM FROM PARTS WHERE PARTS.GRP IN \
            (SELECT VENDOR.GRP FROM VENDOR WHERE VENDOR.RATING = 4)",
    ),
    (
        "static_join",
        "SELECT VENDOR.CITY, COUNT(PARTS.PNUM) FROM PARTS, VENDOR \
            WHERE PARTS.PNUM = VENDOR.VNUM GROUP BY VENDOR.CITY",
    ),
];

/// The statements the transformation refuses and `kim-refused` retries by
/// nested iteration, as `benchmark/src/workloads.rs` words them: the
/// correlated block probes one tree it builds on `SUPPLY.PNUM`, or two
/// under the `OR`.
const REFUSED: [(&str, &str); 2] = [
    (
        "j_notin",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH NOT IN \
            (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    ),
    (
        "ja_or",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
            (SELECT COUNT(QUAN) FROM SUPPLY \
            WHERE SUPPLY.PNUM = PARTS.PNUM OR SUPPLY.TAG = PARTS.SERIAL)",
    ),
];

/// One of the benchmark's transformed workloads: its name, its tables,
/// pool and page size, whether it runs on the file store with the B+tree
/// on `SUPPLY.PNUM`, and the shapes of its round.
struct Group {
    name: &'static str,
    spec: WorkloadSpec,
    indexed: bool,
    shapes: &'static [&'static str],
}

/// The benchmark's three transformed workloads: fourteen statements.
fn groups() -> [Group; 3] {
    let kim = WorkloadSpec::kim_scale();
    let big = WorkloadSpec {
        outer_tuples: 20_000,
        inner_tuples: 30_000,
        buffer_pages: 64,
        page_size: 4096,
        ..kim
    };
    [
        Group {
            name: "kim-unnest",
            spec: kim,
            indexed: false,
            shapes: &["n", "j", "ja_count", "ja_max", "ml3"],
        },
        Group {
            name: "big-unnest",
            spec: big,
            indexed: false,
            shapes: &["n", "j", "ja_count", "ja_max", "flat_join"],
        },
        Group {
            name: "kim-readwrite-file",
            spec: kim,
            indexed: true,
            shapes: &["static_n", "static_join", "j", "ja_count"],
        },
    ]
}

/// The join policies: the default's choice first, then the three forced.
const POLICIES: [(&str, JoinPolicy); 4] = [
    ("default", JoinPolicy::CostBased),
    ("nl", JoinPolicy::ForceNestedLoop),
    ("mj", JoinPolicy::ForceMergeJoin),
    ("hj", JoinPolicy::ForceHashJoin),
];

/// Load the benchmark's `VENDOR(VNUM, GRP, RATING, CITY)`: 50 vendors
/// numbered from 0, so `VNUM` meets the first 50 part numbers, with `GRP`
/// in 0..10 (PARTS' groups), `RATING` in 0..5 and `CITY` in 0..50, drawn
/// from a stream of its own.
fn load_vendor(db: &mut Database, seed: u64) {
    let mut rng = Rng::from_seed(seed ^ 0x5645_4E44_4F52);
    let schema = Schema::new(
        ["VNUM", "GRP", "RATING", "CITY"].map(|c| Column::new(c, ColumnType::Int)).to_vec(),
    );
    let mut vendor = Relation::empty(schema);
    for v in 0..50 {
        let row = [v, rng.gen_range(0..10), rng.gen_range(0..5), rng.gen_range(0..50)];
        vendor.push(Tuple::new(row.map(Value::Int).to_vec())).expect("four ints fit VENDOR");
    }
    db.catalog_mut().load_table("VENDOR", &vendor).expect("VENDOR is new to the catalog");
}

/// One observed join node: `group shape policy #k`, the method's profile
/// label, what the choice priced it at, and its fastest wall time over the
/// repetitions in nanoseconds.
#[derive(Debug, Clone)]
struct Sample {
    at: String,
    method: String,
    work: Work,
    ns: f64,
}

/// Parse one method's [`Work`] as its `Display` writes it (`P pages + N
/// unit … = T µs`).
fn parse_work(text: &str) -> Option<Work> {
    let text = text.split(" = ").next()?;
    let mut terms = text.split(" + ");
    let pages = terms.next()?.strip_suffix(" pages")?.parse().ok()?;
    let mut w = Work { pages, ..Work::default() };
    for term in terms {
        let (n, unit) = term.split_once(' ')?;
        let n: f64 = n.parse().ok()?;
        match unit {
            "visits" => w.visits = n,
            "rows sorted" => w.sorted = n,
            "rows hashed" => w.hashed = n,
            "rows partitioned" => w.partitioned = n,
            _ => return None,
        }
    }
    Some(w)
}

/// The work of every keyed join a statement ran, in order, from its
/// EXPLAIN lines: the method on each step's own line, its price on the
/// choice line before it; a groupjoin's on its own line.
fn priced_joins(explain: &[String]) -> Vec<Work> {
    let mut out = Vec::new();
    let mut choice: Option<&str> = None;
    for line in explain {
        if let Some(rest) = line.strip_prefix("groupjoin (") {
            if line.ends_with("(chose groupjoin)") {
                let cost = rest.split_once(": ").and_then(|(_, c)| c.split(" vs join ").next());
                out.extend(cost.and_then(parse_work));
            }
        } else if let Some(rest) = line.strip_prefix("index join candidate ") {
            if line.ends_with("(chose index)") {
                let cost = rest.split_once(": cost ").and_then(|(_, c)| c.split(" vs nl ").next());
                out.extend(cost.and_then(parse_work));
            }
        } else if let Some(rest) = line.strip_prefix("join choice: ") {
            choice = Some(rest);
        } else if let Some(text) = choice {
            let method = if line.starts_with("hash join") {
                "hj"
            } else if line.starts_with("merge join") {
                "mj"
            } else if line.starts_with("nested-loop join") {
                "nl"
            } else {
                continue;
            };
            let priced = text.split(" / ").find_map(|m| m.strip_prefix(method)?.strip_prefix(' '));
            out.extend(priced.and_then(parse_work));
            choice = None;
        }
    }
    out
}

/// The profile's keyed join nodes, in the order they ran.
fn join_nodes<'a>(nodes: &'a [ProfileNode], out: &mut Vec<&'a ProfileNode>) {
    for n in nodes {
        let keyed = n.name.starts_with("index-nl join")
            || ["hash join (", "merge join (", "nested-loop join (", "groupjoin ("]
                .iter()
                .any(|m| n.name.starts_with(m) && !n.name.ends_with("(0 keys)"));
        if keyed && n.op.is_some() {
            out.push(n);
        } else {
            join_nodes(&n.children, out);
        }
    }
}

/// Run one statement once: its wall time in ms, and each keyed join's
/// profile label, priced work and wall time in ns.
fn observe(db: &Database, sql: &str, policy: JoinPolicy, at: &str) -> (f64, Vec<Sample>) {
    let opts = QueryOptions { join_policy: policy, observe: true, ..QueryOptions::default() };
    let t = Instant::now();
    let out = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{at}: {e}"));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let profile = out.obs.expect("observed").profile;
    let mut nodes = Vec::new();
    join_nodes(&profile, &mut nodes);
    let works = priced_joins(&out.explain);
    assert_eq!(works.len(), nodes.len(), "{at}: {:#?}", out.explain);
    let samples = nodes
        .iter()
        .zip(works)
        .enumerate()
        .map(|(k, (n, work))| Sample {
            at: format!("{at} #{k}"),
            method: n.name.clone(),
            work,
            ns: n.wall_ns as f64,
        })
        .collect();
    (ms, samples)
}

/// Observe every statement of every group under every policy: one warming
/// run each, then `reps` rounds of the four policies in turn (3 for a
/// statement slower than 50 ms), each time and each node at its fastest.
/// File stores go under `dir`. Returns the join nodes and, per statement,
/// `group shape` with its fastest time in ms under each of [`POLICIES`].
fn collect(seed: u64, reps: usize, dir: &Path) -> (Vec<Sample>, Vec<(String, [f64; 4])>) {
    let (mut samples, mut timings) = (Vec::new(), Vec::new());
    for (g, group) in groups().iter().enumerate() {
        let spec = group.spec;
        let db = if group.indexed {
            Database::open_with(spec.buffer_pages, spec.page_size, &dir.join(format!("g{g}")))
                .expect("a fresh store opens")
        } else {
            Database::with_storage(spec.buffer_pages, spec.page_size)
        };
        let mut db = workload::load(db, spec, seed).db;
        load_vendor(&mut db, seed);
        if group.indexed {
            db.catalog_mut().create_index("SUPPLY", "PNUM").expect("the index builds");
        }
        for &shape in group.shapes {
            let sql = STATEMENTS.iter().find(|(s, _)| *s == shape).expect("a known shape").1;
            let at = |p: usize| format!("{} {shape} {}", group.name, POLICIES[p].0);
            let mut ms = [f64::INFINITY; 4];
            let mut best: [Vec<Sample>; 4] = Default::default();
            let mut slowest = 0.0_f64;
            for p in 0..4 {
                let (once, got) = observe(&db, sql, POLICIES[p].1, &at(p));
                slowest = slowest.max(once);
                best[p] = got.into_iter().map(|s| Sample { ns: f64::INFINITY, ..s }).collect();
            }
            let reps = if slowest > 50.0 { 3 } else { reps };
            for _ in 0..reps {
                for p in 0..4 {
                    let (t, got) = observe(&db, sql, POLICIES[p].1, &at(p));
                    ms[p] = ms[p].min(t);
                    for (b, s) in best[p].iter_mut().zip(got) {
                        b.ns = b.ns.min(s.ns);
                    }
                }
            }
            samples.extend(best.into_iter().flatten());
            timings.push((format!("{} {shape}", group.name), ms));
        }
    }
    (samples, timings)
}

/// The profile's temporary tree builds, in the order they ran.
fn build_nodes<'a>(nodes: &'a [ProfileNode], out: &mut Vec<&'a ProfileNode>) {
    for n in nodes {
        if n.name.starts_with("build temp index on ") {
            out.push(n);
        }
        build_nodes(&n.children, out);
    }
}

/// Run the [`REFUSED`] statements on Kim's tables, observed, `reps` times
/// each, and read every tree build: `kim-refused statement #k`, its
/// counted pages and the rows its sort passes (what the access-path choice
/// priced it at, from the inner's sizes), at its fastest.
fn collect_builds(seed: u64, reps: usize) -> Vec<Sample> {
    let spec = WorkloadSpec::kim_scale();
    let db = Database::with_storage(spec.buffer_pages, spec.page_size);
    let db = workload::load(db, spec, seed).db;
    let supply = db.catalog().table("SUPPLY").expect("the workload loads SUPPLY");
    let (pj, nj) = (supply.page_count() as f64, supply.tuple_count() as f64);
    let b = spec.buffer_pages as f64;
    let sorted = temp_tree_estimate(pj, nj, ColumnType::Int, spec.page_size, b).0.sorted;
    let strategy = Strategy::NestedIteration;
    let opts = QueryOptions { strategy, observe: true, ..QueryOptions::default() };
    let mut samples = Vec::new();
    for (shape, sql) in REFUSED {
        let mut best: Vec<Sample> = Vec::new();
        for rep in 0..=reps {
            let out = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{shape}: {e}"));
            let profile = out.obs.expect("observed").profile;
            let mut nodes = Vec::new();
            build_nodes(&profile, &mut nodes);
            if rep == 0 {
                // The warming run names the nodes; its time is not kept.
                let sample = |(k, n): (usize, &&ProfileNode)| {
                    let pages = (n.io.reads + n.io.writes) as f64;
                    Sample {
                        at: format!("kim-refused {shape} #{k}"),
                        method: n.name.clone(),
                        work: Work { pages, sorted, ..Work::default() },
                        ns: f64::INFINITY,
                    }
                };
                best = nodes.iter().enumerate().map(sample).collect();
                continue;
            }
            for (s, n) in best.iter_mut().zip(nodes) {
                s.ns = s.ns.min(n.wall_ns as f64);
            }
        }
        samples.extend(best);
    }
    samples
}

/// The terms of a sample, in [`Prices`] field order.
fn terms(w: &Work) -> [f64; TERMS] {
    [w.pages, w.visits, w.sorted, w.hashed, w.partitioned]
}

/// The number of [`Work`] terms, each with a price.
const TERMS: usize = 5;

/// Solve `a · x = b` by Gaussian elimination with partial pivoting; a
/// singular column's unknown is 0.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let largest = |&i: &usize, &j: &usize| a[i][col].abs().total_cmp(&a[j][col].abs());
        let pivot = (col..n).max_by(largest).expect("col < n: rows remain");
        a.swap(col, pivot);
        b.swap(col, pivot);
        if a[col][col].abs() < 1e-12 {
            continue;
        }
        for row in col + 1..n {
            let (above, below) = a.split_at_mut(row);
            let (pivot_row, this_row) = (&above[col], &mut below[0]);
            let f = this_row[col] / pivot_row[col];
            for (x, p) in this_row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        if a[col][col].abs() < 1e-12 {
            continue;
        }
        let s: f64 = (col + 1..n).map(|k| a[col][k] * x[k]).sum();
        x[col] = (b[col] - s) / a[col][col];
    }
    x
}

/// Nonnegative prices minimising `Σ ((terms(s) · x − ns) / ns)²`.
fn fit(samples: &[Sample]) -> Prices {
    let mut active = [true; TERMS];
    loop {
        let idx: Vec<usize> = (0..TERMS).filter(|&i| active[i]).collect();
        let (mut ata, mut atb) = (vec![vec![0.0; idx.len()]; idx.len()], vec![0.0; idx.len()]);
        for s in samples.iter().filter(|s| s.ns > 0.0) {
            let t = terms(&s.work);
            let row: Vec<f64> = idx.iter().map(|&i| t[i] / s.ns).collect();
            for i in 0..idx.len() {
                for j in 0..idx.len() {
                    ata[i][j] += row[i] * row[j];
                }
                atb[i] += row[i];
            }
        }
        let sol = solve(ata, atb);
        let mut x = [0.0; TERMS];
        for (k, &i) in idx.iter().enumerate() {
            x[i] = sol[k];
        }
        let negative = (0..TERMS).filter(|&i| active[i] && x[i] < 0.0);
        match negative.min_by(|&i, &j| x[i].total_cmp(&x[j])) {
            Some(worst) => active[worst] = false,
            None => {
                let [page, visit, sorted_row, hashed_row, partitioned_row] = x;
                return Prices { page, visit, sorted_row, hashed_row, partitioned_row };
            }
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| {
        a.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("bad argument {a:?} (want: [seed] [repetitions])");
            std::process::exit(2);
        })
    });
    let seed = args.next().unwrap_or(workload::DEFAULT_SEED);
    let reps = args.next().unwrap_or(60) as usize;
    let dir = nsql_testkit::TempDir::new("calibrate");
    let (samples, timings) = collect(seed, reps, dir.path());

    let p = fit(&samples);
    println!("fitted prices (ns per unit), {} join nodes:", samples.len());
    println!(
        "pub const PRICES: Prices = Prices {{ page: {:.1}, visit: {:.1}, sorted_row: {:.1}, \
         hashed_row: {:.1}, partitioned_row: {:.1} }};",
        p.page, p.visit, p.sorted_row, p.hashed_row, p.partitioned_row
    );
    println!("\nnode | method | measured µs | fitted µs | fitted / measured");
    let mut ratios = Vec::new();
    for s in &samples {
        let fitted = p.micros(&s.work);
        let ratio = fitted * 1e3 / s.ns;
        ratios.push(ratio);
        println!("{} | {} | {:.1} | {fitted:.1} | {ratio:.2}", s.at, s.method, s.ns / 1e3);
    }
    ratios.sort_by(f64::total_cmp);
    let q = |f: f64| ratios[((ratios.len() - 1) as f64 * f).round() as usize];
    println!(
        "fitted / measured: min {:.2}, quartiles {:.2} / {:.2} / {:.2}, max {:.2}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    println!("\ntree build (not fitted) | node: work | measured µs | at PRICES µs | ratio");
    for s in collect_builds(seed, reps) {
        let priced = PRICES.micros(&s.work);
        let ratio = priced * 1e3 / s.ns;
        let (at, method, us) = (&s.at, &s.method, s.ns / 1e3);
        println!("{at} | {method}: {} | {us:.1} | {priced:.1} | {ratio:.2}", s.work);
    }
    println!("\nstatement | default | nl | mj | hj | default / fastest forced (ms)");
    for (at, ms) in timings {
        let forced = ms[1..].iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{at} | {:.3} | {:.3} | {:.3} | {:.3} | {:.2}",
            ms[0],
            ms[1],
            ms[2],
            ms[3],
            ms[0] / forced
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_work_reads_back_as_it_prints() {
        let (pages, visits, sorted, hashed, partitioned) = (112.5, 80_000.0, 900.0, 2000.0, 70.0);
        let w = Work { pages, visits, sorted, hashed, partitioned };
        assert_eq!(parse_work(&w.to_string()), Some(w));
        let hj = Work { pages: 7.0, ..w };
        let gj = Work { pages: 5.0, ..w };
        let lines = [
            format!("groupjoin (1 keys): {gj} vs join 1.0 µs (chose join)"),
            format!("join choice: nl {w} / mj {w} / hj {hj}"),
            "hash join (1 keys), build right".to_string(),
            format!("groupjoin (1 keys), 3 partitions: {gj} vs join 9.0 µs (chose groupjoin)"),
        ];
        assert_eq!(priced_joins(&lines), [hj, gj]);
    }

    #[test]
    fn the_fit_recovers_the_prices_that_made_the_times() {
        let truth = Prices {
            page: 300.0,
            visit: 40.0,
            sorted_row: 120.0,
            hashed_row: 50.0,
            partitioned_row: 70.0,
        };
        let mut rng = Rng::from_seed(7);
        let samples: Vec<Sample> = (0..60)
            .map(|k| {
                let mut f = || rng.gen_range(0..5000) as f64;
                let work =
                    Work { pages: f(), visits: f(), sorted: f(), hashed: f(), partitioned: f() };
                let ns = truth.micros(&work) * 1e3;
                Sample { at: k.to_string(), method: String::new(), work, ns }
            })
            .collect();
        let got = fit(&samples);
        let list = |p: Prices| [p.page, p.visit, p.sorted_row, p.hashed_row, p.partitioned_row];
        for (g, t) in list(got).iter().zip(list(truth)) {
            assert!((g - t).abs() < 1e-3, "{got:?}");
        }
    }

    #[test]
    fn a_term_that_fits_negative_is_dropped() {
        // Unconstrained, the visits would be priced at −3: they are dropped
        // and the pages refitted alone.
        let samples: Vec<Sample> = (1..20)
            .map(|k| {
                let k = f64::from(k);
                let work = Work { pages: k, visits: 20.0 - k, ..Work::default() };
                let ns = 100.0 * k - 3.0 * (20.0 - k);
                Sample { at: String::new(), method: String::new(), work, ns }
            })
            .collect();
        let got = fit(&samples);
        assert!(got.visit == 0.0 && got.page > 50.0, "{got:?}");
    }
}
