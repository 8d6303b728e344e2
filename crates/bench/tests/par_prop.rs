//! Parallel-equivalence property: on seeded benchmark workloads, every
//! query strategy run at 2/4/8 threads returns the same rows (as a bag)
//! AND reports exactly the same I/O totals as the single-threaded run —
//! the PR's hard invariant, checked end-to-end through the `Database`
//! facade.

use nsql_bench::workload::{ja_workload, queries, WorkloadSpec, DEFAULT_SEED};
use nsql_bench::{measure, Workload};
use nsql_db::{Database, JoinPolicy, QueryOptions, Strategy};
use nsql_obs::ProfileNode;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// Thread counts swept against the serial baseline.
const SWEEP: [usize; 3] = [2, 4, 8];

/// Bag equality is not enough for the float-exactness invariant: `same_bag`
/// compares by SQL value (where `3 == 3.0`). This walks canonically sorted
/// rows asserting *bit* equality — floats via `to_bits`, so even a one-ULP
/// parallel divergence (or an Int/Float type flip) fails loudly.
fn assert_bit_identical(name: &str, t: usize, serial: &Relation, par: &Relation) {
    let canon = |r: &Relation| {
        let mut rows: Vec<Tuple> = r.tuples().to_vec();
        rows.sort_by(Tuple::total_cmp);
        rows
    };
    let (a, b) = (canon(serial), canon(par));
    assert_eq!(a.len(), b.len(), "{name}: row counts diverged at {t} threads");
    for (x, y) in a.iter().zip(&b) {
        for (u, v) in x.values().iter().zip(y.values()) {
            let same = match (u, v) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => u == v,
            };
            assert!(same, "{name}: bitwise divergence at {t} threads: {u:?} vs {v:?}");
        }
    }
}

fn check(w: &Workload, sql: &str, name: &str, base: &QueryOptions) {
    let serial =
        measure(&w.db, sql, &format!("{name}/threads=1"), &QueryOptions { threads: 1, ..base.clone() });
    for t in SWEEP {
        let par = measure(
            &w.db,
            sql,
            &format!("{name}/threads={t}"),
            &QueryOptions { threads: t, ..base.clone() },
        );
        assert!(
            serial.relation.same_bag(&par.relation),
            "{name}: rows diverged at {t} threads\nserial:\n{}\nparallel:\n{}",
            serial.relation,
            par.relation
        );
        assert_bit_identical(name, t, &serial.relation, &par.relation);
        assert_eq!(
            serial.io, par.io,
            "{name}: I/O totals diverged at {t} threads"
        );
    }
}

/// The benchmark's `flat_join`: no nesting, so the canonical-query executor
/// runs it as written.
const FLAT_JOIN: &str = "SELECT PARTS.GRP, COUNT(SUPPLY.QUAN) FROM PARTS, SUPPLY \
    WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 GROUP BY PARTS.GRP";

/// `benchmark/README.md` finding 3: a type-N block inside a type-JA block, so
/// NEST-JA2's `TEMP2` ranges over SUPPLY and `P2`.
const N_IN_JA: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.TAG IN \
    (SELECT SERIAL FROM PARTS P2 WHERE P2.GRP = 1))";

const QUERIES: [(&str, &str); 4] = [
    ("type-N", queries::TYPE_N),
    ("type-J", queries::TYPE_J),
    ("type-JA-count", queries::TYPE_JA_COUNT),
    ("type-JA-max", queries::TYPE_JA_MAX),
];

#[test]
fn nested_iteration_parallel_equals_serial() {
    for seed in [DEFAULT_SEED, 7] {
        let w = ja_workload(WorkloadSpec::small(), seed);
        for (name, sql) in QUERIES {
            check(&w, sql, &format!("ni/{name}/seed={seed}"), &QueryOptions::nested_iteration());
        }
    }
}

#[test]
fn nested_iteration_parallel_equals_serial_at_kim_scale() {
    // One full-size cell: the configuration the speedup benches run.
    let w = ja_workload(WorkloadSpec::kim_scale(), DEFAULT_SEED);
    check(&w, queries::TYPE_J, "ni/type-J/kim", &QueryOptions::nested_iteration());
}

/// The two refused shapes of the benchmark under the options its caller
/// retries them with: the correlated block probes a tree bulk-loaded at its
/// first probe (ISSUE 22), and rows, all four storage counters and the pages
/// left in the pool are the serial run's at every thread count.
#[test]
fn probing_blocks_parallel_equals_serial() {
    const J_NOTIN: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH NOT IN \
        (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
    const JA_OR: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
        (SELECT COUNT(QUAN) FROM SUPPLY \
        WHERE SUPPLY.PNUM = PARTS.PNUM OR SUPPLY.TAG = PARTS.SERIAL)";
    for (spec, seed) in [(WorkloadSpec::small(), 7), (WorkloadSpec::kim_scale(), DEFAULT_SEED)] {
        let w = ja_workload(spec, seed);
        let storage = w.db.storage();
        for (name, sql) in [("j_notin", J_NOTIN), ("ja_or", JA_OR)] {
            let run = |threads: usize| {
                let opts = QueryOptions {
                    strategy: Strategy::NestedIteration,
                    threads,
                    cold_start: true,
                    ..QueryOptions::default()
                };
                let before = storage.io_snapshot();
                let out = w.db.query_with(sql, &opts).unwrap();
                let probes = out.explain.iter().any(|l| l.contains(": probe temp index on "));
                assert!(probes, "{name}: {:#?}", out.explain);
                let resident: Vec<bool> = ["PARTS", "SUPPLY"]
                    .iter()
                    .flat_map(|t| w.db.catalog().table(t).unwrap().page_ids().to_vec())
                    .map(|id| storage.page_resident(id))
                    .collect();
                (out.relation, storage.io_snapshot().since(&before), resident)
            };
            let serial = run(1);
            for t in SWEEP {
                let par = run(t);
                let tag = format!("{name}/seed={seed}");
                assert_bit_identical(&tag, t, &serial.0, &par.0);
                assert_eq!(serial.1, par.1, "{tag}: counters diverged at {t} threads");
                assert_eq!(serial.2, par.2, "{tag}: the pool holds other pages at {t} threads");
            }
        }
    }
}

/// Float `SUM`/`AVG` must be *bit-identical* across thread counts — no ULP
/// tolerance. The table mixes magnitudes (1e12 against 0.1 against 1e-9) so
/// any naive reassociation of the sum at a morsel boundary changes the
/// result; the exact-summation accumulator must not care where groups split.
#[test]
fn float_aggregates_bit_identical_across_threads() {
    let schema = Schema::new(vec![
        Column::new("GRP", ColumnType::Int),
        Column::new("X", ColumnType::Float),
    ]);
    let mut rel = Relation::empty(schema);
    let mut rng = nsql_testkit::Rng::from_seed(9);
    for i in 0..4000i64 {
        let x = match i % 7 {
            0 => 1e12,
            1 => -1e12,
            2 => 0.1,
            3 => -0.30000000000000004,
            4 => 1e-9,
            5 => 3.25,
            _ => rng.gen_range(-1000..1000) as f64 / 8.0,
        };
        rel.push(Tuple::new(vec![Value::Int(i % 5), Value::Float(x)])).unwrap();
    }
    let mut db = Database::with_storage(64, 256);
    db.catalog_mut().load_table("MEAS", &rel).expect("fresh catalog");
    let w = Workload { db, spec: WorkloadSpec::small() };
    for sql in [
        "SELECT SUM(X), AVG(X) FROM MEAS",
        "SELECT GRP, SUM(X), AVG(X) FROM MEAS GROUP BY GRP",
    ] {
        check(&w, sql, "float-agg/ni", &QueryOptions::nested_iteration());
        check(&w, sql, "float-agg/tr", &QueryOptions::transformed());
    }
}

/// One measured quantity of a profile node.
type Quantity = fn(&ProfileNode) -> u64;

/// A node covers its children: summed over them, wall time and each of the
/// four I/O counters come to no more than the node's own — all the way down.
fn assert_additive(tag: &str, node: &ProfileNode) {
    let parts: [(&str, Quantity); 5] = [
        ("wall_ns", |n| n.wall_ns),
        ("reads", |n| n.io.reads),
        ("writes", |n| n.io.writes),
        ("hits", |n| n.io.hits),
        ("misses", |n| n.io.misses),
    ];
    for (what, of) in parts {
        let children: u64 = node.children.iter().map(of).sum();
        assert!(
            children <= of(node),
            "{tag}: the children of `{}` sum to {children} {what}, the node has {}\n{node:#?}",
            node.name,
            of(node)
        );
    }
    for child in &node.children {
        assert_additive(tag, child);
    }
}

/// Observability is pure side-state: with `observe` on, the storage layer's
/// full four-counter trace (reads/writes/hits/misses) and the result rows
/// must be byte-identical to the unobserved run — at every thread count.
/// This is the PR's hard invariant: metrics collection reads the counters,
/// it never adds to them. And what it collects adds up: no node of the
/// profile is outweighed by its children, and the root nodes together
/// account for exactly the page I/O the statement was charged.
#[test]
fn observe_leaves_io_trace_and_results_byte_identical() {
    let w = ja_workload(WorkloadSpec::small(), DEFAULT_SEED);
    let mut probing = 0;
    for threads in [1usize, 4] {
        let extra = [("flat-join", FLAT_JOIN), ("type-N in type-JA", N_IN_JA)];
        for (name, sql) in QUERIES.into_iter().chain(extra) {
            // The paper's plans under each strategy, then the default path:
            // an input it restricts first is an operator node of its own
            // (type-J, flat-join; inside a temporary over two relations,
            // under its `materialize` node, for the last shape), as is the
            // tree a probing block of nested iteration builds (the four
            // correlated shapes), and the tree must still add up.
            for base in [
                QueryOptions::nested_iteration(),
                QueryOptions::transformed(),
                QueryOptions::default(),
                QueryOptions { strategy: Strategy::NestedIteration, ..QueryOptions::default() },
            ] {
                let base = QueryOptions { threads, cold_start: true, ..base };
                let s0 = w.db.storage().io_snapshot();
                let plain = w.db.query_with(sql, &base).unwrap();
                let s1 = w.db.storage().io_snapshot();
                let observed = w
                    .db
                    .query_with(sql, &QueryOptions { observe: true, ..base.clone() })
                    .unwrap();
                let s2 = w.db.storage().io_snapshot();
                let tag = format!("obs/{name}/{}/threads={threads}", base.strategy.name());
                assert_bit_identical(&tag, threads, &plain.relation, &observed.relation);
                assert_eq!(
                    s1.since(&s0),
                    s2.since(&s1),
                    "{tag}: observe changed the page-I/O trace"
                );
                assert_eq!(plain.io, observed.io, "{tag}: reported totals diverged");
                assert!(plain.obs.is_none());
                let obs = observed.obs.expect("observe=true collects a report");
                assert!(!obs.profile.is_empty(), "{tag}: no lifecycle spans");
                for root in &obs.profile {
                    assert_additive(&tag, root);
                }
                assert!(obs.profile.iter().all(|r| r.find("logical rules").is_none()), "{tag}");
                if sql == N_IN_JA && base.strategy == Strategy::Auto {
                    let temp2 = obs.profile.iter().find_map(|r| r.find("materialize TEMP2"));
                    let temp2 = temp2.unwrap_or_else(|| panic!("{tag}: {:#?}", obs.profile));
                    let planned = temp2.find("restrict+project P2").is_some()
                        && temp2.children.iter().any(|c| c.name.contains("join (1 keys)"));
                    assert!(planned, "{tag}: {temp2:#?}");
                }
                let probes = observed.explain.iter().any(|l| l.contains(": probe temp index"));
                let built =
                    obs.profile.iter().any(|r| r.find("build temp index on PNUM").is_some());
                assert_eq!(built, probes, "{tag}: {:#?}", obs.profile);
                probing += usize::from(probes);
                let charged = |of: Quantity| obs.profile.iter().map(of).sum::<u64>();
                assert_eq!(
                    (charged(|n| n.io.reads), charged(|n| n.io.writes)),
                    (observed.io.reads, observed.io.writes),
                    "{tag}: the root nodes do not add up to the statement's page I/O"
                );
            }
        }
    }
    assert_eq!(probing, 2 * 4, "type-J and the three type-JA shapes probe by default, at either count");
}

/// Nested iteration is serial whatever the count: a named `threads: 4` hands
/// out no morsel on its `execute:` node, over an outer relation of many pages.
#[test]
fn correlated_strategies_claim_no_morsels() {
    let w = ja_workload(WorkloadSpec::small(), DEFAULT_SEED);
    assert!(w.db.catalog().table("PARTS").unwrap().page_count() > 1);
    let (strategy, node) = (Strategy::NestedIteration, "execute: nested iteration");
    for sql in [queries::TYPE_J, queries::TYPE_JA_COUNT] {
        let opts = QueryOptions { strategy, threads: 4, observe: true, ..QueryOptions::default() };
        let obs = w.db.query_with(sql, &opts).unwrap().obs.expect("observe=true collects");
        let op = obs.profile.iter().find_map(|r| r.find(node)).and_then(|n| n.op.clone());
        let op = op.unwrap_or_else(|| panic!("no {node} operator: {:#?}", obs.profile));
        assert!(op.morsels_per_worker.is_empty(), "{node} claimed morsels: {op:?}\n{sql}");
    }
}

#[test]
fn transformed_parallel_equals_serial() {
    let w = ja_workload(WorkloadSpec::small(), DEFAULT_SEED);
    for (policy, pname) in [
        (JoinPolicy::ForceMergeJoin, "merge"),
        (JoinPolicy::ForceHashJoin, "hash"),
        (JoinPolicy::CostBased, "cost"),
    ] {
        let base = QueryOptions { join_policy: policy, ..QueryOptions::transformed() };
        for (name, sql) in QUERIES {
            check(&w, sql, &format!("tr/{pname}/{name}"), &base);
        }
    }
}
