//! Observability is pure side-state, checked end to end through the
//! `Database` facade on the seeded benchmark workload: observing a statement
//! changes neither its rows (bit for bit) nor its page-I/O trace, and the
//! profile it collects adds up.

use nsql_bench::workload::{ja_workload, queries, WorkloadSpec, DEFAULT_SEED};
use nsql_db::{QueryOptions, Strategy};
use nsql_obs::ProfileNode;
use nsql_types::{Relation, Tuple, Value};

/// Bag equality is not enough: `same_bag` compares by SQL value (where
/// `3 == 3.0`). This walks canonically sorted rows asserting *bit* equality
/// — floats via `to_bits`, so even a one-ULP divergence (or an Int/Float
/// type flip) fails loudly.
fn assert_bit_identical(name: &str, plain: &Relation, observed: &Relation) {
    let canon = |r: &Relation| {
        let mut rows: Vec<Tuple> = r.tuples().to_vec();
        rows.sort_by(Tuple::total_cmp);
        rows
    };
    let (a, b) = (canon(plain), canon(observed));
    assert_eq!(a.len(), b.len(), "{name}: row counts diverged");
    for (x, y) in a.iter().zip(&b) {
        for (u, v) in x.values().iter().zip(y.values()) {
            let same = match (u, v) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => u == v,
            };
            assert!(same, "{name}: bitwise divergence: {u:?} vs {v:?}");
        }
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
/// must be byte-identical to the unobserved run: metrics collection reads
/// the counters, it never adds to them. And what it collects adds up: no node of the
/// profile is outweighed by its children, and the root nodes together
/// account for exactly the page I/O the statement was charged.
#[test]
fn observe_leaves_io_trace_and_results_byte_identical() {
    let w = ja_workload(WorkloadSpec::small(), DEFAULT_SEED);
    let mut probing = 0;
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
            let base = QueryOptions { cold_start: true, ..base };
            let s0 = w.db.storage().io_snapshot();
            let plain = w.db.query_with(sql, &base).unwrap();
            let s1 = w.db.storage().io_snapshot();
            let observed = w
                .db
                .query_with(sql, &QueryOptions { observe: true, ..base.clone() })
                .unwrap();
            let s2 = w.db.storage().io_snapshot();
            let tag = format!("obs/{name}/{}", base.strategy.name());
            assert_bit_identical(&tag, &plain.relation, &observed.relation);
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
    assert_eq!(probing, 4, "type-J and the three type-JA shapes probe by default");
}

