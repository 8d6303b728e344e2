//! Miniature of experiment E1: on a workload scaled past the buffer size,
//! transformation + merge join must beat nested iteration by a wide margin
//! — the paper's 80–95% savings band — and the savings must come from
//! eliminating the per-outer-tuple rescans of the inner relation.

use nested_query_opt::db::{Database, QueryOptions};
use nested_query_opt::types::{ColumnType, Relation, Schema, Tuple, Value};

/// Build PARTS (n_outer rows) and SUPPLY (n_inner rows) large enough that
/// SUPPLY exceeds the buffer.
fn scaled_db(n_outer: i64, n_inner: i64) -> Database {
    let mut db = Database::with_storage(6, 512);
    let parts_schema = Schema::new(vec![
        nested_query_opt::db::database::col("PNUM", ColumnType::Int),
        nested_query_opt::db::database::col("QOH", ColumnType::Int),
    ]);
    let mut parts = Relation::empty(parts_schema);
    for i in 0..n_outer {
        parts
            .push(Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
    }
    let supply_schema = Schema::new(vec![
        nested_query_opt::db::database::col("PNUM", ColumnType::Int),
        nested_query_opt::db::database::col("QUAN", ColumnType::Int),
    ]);
    let mut supply = Relation::empty(supply_schema);
    for i in 0..n_inner {
        supply
            .push(Tuple::new(vec![Value::Int(i % n_outer), Value::Int(i % 11)]))
            .unwrap();
    }
    db.catalog_mut().load_table("PARTS", &parts).unwrap();
    db.catalog_mut().load_table("SUPPLY", &supply).unwrap();
    db
}

const JA_QUERY: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 3)";

const J_QUERY: &str = "SELECT PNUM FROM PARTS WHERE QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";

#[test]
fn type_ja_transformation_saves_at_least_80_percent() {
    let db = scaled_db(400, 2000);
    let supply_pages = db.catalog().table("SUPPLY").unwrap().page_count();
    assert!(supply_pages > 6, "inner relation must exceed the buffer");

    let ni = db.query_with(JA_QUERY, &QueryOptions::nested_iteration()).unwrap();
    let tr = db.query_with(JA_QUERY, &QueryOptions::transformed_merge()).unwrap();
    assert!(tr.relation.same_bag(&ni.relation));

    let savings = 1.0 - tr.io.total() as f64 / ni.io.total() as f64;
    assert!(
        savings >= 0.80,
        "expected ≥80% savings (paper's band), got {:.1}% (NI {} vs TR {})",
        savings * 100.0,
        ni.io,
        tr.io
    );
}

#[test]
fn type_j_transformation_saves_at_least_80_percent() {
    let db = scaled_db(400, 2000);
    let ni = db.query_with(J_QUERY, &QueryOptions::nested_iteration()).unwrap();
    let opts = QueryOptions {
        unnest: nested_query_opt::core::UnnestOptions {
            preserve_duplicates: true,
            ..nested_query_opt::core::UnnestOptions::faithful()
        },
        ..QueryOptions::transformed_merge()
    };
    let tr = db.query_with(J_QUERY, &opts).unwrap();
    assert!(tr.relation.same_set(&ni.relation));
    let savings = 1.0 - tr.io.total() as f64 / ni.io.total() as f64;
    assert!(
        savings >= 0.80,
        "expected ≥80% savings, got {:.1}% (NI {} vs TR {})",
        savings * 100.0,
        ni.io,
        tr.io
    );
}

#[test]
fn nested_iteration_cost_grows_with_outer_cardinality() {
    // The defining System R pathology: cost ∝ outer tuples × inner pages.
    let small = scaled_db(50, 1500);
    let large = scaled_db(200, 1500);
    let io_small = small
        .query_with(JA_QUERY, &QueryOptions::nested_iteration())
        .unwrap()
        .io
        .total();
    let io_large = large
        .query_with(JA_QUERY, &QueryOptions::nested_iteration())
        .unwrap()
        .io
        .total();
    let ratio = io_large as f64 / io_small as f64;
    assert!(
        ratio > 2.5,
        "4x outer tuples should give ≳3x I/O, got {ratio:.2} ({io_small} → {io_large})"
    );
}

#[test]
fn transformed_cost_is_flat_in_outer_cardinality() {
    let small = scaled_db(50, 1500);
    let large = scaled_db(200, 1500);
    let io_small = small
        .query_with(JA_QUERY, &QueryOptions::transformed_merge())
        .unwrap()
        .io
        .total();
    let io_large = large
        .query_with(JA_QUERY, &QueryOptions::transformed_merge())
        .unwrap()
        .io
        .total();
    let ratio = io_large as f64 / io_small as f64;
    assert!(
        ratio < 2.0,
        "transformed cost should grow sub-linearly in outer size, got {ratio:.2}"
    );
}

#[test]
fn small_inner_relations_make_nested_iteration_competitive() {
    // The crossover: when the inner relation fits in the buffer, repeated
    // rescans are free and nested iteration is no longer the loser.
    let db = scaled_db(100, 20); // SUPPLY fits easily
    let supply_pages = db.catalog().table("SUPPLY").unwrap().page_count();
    assert!(supply_pages <= 5);
    let ni = db.query_with(JA_QUERY, &QueryOptions::nested_iteration()).unwrap();
    let tr = db.query_with(JA_QUERY, &QueryOptions::transformed_merge()).unwrap();
    assert!(tr.relation.same_bag(&ni.relation));
    assert!(
        (ni.io.total() as f64) < 3.0 * tr.io.total() as f64,
        "cached nested iteration should be within ~3x of transformation (NI {} vs TR {})",
        ni.io,
        tr.io
    );
}

#[test]
fn cost_based_policy_never_loses_badly_to_either_forced_policy() {
    use nested_query_opt::db::JoinPolicy;
    for (outer, inner) in [(50, 100), (200, 1200), (400, 2000)] {
        let db = scaled_db(outer, inner);
        let mut totals = std::collections::HashMap::new();
        for policy in
            [JoinPolicy::ForceNestedLoop, JoinPolicy::ForceMergeJoin, JoinPolicy::CostBased]
        {
            let opts = QueryOptions {
                join_policy: policy,
                ..QueryOptions::transformed()
            };
            let out = db.query_with(JA_QUERY, &opts).unwrap();
            totals.insert(policy.name(), out.io.total());
        }
        let best = totals.values().min().copied().unwrap();
        let cost_based = totals["cost-based"];
        assert!(
            cost_based as f64 <= best as f64 * 1.3 + 10.0,
            "cost-based {cost_based} should track the best {best} at ({outer},{inner}): {totals:?}"
        );
    }
}
