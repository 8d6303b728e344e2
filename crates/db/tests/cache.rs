//! End-to-end behavior of the cross-query result cache: exact hits are
//! invisible (results *and* counted I/O identical to cache-off), DML and
//! reopen invalidate precisely, a tiny byte budget evicts, and an entry
//! answers only the computation that published it.

use nsql_core::{JaVariant, UnnestOptions};
use nsql_db::{CacheMode, Database, QueryCache, QueryOptions, Strategy};
use nsql_testkit::TempDir;
use std::sync::Arc;

/// Kiessling's example database (the paper's Section 4 walkthrough).
const SETUP: &str = "CREATE TABLE PARTS (PNUM INT, QOH INT);
     CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
     INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
     INSERT INTO SUPPLY VALUES
       (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
       (10, 2, 8-10-81), (8, 5, 5-7-83);";

/// Kiessling's Q2 — the COUNT-bug query.
const Q2: &str = "SELECT PNUM FROM PARTS WHERE QOH = \
    (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)";

fn mem_db() -> Database {
    let mut db = Database::new();
    db.execute_script(SETUP).unwrap();
    db
}

fn opts(strategy: &Strategy, cache: CacheMode) -> QueryOptions {
    QueryOptions {
        strategy: strategy.clone(),
        cache,
        cold_start: true,
        threads: 1,
        ..QueryOptions::default()
    }
}

fn col0_sorted(rel: &nsql_types::Relation) -> Vec<String> {
    let mut v: Vec<String> = rel.tuples().iter().map(|t| t.get(0).to_string()).collect();
    v.sort();
    v
}

/// The cache must be observationally invisible: for both strategies, a
/// warm (hit-serving) run returns the same rows *and* the same counted
/// page I/O as every cache-off run.
#[test]
fn cache_is_invisible_to_results_and_io() {
    for strategy in [Strategy::NestedIteration, Strategy::Transform] {
        let db_off = mem_db();
        let db_on = mem_db();
        let off = opts(&strategy, CacheMode::Off);
        let on = opts(&strategy, CacheMode::On);
        let baseline = db_off.query_with(Q2, &off).unwrap();
        for round in 0..3 {
            let got = db_on.query_with(Q2, &on).unwrap();
            assert!(
                got.relation.same_bag(&baseline.relation),
                "{strategy:?} round {round}: rows diverge under cache"
            );
            assert_eq!(
                (got.io.reads, got.io.writes),
                (baseline.io.reads, baseline.io.writes),
                "{strategy:?} round {round}: counted I/O diverges under cache"
            );
        }
    }
}

#[test]
fn transform_second_run_is_a_replayed_hit() {
    let db = mem_db();
    let on = opts(&Strategy::Transform, CacheMode::On);
    let first = db.query_with(Q2, &on).unwrap();
    let log = first.explain.join("\n");
    assert!(log.contains("cache: mode on"), "{log}");
    assert!(log.contains("cache: miss"), "first run must record+publish:\n{log}");
    let second = db.query_with(Q2, &on).unwrap();
    let log = second.explain.join("\n");
    assert!(log.contains("cache: hit"), "second run must replay:\n{log}");
    assert!(second.relation.same_bag(&first.relation));
    assert_eq!((second.io.reads, second.io.writes), (first.io.reads, first.io.writes));
    assert!(db.result_cache().stats().hits > 0);
}

#[test]
fn nested_iteration_caches_inner_blocks_across_queries() {
    let db = mem_db();
    // Under the 1987 switch: a block that probes neither consults nor
    // publishes (a hit would recharge a full scan it no longer reads), and
    // whether this one probes is the planner's arithmetic, not this test's.
    let on = QueryOptions {
        unnest: UnnestOptions::faithful(),
        ..opts(&Strategy::NestedIteration, CacheMode::On)
    };
    let first = db.query_with(Q2, &on).unwrap();
    let log = first.explain.join("\n");
    assert!(log.contains("cache: mode on, inner-block"), "{log}");
    let second = db.query_with(Q2, &on).unwrap();
    let log = second.explain.join("\n");
    // Q2 probes one inner block per PARTS row; the second query answers
    // them all from the cache.
    assert!(log.contains("inner-block 3 hit(s), 0 miss(es)"), "{log}");
    assert!(second.relation.same_bag(&first.relation));
    assert_eq!((second.io.reads, second.io.writes), (first.io.reads, first.io.writes));
}

/// The plan shapes are part of an entry's fingerprint: a temporary recorded
/// under the paper's literal plans is never an exact hit for the default
/// plans, nor the reverse — their page-event traces differ — so against one
/// cache each setting's first run is a miss, and every run counts the I/O of
/// its own uncached run.
#[test]
fn literal_and_default_shapes_never_replay_each_other() {
    let shapes = |faithful_1987| {
        let unnest = UnnestOptions { faithful_1987, ..UnnestOptions::default() };
        move |cache| QueryOptions { unnest: unnest.clone(), ..opts(&Strategy::Transform, cache) }
    };
    for first_literal in [false, true] {
        let db = mem_db();
        let mut rows = Vec::new();
        for literal in [first_literal, !first_literal] {
            let with = shapes(literal);
            let want = mem_db().query_with(Q2, &with(CacheMode::Off)).unwrap();
            let got = db.query_with(Q2, &with(CacheMode::On)).unwrap();
            let log = got.explain.join("\n");
            assert!(
                log.contains("cache: miss") && !log.contains("cache: hit"),
                "literal = {literal}: the other shape's entry answered:\n{log}"
            );
            assert_eq!((got.io.reads, got.io.writes), (want.io.reads, want.io.writes), "{log}");
            // Its own second run is the exact hit, at the same counted I/O.
            let again = db.query_with(Q2, &with(CacheMode::On)).unwrap();
            assert!(again.explain.join("\n").contains("cache: hit"), "literal = {literal}");
            assert_eq!((again.io.reads, again.io.writes), (want.io.reads, want.io.writes));
            rows.push(col0_sorted(&got.relation));
        }
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0], vec!["10", "8"]);
    }
}

/// Satellite: an INSERT into the inner relation between two identical
/// queries bumps that table's generation; the second query must miss and
/// recompute against the new rows, on both strategies.
#[test]
fn insert_between_identical_queries_invalidates() {
    for strategy in [Strategy::NestedIteration, Strategy::Transform] {
        let mut db = mem_db();
        let on = opts(&strategy, CacheMode::On);
        let off = opts(&strategy, CacheMode::Off);
        let before = db.query_with(Q2, &on).unwrap();
        assert_eq!(col0_sorted(&before.relation), vec!["10", "8"]);
        // Warm the cache, then change the answer for part 8: one more
        // pre-1980 shipment makes COUNT = 1 ≠ QOH 0.
        let _ = db.query_with(Q2, &on).unwrap();
        db.execute_script("INSERT INTO SUPPLY VALUES (8, 1, 2-2-79)").unwrap();
        let got = db.query_with(Q2, &on).unwrap();
        let want = db.query_with(Q2, &off).unwrap();
        assert!(
            got.relation.same_bag(&want.relation),
            "{strategy:?}: stale cache entry served after INSERT"
        );
        assert_eq!(col0_sorted(&got.relation), vec!["10"], "{strategy:?}");
        assert_eq!((got.io.reads, got.io.writes), (want.io.reads, want.io.writes));
    }
}

/// Satellite: reopening a file-backed database (the crash-recovery path)
/// starts a fresh catalog epoch, so entries published by the previous
/// incarnation can never answer — even when the cache object itself is
/// shared across incarnations.
#[test]
fn reopen_starts_fresh_epoch_and_invalidates() {
    let dir = TempDir::new("nsql-cache-reopen");
    let shared = Arc::new(QueryCache::with_defaults());
    let on = opts(&Strategy::Transform, CacheMode::On);
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.set_result_cache(Arc::clone(&shared));
        db.execute_script(SETUP).unwrap();
        let _ = db.query_with(Q2, &on).unwrap();
        let warm = db.query_with(Q2, &on).unwrap();
        assert!(warm.explain.join("\n").contains("cache: hit"));
    }
    let mut db = Database::open(dir.path()).unwrap();
    db.set_result_cache(Arc::clone(&shared));
    let got = db.query_with(Q2, &on).unwrap();
    let log = got.explain.join("\n");
    assert!(
        log.contains("cache: miss"),
        "pre-reopen entry answered across an epoch boundary:\n{log}"
    );
    assert_eq!(col0_sorted(&got.relation), vec!["10", "8"]);
}

/// Satellite: a one-page byte budget forces eviction; the cache keeps
/// serving correct (if rarely hitting) answers.
#[test]
fn eviction_under_one_page_budget() {
    let mut db = mem_db();
    db.set_result_cache(Arc::new(QueryCache::new(512)));
    let on = opts(&Strategy::Transform, CacheMode::On);
    let off = opts(&Strategy::Transform, CacheMode::Off);
    for _ in 0..3 {
        let got = db.query_with(Q2, &on).unwrap();
        let want = db.query_with(Q2, &off).unwrap();
        assert!(got.relation.same_bag(&want.relation));
        assert_eq!((got.io.reads, got.io.writes), (want.io.reads, want.io.writes));
    }
    let stats = db.result_cache().stats();
    assert!(stats.evictions > 0, "512-byte budget never evicted: {stats:?}");
    assert!(stats.bytes <= 512, "budget exceeded: {stats:?}");
}

/// The COUNT-bug guard, by construction: a temporary materialized by Kim's
/// buggy NEST-JA drops empty groups, and it is keyed on its plan text. A
/// later NEST-JA2 COUNT query (which must preserve them) over the same
/// grouping and restriction misses and recomputes correctly.
#[test]
fn a_temporary_kim_published_never_answers_nest_ja2() {
    let db = mem_db();
    let kim = QueryOptions {
        unnest: UnnestOptions { ja_variant: JaVariant::KimOriginal, ..UnnestOptions::faithful() },
        ..opts(&Strategy::Transform, CacheMode::On)
    };
    // Kim's answer is wrong (part 8 lost — the COUNT bug), and its
    // aggregate temporary is now in the cache.
    let buggy = db.query_with(Q2, &kim).unwrap();
    assert_eq!(col0_sorted(&buggy.relation), vec!["10"]);
    let ja2 = QueryOptions {
        unnest: UnnestOptions::faithful(),
        ..opts(&Strategy::Transform, CacheMode::On)
    };
    let got = db.query_with(Q2, &ja2).unwrap();
    let log = got.explain.join("\n");
    assert!(log.contains("cache: miss") && !log.contains("cache: hit"), "{log}");
    assert_eq!(col0_sorted(&got.relation), vec!["10", "8"]);
}

/// EXPLAIN ANALYZE under an enabled cache carries the lifetime cache
/// counters as an observability event, and plain EXPLAIN renders the
/// cache-mode header for both strategies (the per-strategy parity fix).
#[test]
fn explain_renders_cache_lines_for_both_strategies() {
    let db = mem_db();
    for strategy in [Strategy::NestedIteration, Strategy::Transform] {
        let on = opts(&strategy, CacheMode::On);
        let plain = db.explain_query(Q2, false, &on).unwrap();
        let text = plain.render_lines().join("\n");
        assert!(text.contains("cache: mode on"), "{strategy:?} plain EXPLAIN:\n{text}");
        let analyzed = db.explain_query(Q2, true, &on).unwrap();
        let obs = analyzed.obs.expect("ANALYZE collects observability");
        assert!(
            obs.events.iter().any(|e| e.contains("cache:") && e.contains("lifetime")),
            "{strategy:?}: no cache-stats event in {:?}",
            obs.events
        );
    }
}
