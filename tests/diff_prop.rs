//! The differential oracle property suite.
//!
//! Random nested queries over random biased databases are evaluated by the
//! naive `nsql-oracle` interpreter and by every engine pipeline — nested
//! iteration, the NEST-G transformation under every join
//! policy (the hash join once more through a three-page pool, where it
//! Grace-partitions: `tr-hash-grace`), the duplicate-collapsing
//! `preserve_duplicates` mode, and the index-backed variants (every generated table carries a
//! B+tree on `K`; `tr-ix-prefer` forces index restriction and index
//! back-joins on, `tr-ix-never` forces them off) — every one of these on the
//! default plans: join inputs restricted and projected first, in the
//! canonical query and in a temporary over several relations alike — and
//! once more as the paper's literal plans
//! (`tr-literal`), and compared at the strength the paper promises
//! (bag equality, downgraded or skipped only under the documented
//! divergence licenses; see DESIGN.md "Oracle semantics").
//!
//! Every pipeline is also held, after every statement and whether it
//! answered or erred, to leaving `Storage::live_pages()` where it found it.
//!
//! Failures print a replayable `NSQL_TEST_SEED` and a greedily shrunk
//! counterexample (rows removed first, then the query simplified). Override
//! the case count with `NSQL_TEST_CASES`.

use nested_query_opt::diff::{run_diff_property, run_insert_property};

/// The headline property: ≥600 generated query/database pairs, every
/// pipeline, zero divergences. Nested iteration is never skipped; the
/// transformation pipelines skip only under a license or an
/// unsupported-class refusal, and must still be *compared* on the majority
/// of cases (a harness that licensed everything away would prove nothing).
#[test]
fn every_pipeline_agrees_with_the_oracle() {
    let stats = run_diff_property("every_pipeline_agrees_with_the_oracle", 600);
    assert!(!stats.is_empty(), "sweep must have produced comparisons");
    // NSQL_TEST_CASES scales the sweep down for smoke runs; the 500-pair
    // acceptance floor applies to the full default run.
    let floor = match std::env::var("NSQL_TEST_CASES") {
        Ok(v) => v.parse::<u64>().unwrap_or(500).min(500),
        Err(_) => 500,
    };
    for s in &stats {
        let total = s.compared + s.skipped;
        eprintln!(
            "pipeline {:>14}: {} compared, {} skipped ({} pairs)",
            s.name, s.compared, s.skipped, total
        );
        assert!(total >= floor, "[{}] fewer than {floor} pairs generated: {total}", s.name);
        // Meaningless on tiny NSQL_TEST_SEED/NSQL_TEST_CASES replays, where
        // the one replayed case may legitimately be licensed away.
        if total >= 100 {
            assert!(
                s.compared * 2 > total,
                "[{}] licenses/refusals swallowed most cases: {} of {total} compared",
                s.name,
                s.compared
            );
        }
    }
    // The index-backed pipelines must be in the sweep: preferring the index
    // path and refusing it must both agree with the oracle on every case,
    // otherwise an index scan returning a wrong range (or a back-join
    // dropping/duplicating probes) would slip through as a silent plan
    // difference rather than a caught divergence.
    for ix in ["tr-ix-prefer", "tr-ix-never"] {
        assert!(
            stats.iter().any(|s| s.name == ix && s.compared + s.skipped > 0),
            "index pipeline {ix} missing from the sweep"
        );
    }
    // The two plan shapes must not pass vacuously: a sweep in which no
    // temporary over several relations was ever joined on a key and no join
    // input was ever restricted compared the literal plans sixteen times
    // over, and one in which `tr-literal` did either did not compare them at
    // all.
    let shapes = |name: &str| {
        let s = stats
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("pipeline {name} missing from the sweep"));
        eprintln!(
            "pipeline {:>14}: {} multi-relation temporaries joined on a key, {} restricted \
             inputs logged",
            s.name, s.keyed_temp_joins, s.restricted_inputs
        );
        (s.compared, s.keyed_temp_joins, s.restricted_inputs)
    };
    let (compared, keyed, restricted) = shapes("tr-cost-serial");
    if compared >= 100 {
        assert!(
            keyed > 0,
            "[tr-cost-serial] no case materialized a multi-relation temporary through a keyed join"
        );
        assert!(restricted > 0, "[tr-cost-serial] no case logged a `restrict+project …` line");
    }
    let (_, keyed, restricted) = shapes("tr-literal");
    assert_eq!((keyed, restricted), (0, 0), "[tr-literal] ran something other than the paper's plans");
    // Grace partitioning must meet the oracle too: on the three-page pool
    // the forced hash join partitions every build side over one page, and
    // a sweep in which none was partitioned compared the in-memory join
    // again.
    for s in stats.iter().filter(|s| s.name.starts_with("tr-hash")) {
        eprintln!("pipeline {:>14}: {} partitioned hash joins", s.name, s.partitioned_joins);
    }
    let grace = stats.iter().find(|s| s.name == "tr-hash-grace").expect("tr-hash-grace swept");
    if grace.compared >= 100 {
        assert!(grace.partitioned_joins > 0, "[tr-hash-grace] no hash join was partitioned");
    }
    // Nested iteration is never licensed away: evaluating each nested
    // conjunct once per distinct binding must be bag-equal to the oracle on
    // every case and must surface the same scalar-cardinality errors.
    let ni = stats
        .iter()
        .find(|s| s.name == "ni-serial")
        .unwrap_or_else(|| panic!("pipeline ni-serial missing from the sweep"));
    assert_eq!(ni.skipped, 0, "[ni-serial] nested iteration has no divergence licenses");
}

/// Answers after INSERTs: every generated query runs on the two default-path
/// pipelines, then again after random rows went into every table through
/// `Catalog::insert`, and must agree with the oracle over the grown tables
/// both times — an index or heap file the INSERT left behind the rows shows
/// up as a divergence.
#[test]
fn answers_agree_with_the_oracle_after_inserts() {
    let stats = run_insert_property("answers_agree_with_the_oracle_after_inserts", 600);
    assert!(!stats.is_empty(), "sweep must have produced comparisons");
    for v in ["ni-serial", "tr-cost-serial"] {
        let s = stats
            .iter()
            .find(|s| s.name == v)
            .unwrap_or_else(|| panic!("pipeline {v} missing from the sweep"));
        let total = s.compared + s.skipped;
        eprintln!("pipeline {:>14}: {} compared, {} skipped ({} pairs)", s.name, s.compared, s.skipped, total);
        if total >= 100 {
            assert!(
                s.compared * 2 > total,
                "[{v}] licenses/refusals swallowed most cases: {} of {total} compared",
                s.compared
            );
        }
    }
}
