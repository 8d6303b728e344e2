//! Properties specific to batched correlated evaluation.
//!
//! The diff sweep (`tests/diff_prop.rs`) already holds the `ba-*` pipelines
//! to the oracle's full-strength contract; this suite pins down the two
//! claims the sweep cannot express:
//!
//! * **determinism across knobs** — rows *and* counted page I/O from a
//!   batched run are byte-identical across thread counts (1 vs 4), which
//!   it ignores (it is serial), and across storage backends (in-memory vs
//!   the durable page store), on NULL- and duplicate-heavy generated
//!   databases. Errors must reproduce identically too.
//!
//! * **set-theoretic outer-block mutations** — metamorphic variants of the
//!   outer block that are semantically neutral for nested iteration must
//!   be equally neutral for the batching machinery: conjunct idempotence
//!   (`WHERE p` → `WHERE p AND p`, which doubles the memo lookups for the
//!   same verdict), conjunct reversal (replay follows the rewritten
//!   conjunct order, as nested iteration does), and outer-row duplication
//!   (every binding now occurs twice, so the sort/dedup phase halves the
//!   candidate set while replay must still answer per row). Each variant
//!   runs under both nested iteration and batched evaluation and the two
//!   must agree bag-for-bag — or raise the same error.
//!
//! Both properties replay and shrink through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nested_query_opt::diff::{gen_case, DiffCase};
use nsql_db::{Database, ExecMode, QueryOptions, Strategy};
use nsql_sql::Predicate;
use nsql_testkit::TempDir;
use nsql_types::Relation;

fn opts(strategy: Strategy, threads: usize) -> QueryOptions {
    QueryOptions { strategy, cold_start: true, threads, exec_mode: ExecMode::Row, ..Default::default() }
}

/// Load the case's tables into a fresh in-memory database.
fn mem_db(tables: &[(String, Relation)]) -> Database {
    let mut db = Database::with_storage(8, 256);
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
    }
    db
}

/// Load the case's tables into a fresh file-backed database under `dir`.
fn file_db(tables: &[(String, Relation)], dir: &TempDir) -> Database {
    let mut db = Database::open_with(8, 256, dir.path()).expect("open durable store");
    for (name, rel) in tables {
        db.catalog_mut().load_table(name, rel).expect("unique generated table names");
    }
    db
}

/// One observed run: result rows in output order plus counted page I/O, or
/// the error rendering when the query fails.
type Observed = Result<(Vec<nsql_types::Tuple>, u64, u64), String>;

fn observe(db: &Database, case: &DiffCase, o: &QueryOptions) -> Observed {
    match db.run_query(&case.query, o) {
        Ok(out) => Ok((out.relation.tuples().to_vec(), out.io.reads, out.io.writes)),
        Err(e) => Err(format!("{e}")),
    }
}

/// Batched runs are byte-identical — rows, row *order*, page reads, page
/// writes, and error text — across sort thread counts and storage backends.
#[test]
fn batched_io_is_byte_identical_across_threads_and_backends() {
    nsql_testkit::forall(150, "batched_io_thread_backend_invariance", gen_case, |case| {
        // Shrink candidates may drop a FROM entry whose alias is still
        // referenced; such queries run nowhere, so there is nothing to pin.
        {
            let db = mem_db(&case.tables);
            if nsql_analyzer::validate_query(db.catalog(), &case.query).is_err() {
                return Ok(());
            }
        }
        let mut runs: Vec<(String, Observed)> = Vec::new();
        for threads in [1usize, 4] {
            let db = mem_db(&case.tables);
            runs.push((
                format!("mem/t{threads}"),
                observe(&db, case, &opts(Strategy::Batched, threads)),
            ));
            let dir = TempDir::new("nsql-batched-prop");
            let db = file_db(&case.tables, &dir);
            runs.push((
                format!("file/t{threads}"),
                observe(&db, case, &opts(Strategy::Batched, threads)),
            ));
        }
        let (base_name, base) = &runs[0];
        for (name, run) in &runs[1..] {
            if run != base {
                return Err(format!(
                    "batched run diverged between configs\n\
                     {base_name}: {base:?}\n{name}: {run:?}\n\
                     sql: {}",
                    nsql_sql::print_query(&case.query)
                ));
            }
        }
        Ok(())
    });
}

/// The metamorphic variants of a case: label plus (tables, query).
fn outer_block_mutations(case: &DiffCase) -> Vec<(&'static str, DiffCase)> {
    let mut variants = vec![("original", case.clone())];

    // Conjunct idempotence: WHERE p → WHERE p AND p. Every nested conjunct
    // now consults its memo twice per surviving row.
    if let Some(p) = &case.query.where_clause {
        let mut q = case.query.clone();
        q.where_clause = Some(Predicate::And(vec![p.clone(), p.clone()]));
        variants.push(("idempotent-conjunct", DiffCase { tables: case.tables.clone(), query: q }));
    }

    // Conjunct reversal: replay must follow the rewritten conjunct order
    // exactly as nested iteration does (short-circuiting included).
    if let Some(Predicate::And(ps)) = &case.query.where_clause {
        if ps.len() > 1 {
            let mut q = case.query.clone();
            let mut rev = ps.clone();
            rev.reverse();
            q.where_clause = Some(Predicate::And(rev));
            variants.push(("reversed-conjuncts", DiffCase { tables: case.tables.clone(), query: q }));
        }
    }

    // Outer-row duplication: each binding occurs twice, so the sorted
    // candidate set dedups to half while replay answers every row.
    let doubled = case
        .tables
        .iter()
        .map(|(name, rel)| {
            let mut tuples = rel.tuples().to_vec();
            tuples.extend(rel.tuples().iter().cloned());
            (name.clone(), Relation::new(rel.schema().clone(), tuples).expect("same schema"))
        })
        .collect();
    variants.push(("doubled-rows", DiffCase { tables: doubled, query: case.query.clone() }));

    variants
}

/// On every metamorphic variant, batched evaluation agrees with nested
/// iteration bag-for-bag — or errors with the same rendering.
#[test]
fn batched_matches_nested_iteration_under_outer_block_mutations() {
    nsql_testkit::forall(150, "batched_metamorphic_outer_mutations", gen_case, |case| {
        for (label, variant) in outer_block_mutations(case) {
            let db = mem_db(&variant.tables);
            if nsql_analyzer::validate_query(db.catalog(), &variant.query).is_err() {
                continue;
            }
            let ni = db.run_query(&variant.query, &opts(Strategy::NestedIteration, 1));
            let ba = db.run_query(&variant.query, &opts(Strategy::Batched, 1));
            match (ni, ba) {
                (Ok(n), Ok(b)) => {
                    if !b.relation.same_bag(&n.relation) {
                        return Err(format!(
                            "[{label}] bag disagreement\nsql: {}\nnested iteration:\n{}\nbatched:\n{}",
                            nsql_sql::print_query(&variant.query),
                            n.relation,
                            b.relation
                        ));
                    }
                }
                (Err(ne), Err(be)) => {
                    let (ne, be) = (format!("{ne}"), format!("{be}"));
                    if ne != be {
                        return Err(format!(
                            "[{label}] error disagreement\nsql: {}\nnested iteration: {ne}\nbatched: {be}",
                            nsql_sql::print_query(&variant.query)
                        ));
                    }
                }
                (n, b) => {
                    return Err(format!(
                        "[{label}] outcome disagreement\nsql: {}\nnested iteration: {n:?}\nbatched: {b:?}",
                        nsql_sql::print_query(&variant.query)
                    ));
                }
            }
        }
        Ok(())
    });
}
