//! Properties of nested iteration's verdict memo: within one evaluation of
//! a block, a nested conjunct is evaluated once per distinct key — the
//! binding's columns it reads — and every repeat is answered from the memo
//! (`nsql_engine::nested_iter`, "One evaluation per distinct binding").
//!
//! The diff sweep (`tests/diff_prop.rs`) already holds the `ni-serial`
//! pipeline, which runs the memo, to the oracle's full-strength contract;
//! this suite pins down what the sweep cannot express:
//!
//! * **determinism across knobs** — rows *and* counted page I/O of a default
//!   nested-iteration run are byte-identical across thread counts (1 vs 4),
//!   which it ignores (it is serial), and across storage backends (in-memory
//!   vs the durable page store), on NULL- and duplicate-heavy generated
//!   databases. Errors must reproduce identically too.
//!
//! * **set-theoretic outer-block mutations** — metamorphic variants of the
//!   outer block that are semantically neutral for nested iteration must be
//!   equally neutral for the memo: conjunct idempotence (`WHERE p` →
//!   `WHERE p AND p`, which consults each memo twice per surviving row),
//!   conjunct reversal (the memo must follow the rewritten conjunct order,
//!   short-circuiting included), and outer-row duplication (every key now
//!   repeats). Each variant runs by default and under `faithful_1987`,
//!   where the memo is off, and the two must agree bag-for-bag — or raise
//!   the same error.
//!
//! * **what the memo saves** — on a correlated block that cannot probe,
//!   doubling the outer rows adds only the outer's pages by default, and an
//!   inner scan per added row under the 1987 switch.
//!
//! The two properties replay and shrink through the usual testkit machinery
//! (`NSQL_TEST_SEED`, `NSQL_TEST_CASES`).

use nested_query_opt::diff::{gen_case, DiffCase};
use nsql_core::UnnestOptions;
use nsql_db::{Database, ExecMode, QueryOptions, Strategy};
use nsql_sql::Predicate;
use nsql_testkit::TempDir;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

fn opts(threads: usize, faithful_1987: bool) -> QueryOptions {
    QueryOptions {
        strategy: Strategy::NestedIteration,
        cold_start: true,
        threads,
        exec_mode: ExecMode::Row,
        unnest: UnnestOptions { faithful_1987, ..UnnestOptions::default() },
        ..Default::default()
    }
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
type Observed = Result<(Vec<Tuple>, u64, u64), String>;

fn observe(db: &Database, case: &DiffCase, o: &QueryOptions) -> Observed {
    match db.run_query(&case.query, o) {
        Ok(out) => Ok((out.relation.tuples().to_vec(), out.io.reads, out.io.writes)),
        Err(e) => Err(format!("{e}")),
    }
}

/// Default nested-iteration runs are byte-identical — rows, row *order*,
/// page reads, page writes, and error text — across thread counts and
/// storage backends.
#[test]
fn ni_io_is_byte_identical_across_threads_and_backends() {
    nsql_testkit::forall(150, "ni_io_thread_backend_invariance", gen_case, |case| {
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
            runs.push((format!("mem/t{threads}"), observe(&db, case, &opts(threads, false))));
            let dir = TempDir::new("nsql-ni-memo-prop");
            let db = file_db(&case.tables, &dir);
            runs.push((format!("file/t{threads}"), observe(&db, case, &opts(threads, false))));
        }
        let (base_name, base) = &runs[0];
        for (name, run) in &runs[1..] {
            if run != base {
                return Err(format!(
                    "nested iteration diverged between configs\n\
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

    // Conjunct reversal: the memos must follow the rewritten conjunct order
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

    // Outer-row duplication: every key now repeats, so each memo answers
    // at least half the rows that reach it.
    let doubled = case.tables.iter().map(|(name, rel)| (name.clone(), doubled(rel))).collect();
    variants.push(("doubled-rows", DiffCase { tables: doubled, query: case.query.clone() }));

    variants
}

/// `rel` followed by a second copy of its rows.
fn doubled(rel: &Relation) -> Relation {
    let mut tuples = rel.tuples().to_vec();
    tuples.extend(rel.tuples().iter().cloned());
    Relation::new(rel.schema().clone(), tuples).expect("same schema")
}

/// On every metamorphic variant, default nested iteration agrees with the
/// paper's (`faithful_1987`, no memo) bag-for-bag — or errors with the same
/// rendering.
#[test]
fn memo_matches_faithful_nested_iteration_under_outer_block_mutations() {
    nsql_testkit::forall(150, "ni_memo_metamorphic_outer_mutations", gen_case, |case| {
        for (label, variant) in outer_block_mutations(case) {
            let db = mem_db(&variant.tables);
            if nsql_analyzer::validate_query(db.catalog(), &variant.query).is_err() {
                continue;
            }
            let paper = db.run_query(&variant.query, &opts(1, true));
            let memo = db.run_query(&variant.query, &opts(1, false));
            match (paper, memo) {
                (Ok(p), Ok(m)) => {
                    if !m.relation.same_bag(&p.relation) {
                        return Err(format!(
                            "[{label}] bag disagreement\nsql: {}\n1987:\n{}\ndefault:\n{}",
                            nsql_sql::print_query(&variant.query),
                            p.relation,
                            m.relation
                        ));
                    }
                }
                (Err(pe), Err(me)) => {
                    let (pe, me) = (format!("{pe}"), format!("{me}"));
                    if pe != me {
                        return Err(format!(
                            "[{label}] error disagreement\nsql: {}\n1987: {pe}\ndefault: {me}",
                            nsql_sql::print_query(&variant.query)
                        ));
                    }
                }
                (p, m) => {
                    return Err(format!(
                        "[{label}] outcome disagreement\nsql: {}\n1987: {p:?}\ndefault: {m:?}",
                        nsql_sql::print_query(&variant.query)
                    ));
                }
            }
        }
        Ok(())
    });
}

/// A correlated block that cannot probe (`B.K < A.K` equates nothing) is
/// rescanned on every evaluation. Doubling the outer rows repeats every
/// key, so by default the block is evaluated no more often and the added
/// reads are the outer's added pages; under the 1987 switch every added row
/// rescans `B` as well.
#[test]
fn doubled_outer_rows_add_only_their_own_pages_to_a_block_that_cannot_probe() {
    const SQL: &str = "SELECT A.K FROM A WHERE A.V < (SELECT COUNT(B.V) FROM B WHERE B.K < A.K)";
    let int = |name: &str| Column::new(name, ColumnType::Int);
    let rows = |n: i64, v: fn(i64) -> i64| -> Vec<Tuple> {
        (0..n).map(|k| Tuple::new(vec![Value::Int(k), Value::Int(v(k))])).collect()
    };
    let a = Relation::new(Schema::new(vec![int("K"), int("V")]), rows(60, |k| k % 5)).unwrap();
    let b = Relation::new(Schema::new(vec![int("K"), int("V")]), rows(400, |k| k % 7)).unwrap();
    // A's pages, the run's page reads and its rows.
    let run = |a: &Relation, faithful_1987: bool| {
        let mut db = Database::with_storage(6, 256);
        db.catalog_mut().load_table("A", a).unwrap();
        db.catalog_mut().load_table("B", &b).unwrap();
        assert!(db.catalog().table("B").unwrap().page_count() > 6, "B must not fit the pool");
        let out = db.query_with(SQL, &opts(1, faithful_1987)).unwrap();
        let scans = out.explain.iter().any(|l| l.starts_with("block B: scan (no conjunct equates"));
        assert_eq!(scans, !faithful_1987, "{:#?}", out.explain);
        (db.catalog().table("A").unwrap().page_count() as u64, out.io.reads, out.relation)
    };
    for faithful_1987 in [false, true] {
        let (pages, reads, once) = run(&a, faithful_1987);
        let (pages_doubled, reads_doubled, twice) = run(&doubled(&a), faithful_1987);
        assert!(!once.is_empty(), "the statement must select something");
        assert!(twice.same_bag(&doubled(&once)), "faithful_1987 = {faithful_1987}");
        let (added_reads, added_pages) = (reads_doubled - reads, pages_doubled - pages);
        if faithful_1987 {
            assert!(added_reads > added_pages, "1987: {added_reads} reads for {added_pages} pages");
        } else {
            assert_eq!(added_reads, added_pages, "default: {reads} → {reads_doubled} reads");
        }
    }
}
