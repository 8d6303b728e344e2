//! End-to-end durability for the `Database` facade: a file-backed database
//! survives restarts, recovers from injected crashes to the last committed
//! statement, keeps its B+tree indexes across reopen, and performs exactly
//! the same counted page I/O as the memory backend.

use nsql_db::{Database, IndexUse, QueryOptions, Strategy};
use nsql_oracle::Oracle;
use nsql_storage::FaultPlan;
use nsql_testkit::TempDir;
use nsql_types::Relation;

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

fn col0_sorted(rel: &Relation) -> Vec<String> {
    let mut v: Vec<String> = rel.tuples().iter().map(|t| t.get(0).to_string()).collect();
    v.sort();
    v
}

#[test]
fn kiessling_q2_survives_restart() {
    let dir = TempDir::new("nsql-db-restart");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute_script(SETUP).unwrap();
        db.catalog_mut().create_index("PARTS", "PNUM").unwrap();
        let r = db.query(Q2).unwrap();
        assert_eq!(col0_sorted(&r), vec!["10", "8"]);
    }
    // Restart: a brand-new process image would do exactly this.
    let db = Database::open(dir.path()).unwrap();
    let report = db.open_report().expect("open() retains its report");
    assert_eq!(report.tables, 2, "{report:?}");
    assert_eq!(report.indexes, 1, "{report:?}");
    assert!(report.recovery.commits_applied > 0 || report.recovery.had_checkpoint);
    // The recovery lifecycle is spanned for observability.
    let open_span = report
        .spans
        .iter()
        .find_map(|s| s.find("open"))
        .expect("open span recorded");
    assert!(open_span.find("open: recover store").is_some());
    assert!(open_span.find("open: restore catalog").is_some());
    let r = db.query(Q2).unwrap();
    assert_eq!(col0_sorted(&r), vec!["10", "8"]);
}

/// [`SETUP`], then forty more shipments and a B+tree on `SUPPLY.PNUM` built
/// over all forty-five: 22-byte rows, so the build packs the first 23 into a
/// full leaf and one more row with a low part number splits it.
fn sweep_database(dir: &std::path::Path) -> Database {
    let mut db = Database::open(dir).unwrap();
    db.execute_script(SETUP).unwrap();
    let more: Vec<String> = (0..40).map(|i| format!("({}, {i}, 1-1-85)", 20 + i)).collect();
    db.execute_script(&format!("INSERT INTO SUPPLY VALUES {}", more.join(", "))).unwrap();
    db.catalog_mut().create_index("SUPPLY", "PNUM").unwrap();
    db
}

/// Every row of `table` as text, sorted.
fn rows_sorted(db: &Database, table: &str) -> Vec<String> {
    let file = db.catalog().table(table).expect("table exists");
    let mut rows: Vec<String> =
        db.storage().load_relation(file).tuples().iter().map(|t| t.to_string()).collect();
    rows.sort();
    rows
}

#[test]
fn crash_point_sweep_recovers_last_commit() {
    // Kill the store at every write site of a follow-up INSERT's commit —
    // and one past the last, where the fault never fires — with the fatal
    // write lost and with it torn, and check that reopening yields either
    // exactly the pre-crash state or exactly the post-state, never anything
    // in between and never an error. The sites are enumerated from a clean
    // run of the statement, so both outcomes must occur. Two statements: one
    // into the table without an index, and one into the indexed table that
    // splits a leaf, so its commit carries the heap's new last page, both
    // halves of the leaf, the parent that gained an entry, and the frees of
    // the three pages they replace.
    let q2 = nsql_sql::parse_query(Q2).unwrap();
    let statements = [
        ("PARTS", "INSERT INTO PARTS VALUES (99, 99)", "(99, 99)", false),
        ("SUPPLY", "INSERT INTO SUPPLY VALUES (3, 9, 2-2-84)", "(3, 9, 1984-02-02)", true),
    ];
    for (table, statement, new_row, splits_a_leaf) in statements {
        let sites = {
            let dir = TempDir::new("nsql-db-crash-clean");
            let mut db = sweep_database(dir.path());
            let store = db.storage().durable().expect("file-backed").clone();
            let leaves = |db: &Database| db.catalog().indexes("SUPPLY")[0].stats().leaf_pages;
            let (ops, leaves_before) = (store.write_ops(), leaves(&db));
            db.execute_script(statement).unwrap();
            assert_eq!(leaves(&db) - leaves_before, usize::from(splits_a_leaf), "{statement}");
            store.write_ops() - ops
        };
        assert!(sites < 16, "{statement}: {sites} durable writes — a commit is a handful of pages");

        let (mut survived, mut rolled_back) = (0, 0);
        for (crash_at, torn_bytes) in
            (0..=sites).flat_map(|site| [None, Some(3)].map(|torn| (site, torn)))
        {
            let site =
                format!("{statement}, crash site {crash_at} of {sites}, torn {torn_bytes:?}");
            let dir = TempDir::new("nsql-db-crash");
            let baseline;
            let insert_landed;
            {
                let mut db = sweep_database(dir.path());
                baseline = rows_sorted(&db, table);
                let store = db.storage().durable().expect("file-backed").clone();
                store.inject_fault(FaultPlan { crash_at_op: crash_at, torn_bytes });
                // The fault model simulates process death: the doomed process
                // does not observe an error, its writes just stop reaching disk.
                db.execute_script(statement).unwrap();
                insert_landed = !store.crashed();
            }
            let db = Database::open(dir.path())
                .unwrap_or_else(|e| panic!("recovery failed: {site}: {e}"));
            let rows = rows_sorted(&db, table);
            if insert_landed {
                let mut want = baseline.clone();
                want.push(new_row.into());
                want.sort();
                assert_eq!(rows, want, "{site}: committed insert lost");
                survived += 1;
            } else {
                assert_eq!(rows, baseline, "{site}: partial insert surfaced");
                rolled_back += 1;
            }
            // The recovered index answers like a filter of the recovered heap.
            let supply = db.storage().load_relation(db.catalog().table("SUPPLY").unwrap());
            let ix = &db.catalog().indexes("SUPPLY")[0];
            assert_eq!(ix.stats().tuples, supply.len(), "{site}");
            for key in (0..62).map(nsql_types::Value::Int) {
                let mut want: Vec<_> =
                    supply.tuples().iter().filter(|t| t.get(0) == &key).cloned().collect();
                want.sort_by(nsql_types::Tuple::total_cmp);
                assert_eq!(ix.probe_eq(db.storage(), &key), want, "{site}: probe {key}");
            }
            // Oracle check on the recovered image: the naive interpreter reads
            // the recovered heaps, and both strategies agree with it on Q2.
            let mut oracle = Oracle::new();
            for name in db.catalog().table_names() {
                let file = db.catalog().table(name).expect("listed table exists");
                oracle.load(name, db.storage().load_relation(file));
            }
            let want = oracle.eval(&q2).expect("oracle evaluates Q2");
            for opts in [QueryOptions::nested_iteration(), QueryOptions::transformed()] {
                let got = db.query_with(Q2, &opts).unwrap();
                assert!(
                    got.relation.same_bag(&want),
                    "{site}: {} diverges from the oracle after recovery\n\
                     oracle:\n{want}\ngot:\n{}",
                    opts.strategy.name(),
                    got.relation
                );
            }
        }
        assert!(rolled_back > 0, "{statement}: no crash site rolled back");
        assert_eq!(survived, 2, "{statement}: only the site past the last write keeps the insert");
    }
}

#[test]
fn memory_and_file_backends_count_identical_io() {
    let dir = TempDir::new("nsql-db-iodiff");
    let mut mem = Database::with_storage(8, 256);
    let mut file = Database::open_with(8, 256, dir.path()).unwrap();
    mem.execute_script(SETUP).unwrap();
    file.execute_script(SETUP).unwrap();
    for opts in [
        QueryOptions::nested_iteration(),
        QueryOptions::transformed(),
        QueryOptions::transformed_merge(),
    ] {
        let a = mem.query_with(Q2, &opts).unwrap();
        let b = file.query_with(Q2, &opts).unwrap();
        assert!(a.relation.same_bag(&b.relation));
        assert_eq!(
            (a.io.reads, a.io.writes),
            (b.io.reads, b.io.writes),
            "page I/O must be byte-identical across backends"
        );
    }
}

#[test]
fn insert_cost_does_not_grow_with_the_table() {
    // Two rows into an indexed table of 1 500 rows and of 6 000 (the
    // benchmark's SUPPLY, and four times it): the last heap page, a descent
    // and a leaf per row, a parent when a leaf splits. Rewriting the table
    // and rebuilding the index took about 410 and 1 650 counted page I/Os
    // and 430 and 1 700 durable writes.
    use nsql_types::{Column, ColumnType, Schema, Tuple, Value};
    let schema = Schema::new(
        ["PNUM", "QUAN", "GRP", "TAG"].map(|c| Column::new(c, ColumnType::Int)).to_vec(),
    );
    let mut costs = Vec::new();
    for n in [1_500i64, 6_000] {
        let rows = (0..n)
            .map(|i| [i * 7919 % (n * 5 / 4), i % 20, i % 100, i].map(Value::Int).to_vec())
            .map(Tuple::new)
            .collect();
        let rel = Relation::new(schema.clone(), rows).unwrap();
        let dir = TempDir::new("nsql-db-insert-cost");
        let mut mem = Database::with_storage(6, 512);
        let mut file = Database::open_with(6, 512, dir.path()).unwrap();
        let store = file.storage().durable().expect("file-backed").clone();
        let mut cost = Vec::new();
        for db in [&mut mem, &mut file] {
            db.catalog_mut().load_table("SUPPLY", &rel).unwrap();
            db.catalog_mut().create_index("SUPPLY", "PNUM").unwrap();
            let (io, ops) = (db.storage().io_snapshot(), store.write_ops());
            db.execute_script("INSERT INTO SUPPLY VALUES (417, 3, 5, 1), (418, 4, 6, 2)").unwrap();
            let io = db.storage().io_snapshot().since(&io);
            cost.push((io.reads, io.writes, store.write_ops() - ops));
            assert_eq!(db.catalog().table("SUPPLY").unwrap().tuple_count() as i64, n + 2);
            let got = db.query("SELECT TAG FROM SUPPLY WHERE PNUM = 418 AND QUAN = 4").unwrap();
            assert_eq!(col0_sorted(&got), vec!["2"]);
        }
        let (mem, file) = (cost[0], cost[1]);
        assert_eq!((mem.0, mem.1), (file.0, file.1), "{n} rows: both backends count the same I/O");
        assert!(file.0 + file.1 <= 20, "{n} rows: {file:?} counted reads and writes");
        assert!(file.2 <= 16, "{n} rows: {} durable write operations", file.2);
        costs.push(file);
    }
    let total = |c: (u64, u64, u64)| c.0 + c.1 + c.2;
    assert!(
        total(costs[1]) <= total(costs[0]) + 4,
        "four times the rows, about the same cost: {costs:?}"
    );
}

#[test]
fn persisted_index_is_used_after_reopen() {
    let dir = TempDir::new("nsql-db-ixreopen");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute_script(SETUP).unwrap();
        db.catalog_mut().create_index("SUPPLY", "PNUM").unwrap();
        db.catalog_mut().create_index("PARTS", "QOH").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.open_report().unwrap().indexes, 2);

    // Back-join through the restored index: a type-N query probes SUPPLY.
    let q_in = "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)";
    let prefer = QueryOptions {
        strategy: Strategy::Transform,
        index_use: IndexUse::Prefer,
        cold_start: true,
        ..Default::default()
    };
    let never =
        QueryOptions { index_use: IndexUse::Never, ..prefer.clone() };
    let with_ix = db.query_with(q_in, &prefer).unwrap();
    let without = db.query_with(q_in, &never).unwrap();
    assert!(with_ix.relation.same_bag(&without.relation));
    let log = with_ix.explain.join("\n");
    assert!(
        log.contains("index nested-loop join via IX_SUPPLY_PNUM"),
        "expected index back-join in explain:\n{log}"
    );

    // Restriction through the restored index.
    let q_range = "SELECT PNUM FROM PARTS WHERE QOH >= 1";
    let with_ix = db.query_with(q_range, &prefer).unwrap();
    let without = db.query_with(q_range, &never).unwrap();
    assert!(with_ix.relation.same_bag(&without.relation));
    let log = with_ix.explain.join("\n");
    assert!(
        log.contains("index restrict via IX_PARTS_QOH"),
        "expected index restriction in explain:\n{log}"
    );
}

#[test]
fn dml_after_reopen_keeps_committing() {
    // The reopened database is fully live: further DDL/DML commit and
    // survive another restart, and indexes follow the rewritten table.
    let dir = TempDir::new("nsql-db-redml");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute_script(SETUP).unwrap();
        db.catalog_mut().create_index("PARTS", "PNUM").unwrap();
    }
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute_script("INSERT INTO PARTS VALUES (42, 0)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let rows = col0_sorted(&db.query("SELECT PNUM FROM PARTS").unwrap());
    assert_eq!(rows, vec!["10", "3", "42", "8"]);
    // The rebuilt-and-persisted index still answers probes correctly.
    let prefer = QueryOptions {
        strategy: Strategy::Transform,
        index_use: IndexUse::Prefer,
        cold_start: true,
        ..Default::default()
    };
    let r = db
        .query_with("SELECT QOH FROM PARTS WHERE PNUM = 42", &prefer)
        .unwrap();
    assert_eq!(col0_sorted(&r.relation), vec!["0"]);
}

#[test]
fn read_only_statements_leave_the_next_commit_nothing_to_write() {
    // A SELECT's temporaries live on the same store as the tables. One that
    // outlived its statement would be made durable by the next commit —
    // pages on disk no catalog entry points at, written again at every
    // checkpoint — so twenty SELECTs followed by a commit must cost what a
    // commit alone costs, whether the statements answer or, having
    // materialized their temporaries, fail.
    use nsql_types::{Column, ColumnType, Schema, Tuple, Value};
    let dir = TempDir::new("nsql-db-temps");
    let mut db = Database::open(dir.path()).unwrap();
    let schema = Schema::new(vec![
        Column::new("K", ColumnType::Int),
        Column::new("V", ColumnType::Int),
        Column::new("S", ColumnType::Str),
    ]);
    let rows = (0..300i64)
        .map(|i| Tuple::new(vec![Value::Int(i % 100), Value::Int(i), Value::str("s")]))
        .collect();
    let rel = Relation::new(schema, rows).unwrap();
    db.catalog_mut().load_table("L", &rel).unwrap();
    db.catalog_mut().load_table("R", &rel).unwrap();
    let store = db.storage().durable().expect("file-backed").clone();
    let ops = store.write_ops();
    db.catalog().persist().unwrap();
    let idle_commit = store.write_ops() - ops;

    let statements = [
        ("SELECT L.K, COUNT(R.V) FROM L, R WHERE L.K = R.K GROUP BY L.K", true),
        // MIN(S) is a string: the canonical query fails comparing K with
        // it, after the aggregate's temporary has been registered.
        ("SELECT V FROM L WHERE K != (SELECT MIN(S) FROM R) AND K >= 3", false),
    ];
    for (sql, answers) in statements {
        let pages = store.snapshot_pages().len();
        let ops = store.write_ops();
        for _ in 0..20 {
            assert_eq!(db.query(sql).is_ok(), answers, "{sql}");
        }
        db.catalog().persist().unwrap();
        assert_eq!(store.snapshot_pages().len(), pages, "pages made durable by: {sql}");
        assert!(
            store.write_ops() - ops <= idle_commit,
            "{} write operations for a commit after 20 x `{sql}`; an idle commit takes {idle_commit}",
            store.write_ops() - ops,
        );
    }
}
