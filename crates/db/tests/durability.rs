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

#[test]
fn crash_point_sweep_recovers_last_commit() {
    // Kill the store at every write site of a follow-up INSERT's commit and
    // check that reopening yields either exactly the pre-crash state or
    // (when the crash site lies beyond the commit) exactly the post-state —
    // never anything in between, and never an error. The range runs
    // comfortably past the commit's last durable write, so both outcomes
    // must occur.
    let q2 = nsql_sql::parse_query(Q2).unwrap();
    let (mut survived, mut rolled_back) = (0, 0);
    for crash_at in 0..16u64 {
        let dir = TempDir::new("nsql-db-crash");
        let baseline;
        let insert_landed;
        {
            let mut db = Database::open(dir.path()).unwrap();
            db.execute_script(SETUP).unwrap();
            db.catalog_mut().create_index("SUPPLY", "PNUM").unwrap();
            baseline = col0_sorted(&db.query("SELECT PNUM FROM PARTS").unwrap());
            let store = db.storage().durable().expect("file-backed").clone();
            store.inject_fault(FaultPlan { crash_at_op: crash_at, torn_bytes: Some(3) });
            // The fault model simulates process death: the doomed process
            // does not observe an error, its writes just stop reaching disk.
            db.execute_script("INSERT INTO PARTS VALUES (99, 99)").unwrap();
            insert_landed = !store.crashed();
        }
        let db = Database::open(dir.path())
            .unwrap_or_else(|e| panic!("recovery failed at crash site {crash_at}: {e}"));
        let rows = col0_sorted(&db.query("SELECT PNUM FROM PARTS").unwrap());
        if insert_landed {
            let mut want = baseline.clone();
            want.push("99".into());
            want.sort();
            assert_eq!(rows, want, "crash site {crash_at}: committed insert lost");
        } else {
            assert_eq!(rows, baseline, "crash site {crash_at}: partial insert surfaced");
        }
        if insert_landed {
            survived += 1;
        } else {
            rolled_back += 1;
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
                "crash site {crash_at}: {} diverges from the oracle after recovery\n\
                 oracle:\n{want}\ngot:\n{}",
                opts.strategy.name(),
                got.relation
            );
        }
    }
    assert!(rolled_back > 0, "no crash site rolled back — the sweep starts too late");
    assert!(survived > 0, "no crash site kept the insert — widen the sweep");
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
