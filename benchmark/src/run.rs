//! The closed loop: one client, one process, the default user path.
//!
//! A run is a sequence of cycles. A cycle sets a workload up from nothing
//! (timed as one `setup_s` sample, warm-up round included) and then runs
//! its fixed number of rounds. Cycles repeat for `--seconds` of wall time,
//! set-up included, and stop before the one that would not fit.

use crate::reference::canonical_result;
use crate::stats::{calibrate, time_ms};
use crate::trace::Recorder;
use crate::workloads::{Session, Spec};
use nsql_analyzer::{query_fingerprint, validate_query};
use nsql_core::{transform_query, UnnestOptions};
use nsql_db::plan_exec::PlanExecutor;
use nsql_db::{Database, DbError, JoinPolicy, QueryOptions, QueryOutcome, Strategy};
use nsql_engine::{Exec, NestedIter};
use nsql_obs::stats::StatementSample;
use nsql_sql::{parse_query, parse_statements, QueryBlock, Statement};
use nsql_types::{Relation, Tuple};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// The fixed caller protocol: run `sql` under `opts`; when the transform
/// path answers with its typed refusal, retry by nested iteration from a
/// cold buffer (`QueryOptions::nested_iteration()` when `opts` is the
/// default). Returns the outcome and whether the first attempt was refused.
pub fn select(
    db: &Database,
    sql: &str,
    opts: &QueryOptions,
) -> Result<(QueryOutcome, bool), DbError> {
    match db.query_with(sql, opts) {
        Err(DbError::Transform(_)) => {
            let retry = QueryOptions {
                strategy: Strategy::NestedIteration,
                cold_start: true,
                ..opts.clone()
            };
            Ok((db.query_with(sql, &retry)?, true))
        }
        other => other.map(|outcome| (outcome, false)),
    }
}

/// Statements attempted and statements that errored or answered wrongly.
/// A refusal followed by a correct fallback is not a failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// How one statement is executed and what is recorded about it.
pub trait Driver {
    fn select(
        &mut self,
        db: &Database,
        shape: &'static str,
        sql: &str,
    ) -> Result<Relation, DbError>;
    fn insert(&mut self, db: &mut Database, sql: &str) -> Result<(), DbError>;
    /// The untraced samples this driver has taken so far.
    fn plain(&self) -> &Plain;
}

/// One round: every select of the workload, checked against its reference
/// answer, then (read/write workload) one INSERT.
pub fn round(session: &mut Session, driver: &mut impl Driver, tally: &mut Tally) {
    for stmt in &session.stmts {
        tally.attempted += 1;
        match driver.select(&session.db, stmt.shape, &stmt.sql) {
            Ok(rel) if canonical_result(&rel, stmt.shape) == stmt.expected => {}
            Ok(rel) => {
                tally.failed += 1;
                eprintln!("WRONG ANSWER {}: {} rows", stmt.shape, rel.len());
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("ERROR {}: {e}", stmt.shape);
            }
        }
    }
    if session.spec.read_write_file {
        let (sql, rows) = session.next_insert();
        tally.attempted += 1;
        match driver.insert(&mut session.db, &sql) {
            Ok(()) => session.inserted(rows),
            Err(e) => {
                tally.failed += 1;
                eprintln!("ERROR insert: {e}");
            }
        }
        let stored = session
            .db
            .catalog()
            .table("SUPPLY")
            .map_or(0, |f| f.tuple_count());
        if stored != session.supply_rows() {
            tally.failed += 1;
            eprintln!("WRONG ROW COUNT after insert: {stored}");
        }
    }
}

/// What the untraced loop keeps of one select.
pub struct SelectSample {
    pub shape: &'static str,
    pub ms: f64,
    pub reads: u64,
    pub writes: u64,
    pub hits: u64,
    pub misses: u64,
    pub refused: bool,
}

/// The untraced driver: `query_with` / `execute_script`, timed from outside.
#[derive(Default)]
pub struct Plain {
    pub selects: Vec<SelectSample>,
    pub insert_ms: Vec<f64>,
    /// `FileStore::write_ops` spent by the inserts.
    pub durable_writes: u64,
    /// Checkpoints the inserts triggered.
    pub checkpoints: u64,
}

/// `(write_ops, checkpoints)` of the durable store; zeros on the memory backend.
fn durable_counters(db: &Database) -> (u64, u64) {
    db.storage()
        .durable()
        .map_or((0, 0), |store| (store.write_ops(), store.checkpoints()))
}

impl Plain {
    fn count_durable(&mut self, db: &Database, before: (u64, u64)) {
        let now = durable_counters(db);
        self.durable_writes += now.0 - before.0;
        self.checkpoints += now.1 - before.1;
    }
}

impl Driver for Plain {
    fn select(
        &mut self,
        db: &Database,
        shape: &'static str,
        sql: &str,
    ) -> Result<Relation, DbError> {
        let before = db.storage().io_snapshot();
        let (result, ms) = time_ms(|| select(db, sql, &QueryOptions::default()));
        let (outcome, refused) = result?;
        let buffer = db.storage().io_snapshot().since(&before);
        self.selects.push(SelectSample {
            shape,
            ms,
            reads: outcome.io.reads,
            writes: outcome.io.writes,
            hits: buffer.hits,
            misses: buffer.misses,
            refused,
        });
        Ok(outcome.relation)
    }

    fn insert(&mut self, db: &mut Database, sql: &str) -> Result<(), DbError> {
        let before = durable_counters(db);
        let (result, ms) = time_ms(|| db.execute_script(sql));
        result?;
        self.insert_ms.push(ms);
        self.count_durable(db, before);
        Ok(())
    }

    fn plain(&self) -> &Plain {
        self
    }
}

/// The traced driver: each select runs once through `query_with` (untraced,
/// for the facade's own time) and once as the staged calls `query_with`
/// makes, each inside a span. The two answers must agree.
pub struct Traced {
    pub plain: Plain,
    pub rec: Recorder,
    pub threads: usize,
    next_op: u32,
    /// Milliseconds of the staged run of each select, parallel to
    /// `plain.selects`.
    pub staged_ms: Vec<f64>,
    pub temps: u64,
}

impl Traced {
    pub fn new(threads: usize) -> Traced {
        Traced {
            plain: Plain::default(),
            rec: Recorder::default(),
            threads,
            next_op: 0,
            staged_ms: Vec::new(),
            temps: 0,
        }
    }

    fn root(&mut self) -> u32 {
        self.next_op += 1;
        self.rec.begin("bench.op", None, self.next_op)
    }

    /// Parse and validate, as every `query_with` call starts.
    fn front_end(&mut self, root: u32, db: &Database, sql: &str) -> Result<QueryBlock, DbError> {
        let q = self.rec.span("sql.parse", root, || parse_query(sql))?;
        self.rec.span("analyzer.validate", root, || {
            validate_query(db.catalog(), &q)
        })?;
        Ok(q)
    }

    /// The statistics bookkeeping every `query_with` call ends with.
    fn bookkeeping(
        &mut self,
        root: u32,
        db: &Database,
        q: &QueryBlock,
        strategy: &str,
        t: Instant,
        refused: bool,
    ) {
        let fingerprint = self
            .rec
            .span("analyzer.fingerprint", root, || query_fingerprint(q));
        let sample = StatementSample {
            fingerprint,
            micros: t.elapsed().as_micros() as u64,
            reads: 0,
            writes: 0,
            strategy: strategy.to_string(),
            exec_mode: "row".to_string(),
            error: refused,
            refusals: refused as u64,
        };
        self.rec.span("obs.stats_record", root, || {
            db.stats().record_statement(&sample)
        });
    }

    fn staged(&mut self, root: u32, db: &Database, sql: &str) -> Result<Relation, DbError> {
        let t = Instant::now();
        let q = self.front_end(root, db, sql)?;
        let plan = self.rec.span("core.transform", root, || {
            transform_query(db.catalog(), &q, &UnnestOptions::default())
        });
        match plan {
            Ok(plan) => {
                self.temps += plan.temp_count() as u64;
                let threads = self.threads;
                let rel = self.rec.span("db.plan_exec", root, || {
                    let exec = Exec::with_threads(db.storage().clone(), threads);
                    let mut pe = PlanExecutor::new(exec, db.catalog(), JoinPolicy::CostBased);
                    let rel = pe.execute_transform_plan(&plan, plan.needs_distinct_for_semantics);
                    pe.drop_temps();
                    rel
                })?;
                self.bookkeeping(root, db, &q, "transform", t, false);
                Ok(rel)
            }
            Err(_refusal) => {
                self.bookkeeping(root, db, &q, "transform", t, true);
                // The caller's retry is a second `query_with` call.
                let t = Instant::now();
                let q = self.front_end(root, db, sql)?;
                let threads = self.threads;
                let rel = self.rec.span("engine.nested_iter", root, || {
                    db.storage().clear_buffer();
                    NestedIter::new(db.catalog(), db.storage().clone())
                        .eval_query_threads(&q, threads)
                })?;
                self.bookkeeping(root, db, &q, "nested-iteration", t, false);
                Ok(rel)
            }
        }
    }
}

impl Driver for Traced {
    fn select(
        &mut self,
        db: &Database,
        shape: &'static str,
        sql: &str,
    ) -> Result<Relation, DbError> {
        let facade = self.plain.select(db, shape, sql)?;
        let root = self.root();
        let staged = self.staged(root, db, sql);
        self.rec.end(root);
        let root_span = &self.rec.spans[root as usize];
        self.staged_ms
            .push((root_span.end_ns - root_span.start_ns) as f64 / 1e6);
        let staged = staged?;
        if canonical_result(&staged, shape) != canonical_result(&facade, shape) {
            return Err(DbError::Catalog(format!(
                "staged and facade answers differ on {shape}"
            )));
        }
        Ok(staged)
    }

    fn insert(&mut self, db: &mut Database, sql: &str) -> Result<(), DbError> {
        let before = durable_counters(db);
        let root = self.root();
        let result = (|| {
            let stmts = self.rec.span("sql.parse", root, || parse_statements(sql))?;
            for stmt in stmts {
                let Statement::Insert { table, rows } = stmt else {
                    return Err(DbError::Catalog("the write statement is an INSERT".into()));
                };
                let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
                self.rec.span("db.insert", root, || {
                    db.catalog_mut().insert(&table, tuples)
                })?;
            }
            Ok(())
        })();
        self.rec.end(root);
        let root_span = &self.rec.spans[root as usize];
        self.plain
            .insert_ms
            .push((root_span.end_ns - root_span.start_ns) as f64 / 1e6);
        self.plain.count_durable(db, before);
        result
    }

    fn plain(&self) -> &Plain {
        &self.plain
    }
}

/// What one cycle measured; its statements' samples are the given ranges
/// of the driver's `Plain` vectors.
pub struct Cycle {
    pub setup_s: f64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
    /// Wall time of the rounds, seconds.
    pub wall_s: f64,
    pub selects: Range<usize>,
    pub inserts: Range<usize>,
    pub durable_writes: u64,
    pub disk_bytes: u64,
    pub user_bytes: u64,
}

/// Set up a fresh session (reference answers and one warm-up round
/// included), then run the workload's rounds through `driver`. The
/// file-backed workload keeps its store under `out_dir`, inside the checkout.
fn cycle(
    spec: &'static Spec,
    seed: u64,
    out_dir: &Path,
    driver: &mut impl Driver,
    tally: &mut Tally,
) -> Cycle {
    let calib_before_ms = calibrate();
    let t = Instant::now();
    let dir = out_dir.join(format!("store-{}", std::process::id()));
    let mut session = Session::new(spec, seed, &dir);
    round(&mut session, &mut Plain::default(), tally);
    let setup_s = t.elapsed().as_secs_f64();

    let (selects, inserts, durable) = {
        let p = driver.plain();
        (p.selects.len(), p.insert_ms.len(), p.durable_writes)
    };
    let t = Instant::now();
    for _ in 0..spec.rounds_per_cycle {
        round(&mut session, driver, tally);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let p = driver.plain();
    Cycle {
        setup_s,
        calib_before_ms,
        calib_after_ms: calibrate(),
        wall_s,
        selects: selects..p.selects.len(),
        inserts: inserts..p.insert_ms.len(),
        durable_writes: p.durable_writes - durable,
        disk_bytes: session.disk_bytes(),
        user_bytes: session.user_rows as u64 * 4 * 8,
    }
}

/// Run whole cycles, at least one, for `seconds` of wall time in all: stop
/// before a cycle that, taking as long as the last one, would end later.
pub fn cycles(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    driver: &mut impl Driver,
    tally: &mut Tally,
) -> Vec<Cycle> {
    let mut done = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        done.push(cycle(spec, seed, out_dir, driver, tally));
        if (start.elapsed() + t.elapsed()).as_secs_f64() > seconds {
            return done;
        }
    }
}
