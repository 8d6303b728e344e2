//! Physical operators.
//!
//! Every operator **materializes** its result as a heap file (costing one
//! write per output page), matching how the paper's cost model charges every
//! intermediate — `Rt2`, `Rt3`, `Rt4`, `Rt` are all stored temporaries.
//! The one exception is the final operator of a plan, which uses a
//! `*_collect` variant to stream into an in-memory [`Relation`] (the paper
//! likewise never charges for delivering the final result).
//!
//! Join methods are exactly the two System R offered and the paper analyses:
//! nested-loop ([`Exec::nl_join`]) and sort-merge ([`Exec::merge_join`]),
//! each in inner and **left outer** flavours — the outer join being the
//! paper's key device for fixing the COUNT bug (Section 5.2).
//!
//! The nested loop reads every inner page once per outer tuple, as the
//! paper's `Pl + Nl·Pr` prices it, but it does not compare every pair: when
//! its predicate starts with column equalities, the first inner pass builds
//! a hash index of inner tuple *positions* and later passes evaluate the
//! predicate only where the key can match. The rule all operators share —
//! an index, memo or cache may skip CPU, never a page read — is stated in
//! DESIGN.md's I/O-accounting section.
//!
//! Every operator has one in-memory kernel, over rows, with a serial and a
//! morsel-parallel driver around it; predicates are evaluated by
//! [`CPred`] alone. The exception is the hash join, which keeps a second
//! kernel over column batches because it measured faster (`hash_join.rs`).

mod agg;
mod hash_join;
mod join;

pub use agg::AggSpec;

use crate::error::EngineError;
use crate::expr::{CExpr, Joined, Projector, Row};
use crate::par::par_map_pages;
use crate::pred::CPred;
use crate::Result;
use nsql_obs::{OpCounters, Profile};
use nsql_storage::sort::SortKey;
use nsql_storage::{external_sort_threads, HeapFile, Storage, TempFile};
use nsql_types::{Relation, Schema, Tuple, Value};
use std::sync::Arc;

/// Inner or left-outer join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Ordinary join.
    Inner,
    /// Left outer join: unmatched left tuples appear once, padded with
    /// `NULL`s on the right (the paper's `^`).
    LeftOuter,
}

/// What a join emits for a pair that joined: the whole concatenated row
/// `left ++ right`, or the listed columns of it. The one place every join
/// kernel — nested loop, sort-merge, both hash kernels, and the plan
/// layer's index probe — builds an output row, so a stored join result
/// carries the columns somebody reads and no others are ever cloned.
#[derive(Debug, Clone, Copy)]
pub struct JoinEmit<'a> {
    cols: Option<&'a [usize]>,
    right_arity: usize,
}

impl<'a> JoinEmit<'a> {
    /// Emit `cols` — indices into the concatenated schema of the left input
    /// and `right`, in output order — or every column when `None`.
    pub fn new(right: &Schema, cols: Option<&'a [usize]>) -> JoinEmit<'a> {
        JoinEmit { cols, right_arity: right.arity() }
    }

    /// Schema of the emitted rows.
    pub fn schema(&self, left: &Schema, right: &Schema) -> Schema {
        let joined = left.join(right);
        match self.cols {
            Some(cols) => joined.project(cols),
            None => joined,
        }
    }

    /// The output row of the pair `lt`, `rt`.
    pub fn pair(&self, lt: &Tuple, rt: &Tuple) -> Tuple {
        match self.cols {
            None => lt.join(rt),
            Some(cols) => {
                let row = Joined::new(lt, rt);
                cols.iter().map(|&c| row.field(c).clone()).collect()
            }
        }
    }

    /// The output row of a left tuple no right tuple joined: `NULL` in
    /// every right column (the paper's `^`).
    pub fn padded(&self, lt: &Tuple) -> Tuple {
        match self.cols {
            None => lt.join_nulls(self.right_arity),
            Some(cols) => {
                cols.iter().map(|&c| lt.values().get(c).cloned().unwrap_or(Value::Null)).collect()
            }
        }
    }
}

/// Input size, in tuples, from which an operator call of an executor that
/// was given a thread *budget* ([`Exec::with_thread_budget`]) fans out.
///
/// Fanning out costs one `run_workers` dispatch — 34 to 251 µs measured on
/// the two-processor development host (`exec-par.dispatch_us`: spawn and
/// join of the scoped threads, the per-morsel slots and locks) — and buys at
/// most the serial time times `1 − 1/workers`. The row kernels spend about
/// 50 ns a row (the filter: 1.0 ms over 20 000 rows), so two workers break
/// even between 2 × 34 µs / 50 ns ≈ 1 400 rows and 2 × 251 µs / 50 ns ≈
/// 10 000 rows, depending on what the dispatch happens to cost, and below
/// that the fan-out only adds it: 1.2 to 1.8 times slower on every
/// Kim-scale statement (≤ 1 580 rows an input). The constant is the next
/// power of two above the upper end — fan out only where even the dearest
/// dispatch measured is repaid — and a measured sweep of 0 / 1 024 / … /
/// 32 768 / never (EXPERIMENTS.md, "INSERT costs what it changes", part d)
/// found every value from 2 048 to 16 384 equal within noise on all
/// workloads, this one reading best. Every Kim-scale input falls below it,
/// the x20 base tables (20 000 and 30 000 rows) above.
const PAR_MIN_ROWS: usize = 16_384;

/// Operator executor bound to a [`Storage`].
#[derive(Clone)]
pub struct Exec {
    storage: Storage,
    threads: usize,
    /// Whether `threads` is an upper bound ([`Exec::with_thread_budget`])
    /// and not a count somebody named.
    budget: bool,
    profile: Profile,
    vectorized: bool,
}

impl Exec {
    /// Executor over `storage` (serial: one thread).
    pub fn new(storage: Storage) -> Exec {
        Exec::with_threads(storage, 1)
    }

    /// Executor with a morsel-parallel worker pool of `threads` workers.
    /// `threads <= 1` is the exact serial code path; with more, the heavy
    /// operators (scans, hash join, aggregation, sort run generation) fan
    /// out while reporting **identical** I/O statistics (see `engine::par`).
    pub fn with_threads(storage: Storage, threads: usize) -> Exec {
        Exec {
            storage,
            threads: threads.max(1),
            budget: false,
            profile: Profile::default(),
            vectorized: false,
        }
    }

    /// Executor that may use up to `threads` workers — for a caller whose
    /// count nobody named (the machine's parallelism, say). Each operator
    /// call decides by its own input: it fans out from 16 384 tuples
    /// (`PAR_MIN_ROWS`, derived where it is defined) and runs the serial path
    /// below, where a dispatch costs more than it can save. Results, order and counted I/O are those of
    /// [`Exec::with_threads`] at any count.
    fn with_thread_budget(storage: Storage, threads: usize) -> Exec {
        Exec { budget: true, ..Exec::with_threads(storage, threads) }
    }

    /// Executor for a thread count as a statement requested it
    /// (`QueryOptions::threads`): a count `n ≥ 1` is obeyed; `0` takes
    /// [`threads_from_env`](nsql_exec_par::threads_from_env), which is
    /// obeyed when `NSQL_THREADS` named it and is otherwise the machine's
    /// parallelism, used as a budget: an operator call fans out only over an
    /// input of `PAR_MIN_ROWS` = 16 384 tuples or more.
    pub fn with_requested_threads(storage: Storage, requested: usize) -> Exec {
        match requested {
            0 if !nsql_exec_par::threads_named() => {
                Exec::with_thread_budget(storage, nsql_exec_par::threads_from_env())
            }
            0 => Exec::with_threads(storage, nsql_exec_par::threads_from_env()),
            n => Exec::with_threads(storage, n),
        }
    }

    /// Choose the hash join's kernel: `true` builds and probes on column
    /// batches (`nsql-vec`), `false` on rows. Results, errors and counted
    /// page I/O are identical either way. Every other operator has one row
    /// kernel and ignores the switch (see DESIGN.md "Vectorized
    /// execution" for the measurements that decided which stayed).
    pub fn with_vectorized(mut self, vectorized: bool) -> Exec {
        self.vectorized = vectorized;
        self
    }

    /// Attach the query's profile; operators record into its innermost
    /// open operator node. Without this (the default: a disabled profile),
    /// every collection point reduces to one `Option` branch.
    pub fn with_obs(mut self, profile: Profile) -> Exec {
        self.profile = profile;
        self
    }

    /// The attached profile (disabled unless [`Exec::with_obs`] set one).
    pub fn obs(&self) -> &Profile {
        &self.profile
    }

    /// The operator counters engine internals should record into right
    /// now: those of the innermost open node. Fetched by the coordinating
    /// thread, before any fan-out.
    pub(crate) fn current_op(&self) -> Option<Arc<OpCounters>> {
        self.profile.current_op()
    }

    /// The underlying storage handle.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Worker-pool width this executor fans out to (at most, when it was
    /// given as a budget).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers for one operator call that scans `input`: 1 — the serial
    /// path — for a single page, and for an input under [`PAR_MIN_ROWS`]
    /// tuples when the thread count is a budget; else the pool's width.
    pub(crate) fn workers_for(&self, input: &HeapFile) -> usize {
        if input.page_count() <= 1 || (self.budget && input.tuple_count() < PAR_MIN_ROWS) {
            1
        } else {
            self.threads
        }
    }

    /// Filter-map `input` through `f`, streaming into a new heap file.
    ///
    /// Serial path: zero-copy streaming scan, writes interleaved with reads.
    /// Parallel path: ordered-fetch morsels (buffer sees the serial access
    /// order), per-morsel output concatenated in morsel order, written after
    /// the scan — same tuple order, page packing, and I/O totals. On error
    /// the whole input is still scanned (serial `scan_with` does not
    /// short-circuit, and in-flight morsels complete), but the **first**
    /// error in scan order is the one the caller sees — identical at every
    /// thread count, so fault behaviour is deterministic too.
    fn stream_filter_map<F>(&self, input: &HeapFile, out_schema: Schema, f: F) -> Result<TempFile>
    where
        F: Fn(&Tuple) -> Result<Option<Tuple>> + Sync,
    {
        let op = self.current_op();
        let workers = self.workers_for(input);
        if workers > 1 {
            let op_ref = op.as_deref();
            let results =
                par_map_pages(&self.storage, input.page_ids(), workers, op_ref, |m, pages| {
                    let mut kept = Vec::new();
                    let mut err = None;
                    let mut seen = 0u64;
                    for page in pages {
                        for t in page.tuples() {
                            seen += 1;
                            match f(t) {
                                Ok(Some(o)) => kept.push(o),
                                Ok(None) => {}
                                // First error within the morsel wins; morsels are
                                // concatenated in page order below, so this is the
                                // first error in serial scan order overall.
                                Err(e) => {
                                    if err.is_none() {
                                        err = Some(e);
                                    }
                                }
                            }
                        }
                    }
                    if let Some(op) = op_ref {
                        op.rows_in.add(m, seen);
                        op.rows_out.add(m, kept.len() as u64);
                    }
                    (kept, err)
                });
            let mut err = None;
            let file = HeapFile::from_tuples(
                &self.storage,
                out_schema,
                results.into_iter().flat_map(|(kept, e)| {
                    if let Some(e) = e {
                        if err.is_none() {
                            err = Some(e);
                        }
                    }
                    kept
                }),
            );
            self.check_streamed(file, err)
        } else {
            let mut err = None;
            let mut rows_in = 0u64;
            let mut rows_out = 0u64;
            let file = HeapFile::from_tuples(
                &self.storage,
                out_schema,
                input.scan_with(&self.storage, |t| {
                    rows_in += 1;
                    match f(t) {
                        Ok(o) => {
                            rows_out += o.is_some() as u64;
                            o
                        }
                        Err(e) => {
                            if err.is_none() {
                                err = Some(e);
                            }
                            None
                        }
                    }
                }),
            );
            if let Some(op) = &op {
                op.rows_in.add(0, rows_in);
                op.rows_out.add(0, rows_out);
            }
            self.check_streamed(file, err)
        }
    }

    /// σ — keep tuples the predicate accepts (is `TRUE` for).
    ///
    /// Streams page-resident tuples straight into the output file: rejected
    /// tuples are never cloned off their page, accepted ones are cloned
    /// exactly once. Output writes are write-around (never enter the buffer
    /// pool), so interleaving them with the input scan leaves counted I/O
    /// identical to the old collect-then-write form.
    pub fn filter(&self, input: &HeapFile, pred: &CPred) -> Result<HeapFile> {
        self.stream_filter_map(input, input.schema().clone(), |t| {
            Ok(if pred.accepts(t)? { Some(t.clone()) } else { None })
        })
        .map(TempFile::keep)
    }

    /// The streamed output as a file of its own; if the streaming closure
    /// hit an error, the partial output is freed and the error surfaces.
    fn check_streamed(&self, file: HeapFile, err: Option<EngineError>) -> Result<TempFile> {
        let file = TempFile::new(&self.storage, file);
        match err {
            Some(e) => Err(e),
            None => Ok(file),
        }
    }

    /// π — evaluate `exprs` per tuple; `distinct` eliminates duplicates via
    /// an external sort of the projected file. Clones only the projected
    /// columns of each input tuple and streams the output directly into
    /// pages (no intermediate `Vec<Tuple>`).
    pub fn project(
        &self,
        input: &HeapFile,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<HeapFile> {
        if out_schema.arity() != exprs.len() {
            return Err(EngineError::Internal(format!(
                "project schema arity {} != expr count {}",
                out_schema.arity(),
                exprs.len()
            )));
        }
        let proj = Projector::new(exprs);
        let file = self.stream_filter_map(input, out_schema, |t| Ok(Some(proj.apply_ref(t))))?;
        Ok(self.deduplicated(file, distinct))
    }

    /// `file` as the operator's result, or — under `distinct` — its
    /// duplicate-free sort, the unsorted file freed once that is written.
    fn deduplicated(&self, file: TempFile, distinct: bool) -> HeapFile {
        if distinct {
            self.sort(&file, &[], true)
        } else {
            file.keep()
        }
    }

    /// Combined σ then π in one pass over the input (the paper's
    /// "restriction and projection" of a relation, e.g. building `Rt2` and
    /// `Rt3` in NEST-JA2). Streams like [`filter`](Exec::filter)/
    /// [`project`](Exec::project): rejected tuples cost nothing, accepted
    /// ones clone only their projected columns.
    pub fn restrict_project(
        &self,
        input: &HeapFile,
        pred: &CPred,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<HeapFile> {
        let proj = Projector::new(exprs);
        let file = self.stream_filter_map(input, out_schema, |t| {
            Ok(if pred.accepts(t)? { Some(proj.apply_ref(t)) } else { None })
        })?;
        Ok(self.deduplicated(file, distinct))
    }

    /// External sort (thin wrapper over [`external_sort`]; run generation
    /// fans out on this executor's worker pool).
    pub fn sort(&self, input: &HeapFile, keys: &[SortKey], unique: bool) -> HeapFile {
        external_sort_threads(&self.storage, input, keys, unique, self.workers_for(input))
    }

    /// Load a heap file into memory (final-result delivery; reads only).
    pub fn collect(&self, input: &HeapFile) -> Relation {
        self.storage.load_relation(input)
    }

    /// Final-result projection: stream, evaluate, collect in memory.
    pub fn project_collect(
        &self,
        input: &HeapFile,
        exprs: &[CExpr],
        out_schema: Schema,
        distinct: bool,
    ) -> Result<Relation> {
        let proj = Projector::new(exprs);
        let mut tuples: Vec<Tuple> =
            input.scan_with(&self.storage, |t| Some(proj.apply_ref(t))).collect();
        if distinct {
            tuples.sort_by(Tuple::total_cmp);
            tuples.dedup();
        }
        Relation::new(out_schema, tuples).map_err(EngineError::from)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use nsql_types::{Column, ColumnType, Value};

    /// Build a heap file of integer rows with columns qualified by `table`.
    pub fn int_file(
        storage: &Storage,
        table: &str,
        cols: &[&str],
        rows: &[&[i64]],
    ) -> HeapFile {
        let schema = Schema::new(
            cols.iter().map(|c| Column::qualified(table, *c, ColumnType::Int)).collect(),
        );
        HeapFile::from_tuples(
            storage,
            schema,
            rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Tuple>()),
        )
    }

    /// All rows as `Vec<Vec<i64>>`, using -1 sentinel impossible — use
    /// Option for NULL.
    pub fn rows_of(storage: &Storage, f: &HeapFile) -> Vec<Vec<Option<i64>>> {
        f.scan(storage)
            .map(|t| {
                t.values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(*i),
                        Value::Null => None,
                        other => panic!("unexpected value {other}"),
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use nsql_sql::parse_query;
    use nsql_types::{Column, ColumnType};

    fn exec() -> Exec {
        Exec::new(Storage::with_defaults())
    }

    fn pred_on(f: &HeapFile, src_where: &str) -> CPred {
        let q = parse_query(&format!("SELECT T.A FROM T WHERE {src_where}")).unwrap();
        CPred::compile(f.schema(), q.where_clause.as_ref().unwrap()).unwrap()
    }

    #[test]
    fn filter_keeps_only_true() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[1], &[2], &[3]]);
        let p = pred_on(&f, "A >= 2");
        let out = e.filter(&f, &p).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(2)], vec![Some(3)]]);
    }

    #[test]
    fn project_reorders_and_computes() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 10], &[2, 20]]);
        let out_schema = Schema::new(vec![Column::qualified("O", "B", ColumnType::Int)]);
        let out = e
            .project(&f, &[CExpr::Col(1)], out_schema, false)
            .unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(10)], vec![Some(20)]]);
    }

    #[test]
    fn project_distinct_dedups() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 0], &[1, 1], &[2, 2]]);
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let out = e.project(&f, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(1)], vec![Some(2)]]);
    }

    #[test]
    fn restrict_project_applies_both() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A", "B"], &[&[1, 5], &[2, 6], &[3, 7]]);
        let p = pred_on(&f, "A > 1");
        let out_schema = Schema::new(vec![Column::qualified("O", "B", ColumnType::Int)]);
        let out = e.restrict_project(&f, &p, &[CExpr::Col(1)], out_schema, false).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(6)], vec![Some(7)]]);
    }

    #[test]
    fn project_collect_returns_relation() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[2], &[1], &[2]]);
        let s = Schema::new(vec![Column::new("A", ColumnType::Int)]);
        let r = e.project_collect(&f, &[CExpr::Col(0)], s.clone(), false).unwrap();
        assert_eq!(r.len(), 3);
        let rd = e.project_collect(&f, &[CExpr::Col(0)], s, true).unwrap();
        assert_eq!(rd.len(), 2);
    }

    #[test]
    fn distinct_projection_drops_presort_pages() {
        // The distinct path materializes the projection, sorts it into a new
        // file, and must free the pre-sort pages — only the input and the
        // deduplicated output may remain live on disk.
        let e = exec();
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 5, i]).collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let f = int_file(e.storage(), "T", &["A", "B"], &row_refs);
        let live_before = e.storage().live_pages();
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let out = e.project(&f, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(out.tuple_count(), 5);
        assert_eq!(
            e.storage().live_pages(),
            live_before + out.page_count(),
            "pre-sort projection pages must be freed"
        );

        // Same invariant on the combined restrict+project path.
        let p = pred_on(&f, "A >= 1");
        let out_schema = Schema::new(vec![Column::qualified("O", "A", ColumnType::Int)]);
        let live_before = e.storage().live_pages();
        let out2 = e.restrict_project(&f, &p, &[CExpr::Col(0)], out_schema, true).unwrap();
        assert_eq!(out2.tuple_count(), 4);
        assert_eq!(e.storage().live_pages(), live_before + out2.page_count());
    }

    #[test]
    fn a_thread_budget_fans_out_by_input_size_and_a_named_count_always() {
        use nsql_obs::IoDelta;
        use nsql_sql::AggFunc;
        use nsql_storage::IoSnapshot;
        use nsql_types::Value;

        // Filter, presorted fold, hash join (build and probe) and sort over
        // `rows` rows: what each produced, the morsels each claimed (the
        // sort's pass 0 records none: the worker count it was given), and
        // the four I/O counters of the whole sequence.
        type Run = (Vec<Vec<Tuple>>, Vec<u64>, IoSnapshot);
        let run = |exec: fn(Storage, usize) -> Exec, rows: i64| -> Run {
            let profile = Profile::with_probe(IoDelta::default);
            // A budget of 4, not the machine's parallelism, so the test
            // holds on a one-core host.
            let e = exec(Storage::new(6, 512), 4).with_obs(profile.clone());
            let st = e.storage().clone();
            let data: Vec<Vec<i64>> = (0..rows).map(|i| vec![i / 3, i % 7]).collect();
            let refs: Vec<&[i64]> = data.iter().map(Vec::as_slice).collect();
            let t = int_file(&st, "T", &["K", "V"], &refs);
            let u = int_file(&st, "U", &["K", "W"], &refs[..refs.len() / 2]);
            st.clear_buffer();
            st.reset_stats();
            let pred = pred_on(&t, "V >= 2");
            let out = Schema::new(vec![
                Column::qualified("O", "K", ColumnType::Int),
                Column::qualified("O", "N", ColumnType::Int),
            ]);
            let aggs = [AggSpec::on(AggFunc::Sum, 1)];
            let ops: [(&str, &dyn Fn() -> HeapFile); 4] = [
                ("filter", &|| e.filter(&t, &pred).unwrap()),
                ("fold", &|| e.group_aggregate(&t, &[0], &aggs, out.clone(), true).unwrap()),
                ("hash join", &|| {
                    e.hash_join(&t, &u, &[0], &[0], None, JoinKind::LeftOuter).unwrap()
                }),
                ("sort", &|| e.sort(&t, &[SortKey::desc(1), SortKey::asc(0)], false)),
            ];
            let mut outputs = Vec::new();
            let mut morsels = Vec::new();
            for (name, op) in ops {
                let node = profile.begin_op(|| name.to_string());
                let counters = profile.current_op().expect("an operator node is open");
                let file = TempFile::new(&st, op());
                profile.end(node);
                outputs.push(file.scan(&st).collect());
                morsels.push(counters.morsels.total());
            }
            *morsels.last_mut().unwrap() = e.workers_for(&t) as u64 - 1;
            (outputs, morsels, st.io_snapshot())
        };
        let serial = |st, _| Exec::new(st);

        // Kim scale: 1 500 rows, the largest input of the paper's home cell.
        let (rows, morsels, io) = run(Exec::with_thread_budget, 1_500);
        assert_eq!(morsels, [0, 0, 0, 0], "a budget stays serial on small inputs");
        let (named_rows, named_morsels, named_io) = run(Exec::with_threads, 1_500);
        assert!(named_morsels.iter().all(|&m| m > 0), "a named count is obeyed: {named_morsels:?}");
        let (serial_rows, serial_morsels, serial_io) = run(serial, 1_500);
        assert_eq!(serial_morsels, [0, 0, 0, 0]);
        assert_eq!((&rows, io), (&serial_rows, serial_io));
        assert_eq!((&named_rows, named_io), (&serial_rows, serial_io));
        assert_eq!(rows[0][0], Tuple::new(vec![Value::Int(0), Value::Int(2)]), "not vacuous");

        // At the constant: every operator of the budgeted executor fans out.
        let at = PAR_MIN_ROWS as i64;
        let (rows, morsels, io) = run(Exec::with_thread_budget, at);
        assert!(morsels.iter().all(|&m| m > 0), "a budget fans out on large inputs: {morsels:?}");
        let (named_rows, named_morsels, named_io) = run(Exec::with_threads, at);
        assert!(named_morsels.iter().all(|&m| m > 0), "{named_morsels:?}");
        let (serial_rows, _, serial_io) = run(serial, at);
        assert_eq!((&rows, io), (&serial_rows, serial_io));
        assert_eq!((&named_rows, named_io), (&serial_rows, serial_io));
        // One row short of it, the scans of T stay serial.
        let (_, morsels, _) = run(Exec::with_thread_budget, at - 1);
        assert_eq!(morsels, [0, 0, 0, 0]);
    }

    #[test]
    fn project_arity_mismatch_is_error() {
        let e = exec();
        let f = int_file(e.storage(), "T", &["A"], &[&[1]]);
        let s = Schema::new(vec![
            Column::new("A", ColumnType::Int),
            Column::new("B", ColumnType::Int),
        ]);
        assert!(e.project(&f, &[CExpr::Col(0)], s, false).is_err());
    }
}
