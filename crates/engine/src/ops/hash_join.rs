//! Hash join — a **modern extension**, not part of the paper.
//!
//! System R (and hence the paper) offered only nested-loop and sort-merge
//! joins; hash joins entered mainstream optimizers later. This operator
//! exists as an ablation point: experiment E13 asks how much of NEST-JA2's
//! advantage survives when the competition gets a better join. The build
//! side is held in memory (no Grace partitioning) — the simulated I/O is
//! one read of each input plus the output write, the best case a real
//! hash join approaches when the build side fits.
//!
//! This is the one operator with two in-memory kernels: the row build and
//! probe, and — under [`Exec::with_vectorized`] — a build and probe on
//! column batches (`nsql-vec`), which hashes keys off typed lanes without
//! allocating a key tuple per row. It is kept because it measured faster:
//! 0.4× to 0.9× of the row kernel's time on whole statements under
//! `ForceHashJoin`, except where the build side is a handful of rows
//! (DESIGN.md "Vectorized execution"). Output order, errors and counted
//! page I/O are identical between them.

use super::{Exec, JoinEmit, JoinKind};
use crate::expr::Joined;
use crate::pred::CPred;
use crate::Result;
use nsql_storage::HeapFile;
use nsql_types::{FxHashMap, FxHasher, Relation, Tuple};
use nsql_vec::Batch;
use std::hash::Hasher;

impl Exec {
    /// Hash equi-join on positionally-paired keys, with optional residual.
    ///
    /// `NULL` keys never match (SQL equality), but unmatched left tuples
    /// are still padded under [`JoinKind::LeftOuter`].
    #[allow(clippy::too_many_arguments)]
    pub fn hash_join(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
    ) -> Result<HeapFile> {
        let schema = left.schema().join(right.schema());
        let emit = JoinEmit::new(right.schema(), None);
        let tuples =
            self.hash_join_tuples(left, right, left_keys, right_keys, residual, kind, emit)?;
        Ok(HeapFile::from_tuples(&self.storage, schema, tuples))
    }

    /// Hash join delivering the result in memory (final operator).
    #[allow(clippy::too_many_arguments)]
    pub fn hash_join_collect(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
    ) -> Result<Relation> {
        self.hash_join_cols(left, right, left_keys, right_keys, residual, kind, None)
    }

    /// [`hash_join_collect`](Exec::hash_join_collect) emitting only `cols`
    /// of the concatenated row (every column when `None`; see
    /// [`JoinEmit`]), on whichever kernel the executor runs.
    #[allow(clippy::too_many_arguments)]
    pub fn hash_join_cols(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        cols: Option<&[usize]>,
    ) -> Result<Relation> {
        let emit = JoinEmit::new(right.schema(), cols);
        let tuples =
            self.hash_join_tuples(left, right, left_keys, right_keys, residual, kind, emit)?;
        Relation::new(emit.schema(left.schema(), right.schema()), tuples)
            .map_err(crate::EngineError::from)
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join_tuples(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        emit: JoinEmit<'_>,
    ) -> Result<Vec<Tuple>> {
        assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
        if self.vectorized {
            return self
                .hash_join_tuples_vec(left, right, left_keys, right_keys, residual, kind, emit);
        }
        // Observability: build/probe wall-clock lands on the current
        // operator. Instant is only sampled when an operator is attached,
        // so the disabled path stays branch-only.
        let op = self.current_op();
        let build_start = op.as_ref().map(|_| std::time::Instant::now());
        // Build on the right side, under the deterministic fast hasher.
        let mut table: FxHashMap<Tuple, Vec<Tuple>> = FxHashMap::default();
        for rt in right.scan(&self.storage) {
            if right_keys.iter().any(|&i| rt.get(i).is_null()) {
                continue; // NULL keys never join
            }
            table.entry(rt.project(right_keys)).or_default().push(rt);
        }

        if let (Some(op), Some(t0)) = (&op, build_start) {
            op.build_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
        }
        let probe_start = op.as_ref().map(|_| std::time::Instant::now());

        // Probe with the left side.
        let mut out = Vec::new();
        for lt in left.scan(&self.storage) {
            let mut matched = false;
            if !left_keys.iter().any(|&i| lt.get(i).is_null()) {
                if let Some(group) = table.get(&lt.project(left_keys)) {
                    for rt in group {
                        let ok = match residual {
                            Some(p) => p.accepts_row(&Joined::new(&lt, rt))?,
                            None => true,
                        };
                        if ok {
                            matched = true;
                            out.push(emit.pair(&lt, rt));
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                out.push(emit.padded(&lt));
            }
        }
        self.finish_probe(&op, probe_start);
        Ok(out)
    }

    /// Vectorized build/probe. Same contract as the row implementation —
    /// output order, error behaviour, and counted page I/O are identical —
    /// but both phases work on column batches: join keys hash straight from
    /// typed column lanes into a `u64`-keyed index table (no per-row key
    /// tuple allocation), candidates verify via `ValRef::total_eq` (the
    /// mirror of the row path's `Tuple` key equality, including `NULL` and
    /// `NaN` grouping and Int/Float cross-matching), and tuples materialize
    /// only for rows that reach the residual or the output.
    #[allow(clippy::too_many_arguments)]
    fn hash_join_tuples_vec(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        emit: JoinEmit<'_>,
    ) -> Result<Vec<Tuple>> {
        let op = self.current_op();
        if let Some(op) = &op {
            op.vectorized.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        let build_start = op.as_ref().map(|_| std::time::Instant::now());

        // Hash the key columns of one batch row. Internal to this join (both
        // sides use it), built on the same ValRef hash stream as Value.
        let key_hash = |b: &Batch, keys: &[usize], row: usize| -> u64 {
            let mut h = FxHasher::default();
            for &k in keys {
                b.col(k).val_ref(row).hash_value(&mut h);
            }
            h.finish()
        };

        // Build: batches stay resident (the row build keeps the right side
        // resident in its hash table too); the table maps a key hash to
        // (batch, row) pairs, each bucket in scan order.
        let mut batches: Vec<Batch> = Vec::with_capacity(right.page_count());
        let mut table: FxHashMap<u64, Vec<(u32, u32)>> = FxHashMap::default();
        for &pid in right.page_ids() {
            let page = self.storage.read_page(pid);
            let b = Batch::from_tuples(page.tuples());
            for row in 0..b.len() {
                if right_keys.iter().any(|&k| b.col(k).val_ref(row).is_null()) {
                    continue; // NULL keys never join
                }
                let at = (batches.len() as u32, row as u32);
                table.entry(key_hash(&b, right_keys, row)).or_default().push(at);
            }
            batches.push(b);
            if let Some(op) = &op {
                op.batches.add(0, 1);
            }
        }

        if let (Some(op), Some(t0)) = (&op, build_start) {
            op.build_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
        }
        let probe_start = op.as_ref().map(|_| std::time::Instant::now());

        // Probe a left batch row at a time: verify hash candidates
        // key-by-key, run the residual on materialized tuples (same 3VL
        // evaluation as the row path), pad under LeftOuter. The probe stops
        // at the first error, before reading further pages — exactly like
        // the row path's streaming scan.
        let mut out = Vec::new();
        for &pid in left.page_ids() {
            let page = self.storage.read_page(pid);
            let lb = Batch::from_tuples(page.tuples());
            if let Some(op) = &op {
                op.batches.add(0, 1);
            }
            for row in 0..lb.len() {
                let mut matched = false;
                if !left_keys.iter().any(|&k| lb.col(k).val_ref(row).is_null()) {
                    if let Some(cands) = table.get(&key_hash(&lb, left_keys, row)) {
                        let mut lt: Option<Tuple> = None;
                        for &(bi, r) in cands {
                            let rb = &batches[bi as usize];
                            let r = r as usize;
                            let keys_match = left_keys.iter().zip(right_keys).all(|(&lk, &rk)| {
                                lb.col(lk).val_ref(row).total_eq(rb.col(rk).val_ref(r))
                            });
                            if !keys_match {
                                continue; // u64 hash collision of a different key
                            }
                            let lt = lt.get_or_insert_with(|| lb.tuple(row));
                            let rt = rb.tuple(r);
                            let ok = match residual {
                                Some(p) => p.accepts_row(&Joined::new(lt, &rt))?,
                                None => true,
                            };
                            if ok {
                                matched = true;
                                out.push(emit.pair(lt, &rt));
                            }
                        }
                    }
                }
                if !matched && kind == JoinKind::LeftOuter {
                    out.push(emit.padded(&lb.tuple(row)));
                }
            }
        }
        self.finish_probe(&op, probe_start);
        Ok(out)
    }

    fn finish_probe(
        &self,
        op: &Option<std::sync::Arc<nsql_obs::OpCounters>>,
        probe_start: Option<std::time::Instant>,
    ) {
        if let (Some(op), Some(t0)) = (op, probe_start) {
            op.probe_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;
    use nsql_storage::Storage;
    use nsql_sql::parse_query;
    use nsql_types::Value;

    fn exec() -> Exec {
        Exec::new(Storage::with_defaults())
    }

    fn on_pred(l: &HeapFile, r: &HeapFile, cond: &str) -> CPred {
        let combined = l.schema().join(r.schema());
        let q = parse_query(&format!("SELECT L.A FROM L, R WHERE {cond}")).unwrap();
        CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
    }

    #[test]
    fn hash_join_equals_nl_join() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A", "X"], &[&[3, 0], &[1, 1], &[3, 2], &[5, 3]]);
        let r = int_file(e.storage(), "R", &["B", "Y"], &[&[3, 10], &[3, 11], &[1, 12]]);
        let on = on_pred(&l, &r, "L.A = R.B");
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let nl = e.nl_join(&l, &r, &on, kind).unwrap();
            let hj = e.hash_join(&l, &r, &[0], &[0], None, kind).unwrap();
            assert!(
                e.collect(&nl).same_bag(&e.collect(&hj)),
                "{kind:?}:\nNL:\n{}\nHJ:\n{}",
                e.collect(&nl),
                e.collect(&hj)
            );
        }
    }

    #[test]
    fn hash_join_residual_and_nulls() {
        let e = exec();
        let st = e.storage().clone();
        let schema = nsql_types::Schema::new(vec![
            nsql_types::Column::qualified("L", "A", nsql_types::ColumnType::Int),
            nsql_types::Column::qualified("L", "X", nsql_types::ColumnType::Int),
        ]);
        let l = HeapFile::from_tuples(
            &st,
            schema,
            vec![
                Tuple::new(vec![Value::Null, Value::Int(0)]),
                Tuple::new(vec![Value::Int(1), Value::Int(5)]),
                Tuple::new(vec![Value::Int(1), Value::Int(6)]),
            ],
        );
        let r = int_file(&st, "R", &["B", "Y"], &[&[1, 5], &[1, 9]]);
        let res = on_pred(&l, &r, "L.X = R.Y");
        let hj = e
            .hash_join(&l, &r, &[0], &[0], Some(&res), JoinKind::LeftOuter)
            .unwrap();
        let mut rows = rows_of(&st, &hj);
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![None, Some(0), None, None],      // NULL key padded
                vec![Some(1), Some(5), Some(1), Some(5)], // residual match
                vec![Some(1), Some(6), None, None],   // residual fails → padded
            ]
        );
    }

    #[test]
    fn vectorized_hash_join_matches_row_join_exactly() {
        // Rows, order, and counted I/O identical across modes, including
        // NULL keys, residuals, and LeftOuter padding.
        let build = |st: &Storage| {
            let schema = nsql_types::Schema::new(vec![
                nsql_types::Column::qualified("L", "A", nsql_types::ColumnType::Int),
                nsql_types::Column::qualified("L", "X", nsql_types::ColumnType::Int),
            ]);
            let l = HeapFile::from_tuples(
                st,
                schema,
                (0..300).map(|i| {
                    Tuple::new(vec![
                        if i % 11 == 0 { Value::Null } else { Value::Int(i % 40) },
                        Value::Int(i),
                    ])
                }),
            );
            let r = int_file(st, "R", &["B", "Y"], &(0..120).map(|i| vec![i % 50, i]).collect::<Vec<_>>().iter().map(|v| v.as_slice()).collect::<Vec<_>>());
            (l, r)
        };
        let run = |vectorized: bool, kind: JoinKind, with_residual: bool| {
            let e = Exec::new(Storage::new(8, 256)).with_vectorized(vectorized);
            let (l, r) = build(e.storage());
            let res = on_pred(&l, &r, "L.X < R.Y");
            e.storage().clear_buffer();
            e.storage().reset_stats();
            let out = e
                .hash_join(&l, &r, &[0], &[0], with_residual.then_some(&res), kind)
                .unwrap();
            (rows_of(e.storage(), &out), e.storage().io_stats(), e.storage().buffer_stats())
        };
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            for with_residual in [false, true] {
                let row = run(false, kind, with_residual);
                let vec = run(true, kind, with_residual);
                assert_eq!(vec, row, "{kind:?} residual={with_residual}");
            }
        }
    }

    #[test]
    fn vectorized_hash_join_groups_int_and_float_keys_like_row_path() {
        // 3 and 3.0 share a bucket on the row path (Value total equality);
        // the vectorized hash/verify pair must reproduce that.
        let run = |vectorized: bool| {
            let e = exec().with_vectorized(vectorized);
            let st = e.storage().clone();
            let ls = nsql_types::Schema::new(vec![nsql_types::Column::qualified(
                "L",
                "A",
                nsql_types::ColumnType::Float,
            )]);
            let l = HeapFile::from_tuples(
                &st,
                ls,
                vec![
                    Tuple::new(vec![Value::Float(3.0)]),
                    Tuple::new(vec![Value::Int(3)]),
                    Tuple::new(vec![Value::Float(f64::NAN)]),
                ],
            );
            let rs = nsql_types::Schema::new(vec![nsql_types::Column::qualified(
                "R",
                "B",
                nsql_types::ColumnType::Int,
            )]);
            let r = HeapFile::from_tuples(
                &st,
                rs,
                vec![Tuple::new(vec![Value::Int(3)]), Tuple::new(vec![Value::Float(f64::NAN)])],
            );
            let out = e.hash_join(&l, &r, &[0], &[0], None, JoinKind::Inner).unwrap();
            e.collect(&out)
        };
        let row = run(false);
        let vec = run(true);
        assert!(row.same_bag(&vec), "row:\n{row}\nvec:\n{vec}");
        assert_eq!(row.len(), 3, "3.0~3, 3~3, NaN~NaN");
    }

    #[test]
    fn hash_join_matches_negative_zero() {
        // -0.0 = 0.0 = 0 under sql_cmp, so nested-loop and merge join pair
        // them; the hashers used to split them by sign bit. Both hash-join
        // implementations must now find all six pairs.
        for vectorized in [false, true] {
            let e = exec().with_vectorized(vectorized);
            let st = e.storage().clone();
            let col = |t: &str, c: &str| {
                nsql_types::Schema::new(vec![nsql_types::Column::qualified(
                    t,
                    c,
                    nsql_types::ColumnType::Float,
                )])
            };
            let l = HeapFile::from_tuples(
                &st,
                col("L", "A"),
                vec![Tuple::new(vec![Value::Float(-0.0)]), Tuple::new(vec![Value::Float(0.0)])],
            );
            let r = HeapFile::from_tuples(
                &st,
                col("R", "B"),
                vec![
                    Tuple::new(vec![Value::Int(0)]),
                    Tuple::new(vec![Value::Float(0.0)]),
                    Tuple::new(vec![Value::Float(-0.0)]),
                ],
            );
            let on = on_pred(&l, &r, "L.A = R.B");
            let nl = e.collect(&e.nl_join(&l, &r, &on, JoinKind::Inner).unwrap());
            let mj = e
                .merge_join(&l, &r, &[0], &[0], None, JoinKind::Inner, false, false)
                .unwrap();
            let hj = e.hash_join(&l, &r, &[0], &[0], None, JoinKind::Inner).unwrap();
            assert_eq!(nl.len(), 6, "vectorized={vectorized}");
            assert_eq!(e.collect(&mj).len(), 6, "vectorized={vectorized}");
            assert_eq!(hj.tuple_count(), 6, "vectorized={vectorized}");
        }
    }

    #[test]
    fn hash_join_io_is_two_scans_plus_output() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &(0..200).map(|i| vec![i]).collect::<Vec<_>>().iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let r = int_file(e.storage(), "R", &["B"], &(0..100).map(|i| vec![i]).collect::<Vec<_>>().iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        e.storage().clear_buffer();
        e.storage().reset_stats();
        let before = e.storage().io_stats();
        let out = e.hash_join(&l, &r, &[0], &[0], None, JoinKind::Inner).unwrap();
        let used = e.storage().io_stats().since(&before);
        assert_eq!(
            used.reads,
            (l.page_count() + r.page_count()) as u64,
            "hash join reads each input exactly once"
        );
        assert_eq!(used.writes, out.page_count() as u64);
    }
}
