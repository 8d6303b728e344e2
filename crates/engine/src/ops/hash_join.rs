//! Hash join — a **modern extension**, not part of the paper, run under
//! the paper's memory model.
//!
//! System R (and hence the paper) offered only nested-loop and sort-merge
//! joins; hash joins entered mainstream optimizers later. This one keeps to
//! Section 7's terms: `B` buffer pages are all the memory it has, and every
//! page it spills is a counted temporary. It builds its table on the input
//! with fewer pages ([`HashShape`]: an inner join; a left outer join builds
//! on the right, and a tie goes right). A build side that fits `B − 2`
//! pages (one page is the probe side's, one the output's) is hashed in
//! memory while the other input streams past it: `Pl + Pr` reads. A larger
//! one is **Grace-partitioned**: both inputs are split, by a hash of the key
//! salted per level, into `clamp(⌈build/(B−2)⌉, 2, B−1)` counted temporary
//! files, each page written as it fills, and every pair of partitions is
//! joined the same way — partitioned again while its build side does not
//! fit, up to [`GRACE_MAX_DEPTH`] levels, where whatever is left is built
//! whole (the all-one-key build side).
//! [`hash_join_cost`](crate::cost::hash_join_cost) prices exactly this.
//! Partitions are private to the join and read once, so they are read past
//! the buffer pool, as the sort's runs are; the inputs go through it.
//!
//! A join that built on the right and did not partition emits its rows in
//! the left input's order; any other emits them in an order nothing may
//! rely on. A tuple whose key holds a `NULL` joins nothing; under
//! [`JoinKind::LeftOuter`] a left one is padded where it is met.
//!
//! The in-memory pass keeps no key tuples. Its table maps the `Value` hash
//! of a build tuple's key columns — the hash partitioning uses, unsalted —
//! to the build tuples that have it, in scan order, and a probe tuple
//! checks every candidate in its bucket column by column with `Value`
//! equality before the residual runs. Keying the table on a key tuple
//! instead would be wrong: `Value` equality is not transitive beyond 2^53
//! (`Float(2^53)` equals both `Int(2^53)` and `Int(2^53 + 1)`, which differ),
//! so a map of key tuples holds those two ints in two entries and a probe
//! finds one. Their hashes are equal, so one bucket holds both, and the
//! check pairs the float with each, as the nested loop does.

use super::{Exec, JoinEmit, JoinKind};
use crate::cost::{grace_fanout, hash_build_fits, HashShape, GRACE_MAX_DEPTH};
use crate::expr::Joined;
use crate::pred::CPred;
use crate::Result;
use nsql_obs::OpCounters;
use nsql_storage::{HeapFile, HeapWriter, Page, PageId, TempFile};
use nsql_types::{FxHashMap, FxHasher, Relation, Tuple};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
        let outer = kind == JoinKind::LeftOuter;
        let b = self.storage.buffer_pages() as f64;
        let shape = HashShape::of(left.page_count() as f64, right.page_count() as f64, outer, b);
        let build_left = shape.build_left;
        let (build, probe, build_keys, probe_keys) = if build_left {
            (left, right, left_keys, right_keys)
        } else {
            (right, left, right_keys, left_keys)
        };
        let op = self.current_op();
        let join = HashJoin {
            exec: self,
            build_keys,
            probe_keys,
            build_left,
            residual,
            pad: outer,
            emit,
            b,
            op,
        };
        let mut out = Vec::new();
        join.run(build, probe, 0, &mut out)?;
        Ok(out)
    }
}

/// One hash join: what its partitioning passes and in-memory passes share.
struct HashJoin<'a> {
    exec: &'a Exec,
    build_keys: &'a [usize],
    probe_keys: &'a [usize],
    /// The table holds left tuples and the right input probes it.
    build_left: bool,
    residual: Option<&'a CPred>,
    /// Pad probe tuples nothing joined: a left outer join (which builds
    /// right, so its probe tuples are the left ones).
    pad: bool,
    emit: JoinEmit<'a>,
    /// Buffer pages `B`.
    b: f64,
    /// Observability: build (partitioning included) and probe wall-clock
    /// land on the current operator. `Instant` is only sampled when one is
    /// attached, so the disabled path stays branch-only.
    op: Option<Arc<OpCounters>>,
}

impl HashJoin<'_> {
    /// Join `build` with `probe` into `out`. At `depth` 0 they are the
    /// operator's inputs; below it, partitions of a pass at `depth − 1`.
    fn run(
        &self,
        build: &HeapFile,
        probe: &HeapFile,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let pages = build.page_count() as f64;
        if depth == GRACE_MAX_DEPTH || hash_build_fits(pages, self.b) {
            return self.in_memory(build, probe, depth, out);
        }
        let t0 = self.clock();
        let fanout = grace_fanout(pages, self.b);
        let builds = self.partition(build, self.build_keys, depth, fanout, false, out);
        let probes = self.partition(probe, self.probe_keys, depth, fanout, self.pad, out);
        self.charge(t0, |op| &op.build_ns);
        // Each pair is freed once it is joined.
        for (build, probe) in builds.into_iter().zip(probes) {
            self.run(&build, &probe, depth + 1, out)?;
        }
        Ok(())
    }

    /// Split `file` `fanout` ways by the hash of its `keys` salted with
    /// `depth`, each partition a file whose pages are written as they fill.
    /// A tuple with a `NULL` key joins nothing: padded into `out` when `pad`,
    /// dropped otherwise.
    fn partition(
        &self,
        file: &HeapFile,
        keys: &[usize],
        depth: u32,
        fanout: usize,
        pad: bool,
        out: &mut Vec<Tuple>,
    ) -> Vec<TempFile> {
        let storage = self.exec.storage();
        let mut parts: Vec<HeapWriter> =
            (0..fanout).map(|_| HeapWriter::new(storage, file.schema().clone())).collect();
        for &pid in file.page_ids() {
            for t in self.page(pid, depth).tuples() {
                if null_key(t, keys) {
                    if pad {
                        out.push(self.emit.padded(t));
                    }
                    continue;
                }
                parts[partition_of(t, keys, depth, fanout)].push(storage, t.clone());
            }
        }
        parts.into_iter().map(|p| TempFile::new(storage, p.finish(storage))).collect()
    }

    /// Build a table of the build tuples bucketed by key hash, then probe
    /// it a tuple at a time, checking each candidate's key.
    fn in_memory(
        &self,
        build: &HeapFile,
        probe: &HeapFile,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let t0 = self.clock();
        let mut table: FxHashMap<u64, Vec<Tuple>> = FxHashMap::default();
        let mut held = 0;
        for &pid in build.page_ids() {
            for bt in self.page(pid, depth).tuples() {
                if null_key(bt, self.build_keys) {
                    continue;
                }
                held += bt.storage_width();
                let hash = key_hash(FxHasher::default(), bt, self.build_keys);
                table.entry(hash).or_default().push(bt.clone());
            }
        }
        self.check_held(held, depth);
        self.charge(t0, |op| &op.build_ns);

        let t0 = self.clock();
        for &pid in probe.page_ids() {
            for pt in self.page(pid, depth).tuples() {
                let mut matched = false;
                if !null_key(pt, self.probe_keys) {
                    let bucket = table.get(&key_hash(FxHasher::default(), pt, self.probe_keys));
                    for bt in bucket.into_iter().flatten() {
                        // A different key with the same hash fails here.
                        let same_key = self
                            .probe_keys
                            .iter()
                            .zip(self.build_keys)
                            .all(|(&pk, &bk)| pt.get(pk) == bt.get(bk));
                        if same_key {
                            matched |= self.emit_if(bt, pt, out)?;
                        }
                    }
                }
                if !matched && self.pad {
                    out.push(self.emit.padded(pt));
                }
            }
        }
        self.charge(t0, |op| &op.probe_ns);
        Ok(())
    }

    /// Emit the pair of build tuple `bt` and probe tuple `pt` if the
    /// residual accepts it; whether it did.
    fn emit_if(&self, bt: &Tuple, pt: &Tuple, out: &mut Vec<Tuple>) -> Result<bool> {
        let (lt, rt) = if self.build_left { (bt, pt) } else { (pt, bt) };
        let ok = match self.residual {
            Some(p) => p.accepts_row(&Joined::new(lt, rt))?,
            None => true,
        };
        if ok {
            out.push(self.emit.pair(lt, rt));
        }
        Ok(ok)
    }

    /// A page of a file at `depth`: an input through the buffer pool, a
    /// partition past it.
    fn page(&self, pid: PageId, depth: u32) -> Arc<Page> {
        let storage = self.exec.storage();
        if depth == 0 {
            storage.read_page(pid)
        } else {
            storage.read_page_direct(pid)
        }
    }

    /// Below the depth cap an in-memory pass holds at most `B − 2` pages of
    /// build tuples (`held` bytes of them).
    fn check_held(&self, held: usize, depth: u32) {
        let pages = held as f64 / self.exec.storage().page_size() as f64;
        debug_assert!(
            depth == GRACE_MAX_DEPTH || hash_build_fits(pages, self.b),
            "an in-memory pass at depth {depth} holds {pages:.2} pages of build tuples, B = {}",
            self.b
        );
    }

    fn clock(&self) -> Option<Instant> {
        self.op.as_ref().map(|_| Instant::now())
    }

    fn charge(&self, t0: Option<Instant>, phase: impl Fn(&OpCounters) -> &AtomicU64) {
        if let (Some(op), Some(t0)) = (&self.op, t0) {
            phase(op).fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Whether a key column of `t` is `NULL` (the tuple then joins nothing).
fn null_key(t: &Tuple, keys: &[usize]) -> bool {
    keys.iter().any(|&k| t.get(k).is_null())
}

/// The hash of `t`'s `keys`, fed into `h` after whatever it already holds.
/// It is `Value`'s hash, which is equal for keys that join (3 and 3.0,
/// -0.0 and 0, and also 2^53 and 2^53 + 1, which do not join each other).
fn key_hash(mut h: FxHasher, t: &Tuple, keys: &[usize]) -> u64 {
    for &k in keys {
        t.get(k).hash(&mut h);
    }
    h.finish()
}

/// The partition of `fanout` a tuple with these `keys` goes to at `depth`.
/// The key hash is salted with the depth, so that a pass splits what the
/// pass above it put in one partition.
fn partition_of(t: &Tuple, keys: &[usize], depth: u32, fanout: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u32(depth + 1);
    ((u128::from(key_hash(h, t, keys)) * fanout as u128) >> 64) as usize
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

    /// A one-column file of `vals` under `table`.`col`, typed `ty`.
    fn value_file(
        st: &Storage,
        table: &str,
        col: &str,
        ty: nsql_types::ColumnType,
        vals: &[Value],
    ) -> HeapFile {
        let schema = nsql_types::Schema::new(vec![nsql_types::Column::qualified(table, col, ty)]);
        HeapFile::from_tuples(st, schema, vals.iter().map(|v| Tuple::new(vec![v.clone()])))
    }

    /// The hash join of `l` and `r` on their first columns, as a bag equal
    /// to the nested loop's and, with `merge`, to the merge join's; its row
    /// count.
    fn hash_join_agrees(e: &Exec, l: &HeapFile, r: &HeapFile, kind: JoinKind, merge: bool) -> usize {
        let on = on_pred(l, r, "L.A = R.B");
        let nl = e.collect(&e.nl_join(l, r, &on, kind).unwrap());
        let hj = e.collect(&e.hash_join(l, r, &[0], &[0], None, kind).unwrap());
        assert!(hj.same_bag(&nl), "{kind:?}:\nNL:\n{nl}\nHJ:\n{hj}");
        if merge {
            let mj = e.merge_join(l, r, &[0], &[0], None, kind, false, false).unwrap();
            let mj = e.collect(&mj);
            assert!(hj.same_bag(&mj), "{kind:?}:\nMJ:\n{mj}\nHJ:\n{hj}");
        }
        hj.len()
    }

    #[test]
    fn hash_join_groups_int_and_float_keys_like_nested_loop() {
        // 3 and 3.0 join, as do NaN and NaN (Value total equality).
        use nsql_types::ColumnType::{Float, Int};
        let e = exec();
        let st = e.storage().clone();
        let l = [Value::Float(3.0), Value::Int(3), Value::Float(f64::NAN)];
        let l = value_file(&st, "L", "A", Float, &l);
        let r = value_file(&st, "R", "B", Int, &[Value::Int(3), Value::Float(f64::NAN)]);
        assert_eq!(hash_join_agrees(&e, &l, &r, JoinKind::Inner, true), 3, "3.0~3, 3~3, NaN~NaN");
    }

    #[test]
    fn hash_join_matches_negative_zero() {
        // -0.0 = 0.0 = 0 under sql_cmp, so nested-loop and merge join pair
        // them; the hash join must find all six pairs too.
        use nsql_types::ColumnType::Float;
        let e = exec();
        let st = e.storage().clone();
        let l = value_file(&st, "L", "A", Float, &[Value::Float(-0.0), Value::Float(0.0)]);
        let r = [Value::Int(0), Value::Float(0.0), Value::Float(-0.0)];
        let r = value_file(&st, "R", "B", Float, &r);
        assert_eq!(hash_join_agrees(&e, &l, &r, JoinKind::Inner, true), 6);
    }

    #[test]
    fn a_float_beyond_2_53_joins_every_int_it_equals() {
        // Float(2^53) equals Int(2^53) and Int(2^53 + 1), which differ from
        // each other: the two ints must land in one bucket and each be paired
        // with the float, whichever side the table is built on. The merge
        // join agrees only with the float on the left: with the ints on the
        // left it pairs the float with the first of them alone.
        use nsql_types::ColumnType::{Float, Int};
        const P: i64 = 1 << 53;
        let e = Exec::new(Storage::new(16, 64));
        let st = e.storage().clone();
        let ints = |t, c| value_file(&st, t, c, Int, &[Value::Int(P), Value::Int(P + 1)]);
        let floats = |t, c, filler: i64| {
            let vals: Vec<Value> = std::iter::once(Value::Float(P as f64))
                .chain((0..filler).map(|i| Value::Float(i as f64)))
                .collect();
            value_file(&st, t, c, Float, &vals)
        };
        // (left, right, whether an inner join builds on the left, whether
        // the merge join agrees)
        let cases = [
            (floats("L", "A", 0), ints("R", "B"), false, true),
            (ints("L", "A"), floats("R", "B", 0), false, false),
            (ints("L", "A"), floats("R", "B", 40), true, false),
        ];
        for (l, r, build_left, merge) in &cases {
            let shape =
                HashShape::of(l.page_count() as f64, r.page_count() as f64, false, 16.0);
            assert_eq!(shape.build_left, *build_left);
            for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                let rows = hash_join_agrees(&e, l, r, kind, *merge);
                assert_eq!(rows, 2, "{kind:?}, build left {build_left}");
            }
        }
    }

    #[test]
    fn keys_that_share_a_hash_are_told_apart() {
        // 2^53 and 2^53 + 1 have one `Value` hash and are different keys: the
        // probe's check, not the table, separates them.
        let e = exec();
        let st = e.storage().clone();
        const P: i64 = 1 << 53;
        let l = int_file(&st, "L", &["A"], &[&[P], &[P + 1]]);
        let r = int_file(&st, "R", &["B"], &[&[P + 1]]);
        let h = |v: i64| key_hash(FxHasher::default(), &Tuple::new(vec![Value::Int(v)]), &[0]);
        assert_eq!(h(P), h(P + 1));
        for (l, r) in [(&l, &r), (&r, &l)] {
            let hj = e.hash_join(l, r, &[0], &[0], None, JoinKind::Inner).unwrap();
            assert_eq!(rows_of(&st, &hj), vec![vec![Some(P + 1), Some(P + 1)]]);
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

    #[test]
    fn each_level_splits_what_the_level_above_put_together() {
        // The salt: of the keys one pass sends to a partition, the next
        // pass sends about as many to each of its partitions, however many.
        let keys: Vec<Tuple> = (0..4000).map(|k| Tuple::new(vec![Value::Int(k)])).collect();
        for depth in 0..GRACE_MAX_DEPTH - 1 {
            for fanout in [2, 5] {
                let together = keys.iter().filter(|t| partition_of(t, &[0], depth, fanout) == 0);
                let mut next = vec![0; fanout];
                for t in together {
                    next[partition_of(t, &[0], depth + 1, fanout)] += 1;
                }
                let even = next.iter().sum::<usize>() / fanout;
                assert!(next.iter().all(|&n| n * 10 > even * 8), "depth {depth}: {next:?}");
            }
        }
        // And the hash is `Value`'s: keys that join share a partition.
        for pair in [[Value::Int(3), Value::Float(3.0)], [Value::Int(0), Value::Float(-0.0)]] {
            let [a, b] = pair.map(|v| Tuple::new(vec![v]));
            assert_eq!(partition_of(&a, &[0], 1, 5), partition_of(&b, &[0], 1, 5));
        }
    }
}
