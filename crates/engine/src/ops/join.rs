//! Join operators: nested-loop and sort-merge, inner, left outer and anti.

use super::{join_reads, Exec, JoinEmit, JoinKind, Narrowed};
use crate::expr::{CExpr, Joined};
use crate::pred::CPred;
use crate::Result;
use nsql_sql::CompareOp;
use nsql_storage::sort::SortKey;
use nsql_storage::{external_sort_narrowed, HeapFile, Page, PageId, Storage, TempFile};
use nsql_types::{ColumnType, FxHashMap, FxHasher, Relation, Schema, Tuple};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::Instant;

/// One leading `Col(left) = Col(right)` conjunct of an ON predicate.
struct NlKey {
    left: usize,
    right: usize,
    /// Declared type of the left column; the right one is of the same
    /// comparison class, so in-class values never raise a type error
    /// against each other under `Value::sql_cmp`.
    ty: ColumnType,
}

/// The equality keys the inner index may use: the *leading* conjuncts of
/// `on` that compare a left column with a right column of the same type
/// class. Only a leading prefix qualifies, because `CPred::And` evaluates
/// left to right and stops at the first `FALSE`: a key that is `FALSE`
/// hides everything after it, but nothing before it. A null-aware equality
/// ([`CPred::NotFalse`], `NOT IN`'s comparison) is a key too: it is `FALSE`
/// exactly where the equality is, and a `NULL` is never ruled out.
fn leading_keys(on: &CPred, left: &Schema, right: &Schema) -> Vec<NlKey> {
    let conjuncts = match on {
        CPred::And(ps) => ps.as_slice(),
        single => std::slice::from_ref(single),
    };
    let split = left.arity();
    let mut keys = Vec::new();
    for p in conjuncts {
        let p = match p {
            CPred::NotFalse(p) => p,
            p => p,
        };
        let CPred::Cmp { left: CExpr::Col(a), op: CompareOp::Eq, right: CExpr::Col(b) } = p
        else {
            break;
        };
        let (l, r) = match (*a < split, *b < split) {
            (true, false) => (*a, *b - split),
            (false, true) => (*b, *a - split),
            _ => break,
        };
        let (Some(lc), Some(rc)) = (left.columns().get(l), right.columns().get(r)) else {
            break;
        };
        if !lc.ty.same_class(rc.ty) {
            break;
        }
        keys.push(NlKey { left: l, right: r, ty: lc.ty });
    }
    keys
}

/// Hash of `t`'s key columns, or `None` when some key value is `NULL` or
/// outside its column's class (such a tuple's key comparison is `UNKNOWN`
/// or an error, never `FALSE`, so the index must not rule anything out for
/// it). Two in-class tuples whose hashes differ have a leading key that
/// compares `FALSE`: `Value::hash` agrees with `sql_cmp` equality.
fn key_hash(t: &Tuple, keys: &[NlKey], col: impl Fn(&NlKey) -> usize) -> Option<u64> {
    let mut h = FxHasher::default();
    for k in keys {
        let v = t.get(col(k));
        if !k.ty.admits(v) {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Position of an inner tuple: ordinal of its page in the file, slot on it.
#[derive(Clone, Copy)]
struct Slot {
    page: u32,
    slot: u32,
}

/// Index over the inner file built by the first inner pass. It holds
/// positions only, in scan order; tuples stay on their buffered pages.
#[derive(Default)]
struct InnerIndex {
    /// Key hash -> inner tuples with that hash.
    buckets: FxHashMap<u64, Vec<Slot>>,
    /// Inner tuples without a hashable key: candidates for every left tuple.
    wild: Vec<Slot>,
}

impl InnerIndex {
    fn add_page(&mut self, page_no: usize, tuples: &[Tuple], keys: &[NlKey]) {
        let page = u32::try_from(page_no).expect("heap file page ordinal fits u32");
        for (i, rt) in tuples.iter().enumerate() {
            let at = Slot { page, slot: u32::try_from(i).expect("page slot fits u32") };
            match key_hash(rt, keys, |k| k.right) {
                Some(h) => self.buckets.entry(h).or_default().push(at),
                None => self.wild.push(at),
            }
        }
    }

    /// The inner tuples a left tuple with key hash `h` can possibly join.
    fn candidates(&self, h: u64) -> Candidates<'_> {
        Candidates {
            bucket: self.buckets.get(&h).map_or(&[], Vec::as_slice),
            wild: &self.wild,
        }
    }
}

/// Cursor merging one bucket with the wild list, page by page in scan order.
struct Candidates<'a> {
    bucket: &'a [Slot],
    wild: &'a [Slot],
}

impl Candidates<'_> {
    /// Next candidate slot on page `page_no`, ascending; `None` once the
    /// page is exhausted. Pages must be asked for in file order.
    fn next_on(&mut self, page_no: usize) -> Option<usize> {
        let on_page = |s: &&Slot| s.page as usize == page_no;
        let b = self.bucket.first().filter(on_page);
        let w = self.wild.first().filter(on_page);
        let list = match (b, w) {
            (None, None) => return None,
            (Some(_), None) => &mut self.bucket,
            (None, Some(_)) => &mut self.wild,
            (Some(b), Some(w)) => {
                if b.slot < w.slot {
                    &mut self.bucket
                } else {
                    &mut self.wild
                }
            }
        };
        let (first, rest) = list.split_first().expect("a head was just seen");
        *list = rest;
        Some(first.slot as usize)
    }
}

/// Cursor over a heap file's tuples, in place on their buffered pages. It
/// reads a page exactly when the [`HeapFile::scan`] it stands in for would
/// under `Peekable`: on the first [`peek`](PageCursor::peek) after the
/// previous page's last tuple was passed, never on
/// [`advance`](PageCursor::advance).
struct PageCursor<'a> {
    storage: &'a Storage,
    pages: &'a [PageId],
    /// The page under the head; `slot` may be one past its last tuple.
    page: Option<Arc<Page>>,
    slot: usize,
}

impl<'a> PageCursor<'a> {
    fn new(storage: &'a Storage, file: &'a HeapFile) -> PageCursor<'a> {
        PageCursor { storage, pages: file.page_ids(), page: None, slot: 0 }
    }

    /// The head tuple, fetching the next non-empty page if the head has
    /// moved off the current one; `None` at the end of the file.
    fn peek(&mut self) -> Option<&Tuple> {
        while self.page.as_ref().is_none_or(|p| self.slot >= p.len()) {
            let (&id, rest) = self.pages.split_first()?;
            self.pages = rest;
            self.page = Some(self.storage.read_page(id));
            self.slot = 0;
        }
        self.page.as_ref().map(|p| &p.tuples()[self.slot])
    }

    /// Pass the head tuple (which a `peek` has returned). No I/O.
    fn advance(&mut self) {
        self.slot += 1;
    }
}

impl Exec {
    /// Nested-loop join: for each left tuple, rescan the right file and
    /// emit combinations accepted by `on` (a predicate over the
    /// concatenated schema).
    ///
    /// **I/O.** Every page of the right file is re-read through the buffer
    /// pool for every left tuple, in file order — cheap when it fits in
    /// the buffer, thrashing when it does not. That is exactly the cost
    /// cliff of System R's nested iteration that the paper's Section 7.2
    /// analyses, and it is what the counters, the buffer state and any
    /// recorded trace show.
    ///
    /// **CPU.** When `on` starts with `Col(left) = Col(right)` conjuncts
    /// (the keys the plan layer folds in front of the residual), the first
    /// inner pass also builds a hash index from key to inner tuple
    /// positions, and every later pass evaluates `on` only on the positions
    /// its left tuple's key can match. `on` stays the arbiter: the index
    /// skips a pair only when a leading key comparison is certainly
    /// `FALSE`, so `NULL` or off-type keys on either side, errors raised by
    /// any conjunct, output order and outer-join padding are exactly those
    /// of evaluating `on` on every pair. Without a usable leading key every
    /// pass is that full evaluation. An anti-join reads and evaluates what
    /// the inner join does, and emits a left tuple instead of its pairs
    /// when none was accepted.
    ///
    /// With an operator attached, `build_ns` is the first inner pass and
    /// `probe_ns` the rest.
    pub fn nl_join(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        on: &CPred,
        kind: JoinKind,
    ) -> Result<HeapFile> {
        let schema = left.schema().join(right.schema());
        let emit = JoinEmit::new(right.schema(), None);
        let tuples = self.nl_join_tuples(left, right, on, kind, emit)?;
        Ok(HeapFile::from_tuples(&self.storage, schema, tuples))
    }

    /// Nested-loop join delivering the result in memory (final operator).
    pub fn nl_join_collect(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        on: &CPred,
        kind: JoinKind,
    ) -> Result<Relation> {
        self.nl_join_cols(left, right, on, kind, None)
    }

    /// [`nl_join_collect`](Exec::nl_join_collect) emitting only `cols` of
    /// the concatenated row (every column when `None`; see [`JoinEmit`]).
    /// `on` is still a predicate over the whole concatenated schema.
    pub fn nl_join_cols(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        on: &CPred,
        kind: JoinKind,
        cols: Option<&[usize]>,
    ) -> Result<Relation> {
        let emit = JoinEmit::new(right.schema(), cols);
        let tuples = self.nl_join_tuples(left, right, on, kind, emit)?;
        Relation::new(emit.schema(left.schema(), right.schema()), tuples)
            .map_err(crate::EngineError::from)
    }

    fn nl_join_tuples(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        on: &CPred,
        kind: JoinKind,
        emit: JoinEmit<'_>,
    ) -> Result<Vec<Tuple>> {
        let keys = leading_keys(on, left.schema(), right.schema());
        // Build/probe wall-clock lands on the current operator; Instant is
        // only sampled when one is attached.
        let op = self.current_op();
        let started = op.as_ref().map(|_| Instant::now());
        let mut build_ns = 0u64;
        // `None` until the first inner pass has run (and forever when `on`
        // has no leading key): such passes evaluate `on` on every slot.
        let mut index: Option<InnerIndex> = None;
        let (pairs, unmatched) = (kind.emits_pairs(), kind.keeps_unmatched());
        let mut out = Vec::new();
        for lt in left.scan(&self.storage) {
            let mut matched = false;
            let mut err = None;
            // The ON predicate is evaluated on the virtual pair; the
            // concatenated tuple is only built for pairs that pass, and
            // right tuples are never cloned off their buffered page.
            let mut try_pair = |rt: &Tuple| match on.accepts_row(&Joined::new(&lt, rt)) {
                Ok(true) => {
                    matched = true;
                    if pairs {
                        out.push(emit.pair(&lt, rt));
                    }
                }
                Ok(false) => {}
                Err(e) => {
                    if err.is_none() {
                        err = Some(e);
                    }
                }
            };
            let mut candidates = match &index {
                Some(ix) => key_hash(&lt, &keys, |k| k.left).map(|h| ix.candidates(h)),
                None => None,
            };
            let mut building =
                (index.is_none() && !keys.is_empty()).then(InnerIndex::default);
            // Every inner page is read on every pass, whatever the index
            // says: an index may save CPU on a page, never the page read.
            for (page_no, &pid) in right.page_ids().iter().enumerate() {
                let page = self.storage.read_page(pid);
                let tuples = page.tuples();
                if let Some(ix) = &mut building {
                    ix.add_page(page_no, tuples, &keys);
                }
                match &mut candidates {
                    Some(c) => {
                        while let Some(slot) = c.next_on(page_no) {
                            try_pair(&tuples[slot]);
                        }
                    }
                    None => tuples.iter().for_each(&mut try_pair),
                }
            }
            if let Some(e) = err {
                return Err(e);
            }
            if !matched && unmatched {
                out.push(emit.padded(&lt));
            }
            if let Some(ix) = building {
                index = Some(ix);
                if let Some(t0) = started {
                    build_ns = t0.elapsed().as_nanos() as u64;
                }
            }
        }
        if let (Some(op), Some(t0)) = (&op, started) {
            let total_ns = t0.elapsed().as_nanos() as u64;
            op.build_ns.fetch_add(build_ns, AtomicOrdering::Relaxed);
            op.probe_ns.fetch_add(total_ns - build_ns, AtomicOrdering::Relaxed);
        }
        Ok(out)
    }

    /// Sort-merge equi-join on `left_keys` = `right_keys` (positionally
    /// paired), with an optional residual predicate over the concatenated
    /// schema.
    ///
    /// Inputs are sorted first unless the corresponding `presorted` flag is
    /// set (the paper's NEST-JA2 exploits exactly these "already in join
    /// column order" savings — Section 7.4). For [`JoinKind::LeftOuter`],
    /// unmatched left tuples are emitted `NULL`-padded; as the paper notes
    /// (Section 7.2), the merge outer join costs the same as the standard
    /// merge join since both relations are scanned in sorted order. The
    /// anti-join emits those tuples alone.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_join(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        left_presorted: bool,
        right_presorted: bool,
    ) -> Result<HeapFile> {
        let schema = left.schema().join(right.schema());
        let tuples = self.merge_join_tuples(
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            left_presorted,
            right_presorted,
            JoinEmit::new(right.schema(), None),
        )?;
        Ok(HeapFile::from_tuples(&self.storage, schema, tuples))
    }

    /// Sort-merge join delivering the result in memory (final operator).
    #[allow(clippy::too_many_arguments)]
    pub fn merge_join_collect(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        left_presorted: bool,
        right_presorted: bool,
    ) -> Result<Relation> {
        self.merge_join_cols(
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            left_presorted,
            right_presorted,
            None,
        )
    }

    /// [`merge_join_collect`](Exec::merge_join_collect) emitting only
    /// `cols` of the concatenated row (every column when `None`; see
    /// [`JoinEmit`]). Keys index their own side and `residual` the whole
    /// concatenated schema, as before.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_join_cols(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        left_presorted: bool,
        right_presorted: bool,
        cols: Option<&[usize]>,
    ) -> Result<Relation> {
        let emit = JoinEmit::new(right.schema(), cols);
        let tuples = self.merge_join_tuples(
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            left_presorted,
            right_presorted,
            emit,
        )?;
        Relation::new(emit.schema(left.schema(), right.schema()), tuples)
            .map_err(crate::EngineError::from)
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_join_tuples(
        &self,
        left: &HeapFile,
        right: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        left_presorted: bool,
        right_presorted: bool,
        emit: JoinEmit<'_>,
    ) -> Result<Vec<Tuple>> {
        assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
        // A side that is sorted here is sorted narrowed to the columns the
        // join reads; one that arrives sorted is merged whole.
        let (la, ra) = (left.schema().arity(), right.schema().arity());
        let [lreads, rreads] = join_reads(la, ra, left_keys, right_keys, residual, emit.cols);
        let keep = |reads: Vec<usize>, arity, presorted| match presorted {
            true => (0..arity).collect(),
            false => reads,
        };
        let keep = [keep(lreads, la, left_presorted), keep(rreads, ra, right_presorted)];
        let n = Narrowed::new(keep, la, left_keys, right_keys, residual, emit.cols, &[]);
        let sorted = |file: &HeapFile, keys: &[usize], keep: &[usize], presorted: bool| {
            (!presorted).then(|| {
                let keys: Vec<SortKey> = keys.iter().map(|&i| SortKey::asc(i)).collect();
                let file = if keep.len() < file.schema().arity() {
                    external_sort_narrowed(&self.storage, file, keep, &keys)
                } else {
                    self.sort(file, &keys, false)
                };
                TempFile::new(&self.storage, file)
            })
        };
        let lsorted = sorted(left, &n.left_keys, &n.keep[0], left_presorted);
        let rsorted = sorted(right, &n.right_keys, &n.keep[1], right_presorted);
        let out = self.merge_sorted(
            lsorted.as_deref().unwrap_or(left),
            rsorted.as_deref().unwrap_or(right),
            &n.left_keys,
            &n.right_keys,
            n.residual.as_ref(),
            kind,
            n.emit(),
        );
        // Whether the merge succeeded or not, the sorted copies go left
        // then right, after its last page read and before any result page
        // is written.
        drop(lsorted);
        drop(rsorted);
        out
    }

    /// Merge two files that lie in key order.
    #[allow(clippy::too_many_arguments)]
    fn merge_sorted(
        &self,
        lfile: &HeapFile,
        rfile: &HeapFile,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        emit: JoinEmit<'_>,
    ) -> Result<Vec<Tuple>> {
        // Key columns are compared where the tuples lie on their buffered
        // pages; only group members (a reference-count bump each) and
        // emitted rows leave them.
        let key_order = |a: &Tuple, a_keys: &[usize], b: &Tuple, b_keys: &[usize]| {
            a_keys
                .iter()
                .zip(b_keys)
                .map(|(&i, &j)| a.get(i).total_cmp(b.get(j)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut out = Vec::new();
        let mut lcur = PageCursor::new(&self.storage, lfile);
        let mut rcur = PageCursor::new(&self.storage, rfile);
        // Current right group: consecutive right tuples sharing a key, and
        // the left tuple whose key gathered them (`None`: no group).
        let mut group: Vec<Tuple> = Vec::new();
        let mut group_of: Option<Tuple> = None;
        let (pairs, unmatched) = (kind.emits_pairs(), kind.keeps_unmatched());

        while let Some(lt) = lcur.peek() {
            let same_group = group_of
                .as_ref()
                .is_some_and(|g| key_order(g, left_keys, lt, left_keys).is_eq());
            if !same_group {
                // Beyond 2^53 an Int equals a Float that the Int before it
                // equals too (`Int(2^53 + 1)` and `Int(2^53)` both equal
                // `Float(2^53)`): the tail of the previous group may match
                // this key as well, and the right cursor has passed it.
                let vs_left = |rt: &Tuple| key_order(rt, right_keys, lt, left_keys);
                if group.last().is_some_and(|rt| vs_left(rt).is_eq()) {
                    group.retain(|rt| vs_left(rt).is_eq());
                } else {
                    group.clear();
                }
                // Advance the right side until its key >= left key, then
                // gather the tuples that land on equality.
                while rcur.peek().is_some_and(|rt| vs_left(rt).is_lt()) {
                    rcur.advance();
                }
                while let Some(rt) = rcur.peek().filter(|rt| vs_left(rt).is_eq()) {
                    group.push(rt.clone());
                    rcur.advance();
                }
                group_of = (!group.is_empty()).then(|| lt.clone());
            }
            // NULL keys never join (SQL equality is unknown on NULL).
            let key_has_null = left_keys.iter().any(|&i| lt.get(i).is_null());
            let mut matched = false;
            if !key_has_null && group_of.is_some() {
                for rt in &group {
                    let ok = match residual {
                        Some(p) => p.accepts_row(&Joined::new(lt, rt))?,
                        None => true,
                    };
                    if ok {
                        matched = true;
                        if pairs {
                            out.push(emit.pair(lt, rt));
                        }
                    }
                }
            }
            if !matched && unmatched {
                out.push(emit.padded(lt));
            }
            lcur.advance();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;
    use nsql_sql::parse_query;

    fn exec() -> Exec {
        Exec::new(Storage::with_defaults())
    }

    fn on_pred(l: &HeapFile, r: &HeapFile, cond: &str) -> CPred {
        let combined = l.schema().join(r.schema());
        let q = parse_query(&format!("SELECT L.A FROM L, R WHERE {cond}")).unwrap();
        CPred::compile(&combined, q.where_clause.as_ref().unwrap()).unwrap()
    }

    #[test]
    fn nl_inner_join_matches() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1], &[2], &[3]]);
        let r = int_file(e.storage(), "R", &["B"], &[&[2], &[3], &[3]]);
        let on = on_pred(&l, &r, "L.A = R.B");
        let out = e.nl_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let mut rows = rows_of(e.storage(), &out);
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Some(2), Some(2)],
                vec![Some(3), Some(3)],
                vec![Some(3), Some(3)]
            ]
        );
    }

    #[test]
    fn nl_left_outer_pads_unmatched() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1], &[2]]);
        let r = int_file(e.storage(), "R", &["B"], &[&[2]]);
        let on = on_pred(&l, &r, "L.A = R.B");
        let out = e.nl_join(&l, &r, &on, JoinKind::LeftOuter).unwrap();
        let mut rows = rows_of(e.storage(), &out);
        rows.sort();
        assert_eq!(rows, vec![vec![Some(1), None], vec![Some(2), Some(2)]]);
    }

    #[test]
    fn leading_keys_take_only_the_equality_prefix() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A", "X"], &[]);
        let r = int_file(e.storage(), "R", &["B", "Y"], &[]);
        let keys = |cond: &str| -> Vec<(usize, usize)> {
            leading_keys(&on_pred(&l, &r, cond), l.schema(), r.schema())
                .iter()
                .map(|k| (k.left, k.right))
                .collect()
        };
        assert_eq!(keys("L.A = R.B"), [(0, 0)]);
        assert_eq!(keys("R.Y = L.X AND L.A = R.B AND L.X < R.Y"), [(1, 1), (0, 0)]);
        // A key behind any other conjunct is not leading: that conjunct may
        // raise an error the key's FALSE would not have hidden.
        assert_eq!(keys("L.X < R.Y AND L.A = R.B"), []);
        assert_eq!(keys("L.A = R.B AND L.A = L.X AND L.X = R.Y"), [(0, 0)]);
        assert_eq!(keys("L.A = R.B OR L.X = R.Y"), []);
        assert_eq!(keys("L.A <> R.B"), []);
    }

    #[test]
    fn nl_join_index_keeps_null_and_off_type_keys_as_candidates() {
        // Neither NULL = x (UNKNOWN) nor 'k' = 1 (a type error) is FALSE, so
        // the index may not hide such pairs from the predicate: the string
        // key must still surface its error, exactly as a pair scan would.
        use nsql_types::{Column, ColumnType, Value};
        let e = exec();
        let st = e.storage().clone();
        let file = |t: &str, c: &str, vals: Vec<Value>| {
            HeapFile::from_tuples(
                &st,
                Schema::new(vec![Column::qualified(t, c, ColumnType::Int)]),
                vals.into_iter().map(|v| Tuple::new(vec![v])),
            )
        };
        let l = file("L", "A", vec![Value::Int(1), Value::Null, Value::Int(2)]);
        let clean = file("R", "B", vec![Value::Null, Value::Int(2), Value::Float(2.0)]);
        let on = on_pred(&l, &clean, "L.A = R.B");
        let out = e.nl_join(&l, &clean, &on, JoinKind::LeftOuter).unwrap();
        assert_eq!(e.collect(&out).len(), 4, "1 and NULL padded, 2 matches 2 and 2.0");
        let dirty = file("R", "B", vec![Value::Int(1), Value::str("k")]);
        let on = on_pred(&l, &dirty, "L.A = R.B");
        assert!(e.nl_join(&l, &dirty, &on, JoinKind::Inner).is_err());
    }

    #[test]
    fn nl_join_reports_build_and_probe_time_to_the_attached_operator() {
        let profile = nsql_obs::Profile::with_probe(Default::default);
        let e = exec().with_obs(profile.clone());
        let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i % 50]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let l = int_file(e.storage(), "L", &["A"], &refs);
        let r = int_file(e.storage(), "R", &["B"], &refs);
        let on = on_pred(&l, &r, "L.A = R.B");
        let node = profile.begin_op(|| "nested-loop join (1 keys)".to_string());
        e.nl_join_collect(&l, &r, &on, JoinKind::Inner).unwrap();
        profile.end(node);
        let node = &profile.finish()[0];
        let op = node.op.as_ref().expect("an operator node");
        assert!(op.build_ns > 0 && op.probe_ns > 0, "{node:?}");
        let mut lines = Vec::new();
        node.render_into(0, &mut lines);
        assert!(lines[0].contains("(build "), "{lines:?}");
    }

    #[test]
    fn nl_join_supports_inequality() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1], &[3]]);
        let r = int_file(e.storage(), "R", &["B"], &[&[2]]);
        let on = on_pred(&l, &r, "R.B < L.A");
        let out = e.nl_join(&l, &r, &on, JoinKind::Inner).unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(3), Some(2)]]);
    }

    #[test]
    fn merge_join_equals_nl_join() {
        let e = exec();
        let l = int_file(
            e.storage(),
            "L",
            &["A", "X"],
            &[&[3, 0], &[1, 1], &[2, 2], &[3, 3], &[5, 4]],
        );
        let r = int_file(
            e.storage(),
            "R",
            &["B", "Y"],
            &[&[3, 10], &[3, 11], &[2, 12], &[9, 13]],
        );
        let on = on_pred(&l, &r, "L.A = R.B");
        let nl = e.nl_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let mj = e
            .merge_join(&l, &r, &[0], &[0], None, JoinKind::Inner, false, false)
            .unwrap();
        let a = e.collect(&nl);
        let b = e.collect(&mj);
        assert!(a.same_bag(&b), "\nNL:\n{a}\nMJ:\n{b}");
    }

    #[test]
    fn merge_left_outer_equals_nl_left_outer() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1], &[2], &[2], &[4]]);
        let r = int_file(e.storage(), "R", &["B"], &[&[2], &[2], &[3]]);
        let on = on_pred(&l, &r, "L.A = R.B");
        let nl = e.nl_join(&l, &r, &on, JoinKind::LeftOuter).unwrap();
        let mj = e
            .merge_join(&l, &r, &[0], &[0], None, JoinKind::LeftOuter, false, false)
            .unwrap();
        assert!(e.collect(&nl).same_bag(&e.collect(&mj)));
    }

    #[test]
    fn merge_join_residual_filters_within_groups() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A", "X"], &[&[1, 5], &[1, 6]]);
        let r = int_file(e.storage(), "R", &["B", "Y"], &[&[1, 5], &[1, 7]]);
        let res = on_pred(&l, &r, "L.X = R.Y");
        let out = e
            .merge_join(&l, &r, &[0], &[0], Some(&res), JoinKind::Inner, false, false)
            .unwrap();
        assert_eq!(rows_of(e.storage(), &out), vec![vec![Some(1), Some(5), Some(1), Some(5)]]);
    }

    #[test]
    fn erroring_residual_frees_both_sorted_inputs() {
        // The residual compares a number with a string on the first pair it
        // sees: both inputs have been sorted into files of their own by
        // then, and neither may outlive the error.
        use nsql_types::{Column, ColumnType, Value};
        let e = exec();
        let st = e.storage().clone();
        let file = |t: &str, v: Value| {
            let schema = Schema::new(vec![
                Column::qualified(t, "A", ColumnType::Int),
                Column::qualified(t, "X", ColumnType::Int),
            ]);
            let rows = (0..40).map(|i| Tuple::new(vec![Value::Int(i % 7), v.clone()]));
            HeapFile::from_tuples(&st, schema, rows)
        };
        let l = file("L", Value::Int(1));
        let r = file("R", Value::str("k"));
        let res = on_pred(&l, &r, "L.X < R.X");
        let live = st.live_pages();
        let stored = e
            .merge_join(&l, &r, &[0], &[0], Some(&res), JoinKind::Inner, false, false)
            .map(|f| f.tuple_count());
        assert_eq!(st.live_pages(), live, "merge_join leaked on {stored:?}");
        let collected = e
            .merge_join_collect(&l, &r, &[0], &[0], Some(&res), JoinKind::LeftOuter, false, false)
            .map(|rel| rel.len());
        assert_eq!(st.live_pages(), live, "merge_join_collect leaked on {collected:?}");
        let want = "Err(Type(Incomparable(\"int\", \"string\")))";
        assert_eq!((format!("{stored:?}"), format!("{collected:?}")), (want.into(), want.into()));
    }

    #[test]
    fn null_keys_never_match_but_outer_pads() {
        let e = exec();
        let st = e.storage().clone();
        let schema = nsql_types::Schema::new(vec![nsql_types::Column::qualified(
            "L",
            "A",
            nsql_types::ColumnType::Int,
        )]);
        let l = HeapFile::from_tuples(
            &st,
            schema,
            vec![
                Tuple::new(vec![nsql_types::Value::Null]),
                Tuple::new(vec![nsql_types::Value::Int(1)]),
            ],
        );
        let r = int_file(&st, "R", &["B"], &[&[1]]);
        let mj = e
            .merge_join(&l, &r, &[0], &[0], None, JoinKind::LeftOuter, false, false)
            .unwrap();
        let mut rows = rows_of(&st, &mj);
        rows.sort();
        assert_eq!(rows, vec![vec![None, None], vec![Some(1), Some(1)]]);
    }

    #[test]
    fn empty_sides() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1]]);
        let empty = int_file(e.storage(), "R", &["B"], &[]);
        let on = on_pred(&l, &empty, "L.A = R.B");
        let inner = e.nl_join(&l, &empty, &on, JoinKind::Inner).unwrap();
        assert_eq!(inner.tuple_count(), 0);
        let outer = e
            .merge_join(&l, &empty, &[0], &[0], None, JoinKind::LeftOuter, false, false)
            .unwrap();
        assert_eq!(rows_of(e.storage(), &outer), vec![vec![Some(1), None]]);
        let rev = e.nl_join(&empty, &l, &on_pred(&empty, &l, "R.B = L.A"), JoinKind::LeftOuter);
        assert_eq!(rev.unwrap().tuple_count(), 0);
    }

    #[test]
    fn multi_key_merge_join() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A", "B"], &[&[1, 1], &[1, 2], &[2, 1]]);
        let r = int_file(e.storage(), "R", &["C", "D"], &[&[1, 1], &[1, 2], &[2, 2]]);
        let mj = e
            .merge_join(&l, &r, &[0, 1], &[0, 1], None, JoinKind::Inner, false, false)
            .unwrap();
        let mut rows = rows_of(e.storage(), &mj);
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Some(1), Some(1), Some(1), Some(1)],
                vec![Some(1), Some(2), Some(1), Some(2)]
            ]
        );
    }

    #[test]
    fn presorted_inputs_skip_sorting_io() {
        let e = exec();
        let l = int_file(e.storage(), "L", &["A"], &[&[1], &[2], &[3]]);
        let r = int_file(e.storage(), "R", &["B"], &[&[1], &[2]]);
        e.storage().reset_stats();
        let before = e.storage().io_stats();
        let _ = e
            .merge_join(&l, &r, &[0], &[0], None, JoinKind::Inner, true, true)
            .unwrap();
        let used = e.storage().io_stats().since(&before);
        // Just reads of both files plus writing the (1-page) result.
        assert_eq!(used.reads, (l.page_count() + r.page_count()) as u64);
        assert!(used.writes <= 1);
    }
}
