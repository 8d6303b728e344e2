//! Hash join — a **modern extension**, not part of the paper, run under
//! the paper's memory model.
//!
//! System R (and hence the paper) offered only nested-loop and sort-merge
//! joins; hash joins entered mainstream optimizers later. This one keeps to
//! Section 7's terms: `B` buffer pages are all the memory it has, and every
//! page it spills is a counted temporary. It builds its table on the input
//! with fewer pages ([`HashShape`]: an inner join or an anti-join; a left
//! outer join builds on the right, and a tie goes right). A build side that
//! fits `B − 2` pages (one page is the probe side's, one the output's) is
//! hashed in memory while the other input streams past it: `Pl + Pr` reads.
//! A larger one is split by one **hybrid** pass (DeWitt et al., SIGMOD 1984;
//! Shapiro, TODS 1986), by a hash of the key salted per level. The build
//! tuples whose hash falls in a resident share of the range stay in memory
//! as a table of at most `B − 2 − k` pages; the others go to `k` spilled
//! partitions, counted temporary files each written a page at a time as it
//! fills. While the probe side is split the same way, its tuples in the
//! resident share probe that table at once and are never written. Should
//! the table outgrow its pages — skewed keys, a build side of one key — it
//! is **demoted**: its tuples, and every later one of its share, are
//! written as one more spilled partition, so the pass stays deterministic
//! and within `B`. [`HashShape`] decides `k` and the resident share from
//! the table's pages and `B`; a table too large for any `k` keeps nothing
//! resident, and the pass is Grace's. Every spilled pair is joined the same
//! way — split again while its build side does not fit, up to
//! [`GRACE_MAX_DEPTH`] levels, where whatever is left is built whole (the
//! all-one-key build side). [`hash_join_cost`](crate::cost::hash_join_cost)
//! prices exactly this. Partitions are private to the join and read once,
//! so they are read past the buffer pool, as the sort's runs are; the inputs
//! go through it. A spilled row carries only the columns the join reads —
//! its keys, its residual's columns and what it emits ([`join_reads`]) —
//! and the passes below the first run on them with keys, residual and
//! output list remapped; a resident row is the input's own tuple, a
//! reference, not a copy. A build side that fits may be rows held in memory
//! ([`RowsRef::Held`]), read where they lie.
//!
//! Either side of a hash join's pass over its own inputs, or both, and the
//! right side of a groupjoin's, may be a pipe ([`Restriction`],
//! [`HashInput::Pipe`]): a restriction and projection of a file that has
//! not run, which the pass runs as it reads each source page, once, through
//! the buffer pool — the restricted rows are never written and read back —
//! counting the rows it makes and the pages they would fill. Its bound
//! stands in for its pages where the build side is chosen. A pipe probe
//! side is split as it streams: a row in the resident share probes the
//! table at once, and any other goes to its spilled partition, projected
//! from the source tuple straight to the columns the partition carries. A
//! pipe build side needs its size for one thing, the split, and until its
//! table first overflows `B − 2` pages no row has gone anywhere but the
//! table: the pass starts as an in-memory build, and the first row that
//! would overflow it fixes the shape on the pages made so far and the
//! pipe's bound on the source pages from the one being read on — an upper
//! bound, so the planned resident share is not overfilled because an
//! estimate ran low. The rows the table holds are placed as that shape
//! says, and the pass goes on as a hybrid pass; a pipe that never overflows
//! is built in memory. [`Exec::hash_join_cols`] returns the shape its first
//! pass ran. No pipe reaches a pass a level down, a groupjoin's table or
//! the probe side of a chunked pass, which reads it once per chunk; held
//! rows reach only the build side of a pass that holds its whole table
//! (`check_hand_off`).
//!
//! The in-memory pass and the resident share of a hybrid pass are the same
//! steps ([`HashJoin::table`], [`HashJoin::insert`], [`HashJoin::probe`],
//! [`HashJoin::finish`]) for every sink: the pairs of the hash join, the
//! anti-join built on either side and the groupjoin's groups.
//!
//! A join that built on the right and did not partition emits its rows in
//! the left input's order; any other emits them in an order nothing may
//! rely on. A tuple whose key holds a `NULL` joins nothing; under
//! [`JoinKind::LeftOuter`] a left one is padded where it is met, and under
//! [`JoinKind::Anti`] it is emitted there.
//!
//! The **anti-join** emits each left tuple that no right tuple matches,
//! as the left outer join pads it. Built on the right, it is the left outer
//! join's probe that emits only the tuples it would pad, each at its first
//! match ruled out. Built on the left, the table holds every left tuple
//! with a matched flag, as the groupjoin holds its groups; a right tuple
//! sets the flag of each tuple it matches, a flagged tuple is not tested
//! again, and the unflagged ones are emitted in build order once the probe
//! side ends. Either way, one that did not partition keeps the left
//! input's order.
//!
//! A table keeps no key tuples. It maps the `Value` hash of a build
//! tuple's key columns — the hash partitioning uses, unsalted — to the
//! build tuples that have it, in scan order (chained through one array,
//! so a key costs no allocation of its own), and a probe tuple
//! checks every candidate in its bucket column by column with `Value`
//! equality before the residual runs. Keying the table on a key tuple
//! instead would be wrong: `Value` equality is not transitive beyond 2^53
//! (`Float(2^53)` equals both `Int(2^53)` and `Int(2^53 + 1)`, which differ),
//! so a map of key tuples holds those two ints in two entries and a probe
//! finds one. Their hashes are equal, so one bucket holds both, and the
//! check pairs the float with each, as the nested loop does.
//!
//! The **groupjoin** ([`Exec::hash_groupjoin`]; Moerkotte & Neumann, VLDB
//! 2011) is the same driver with a second in-memory sink. It is a join of a
//! duplicate-free left input followed by a GROUP BY on the left's columns
//! of aggregates over right columns, done as one pass: the table is built
//! on the left, one aggregate state per aggregate per left row, and each
//! right tuple is folded into the states of every left tuple whose key it
//! equals (under `Value` equality, so `Float(2^53)` feeds both ints) and
//! the residual accepts. No joined row is built. It emits one row per left
//! tuple, the tuple and its aggregates, in the left input's order when it
//! did not partition. It charges its table at the width of those rows
//! ([`groupjoin_table_pages`]) and partitions a larger one as the join
//! partitions its build side. A left tuple nothing joined is dropped,
//! aggregates one all-`NULL` row — `COUNT(col)` 0, `COUNT(*)` 1, anything
//! else `NULL`, as the GROUP BY over a left outer join's padded row gives
//! — or takes the value of an empty group ([`Unjoined`]).
//!
//! A groupjoin may pair the sides on several **key sets** ([`KeySet`]), one
//! per disjunct of a correlation `D1 OR D2 OR …` (DESIGN.md "Disjunctive
//! correlation"): the table keeps one chain per key set, a left tuple in
//! each whose key it has, and a right tuple looks in every chain, is folded
//! at most once into each group it finds, and only where the residual — the
//! whole correlation — accepts the pair. No hash of one key set partitions
//! a disjunction, so a table over `B − 2` pages is taken in chunks of
//! `B − 2` pages in scan order, the right input read once per chunk; the
//! rows keep the left input's order.

use super::{join_reads, AggSpec, Exec, HashInput, JoinEmit, JoinKind, Narrowed, Restriction};
use crate::aggregate::AggState;
use crate::cost::{
    groupjoin_table_pages, hash_build_fits, hash_table_pages, HashShape, GRACE_MAX_DEPTH,
};
use crate::expr::{Joined, Row};
use crate::pred::CPred;
use crate::Result;
use nsql_obs::OpCounters;
use nsql_storage::{HeapFile, HeapWriter, HeldRows, Page, PageId, RowsRef, Storage, TempFile};
use nsql_types::{FxHashMap, FxHasher, Relation, Schema, Tuple, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::hash_map::Entry;
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
        let (rel, _) =
            self.hash_join_cols(left, right, left_keys, right_keys, residual, kind, None)?;
        let schema = rel.schema().clone();
        Ok(HeapFile::from_tuples(&self.storage, schema, rel.into_tuples()))
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
        let (rel, _) =
            self.hash_join_cols(left, right, left_keys, right_keys, residual, kind, None)?;
        Ok(rel)
    }

    /// [`hash_join_collect`](Exec::hash_join_collect) emitting only `cols`
    /// of the concatenated row (every column when `None`; see
    /// [`JoinEmit`]). Either input may be rows held in memory; one that is
    /// must be the side the table is built on, and fit `B − 2` pages. Either
    /// or both may be a pipe ([`Restriction`]), its bound deciding the side
    /// as the pages of rows would; see the module doc for how a pipe build
    /// side fixes its split. Beside the rows, the shape the first pass ran:
    /// the one its build side's pages give, or, over a pipe build side, the
    /// split its table took when it first overflowed, over the pages the
    /// pipe made — all of them resident when it never overflowed.
    #[allow(clippy::too_many_arguments)]
    pub fn hash_join_cols<'a>(
        &self,
        left: impl Into<HashInput<'a>>,
        right: impl Into<HashInput<'a>>,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&CPred>,
        kind: JoinKind,
        cols: Option<&[usize]>,
    ) -> Result<(Relation, HashShape)> {
        let (left, right) = (left.into(), right.into());
        assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
        let emit = JoinEmit::new(right.schema(), cols);
        let b = self.storage.buffer_pages() as f64;
        let (lp, rp) = (left.page_count() as f64, right.page_count() as f64);
        let build_left = HashShape::of(lp, rp, kind, b).build_left;
        let (build, probe, build_keys, probe_keys) = if build_left {
            (left, right, left_keys, right_keys)
        } else {
            (right, left, right_keys, left_keys)
        };
        let join = HashJoin {
            exec: self,
            build_keys,
            probe_keys,
            more_keys: &[],
            build_left,
            residual,
            pad: kind.keeps_unmatched(),
            sink: if kind.emits_pairs() { Sink::Pairs(emit) } else { Sink::Unmatched(emit) },
            b,
            op: self.current_op(),
        };
        let mut out = Vec::new();
        let shape = join.run(build, probe, 0, &mut out)?;
        let rel = Relation::new(emit.schema(left.schema(), right.schema()), out)?;
        Ok((rel, shape))
    }

    /// Groupjoin: the join of `left` and `right` on the paired keys of any
    /// of the key sets `keys` (with the optional residual) grouped by every
    /// column of `left`, computing `aggs` — whose arguments are columns of
    /// `right` — in one hash pass built on `left` (a pass per `B − 2`-page
    /// chunk of it, over several key sets), delivered in memory as
    /// `out_schema` (the left's columns, then one per aggregate). With one
    /// key set it equals [`Exec::hash_join`] followed by a GROUP BY on the
    /// left's columns when `left` holds no duplicate row; a duplicated left
    /// tuple is a group of its own here. `unjoined` says what a left tuple
    /// nothing joined emits. `left` may be rows held in memory whose table
    /// fits `B − 2` pages, and, over one key set, `right` a pipe. See the
    /// module doc for the memory charge and the order.
    #[allow(clippy::too_many_arguments)]
    pub fn hash_groupjoin<'a>(
        &self,
        left: impl Into<HashInput<'a>>,
        right: impl Into<HashInput<'a>>,
        keys: &[KeySet],
        residual: Option<&CPred>,
        unjoined: Unjoined,
        aggs: &[AggSpec],
        out_schema: Schema,
    ) -> Result<Relation> {
        let (first, more_keys) = keys.split_first().expect("a groupjoin has a key set");
        for set in keys {
            assert_eq!(set.left.len(), set.right.len(), "key lists must pair up");
        }
        let join = HashJoin {
            exec: self,
            build_keys: &first.left,
            probe_keys: &first.right,
            more_keys,
            build_left: true,
            residual,
            pad: unjoined != Unjoined::Dropped,
            sink: Sink::Groups(aggs, unjoined),
            b: self.storage.buffer_pages() as f64,
            op: self.current_op(),
        };
        let mut out = Vec::new();
        join.run(left.into(), right.into(), 0, &mut out)?;
        Ok(Relation::new(out_schema, out)?)
    }
}

thread_local! {
    static DEMOTED: Cell<u64> = const { Cell::new(0) };
}

/// Resident tables the hash passes run on this thread have demoted so far:
/// what a test of skewed keys reads to know that they took that path.
pub fn demotions() -> u64 {
    DEMOTED.with(Cell::get)
}

/// One key set of a groupjoin: columns of the left input paired
/// positionally with columns of the right, a pair of tuples joining on it
/// where each pair of values is equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySet {
    /// Key columns of the left input.
    pub left: Vec<usize>,
    /// Key columns of the right input, in the same order.
    pub right: Vec<usize>,
}

/// What a groupjoin emits for a left tuple that no right tuple joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unjoined {
    /// Nothing: a GROUP BY over an inner join has no group for it.
    Dropped,
    /// The tuple and its aggregates over one all-`NULL` row — `COUNT(col)`
    /// 0, `COUNT(*)` 1, anything else `NULL` — as a GROUP BY over a left
    /// outer join's padded row gives.
    Padded,
    /// The tuple and the aggregates of an empty group — `COUNT` 0,
    /// anything else `NULL` — as a correlated aggregate over no rows gives.
    Empty,
}

/// What a hash pass makes of the pairs it finds.
#[derive(Clone, Copy)]
enum Sink<'a> {
    /// A joined row per pair (the hash join).
    Pairs(JoinEmit<'a>),
    /// A row per left tuple, its aggregates over the right tuples it joined
    /// (the groupjoin, built on the left), and what one nothing joined
    /// emits.
    Groups(&'a [AggSpec], Unjoined),
    /// A row per left tuple nothing joined, and none per pair (the
    /// anti-join).
    Unmatched(JoinEmit<'a>),
}

/// One left tuple of a groupjoin's or a left-built anti-join's table and
/// what it has aggregated.
struct Group {
    row: Tuple,
    states: Vec<AggState>,
    matched: bool,
    /// The ordinal of the last right tuple that reached it through a chain
    /// (0: none yet), so that one found through two key sets is folded once.
    seen: u32,
}

/// One hash join: what its partitioning passes and in-memory passes share.
struct HashJoin<'a> {
    exec: &'a Exec,
    build_keys: &'a [usize],
    probe_keys: &'a [usize],
    /// The groupjoin's key sets after the first (build side left); empty
    /// for every other join.
    more_keys: &'a [KeySet],
    /// The table holds left tuples and the right input probes it.
    build_left: bool,
    residual: Option<&'a CPred>,
    /// Keep left tuples nothing joined: a left outer join or an anti-join.
    /// The left outer join builds right, so they are probe tuples, padded;
    /// the groupjoin builds left, and emits them as [`Unjoined`] says; the
    /// anti-join does either, and emits them.
    pad: bool,
    sink: Sink<'a>,
    /// Buffer pages `B`.
    b: f64,
    /// Observability: build (a hybrid pass's split of the build side
    /// included) and probe (its split of the probe side included)
    /// wall-clock land on the current operator. `Instant` is only sampled when one is
    /// attached, so the disabled path stays branch-only.
    op: Option<Arc<OpCounters>>,
}

impl HashJoin<'_> {
    /// Join `build` with `probe` into `out`; at `depth` 0, the shape of the
    /// pass that ran. At `depth` 0 they are the operator's inputs; below it,
    /// spilled partitions of a pass at `depth − 1`, whose rows carry only
    /// the columns the join reads.
    fn run(
        &self,
        build: HashInput<'_>,
        probe: HashInput<'_>,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<HashShape> {
        let groups = matches!(self.sink, Sink::Groups(..));
        if let (HashInput::Pipe(pipe), false) = (build, groups) {
            check_hand_off(build, "build", false, depth == 0);
            check_hand_off(probe, "probe", false, depth == 0);
            return self.streamed(pipe, probe, out);
        }
        let pages = self.table_pages(build);
        let shape = HashShape::built_on(self.build_left, pages, self.b);
        let whole = depth == GRACE_MAX_DEPTH || shape.spilled == 0;
        let chunked = !whole && !self.more_keys.is_empty();
        let holds = whole && hash_build_fits(pages, self.b);
        check_hand_off(build, "build", holds, false);
        check_hand_off(probe, "probe", false, depth == 0 && !chunked);
        if whole {
            self.in_memory(build, probe, depth, out)?;
        } else if chunked {
            self.chunked(build, probe, out)?;
        } else {
            self.hybrid(shape, build, probe, depth, out)?;
        }
        Ok(shape)
    }

    /// This join's parameters over rows narrowed to the columns it reads:
    /// its keys, its residual's columns and what it emits — for the
    /// groupjoin, the whole left row and the aggregates' arguments.
    fn narrowed(&self, build: &Schema, probe: &Schema) -> Narrowed {
        let (left, right) = if self.build_left { (build, probe) } else { (probe, build) };
        let (la, ra) = (left.arity(), right.arity());
        let (lkeys, rkeys) = if self.build_left {
            (self.build_keys, self.probe_keys)
        } else {
            (self.probe_keys, self.build_keys)
        };
        let (cols, aggs): (Option<Vec<usize>>, &[AggSpec]) = match self.sink {
            Sink::Pairs(emit) | Sink::Unmatched(emit) => (emit.cols.map(<[usize]>::to_vec), &[]),
            Sink::Groups(aggs, _) => {
                let args = aggs.iter().filter_map(|a| a.arg).map(|i| la + i);
                (Some((0..la).chain(args).collect()), aggs)
            }
        };
        let keep = join_reads(la, ra, lkeys, rkeys, self.residual, cols.as_deref());
        let emitted = match self.sink {
            Sink::Pairs(emit) | Sink::Unmatched(emit) => emit.cols,
            Sink::Groups(..) => None,
        };
        Narrowed::new(keep, la, lkeys, rkeys, self.residual, emitted, aggs)
    }

    /// This join run over rows narrowed as `n` says.
    fn over<'n>(&self, n: &'n Narrowed) -> HashJoin<'n>
    where
        Self: 'n,
    {
        let (build_keys, probe_keys) = if self.build_left {
            (&n.left_keys, &n.right_keys)
        } else {
            (&n.right_keys, &n.left_keys)
        };
        HashJoin {
            exec: self.exec,
            build_keys,
            probe_keys,
            more_keys: &[],
            build_left: self.build_left,
            residual: n.residual.as_ref(),
            pad: self.pad,
            sink: match self.sink {
                Sink::Pairs(_) => Sink::Pairs(n.emit()),
                Sink::Unmatched(_) => Sink::Unmatched(n.emit()),
                Sink::Groups(_, unjoined) => Sink::Groups(&n.aggs, unjoined),
            },
            b: self.b,
            op: self.op.clone(),
        }
    }

    /// The groupjoin's aggregates; none for any other sink.
    fn aggs(&self) -> &[AggSpec] {
        match self.sink {
            Sink::Groups(aggs, _) => aggs,
            Sink::Pairs(_) | Sink::Unmatched(_) => &[],
        }
    }

    /// The key sets a left tuple and a right tuple join on, left keys then
    /// right keys: the first, and the groupjoin's others.
    fn key_sets(&self) -> impl Iterator<Item = (&[usize], &[usize])> {
        let more = self.more_keys.iter().map(|k| (k.left.as_slice(), k.right.as_slice()));
        std::iter::once((self.build_keys, self.probe_keys)).chain(more)
    }

    /// Pages the table over `build` fills: the build side's own, or, for
    /// the groupjoin, its rows widened by their aggregates.
    fn table_pages(&self, build: HashInput<'_>) -> f64 {
        let pages = build.page_count() as f64;
        match self.sink {
            Sink::Pairs(_) | Sink::Unmatched(_) => pages,
            Sink::Groups(aggs, _) => {
                let rows = build.tuple_count() as f64;
                groupjoin_table_pages(pages, rows, aggs.len(), self.exec.storage().page_size())
            }
        }
    }

    /// Pages a table charges for `rows` build tuples of `held` bytes: their
    /// bytes, and for the groupjoin a slot per aggregate a row.
    fn charged(&self, held: usize, rows: usize) -> f64 {
        let page_size = self.exec.storage().page_size();
        groupjoin_table_pages(
            held as f64 / page_size as f64,
            rows as f64,
            self.aggs().len(),
            page_size,
        )
    }

    /// Build the table on every build tuple, then probe it a tuple at a
    /// time and emit what the sink keeps of the table.
    fn in_memory(
        &self,
        build: HashInput<'_>,
        probe: HashInput<'_>,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let t0 = self.clock();
        let mut table = self.table(build.tuple_count());
        self.each(build, depth, |bt| {
            self.insert(&mut table, bt);
            Ok(())
        })?;
        // A chunk of a table over several key sets holds one row at least.
        if depth < GRACE_MAX_DEPTH && table.len() > 1 {
            self.check_held(self.charged(table.held, table.len()), hash_table_pages(self.b));
        }
        self.charge(t0, |op| &op.build_ns);
        self.probe_whole(table, probe, depth, out)
    }

    /// Probe `table`, which holds the whole build side, a probe tuple at a
    /// time, and emit what the sink keeps of it.
    fn probe_whole(
        &self,
        mut table: Table<'_>,
        probe: HashInput<'_>,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let t0 = self.clock();
        // The sink's loop is chosen once, not per probe tuple.
        match &mut table.entries {
            Entries::Rows { chains, emit, pairs: true } => self.each(probe, depth, |pt| {
                self.probe_rows::<true>(chains, *emit, &pt.tuple(), out)
            })?,
            Entries::Rows { chains, emit, pairs: false } => self.each(probe, depth, |pt| {
                self.probe_rows::<false>(chains, *emit, &pt.tuple(), out)
            })?,
            Entries::Groups(groups) => {
                self.each(probe, depth, |rt| self.fold(groups, &rt.tuple()))?;
            }
        }
        self.finish(table, out);
        self.charge(t0, |op| &op.probe_ns);
        Ok(())
    }

    /// One hybrid pass over a build side too large for memory, then each
    /// spilled pair joined a level down. The build side is split by the
    /// salted key hash as `shape` says: a tuple in the resident share of the
    /// range goes into a table of at most `B − 2 − k` pages, any other to
    /// one of `k` spilled partitions, narrowed at the first level to the
    /// columns the join reads. Should the table outgrow its pages, it is
    /// demoted: its tuples, and every later one of its share, are written
    /// as one more spilled partition. The probe side is split the same way,
    /// a tuple in the share probing the table at once; the sink then emits
    /// what it keeps of the table. A pass that fails frees every partition
    /// page it wrote.
    fn hybrid(
        &self,
        shape: HashShape,
        build: HashInput<'_>,
        probe: HashInput<'_>,
        depth: u32,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        // The first pass writes only the columns the join reads; the passes
        // below it split rows that carry no others. Resident rows are the
        // input's own.
        let narrowed = (depth == 0).then(|| self.narrowed(build.schema(), probe.schema()));
        let t0 = self.clock();
        let rows = build.tuple_count() as f64 * shape.resident_share();
        let keep = kept(narrowed.as_ref(), self.build_left);
        let mut parted = self.parted(shape, depth, build.schema(), keep, rows as usize);
        self.each(build, depth, |bt| {
            self.place(&mut parted, bt, out);
            Ok(())
        })?;
        self.charge(t0, |op| &op.build_ns);
        self.probe_parted(parted, probe, depth, narrowed.as_ref(), out)
    }

    /// A pass at the operator's level, on one key set, whose build side is
    /// the pipe `pipe`. It holds the rows the pipe makes until the first
    /// that would take their table over `B − 2` pages, which fixes the
    /// pass's shape on the table's pages with that row and the pipe's bound
    /// on its source pages from the one being read on: an upper bound, so
    /// the resident share it plans is not overfilled because an estimate
    /// ran low. The rows held are then placed as that shape says, and the
    /// pass goes on as a hybrid pass. A pipe that never overflows is built
    /// in memory. Either way each row is hashed into a table once. The shape
    /// it ran is over the pages the pipe made: that split's share of them
    /// resident, or all of them.
    fn streamed(
        &self,
        pipe: &Restriction,
        probe: HashInput<'_>,
        out: &mut Vec<Tuple>,
    ) -> Result<HashShape> {
        let narrowed = self.narrowed(pipe.schema(), probe.schema());
        let keep = kept(Some(&narrowed), self.build_left);
        let m = hash_table_pages(self.b);
        let t0 = self.clock();
        let (mut held, mut bytes) = (Vec::with_capacity(pipe_rows(pipe, m)), 0);
        let mut parted = None;
        let read = Cell::new(0);
        let page = |pid| {
            read.set(read.get() + 1);
            self.page(pid, 0)
        };
        pipe.stream(page, |t, width| {
            let bt = Read::Piped(t, pipe, width);
            if let Some((parted, _)) = &mut parted {
                self.place(parted, bt, out);
                return Ok(());
            }
            let pages = self.charged(bytes + width, held.len() + 1);
            if pages <= m {
                bytes += width;
                held.push(bt.owned());
                return Ok(());
            }
            let pages = pages + Self::unread(pipe, read.get());
            let shape = HashShape::built_on(self.build_left, pages, self.b);
            let rows = pipe_rows(pipe, shape.resident);
            let mut split = self.parted(shape, 0, pipe.schema(), keep, rows);
            for row in std::mem::take(&mut held) {
                self.place(&mut split, row, out);
            }
            self.place(&mut split, bt, out);
            parted = Some((split, shape));
            Ok(())
        })?;
        let made = pipe.made().1 as f64;
        if let Some((parted, shape)) = parted {
            self.charge(t0, |op| &op.build_ns);
            self.probe_parted(parted, probe, 0, Some(&narrowed), out)?;
            let resident = shape.resident_share() * made;
            return Ok(HashShape { table: made, resident, ..shape });
        }
        let mut table = self.table(held.len());
        for row in held {
            self.insert(&mut table, row);
        }
        self.charge(t0, |op| &op.build_ns);
        self.probe_whole(table, probe, 0, out)?;
        Ok(HashShape { build_left: self.build_left, table: made, spilled: 0, resident: made })
    }

    /// Pages the rows the pipe makes of its source pages from the `read`-th
    /// on — the one being read and those not yet read — fill at most: the
    /// pipe's bound on those pages.
    fn unread(pipe: &Restriction, read: usize) -> f64 {
        let pages = pipe.source.page_count();
        let share = (pages + 1).saturating_sub(read) as f64 / pages.max(1) as f64;
        pipe.bound as f64 * share
    }

    /// An empty split of a pass at `depth` of `shape` over a build side of
    /// `schema`: a resident table for about `rows` rows, if any is
    /// resident, and the spilled partitions, of each row's columns `keep`.
    fn parted<'p>(
        &'p self,
        shape: HashShape,
        depth: u32,
        schema: &Schema,
        keep: Option<&'p [usize]>,
        rows: usize,
    ) -> Parted<'p> {
        let split = Split::new(depth, shape.resident_share(), shape.spilled);
        Parted {
            split,
            spilled: shape.spilled,
            budget: shape.resident_budget(self.b),
            table: (split.cut > 0).then(|| self.table(rows)),
            builds: Spill::new(self.exec.storage(), schema, keep, shape.spilled),
        }
    }

    /// Place build tuple `bt` of a hybrid pass: in the resident table if its
    /// key's hash falls in the resident share and the table has room, else
    /// in its spilled partition. A table that outgrows its pages is demoted:
    /// its tuples, and every later one of its share, go to one more spilled
    /// partition.
    fn place(&self, p: &mut Parted<'_>, bt: impl PassRow, out: &mut Vec<Tuple>) {
        if null_key(&bt, self.build_keys) {
            self.keyless(bt, self.build_left, out);
            return;
        }
        match (p.split.place(&bt, self.build_keys), &mut p.table) {
            (Some(part), _) => p.builds.push(part, bt),
            (None, Some(t)) if self.charged(t.held + bt.width(), t.len() + 1) <= p.budget => {
                self.insert(t, bt);
            }
            (None, resident) => {
                if let Some(demoted) = resident.take() {
                    DEMOTED.with(|n| n.set(n.get() + 1));
                    for row in demoted.into_rows() {
                        p.builds.push(p.spilled, row);
                    }
                }
                p.builds.push(p.spilled, bt);
            }
        }
    }

    /// The probe side of a hybrid pass whose build side is split as `p`
    /// holds it: a probe tuple in the resident share probes the table at
    /// once, any other goes to its spilled partition, narrowed at the first
    /// level as `narrowed` says; the sink then emits what it keeps of the
    /// table, and each spilled pair is joined a level down. A pass that
    /// fails frees every partition page it wrote.
    fn probe_parted(
        &self,
        p: Parted<'_>,
        probe: HashInput<'_>,
        depth: u32,
        narrowed: Option<&Narrowed>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        if let Some(t) = &p.table {
            self.check_held(self.charged(t.held, t.len()), p.budget);
        }
        let Parted { split, spilled, mut table, builds, .. } = p;
        let t0 = self.clock();
        let keep = kept(narrowed, !self.build_left);
        let mut probes = Spill::new(self.exec.storage(), probe.schema(), keep, builds.len());
        self.each(probe, depth, |pt| {
            if null_key(&pt, self.probe_keys) {
                self.keyless(pt, !self.build_left, out);
                return Ok(());
            }
            match (split.place(&pt, self.probe_keys), &mut table) {
                (Some(part), _) => probes.push(part, pt),
                (None, Some(t)) => self.probe(t, &pt.tuple(), out)?,
                (None, None) => probes.push(spilled, pt),
            }
            Ok(())
        })?;
        if let Some(t) = table {
            self.finish(t, out);
        }
        self.charge(t0, |op| &op.probe_ns);

        let below = narrowed.map(|n| self.over(n));
        let below = below.as_ref().unwrap_or(self);
        // Each pair is freed once it is joined.
        for (build, probe) in builds.finish().into_iter().zip(probes.finish()) {
            below.run((&*build).into(), (&*probe).into(), depth + 1, out)?;
        }
        Ok(())
    }

    /// A groupjoin over several key sets whose table exceeds `B − 2` pages:
    /// the left tuples in scan order, as many at a time as fill `B − 2`
    /// pages of table (one at least), each chunk folded in memory in a pass
    /// over the whole right input.
    fn chunked(
        &self,
        build: HashInput<'_>,
        probe: HashInput<'_>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let storage = self.exec.storage();
        let schema = build.schema();
        let fold = |chunk: Vec<Tuple>, out: &mut Vec<Tuple>| {
            let rows = HeldRows::new(storage, schema.clone(), chunk);
            self.in_memory((&rows).into(), probe, 0, out)
        };
        let (mut chunk, mut held) = (Vec::new(), 0);
        self.each(build, 0, |lt| {
            let width = lt.width();
            if !chunk.is_empty()
                && !hash_build_fits(self.charged(held + width, chunk.len() + 1), self.b)
            {
                fold(std::mem::take(&mut chunk), out)?;
                held = 0;
            }
            held += width;
            chunk.push(lt.owned());
            Ok(())
        })?;
        if !chunk.is_empty() {
            fold(chunk, out)?;
        }
        Ok(())
    }

    /// An empty table for about `rows` build tuples, of what the sink keeps:
    /// the tuples themselves, or a group per left tuple.
    fn table(&self, rows: usize) -> Table<'_> {
        let entries = match self.sink {
            Sink::Pairs(emit) => {
                Entries::Rows { chains: Chains::with_capacity(rows), emit, pairs: true }
            }
            Sink::Unmatched(emit) if !self.build_left => {
                Entries::Rows { chains: Chains::with_capacity(rows), emit, pairs: false }
            }
            Sink::Unmatched(_) | Sink::Groups(..) => Entries::Groups(Groups {
                groups: Vec::with_capacity(rows),
                sets: self.key_sets().map(|(l, r)| (l, r, Chains::with_capacity(rows))).collect(),
                aggs: self.aggs(),
                settled: matches!(self.sink, Sink::Unmatched(_)),
                ordinal: 0,
            }),
        };
        Table { held: 0, entries }
    }

    /// Put build tuple `bt` in `table`, bucketed by key hash (in each key
    /// set's chain where it has that key). A tuple with no key joins
    /// nothing: it is left out, but for a left tuple the sink keeps
    /// unmatched.
    fn insert(&self, table: &mut Table<'_>, bt: impl PassRow) {
        let width = bt.width();
        match &mut table.entries {
            Entries::Rows { chains, .. } => {
                if null_key(&bt, self.build_keys) {
                    return;
                }
                chains.push(key_hash(FxHasher::default(), &bt, self.build_keys), bt.owned());
            }
            Entries::Groups(Groups { groups, sets, aggs, .. }) => {
                let mut keyed = false;
                for (keys, _, chain) in sets.iter_mut() {
                    if !null_key(&bt, keys) {
                        keyed = true;
                        chain.push(key_hash(FxHasher::default(), &bt, keys), groups.len());
                    }
                }
                if !keyed && !self.pad {
                    return;
                }
                let states = aggs.iter().map(|a| AggState::new(a.func)).collect();
                groups.push(Group { row: bt.owned(), states, matched: false, seen: 0 });
            }
        }
        table.held += width;
    }

    /// Probe `table` with probe tuple `pt`: [`HashJoin::probe_rows`] or
    /// [`HashJoin::fold`], as the sink's table holds tuples or groups.
    fn probe(&self, table: &mut Table<'_>, pt: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        match &mut table.entries {
            Entries::Rows { chains, emit, pairs: true } => {
                self.probe_rows::<true>(chains, *emit, pt, out)
            }
            Entries::Rows { chains, emit, pairs: false } => {
                self.probe_rows::<false>(chains, *emit, pt, out)
            }
            Entries::Groups(groups) => self.fold(groups, pt),
        }
    }

    /// Probe the build tuples `chains` with probe tuple `pt`, checking each
    /// candidate's key. With `PAIRS` a pair the residual accepts is emitted;
    /// without (the anti-join built on the right) `pt` stops at its first
    /// match and emits nothing for it. A probe tuple nothing matched is
    /// padded where the sink keeps it.
    fn probe_rows<const PAIRS: bool>(
        &self,
        chains: &Chains<Tuple>,
        emit: JoinEmit<'_>,
        pt: &Tuple,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let mut matched = false;
        if !null_key(pt, self.probe_keys) {
            for bt in chains.bucket(key_hash(FxHasher::default(), pt, self.probe_keys)) {
                // A different key with the same hash fails here.
                let same_key = self
                    .probe_keys
                    .iter()
                    .zip(self.build_keys)
                    .all(|(&pk, &bk)| pt.get(pk) == bt.get(bk));
                if !same_key {
                    continue;
                }
                if PAIRS {
                    matched |= self.emit_if(emit, bt, pt, out)?;
                } else if self.accepts(pt, bt)? {
                    matched = true;
                    break;
                }
            }
        }
        if !matched && self.pad {
            out.push(emit.padded(pt));
        }
        Ok(())
    }

    /// Fold right tuple `rt` into the groups it matches: it looks in every
    /// key set's chain and is folded once into each group it finds whose
    /// key it equals and the residual accepts. Under the anti-join built on
    /// the left it only flags them, and a flagged group is not tested again.
    fn fold(&self, table: &mut Groups<'_>, rt: &Tuple) -> Result<()> {
        let Groups { groups, sets, aggs, settled, ordinal } = table;
        *ordinal += 1;
        let several = sets.len() > 1;
        for (lkeys, rkeys, chain) in sets.iter() {
            if null_key(rt, rkeys) {
                continue;
            }
            for &g in chain.bucket(key_hash(FxHasher::default(), rt, rkeys)) {
                let group = &mut groups[g];
                if *settled && group.matched {
                    continue;
                }
                let lt = &group.row;
                // A different key with the same hash fails here.
                let same_key = rkeys.iter().zip(*lkeys).all(|(&rk, &lk)| rt.get(rk) == lt.get(lk));
                if !same_key {
                    continue;
                }
                // Found through an earlier chain: folded, or refused,
                // already.
                if several {
                    if group.seen == *ordinal {
                        continue;
                    }
                    group.seen = *ordinal;
                }
                if !self.accepts(lt, rt)? {
                    continue;
                }
                group.matched = true;
                for (state, spec) in group.states.iter_mut().zip(*aggs) {
                    match spec.arg {
                        Some(i) => state.accumulate(rt.get(i))?,
                        None => state.accumulate_row(),
                    }
                }
            }
        }
        Ok(())
    }

    /// Emit what the sink keeps of `table` once its probe side has ended: a
    /// row per group, in the order the table took them — the tuple and its
    /// aggregates, or, nothing having joined it, what [`Unjoined`] says; under
    /// the anti-join, only the unflagged tuples. The hash join's table keeps
    /// nothing.
    fn finish(&self, table: Table<'_>, out: &mut Vec<Tuple>) {
        let Entries::Groups(Groups { groups, settled, .. }) = table.entries else { return };
        for group in groups {
            if !group.matched {
                if self.pad {
                    out.push(self.unmatched(&group.row));
                }
            } else if !settled {
                let aggregates = group.states.iter().map(AggState::finish);
                out.push(group.row.values().iter().cloned().chain(aggregates).collect());
            }
        }
    }

    /// Emit the pair of build tuple `bt` and probe tuple `pt` if the
    /// residual accepts it; whether it did.
    fn emit_if(
        &self,
        emit: JoinEmit<'_>,
        bt: &Tuple,
        pt: &Tuple,
        out: &mut Vec<Tuple>,
    ) -> Result<bool> {
        let (lt, rt) = if self.build_left { (bt, pt) } else { (pt, bt) };
        let ok = self.accepts(lt, rt)?;
        if ok {
            out.push(emit.pair(lt, rt));
        }
        Ok(ok)
    }

    /// Whether the residual accepts the pair of left tuple `lt` and right
    /// tuple `rt` (there is no residual: it does).
    fn accepts(&self, lt: &Tuple, rt: &Tuple) -> Result<bool> {
        match self.residual {
            Some(p) => p.accepts_row(&Joined::new(lt, rt)),
            None => Ok(true),
        }
    }

    /// A tuple `t` with a `NULL` key, met while a pass splits its side: it
    /// joins nothing, so a left tuple (`left`) the sink keeps unmatched is
    /// emitted at once, and any other is dropped.
    fn keyless(&self, t: impl PassRow, left: bool, out: &mut Vec<Tuple>) {
        if left && self.pad {
            out.push(self.unmatched(&t.owned()));
        }
    }

    /// The row of a left tuple `lt` nothing joined, under a left outer
    /// join, an anti-join or a groupjoin that keeps it: padded with `NULL`s,
    /// or with the aggregates of one all-`NULL` row or of none.
    fn unmatched(&self, lt: &Tuple) -> Tuple {
        match self.sink {
            Sink::Pairs(emit) | Sink::Unmatched(emit) => emit.padded(lt),
            Sink::Groups(aggs, unjoined) => {
                let nulls = aggs.iter().map(|a| {
                    let mut state = AggState::new(a.func);
                    if a.arg.is_none() && unjoined == Unjoined::Padded {
                        state.accumulate_row();
                    }
                    state.finish()
                });
                lt.values().iter().cloned().chain(nulls).collect()
            }
        }
    }

    /// Visit every row of `rows` at `depth` where it lies: a file's page by
    /// page — an input through the buffer pool, a partition past it — held
    /// rows in memory, or the source tuples a pipe keeps as it reads its
    /// source's pages, each seen through the pipe's projection.
    fn each(
        &self,
        rows: HashInput<'_>,
        depth: u32,
        mut f: impl FnMut(Read<'_>) -> Result<()>,
    ) -> Result<()> {
        match rows {
            HashInput::Rows(RowsRef::File(file)) => {
                for &pid in file.page_ids() {
                    self.page(pid, depth).tuples().iter().try_for_each(|t| f(Read::Tuple(t)))?;
                }
                Ok(())
            }
            HashInput::Rows(RowsRef::Held(held)) => {
                held.rows().iter().try_for_each(|t| f(Read::Tuple(t)))
            }
            HashInput::Pipe(pipe) => {
                pipe.stream(|pid| self.page(pid, depth), |t, width| f(Read::Piped(t, pipe, width)))
            }
        }
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

    /// A table holds at most `budget` pages (`pages` of it): `B − 2` in an
    /// in-memory pass below the depth cap, `B − 2 − k` in a hybrid pass
    /// that spills `k` partitions.
    fn check_held(&self, pages: f64, budget: f64) {
        debug_assert!(
            pages <= budget,
            "a hash table holds {pages:.2} pages, over its {budget} (B = {})",
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

/// The in-memory table of one pass: what its sink keeps of the build
/// tuples, and their bytes.
struct Table<'k> {
    held: usize,
    entries: Entries<'k>,
}

enum Entries<'k> {
    /// The build tuples by key hash — the hash join's (`pairs`), and the
    /// anti-join's built on the right — and what a probe tuple emits.
    Rows { chains: Chains<Tuple>, emit: JoinEmit<'k>, pairs: bool },
    /// A group per left tuple: the groupjoin's, and the anti-join's built
    /// on the left.
    Groups(Groups<'k>),
}

/// The left tuples of a table, each a group, in the order they came.
struct Groups<'k> {
    groups: Vec<Group>,
    /// Per key set, its left and right keys and the chain of the positions
    /// of the groups with its key.
    sets: Vec<(&'k [usize], &'k [usize], Chains<usize>)>,
    aggs: &'k [AggSpec],
    /// The anti-join's: a group is only flagged, and emitted unflagged.
    settled: bool,
    /// The right tuples folded so far.
    ordinal: u32,
}

impl Table<'_> {
    /// Build tuples held.
    fn len(&self) -> usize {
        match &self.entries {
            Entries::Rows { chains, .. } => chains.items.len(),
            Entries::Groups(groups) => groups.groups.len(),
        }
    }

    /// The build tuples held, in the order they came (the table demoted
    /// before any tuple probed it).
    fn into_rows(self) -> Vec<Tuple> {
        match self.entries {
            Entries::Rows { chains, .. } => chains.items,
            Entries::Groups(groups) => groups.groups.into_iter().map(|g| g.row).collect(),
        }
    }
}

/// The build side of a hybrid pass as it is split: the resident table and
/// the spilled partitions.
struct Parted<'p> {
    split: Split,
    /// Partitions the split spills to, `k`; a demoted table is written as
    /// partition `k`.
    spilled: usize,
    /// Pages the table may hold before it is demoted: `B − 2 − k`.
    budget: f64,
    /// `None` once demoted, or when nothing is resident.
    table: Option<Table<'p>>,
    builds: Spill<'p>,
}

/// A row a pass reads where it lies: an input's tuple, or a source tuple a
/// pipe keeps, seen through the pipe's projection, with the bytes of the
/// row the pipe makes of it — what the pass keeps of it is made from the
/// source tuple, once.
#[derive(Clone, Copy)]
enum Read<'t> {
    Tuple(&'t Tuple),
    Piped(&'t Tuple, &'t Restriction, usize),
}

impl<'t> Read<'t> {
    /// The row: the tuple itself, or the one the pipe makes.
    fn tuple(self) -> Cow<'t, Tuple> {
        match self {
            Read::Tuple(t) => Cow::Borrowed(t),
            Read::Piped(t, pipe, _) => {
                Cow::Owned(pipe.exprs.iter().map(|e| e.eval(t).clone()).collect())
            }
        }
    }
}

impl Row for Read<'_> {
    fn field(&self, i: usize) -> &Value {
        match *self {
            Read::Tuple(t) => t.get(i),
            Read::Piped(t, pipe, _) => pipe.exprs[i].eval(t),
        }
    }
}

/// A row a pass may keep: a copy of it whole, for a table, or of the
/// columns a spilled partition carries, and its bytes. A tuple the pass
/// owns already is moved, not copied.
trait PassRow: Row {
    /// The row, owned.
    fn owned(self) -> Tuple;
    /// Its columns `keep`.
    fn project(&self, keep: &[usize]) -> Tuple;
    /// The bytes it takes stored.
    fn width(&self) -> usize;
}

impl PassRow for Tuple {
    fn owned(self) -> Tuple {
        self
    }

    fn project(&self, keep: &[usize]) -> Tuple {
        Tuple::project(self, keep)
    }

    fn width(&self) -> usize {
        self.storage_width()
    }
}

impl PassRow for Read<'_> {
    fn owned(self) -> Tuple {
        self.tuple().into_owned()
    }

    fn project(&self, keep: &[usize]) -> Tuple {
        keep.iter().map(|&c| self.field(c).clone()).collect()
    }

    fn width(&self) -> usize {
        match *self {
            Read::Tuple(t) => t.storage_width(),
            Read::Piped(.., width) => width,
        }
    }
}

/// The columns a first pass's spilled partitions carry of each row of its
/// left input (`left`) or its right, as `narrowed` says; `None` below the
/// first pass, whose rows carry no others.
fn kept(narrowed: Option<&Narrowed>, left: bool) -> Option<&[usize]> {
    Some(narrowed?.keep[usize::from(!left)].as_slice())
}

/// Rows of `pipe` that `pages` pages hold at the width its bound gives its
/// rows, at most the source's: what a table of that many pages over it
/// reserves.
fn pipe_rows(pipe: &Restriction, pages: f64) -> usize {
    let rows = pipe.tuple_count() as f64;
    (pages * rows / pipe.bound.max(1) as f64).min(rows) as usize
}

/// The spilled partitions one side of a hybrid pass writes, each a file
/// whose pages are written as they fill, of each row's columns `keep`
/// (every column when `None`). Dropped unfinished — the pass failed — it
/// frees every page it wrote.
struct Spill<'s> {
    storage: &'s Storage,
    schema: Schema,
    keep: Option<&'s [usize]>,
    parts: Vec<HeapWriter>,
}

impl<'s> Spill<'s> {
    fn new(
        storage: &'s Storage,
        schema: &Schema,
        keep: Option<&'s [usize]>,
        parts: usize,
    ) -> Spill<'s> {
        let keep = keep.filter(|keep| keep.len() < schema.arity());
        let schema = keep.map_or_else(|| schema.clone(), |k| schema.project(k));
        let parts = (0..parts).map(|_| HeapWriter::new(storage, schema.clone())).collect();
        Spill { storage, schema, keep, parts }
    }

    fn len(&self) -> usize {
        self.parts.len()
    }

    /// Write `t` into partition `part`, the next one opened if it is not
    /// yet (a demoted table's).
    fn push(&mut self, part: usize, t: impl PassRow) {
        if part == self.parts.len() {
            self.parts.push(HeapWriter::new(self.storage, self.schema.clone()));
        }
        let row = match self.keep {
            Some(keep) => t.project(keep),
            None => t.owned(),
        };
        self.parts[part].push(self.storage, row);
    }

    /// The partitions, their last pages written, each freed when dropped.
    fn finish(mut self) -> Vec<TempFile> {
        let storage = self.storage;
        let parts = std::mem::take(&mut self.parts);
        parts.into_iter().map(|p| TempFile::new(storage, p.finish(storage))).collect()
    }
}

impl Drop for Spill<'_> {
    fn drop(&mut self) {
        for part in self.parts.drain(..) {
            part.discard(self.storage);
        }
    }
}

/// What reaches a hash pass without a file of its own is read once: held
/// rows only as the build side of a pass that holds its whole table within
/// `B − 2` pages (`held`), a pipe only on a side a pass over the operator's
/// own inputs reads once (`piped`) — either side of a hash join's, the
/// probe side of a groupjoin's that is not taken in chunks. Neither is ever
/// written.
fn check_hand_off(rows: HashInput<'_>, side: &str, held: bool, piped: bool) {
    debug_assert!(
        match rows {
            HashInput::Rows(RowsRef::File(_)) => true,
            HashInput::Rows(RowsRef::Held(_)) => held,
            HashInput::Pipe(_) => piped,
        },
        "{} rows not in a file handed to a hash pass that does not read them once ({side} side)",
        rows.tuple_count(),
    );
}

/// A hash table of build items by key hash that keeps each hash's items in
/// the order they came, chained through one array: no allocation per key.
struct Chains<T> {
    /// Per hash, its first and last item.
    ends: FxHashMap<u64, (u32, u32)>,
    /// Per item, the next with its hash (`u32::MAX`: none).
    next: Vec<u32>,
    items: Vec<T>,
}

impl<T> Chains<T> {
    fn with_capacity(n: usize) -> Chains<T> {
        let mut ends = FxHashMap::default();
        ends.reserve(n);
        Chains { ends, next: Vec::with_capacity(n), items: Vec::with_capacity(n) }
    }

    fn push(&mut self, hash: u64, item: T) {
        let at = u32::try_from(self.items.len()).expect("a table holds fewer than 2^32 rows");
        self.items.push(item);
        self.next.push(u32::MAX);
        match self.ends.entry(hash) {
            Entry::Occupied(mut e) => {
                let (_, last) = e.get_mut();
                self.next[*last as usize] = at;
                *last = at;
            }
            Entry::Vacant(e) => {
                e.insert((at, at));
            }
        }
    }

    /// The items with `hash`, in the order they came.
    fn bucket(&self, hash: u64) -> impl Iterator<Item = &T> {
        let mut at = self.ends.get(&hash).map_or(u32::MAX, |&(first, _)| first);
        std::iter::from_fn(move || {
            let item = self.items.get(at as usize)?;
            at = self.next[at as usize];
            Some(item)
        })
    }
}

/// Whether a key column of `t` is `NULL` (the tuple then joins nothing).
fn null_key(t: &impl Row, keys: &[usize]) -> bool {
    keys.iter().any(|&k| t.field(k).is_null())
}

/// The hash of `t`'s `keys`, fed into `h` after whatever it already holds.
/// It is `Value`'s hash, which is equal for keys that join (3 and 3.0,
/// -0.0 and 0, and also 2^53 and 2^53 + 1, which do not join each other).
fn key_hash(mut h: FxHasher, t: &impl Row, keys: &[usize]) -> u64 {
    for &k in keys {
        t.field(k).hash(&mut h);
    }
    h.finish()
}

/// How a pass at `depth` splits the salted hash range: into `k / (1 −
/// share)` slots (in 32.32 fixed point, `slots` of them), a hash's slot
/// found by one widening multiplication; the slots below `cut` are the
/// resident share's, and each of the last `k` a spilled partition's. No row
/// pays a division or a float conversion. The key hash is salted with the
/// depth, so that a pass splits what the pass above it put in one
/// partition; with nothing resident (`cut` 0) the split is Grace's,
/// `⌊hash · k / 2^64⌋`.
#[derive(Debug, Clone, Copy)]
struct Split {
    depth: u32,
    slots: u64,
    cut: u64,
}

impl Split {
    /// The split of a pass at `depth` keeping the resident share `share` of
    /// the range, 0 to below 1, and spilling the rest to `spilled`
    /// partitions.
    fn new(depth: u32, share: f64, spilled: usize) -> Split {
        let spilled_slots = (spilled as u64) << 32;
        let slots = (spilled as f64 / (1.0 - share) * 2f64.powi(32)) as u64;
        let slots = slots.max(spilled_slots);
        Split { depth, slots, cut: slots - spilled_slots }
    }

    /// Where a tuple with these `keys` goes: `None`, the resident table, or
    /// its spilled partition.
    fn place(&self, t: &impl Row, keys: &[usize]) -> Option<usize> {
        let mut h = FxHasher::default();
        h.write_u32(self.depth + 1);
        let slot = (u128::from(key_hash(h, t, keys)) * u128::from(self.slots)) >> 64;
        let above = (slot as u64).checked_sub(self.cut)?;
        Some((above >> 32) as usize)
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
    /// to the nested loop's and to the merge join's; its row count.
    fn hash_join_agrees(e: &Exec, l: &HeapFile, r: &HeapFile, kind: JoinKind) -> usize {
        let on = on_pred(l, r, "L.A = R.B");
        let nl = e.collect(&e.nl_join(l, r, &on, kind).unwrap());
        let hj = e.collect(&e.hash_join(l, r, &[0], &[0], None, kind).unwrap());
        assert!(hj.same_bag(&nl), "{kind:?}:\nNL:\n{nl}\nHJ:\n{hj}");
        let mj = e.merge_join(l, r, &[0], &[0], None, kind, false, false).unwrap();
        let mj = e.collect(&mj);
        assert!(mj.same_bag(&nl), "{kind:?}:\nNL:\n{nl}\nMJ:\n{mj}");
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
        assert_eq!(hash_join_agrees(&e, &l, &r, JoinKind::Inner), 3, "3.0~3, 3~3, NaN~NaN");
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
        assert_eq!(hash_join_agrees(&e, &l, &r, JoinKind::Inner), 6);
    }

    #[test]
    fn a_float_beyond_2_53_joins_every_int_it_equals() {
        // Float(2^53) equals Int(2^53) and Int(2^53 + 1), which differ from
        // each other: the two ints must land in one bucket and each be paired
        // with the float, whichever side the table is built on; and the merge
        // join, which meets the ints one after the other on the left, must
        // pair the float with the second as well as the first.
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
        // (left, right, whether an inner join builds on the left)
        let cases = [
            (floats("L", "A", 0), ints("R", "B"), false),
            (ints("L", "A"), floats("R", "B", 0), false),
            (ints("L", "A"), floats("R", "B", 40), true),
        ];
        for (l, r, build_left) in &cases {
            let (lp, rp) = (l.page_count() as f64, r.page_count() as f64);
            let shape = HashShape::of(lp, rp, JoinKind::Inner, 16.0);
            assert_eq!(shape.build_left, *build_left);
            for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                let rows = hash_join_agrees(&e, l, r, kind);
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
        let grace = |t: &Tuple, depth, fanout| {
            Split::new(depth, 0.0, fanout).place(t, &[0]).expect("nothing resident")
        };
        for depth in 0..GRACE_MAX_DEPTH - 1 {
            for fanout in [2, 5] {
                let together = keys.iter().filter(|t| grace(t, depth, fanout) == 0);
                let mut next = vec![0; fanout];
                for t in together {
                    next[grace(t, depth + 1, fanout)] += 1;
                }
                let even = next.iter().sum::<usize>() / fanout;
                assert!(next.iter().all(|&n| n * 10 > even * 8), "depth {depth}: {next:?}");
            }
        }
        // And the hash is `Value`'s: keys that join share a partition.
        for pair in [[Value::Int(3), Value::Float(3.0)], [Value::Int(0), Value::Float(-0.0)]] {
            let [a, b] = pair.map(|v| Tuple::new(vec![v]));
            assert_eq!(grace(&a, 1, 5), grace(&b, 1, 5));
        }
    }

    #[test]
    fn the_resident_share_of_the_range_keeps_its_share_of_the_keys() {
        // x20's flat_join keeps 54.9 of 66 pages: about that share of the
        // keys stays resident, and the rest spread over the partitions.
        let shape = HashShape::built_on(false, 66.0, 64.0);
        let keys: Vec<Tuple> = (0..6000).map(|k| Tuple::new(vec![Value::Int(k)])).collect();
        for (spilled, share) in [(1, shape.resident_share()), (3, 0.5), (2, 0.0)] {
            let split = Split::new(0, share, spilled);
            let mut parts = vec![0usize; spilled + 1];
            for t in &keys {
                parts[split.place(t, &[0]).unwrap_or(spilled)] += 1;
            }
            let resident = parts[spilled] as f64 / keys.len() as f64;
            assert!((resident - share).abs() < 0.02, "{share}: {parts:?}");
            let each = (1.0 - share) * keys.len() as f64 / spilled as f64;
            let even = parts[..spilled].iter().all(|&n| (n as f64 - each).abs() < 0.1 * each);
            assert!(even, "{share}: {parts:?}");
        }
    }
}
