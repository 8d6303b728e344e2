#![warn(missing_docs)]

//! B+tree indexes over the paged storage engine: bulk-loaded, then
//! maintained row by row.
//!
//! The paper's cost model (Section 7) prices access paths in page I/Os;
//! until now every path was a full scan. This crate adds the classic
//! alternative: a B+tree on one column, built bottom-up from a heap file,
//! whose probes read `height` internal pages plus only the leaf pages that
//! hold matching keys. All reads go through the counted buffer pool, so an
//! index path shows up in the same I/O accounting as every other operator.
//!
//! Design notes, in the spirit of the engine's "pages of decoded tuples"
//! storage model:
//!
//! * **Pages are immutable; the tree is not.** [`BTreeIndex::build`] is the
//!   bulk path of `CREATE INDEX`; [`BTreeIndex::bulk_load`] builds the same
//!   tree inside a query, sorting through the counted external sort instead
//!   of in memory and packing the leaves from the sort's last merge pass as
//!   it runs, with no sorted file between them. [`BTreeIndex::insert`] adds
//!   rows by *copy-on-write*: it descends, writes the target leaf again with
//!   the row in place, frees the old page, and — only when a leaf overflows
//!   and splits — writes again the parent node(s) that gain an entry, up to
//!   a new root. A row therefore costs O(height) pages, never the table.
//!   No page is ever updated in place, which is what lets the durable
//!   store log full post-images and nothing else.
//! * Leaves are pages of full tuples sorted by `(key, whole tuple)` (a
//!   clustered copy), so an index scan needs no base-table lookups, and a
//!   tree grown by inserts holds the same sequence a fresh build would.
//! * Internal nodes are pages of `(separator, position)` tuples. The
//!   separator is the minimum key of the child subtree when the entry was
//!   written (on the leftmost spine a later, smaller key may undercut it,
//!   which is harmless: that entry is the default branch). The **child is
//!   the entry's position in its node**: node `j` of a level records, in
//!   memory, the ordinal of its first child in the level below, and its
//!   `i`-th entry points at child `first_child + i`. A split therefore
//!   renumbers nothing on any page. The second column repeats the position
//!   and is never read; it is kept so that an entry is as wide as it always
//!   was and fan-out, height and every counted probe are unchanged. (Pages
//!   written before inserts existed carry level-wide ordinals there and open
//!   as they are.) Page ids per level are index metadata — persisted with
//!   the catalog, never scanned; each node's `first_child` is re-derived
//!   from the nodes' entry counts when the metadata is decoded.
//! * Tuples whose key is NULL are **excluded**: no SQL comparison
//!   predicate (`= < ≤ > ≥`) is ever true of NULL, so an index path over
//!   `key ⟨op⟩ literal` predicates loses nothing. `IndexStats` records how
//!   many rows were excluded so planners can reason about `IS NULL`.
//! * [`IndexStats`] carries tuple/page/height/distinct-key counts and the
//!   key range, so cost estimation is **zero-I/O** — mirroring how the
//!   Section-7 formulas work from `Pk`/`Nk` alone. Inserts keep every one
//!   of them exact.

use nsql_storage::durable::codec::{self, ByteReader, ByteWriter};
use nsql_storage::sort::SortKey;
use nsql_storage::{sorted_with, HeapFile, PageId, Storage, StorageError};
use nsql_types::{Schema, Tuple, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// One end of a key range.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyBound {
    /// No bound on this end.
    Unbounded,
    /// Inclusive bound.
    Incl(Value),
    /// Exclusive bound.
    Excl(Value),
}

impl KeyBound {
    fn admits_low(&self, key: &Value) -> bool {
        match self {
            KeyBound::Unbounded => true,
            KeyBound::Incl(v) => key.total_cmp(v) != Ordering::Less,
            KeyBound::Excl(v) => key.total_cmp(v) == Ordering::Greater,
        }
    }

    fn admits_high(&self, key: &Value) -> bool {
        match self {
            KeyBound::Unbounded => true,
            KeyBound::Incl(v) => key.total_cmp(v) != Ordering::Greater,
            KeyBound::Excl(v) => key.total_cmp(v) == Ordering::Less,
        }
    }
}

/// Zero-I/O statistics of one index, for cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Indexed tuples (NULL-key rows excluded).
    pub tuples: usize,
    /// Rows of the base file excluded for a NULL key.
    pub null_keys: usize,
    /// Distinct key values.
    pub distinct_keys: usize,
    /// Number of leaf pages.
    pub leaf_pages: usize,
    /// Tree height: internal levels read per probe (0 for a 1-leaf tree).
    pub height: usize,
    /// Minimum key, when any tuple is indexed.
    pub min_key: Option<Value>,
    /// Maximum key, when any tuple is indexed.
    pub max_key: Option<Value>,
}

impl IndexStats {
    /// Leaf pages an equality probe reads: the leaves over the distinct
    /// keys, rounded up, and never fewer than one — the leaf the descent
    /// ends at, which a tree without keys does not have and is charged
    /// anyway.
    pub fn leaves_per_probe(&self) -> usize {
        self.leaf_pages.div_ceil(self.distinct_keys.max(1)).max(1)
    }
}

/// One internal node: its page, and where its children start.
#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    /// Ordinal, in the level below, of the child its first entry points at.
    first_child: usize,
}

/// Entry width of an internal node: `(separator, position)`.
fn entry_width(sep: &Value) -> usize {
    Tuple::new(vec![sep.clone(), Value::Int(0)]).storage_width()
}

/// The page of an internal node holding `seps`, in order.
fn node_page(seps: Vec<Value>) -> Vec<Tuple> {
    seps.into_iter()
        .enumerate()
        .map(|(i, sep)| Tuple::new(vec![sep, Value::Int(i as i64)]))
        .collect()
}

/// Cut `items` into pages greedily, the way heap files pack, handing each
/// page to `emit` as it closes: a page closes when the next item would take
/// it past `budget`, but never before it holds `min` items (1 for leaves; 2
/// for internal nodes, so every level is shorter than the one below). One
/// page of items is held at a time.
fn pack_each<T>(
    items: impl IntoIterator<Item = T>,
    width: impl Fn(&T) -> usize,
    budget: usize,
    min: usize,
    mut emit: impl FnMut(Vec<T>),
) {
    let mut current = Vec::new();
    let mut used = 0usize;
    for item in items {
        let w = width(&item);
        if current.len() >= min && used + w > budget {
            emit(std::mem::take(&mut current));
            used = 0;
        }
        used += w;
        current.push(item);
    }
    if !current.is_empty() {
        emit(current);
    }
}

/// [`pack_each`] collected: all the pages of `items`.
fn pack<T>(items: Vec<T>, width: impl Fn(&T) -> usize, budget: usize, min: usize) -> Vec<Vec<T>> {
    let mut pages = Vec::new();
    pack_each(items, width, budget, min, |page| pages.push(page));
    pages
}

/// The pages a leaf or node is written as once an insert has grown it to
/// `items`: one while they fit (or are too few to divide), else two halves
/// of about equal bytes with at least `min` items each. Each half goes
/// through [`pack`], so an item wider than half a page costs an extra page
/// instead of an overfull one.
fn split<T>(
    mut items: Vec<T>,
    width: impl Fn(&T) -> usize,
    budget: usize,
    min: usize,
) -> Vec<Vec<T>> {
    let total: usize = items.iter().map(&width).sum();
    if total <= budget || items.len() < 2 * min {
        return vec![items];
    }
    let mut at = 0usize;
    let mut left = 0usize;
    while at < items.len() - min && (at < min || left + width(&items[at]) <= total / 2) {
        left += width(&items[at]);
        at += 1;
    }
    let right = items.split_off(at);
    let mut pages = pack(items, &width, budget, min);
    pages.extend(pack(right, &width, budget, min));
    pages
}

/// A B+tree on one column of a stored relation: bulk-loaded by
/// [`BTreeIndex::build`], grown copy-on-write by [`BTreeIndex::insert`].
#[derive(Clone)]
pub struct BTreeIndex {
    name: String,
    key_col: usize,
    schema: Schema,
    /// Leaf page ids in key order.
    leaves: Arc<Vec<PageId>>,
    /// Internal levels, root level last; `levels[0]` points at leaves.
    levels: Arc<Vec<Vec<Node>>>,
    stats: IndexStats,
}

impl BTreeIndex {
    /// Build an index named `name` on column `key_col` of `file`,
    /// bulk-loading bottom-up. Costs one page read per base page and one
    /// write per index page; the whole relation is sorted in memory, which
    /// is for DDL — a query builds through [`BTreeIndex::bulk_load`].
    pub fn build(storage: &Storage, name: &str, key_col: usize, file: &HeapFile) -> BTreeIndex {
        let mut entries: Vec<Tuple> = Vec::with_capacity(file.tuple_count());
        entries.extend(file.scan(storage));
        entries.sort_by(|a, b| Self::entry_cmp(key_col, a, b));
        Self::from_sorted(storage, name, key_col, file.schema(), entries)
    }

    /// [`build`](BTreeIndex::build) within the `B` pages a query has: `file`
    /// goes through the counted external sort on the key, and the sort's
    /// last merge pass is packed into leaves a page at a time as it is
    /// merged ([`sorted_with`]); the levels go on top. Costs the sort less
    /// its last pass's writes, and one write per index page: no sorted file
    /// is written or read back. Besides the index, `B − 1` run pages and
    /// the leaf being packed are held.
    ///
    /// Rows of one key keep the order `file` has them in (the sort is
    /// stable) where `build` orders them by the whole tuple, which on a
    /// duplicate-heavy key is most of the sort's comparisons (0.31 against
    /// 0.50 ms for 1 500 rows of 8 keys). Statistics, page counts and what
    /// a probe or a range scan returns, as a bag, are `build`'s; a tree
    /// that is to take inserts and still be the sequence a fresh build
    /// would make wants `build`.
    pub fn bulk_load(storage: &Storage, name: &str, key_col: usize, file: &HeapFile) -> BTreeIndex {
        let by_key = [SortKey::asc(key_col)];
        sorted_with(storage, file, &by_key, false, |sorted| {
            Self::from_sorted(storage, name, key_col, file.schema(), sorted)
        })
    }

    /// The tree over `sorted`, a relation's tuples in key order, read
    /// once: rows with a NULL key are counted and left out, the rest packed
    /// into leaves as they arrive, the statistics taken on the way.
    fn from_sorted(
        storage: &Storage,
        name: &str,
        key_col: usize,
        schema: &Schema,
        sorted: impl IntoIterator<Item = Tuple>,
    ) -> BTreeIndex {
        assert!(key_col < schema.arity(), "key column out of range");
        let mut stats = IndexStats {
            tuples: 0,
            null_keys: 0,
            distinct_keys: 0,
            leaf_pages: 0,
            height: 0,
            min_key: None,
            max_key: None,
        };
        let entries = sorted.into_iter().filter(|t| {
            let key = t.get(key_col);
            if key.is_null() {
                stats.null_keys += 1;
                return false;
            }
            if stats.max_key.as_ref().is_none_or(|k| k.total_cmp(key) != Ordering::Equal) {
                stats.distinct_keys += 1;
                stats.min_key.get_or_insert_with(|| key.clone());
                stats.max_key = Some(key.clone());
            }
            stats.tuples += 1;
            true
        });
        // Leaves: budget-packed pages of sorted tuples, exactly like a
        // heap file build.
        let mut seps = Vec::new();
        let mut leaves = Vec::new();
        pack_each(entries, Tuple::storage_width, storage.page_size(), 1, |page| {
            seps.push(page[0].get(key_col).clone());
            leaves.push(storage.write_new_page(page));
        });
        let mut index = BTreeIndex {
            name: name.to_string(),
            key_col,
            schema: schema.clone(),
            leaves: Arc::new(leaves),
            levels: Arc::new(Vec::new()),
            stats,
        };
        index.add_levels(storage, seps);
        index.stats.leaf_pages = index.leaves.len();
        index.stats.height = index.levels.len();
        index
    }

    /// The order of leaf entries: by key, ties by the whole tuple.
    fn entry_cmp(key_col: usize, a: &Tuple, b: &Tuple) -> Ordering {
        a.get(key_col).total_cmp(b.get(key_col)).then_with(|| a.total_cmp(b))
    }

    /// Stack internal levels over a top level whose nodes have the minimum
    /// keys `seps`, until one root page remains. Fanout is page-budget
    /// driven but at least 2, so each level strictly shrinks.
    fn add_levels(&mut self, storage: &Storage, mut seps: Vec<Value>) {
        let levels = Arc::make_mut(&mut self.levels);
        while seps.len() > 1 {
            let mut level = Vec::new();
            let mut next_seps = Vec::new();
            let mut first_child = 0usize;
            for node in pack(seps, entry_width, storage.page_size(), 2) {
                next_seps.push(node[0].clone());
                let children = node.len();
                level.push(Node { page: storage.write_new_page(node_page(node)), first_child });
                first_child += children;
            }
            levels.push(level);
            seps = next_seps;
        }
    }

    /// This index with `rows` added, copying only the pages that change
    /// (see the crate docs). Per row: `height` counted reads to descend,
    /// the target leaf read and written again (a run of equal keys that
    /// spans several leaves is walked to the row's place in it), the old
    /// leaf freed; a leaf that overflows splits in two and each ancestor
    /// that gains an entry is read and written again, which may split it
    /// in turn and ends, at most, in a new root. Rows with a NULL key are
    /// counted and left out. Every statistic stays exact. `self` shares
    /// the untouched pages with the result and must not be used, or have
    /// its pages dropped, afterwards.
    pub fn insert(&self, storage: &Storage, rows: &[Tuple]) -> BTreeIndex {
        let mut grown = self.clone();
        for row in rows {
            grown.insert_row(storage, row);
        }
        grown
    }

    fn insert_row(&mut self, storage: &Storage, row: &Tuple) {
        let key_col = self.key_col;
        let key = row.get(key_col);
        if key.is_null() {
            self.stats.null_keys += 1;
            return;
        }
        let before = |t: &Tuple| Self::entry_cmp(key_col, t, row) == Ordering::Less;

        // The row's place: leaf `at`, position `pos`, before the entry `next`
        // of the whole sequence. The descent lands on the first leaf that
        // can hold the key, so no earlier leaf holds an equal one; the next
        // leaf is entered only if it opens with an entry that sorts before
        // the row (a run of the row's key goes on there).
        let mut at = self.descend(storage, &KeyBound::Incl(key.clone()));
        let (mut entries, pos, next) = loop {
            let Some(&leaf) = self.leaves.get(at) else {
                break (Vec::new(), 0, None); // an empty tree
            };
            let page = storage.read_page(leaf);
            let pos = page.tuples().partition_point(before);
            let next = match page.tuples().get(pos) {
                Some(t) => Some(t.clone()),
                None => {
                    self.leaves.get(at + 1).map(|&id| storage.read_page(id).tuples()[0].clone())
                }
            };
            if pos == page.len() && next.as_ref().is_some_and(before) {
                at += 1;
            } else {
                break (page.tuples().to_vec(), pos, next);
            }
        };

        let same_key =
            |t: Option<&Tuple>| t.is_some_and(|t| t.get(key_col).total_cmp(key) == Ordering::Equal);
        let prev = pos.checked_sub(1).map(|p| &entries[p]);
        self.stats.distinct_keys += usize::from(!same_key(prev) && !same_key(next.as_ref()));
        self.stats.tuples += 1;
        if self.stats.min_key.as_ref().is_none_or(|m| key.total_cmp(m) == Ordering::Less) {
            self.stats.min_key = Some(key.clone());
        }
        if self.stats.max_key.as_ref().is_none_or(|m| key.total_cmp(m) == Ordering::Greater) {
            self.stats.max_key = Some(key.clone());
        }

        entries.insert(pos, row.clone());
        let pages = split(entries, Tuple::storage_width, storage.page_size(), 1);
        let seps: Vec<Value> = pages.iter().map(|p| p[0].get(key_col).clone()).collect();
        let ids: Vec<PageId> = pages.into_iter().map(|p| storage.write_new_page(p)).collect();
        let leaves = Arc::make_mut(&mut self.leaves);
        // (An empty tree has no leaf at `at` to replace.)
        for old in leaves.splice(at..(at + 1).min(leaves.len()), ids) {
            storage.free_page(old);
        }
        if seps.len() > 1 {
            self.replace_child(storage, 0, at, seps);
        }
        self.stats.leaf_pages = self.leaves.len();
        self.stats.height = self.levels.len();
    }

    /// Child `child` of the level below `level` (a leaf when `level` is 0)
    /// has been written again as `seps.len() > 1` nodes with those minimum
    /// keys: give them their entries in the parent at `level`, splitting it
    /// — and so on upwards — if they do not fit, and adding a root when the
    /// child was the root.
    fn replace_child(&mut self, storage: &Storage, level: usize, child: usize, seps: Vec<Value>) {
        if level == self.levels.len() {
            self.add_levels(storage, seps);
            return;
        }
        let added = seps.len() - 1;
        let nodes = &mut Arc::make_mut(&mut self.levels)[level];
        let at = nodes.partition_point(|n| n.first_child <= child) - 1;
        let old = nodes[at].clone();
        let mut entries: Vec<Value> =
            storage.read_page(old.page).tuples().iter().map(|e| e.get(0).clone()).collect();
        let pos = child - old.first_child;
        entries.splice(pos..=pos, seps);

        let mut first_child = old.first_child;
        let mut up = Vec::new();
        let mut rewritten = Vec::new();
        for node in split(entries, entry_width, storage.page_size(), 2) {
            up.push(node[0].clone());
            let children = node.len();
            rewritten.push(Node { page: storage.write_new_page(node_page(node)), first_child });
            first_child += children;
        }
        storage.free_page(old.page);
        let after = at + rewritten.len();
        nodes.splice(at..=at, rewritten);
        for node in &mut nodes[after..] {
            node.first_child += added;
        }
        if up.len() > 1 {
            self.replace_child(storage, level + 1, at, up);
        }
    }

    /// The index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column (position in the base schema).
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// The base-table schema the leaves carry.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Zero-I/O statistics for costing.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Total pages this index occupies (leaves + internal nodes).
    pub fn page_count(&self) -> usize {
        self.leaves.len() + self.levels.iter().map(Vec::len).sum::<usize>()
    }

    /// Free every index page.
    pub fn drop_pages(&self, storage: &Storage) {
        let nodes = self.levels.iter().flatten().map(|n| n.page);
        for id in self.leaves.iter().copied().chain(nodes) {
            storage.free_page(id);
        }
    }

    /// Estimated fraction of indexed tuples a range selects, from the
    /// min/max key span under a uniform assumption. Equality selects
    /// `1/distinct_keys`. Conservative (never 0 on a nonempty index).
    pub fn est_selectivity(&self, lo: &KeyBound, hi: &KeyBound) -> f64 {
        if self.stats.tuples == 0 {
            return 0.0;
        }
        if let (KeyBound::Incl(a), KeyBound::Incl(b)) = (lo, hi) {
            if a.total_cmp(b) == Ordering::Equal {
                return 1.0 / self.stats.distinct_keys.max(1) as f64;
            }
        }
        let span = |v: &Value| -> Option<f64> {
            let (min, max) = (self.stats.min_key.as_ref()?, self.stats.max_key.as_ref()?);
            let (min, max, v) = match (min, max, v) {
                (Value::Int(a), Value::Int(b), Value::Int(x)) => {
                    (*a as f64, *b as f64, *x as f64)
                }
                (Value::Float(a), Value::Float(b), Value::Float(x)) => (*a, *b, *x),
                (Value::Int(a), Value::Int(b), Value::Float(x)) => (*a as f64, *b as f64, *x),
                (Value::Float(a), Value::Float(b), Value::Int(x)) => (*a, *b, *x as f64),
                _ => return None,
            };
            if max <= min {
                return Some(0.5);
            }
            Some(((v - min) / (max - min)).clamp(0.0, 1.0))
        };
        let lo_frac = match lo {
            KeyBound::Unbounded => 0.0,
            KeyBound::Incl(v) | KeyBound::Excl(v) => span(v).unwrap_or(0.3),
        };
        let hi_frac = match hi {
            KeyBound::Unbounded => 1.0,
            KeyBound::Incl(v) | KeyBound::Excl(v) => span(v).unwrap_or(0.7),
        };
        (hi_frac - lo_frac).clamp(1.0 / self.stats.tuples as f64, 1.0)
    }

    /// Scan all tuples whose key lies in `[lo, hi]` (per the bound kinds),
    /// in key order. Reads `height` internal pages plus the touched leaves
    /// through the counted buffer pool.
    pub fn range_scan(&self, storage: &Storage, lo: &KeyBound, hi: &KeyBound) -> Vec<Tuple> {
        let mut out = Vec::new();
        if self.leaves.is_empty() {
            return out;
        }
        let mut leaf = self.descend(storage, lo);
        'leaves: while leaf < self.leaves.len() {
            let page = storage.read_page(self.leaves[leaf]);
            for t in page.tuples() {
                let key = t.get(self.key_col);
                if !hi.admits_high(key) {
                    break 'leaves;
                }
                if lo.admits_low(key) {
                    out.push(t.clone());
                }
            }
            leaf += 1;
        }
        out
    }

    /// All tuples whose key equals `key` (none for NULL, by SQL
    /// comparison semantics): [`range_scan`](BTreeIndex::range_scan) from
    /// `key` to `key`, page for page, at one comparison a tuple.
    pub fn probe_eq(&self, storage: &Storage, key: &Value) -> Vec<Tuple> {
        let mut out = Vec::new();
        if key.is_null() {
            return out;
        }
        let mut leaf = self.descend(storage, &KeyBound::Incl(key.clone()));
        while let Some(&id) = self.leaves.get(leaf) {
            let page = storage.read_page(id);
            for t in page.tuples() {
                match t.get(self.key_col).total_cmp(key) {
                    Ordering::Less => {}
                    Ordering::Equal => out.push(t.clone()),
                    Ordering::Greater => return out,
                }
            }
            leaf += 1;
        }
        out
    }

    /// Descend from the root to the ordinal of the first leaf that can
    /// contain a key admitted by `lo`: at each internal node, follow the
    /// last child whose separator is strictly below the bound (duplicates
    /// of the bound key may extend into the preceding leaf), or the first
    /// child when none is.
    fn descend(&self, storage: &Storage, lo: &KeyBound) -> usize {
        let probe = match lo {
            KeyBound::Unbounded => return 0,
            KeyBound::Incl(v) | KeyBound::Excl(v) => v,
        };
        let mut ordinal = 0usize;
        for level in self.levels.iter().rev() {
            let node = &level[ordinal];
            let page = storage.read_page(node.page);
            let below = page
                .tuples()
                .iter()
                .take_while(|e| e.get(0).total_cmp(probe) == Ordering::Less)
                .count();
            ordinal = node.first_child + below.saturating_sub(1);
        }
        ordinal
    }

    // ------------------------------------------------------------ persistence

    /// Serialize the index metadata (not the pages — those live in the
    /// store) for the catalog snapshot.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        w.put_u64(self.key_col as u64);
        codec::put_schema(w, &self.schema);
        w.put_u64(self.leaves.len() as u64);
        for id in self.leaves.iter() {
            w.put_u64(id.0);
        }
        w.put_u64(self.levels.len() as u64);
        for level in self.levels.iter() {
            w.put_u64(level.len() as u64);
            for node in level {
                w.put_u64(node.page.0);
            }
        }
        w.put_u64(self.stats.tuples as u64);
        w.put_u64(self.stats.null_keys as u64);
        w.put_u64(self.stats.distinct_keys as u64);
        codec::put_value(w, &self.stats.min_key.clone().unwrap_or(Value::Null));
        codec::put_value(w, &self.stats.max_key.clone().unwrap_or(Value::Null));
    }

    /// Reconstruct an index from [`BTreeIndex::encode`] output. The pages
    /// are those of `storage`: each internal node is looked at, uncounted,
    /// for its number of entries — where its children start in the level
    /// below is the sum over the nodes before it.
    pub fn decode(r: &mut ByteReader<'_>, storage: &Storage) -> Result<BTreeIndex, StorageError> {
        let name = r.get_str()?;
        let key_col = r.get_u64()? as usize;
        let schema = codec::get_schema(r)?;
        let n_leaves = r.get_u64()? as usize;
        let mut leaves = Vec::with_capacity(n_leaves);
        for _ in 0..n_leaves {
            leaves.push(PageId(r.get_u64()?));
        }
        let n_levels = r.get_u64()? as usize;
        let mut levels: Vec<Vec<Node>> = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let n = r.get_u64()? as usize;
            let mut level = Vec::with_capacity(n);
            let mut first_child = 0usize;
            for _ in 0..n {
                let page = PageId(r.get_u64()?);
                level.push(Node { page, first_child });
                first_child += storage.read_page_tuples_uncounted(page).len();
            }
            let below = levels.last().map_or(leaves.len(), Vec::len);
            if first_child != below {
                return Err(StorageError::Corrupt(format!(
                    "index {name}: a level's nodes hold {first_child} entries for the {below} nodes below"
                )));
            }
            levels.push(level);
        }
        let tuples = r.get_u64()? as usize;
        let null_keys = r.get_u64()? as usize;
        let distinct_keys = r.get_u64()? as usize;
        let min_key = match codec::get_value(r)? {
            Value::Null => None,
            v => Some(v),
        };
        let max_key = match codec::get_value(r)? {
            Value::Null => None,
            v => Some(v),
        };
        let stats = IndexStats {
            tuples,
            null_keys,
            distinct_keys,
            leaf_pages: leaves.len(),
            height: levels.len(),
            min_key,
            max_key,
        };
        Ok(BTreeIndex {
            name,
            key_col,
            schema,
            leaves: Arc::new(leaves),
            levels: Arc::new(levels),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_storage::{external_sort, TempFile};
    use nsql_testkit::Rng;
    use nsql_types::{Column, ColumnType, Relation};

    fn relation(rows: &[(i64, i64)]) -> Relation {
        let schema = Schema::new(vec![
            Column::qualified("T", "K", ColumnType::Int),
            Column::qualified("T", "V", ColumnType::Int),
        ]);
        let tuples =
            rows.iter().map(|&(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)])).collect();
        Relation::new(schema, tuples).unwrap()
    }

    fn build(storage: &Storage, rows: &[(i64, i64)]) -> (HeapFile, BTreeIndex) {
        let file = storage.store_relation(&relation(rows));
        let ix = BTreeIndex::build(storage, "IX", 0, &file);
        (file, ix)
    }

    #[test]
    fn probe_matches_naive_filter_with_duplicates() {
        let st = Storage::new(8, 128);
        let rows: Vec<(i64, i64)> = (0..200).map(|i| (i % 17, i)).collect();
        let (_f, ix) = build(&st, &rows);
        assert!(ix.stats().height >= 1, "200 narrow rows must build a real tree");
        for k in -1..18 {
            let got: Vec<i64> = ix
                .probe_eq(&st, &Value::Int(k))
                .iter()
                .map(|t| match t.get(1) {
                    Value::Int(v) => *v,
                    _ => panic!(),
                })
                .collect();
            let mut want: Vec<i64> =
                rows.iter().filter(|r| r.0 == k).map(|r| r.1).collect();
            want.sort();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            assert_eq!(got_sorted, want, "key {k}");
        }
    }

    #[test]
    fn range_scan_is_key_ordered_and_bounded() {
        let st = Storage::new(8, 128);
        let rows: Vec<(i64, i64)> = (0..150).rev().map(|i| (i, i * 10)).collect();
        let (_f, ix) = build(&st, &rows);
        let got = ix.range_scan(
            &st,
            &KeyBound::Excl(Value::Int(10)),
            &KeyBound::Incl(Value::Int(20)),
        );
        let keys: Vec<i64> = got
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(k) => *k,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, (11..=20).collect::<Vec<_>>());
    }

    #[test]
    fn probe_io_is_height_plus_matching_leaves() {
        let st = Storage::new(8, 128);
        let rows: Vec<(i64, i64)> = (0..400).map(|i| (i, i)).collect();
        let (_f, ix) = build(&st, &rows);
        st.clear_buffer();
        st.reset_stats();
        let hit = ix.probe_eq(&st, &Value::Int(200));
        assert_eq!(hit.len(), 1);
        let reads = st.io_stats().reads as usize;
        // Unique keys: one leaf touched, plus at most one overshoot leaf.
        assert!(
            reads <= ix.stats().height + 2,
            "probe read {reads} pages, height {}",
            ix.stats().height
        );
        assert!(
            reads < ix.stats().leaf_pages,
            "a probe must not scan all {} leaves",
            ix.stats().leaf_pages
        );
    }

    #[test]
    fn null_keys_are_excluded_and_counted() {
        let st = Storage::new(8, 128);
        let schema = Schema::new(vec![
            Column::qualified("T", "K", ColumnType::Int),
            Column::qualified("T", "V", ColumnType::Int),
        ]);
        let tuples = vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10)]),
            Tuple::new(vec![Value::Null, Value::Int(20)]),
            Tuple::new(vec![Value::Int(1), Value::Int(30)]),
            Tuple::new(vec![Value::Null, Value::Int(40)]),
        ];
        let rel = Relation::new(schema, tuples).unwrap();
        let file = st.store_relation(&rel);
        let ix = BTreeIndex::build(&st, "IX", 0, &file);
        assert_eq!(ix.stats().tuples, 2);
        assert_eq!(ix.stats().null_keys, 2);
        assert_eq!(ix.probe_eq(&st, &Value::Null).len(), 0);
        assert_eq!(ix.probe_eq(&st, &Value::Int(1)).len(), 2);
    }

    #[test]
    fn bulk_load_makes_the_tree_build_makes_through_the_counted_sort() {
        let st = Storage::new(6, 128);
        let schema = Schema::new(vec![
            Column::qualified("T", "K", ColumnType::Int),
            Column::qualified("T", "V", ColumnType::Int),
        ]);
        let mut rng = Rng::from_seed(0xb01c_10ad);
        let tuples: Vec<Tuple> = (0..700)
            .map(|i| {
                let k = if i % 23 == 0 { Value::Null } else { Value::Int(rng.gen_range(0i64..40)) };
                Tuple::new(vec![k, Value::Int(i % 5)])
            })
            .collect();
        let file = st.store_relation(&Relation::new(schema, tuples).unwrap());
        let built = BTreeIndex::build(&st, "IX", 0, &file);
        let live = st.live_pages();
        st.reset_stats();
        let loaded = BTreeIndex::bulk_load(&st, "IX", 0, &file);
        let io = st.io_stats();

        assert_eq!(loaded.stats(), built.stats());
        assert_eq!(loaded.page_count(), built.page_count());
        // Key order either way; rows of one key in file order here, in
        // tuple order there.
        let sorted = |mut rows: Vec<Tuple>| {
            rows.sort_by(Tuple::total_cmp);
            rows
        };
        let all = |ix: &BTreeIndex| ix.range_scan(&st, &KeyBound::Unbounded, &KeyBound::Unbounded);
        let keys = |rows: &[Tuple]| rows.iter().map(|t| t.get(0).clone()).collect::<Vec<_>>();
        assert_eq!(keys(&all(&loaded)), keys(&all(&built)));
        assert_eq!(sorted(all(&loaded)), all(&built));
        for k in [-1, 0, 17, 39, 40] {
            let key = Value::Int(k);
            assert_eq!(sorted(loaded.probe_eq(&st, &key)), built.probe_eq(&st, &key), "key {k}");
            let b = KeyBound::Incl(key.clone());
            assert_eq!(built.probe_eq(&st, &key), built.range_scan(&st, &b, &b), "key {k}");
        }
        // Only the index is left of the load, and it was paid for in pages:
        // the sort's passes over the file, less the last pass's writes, and
        // one write per index page.
        assert_eq!(st.live_pages(), live + loaded.page_count(), "the runs are freed");
        let p = file.page_count() as u64;
        assert_eq!((p, loaded.page_count()), (100, 113));
        // 100 pages through a six-page pool: pass 0 writes 17 runs, one merge
        // pass leaves 4, and the last pass goes to the leaves.
        assert_eq!((io.reads, io.writes), (3 * p, 2 * p + 113));

        // The load as it was: the sort wrote its last pass to a file, and
        // the leaves were packed from the file read back. The same tree,
        // for two pages fewer per page of that file.
        st.reset_stats();
        let by_key = [SortKey::asc(0)];
        let sorted = TempFile::new(&st, external_sort(&st, &file, &by_key, false));
        let written = BTreeIndex::from_sorted(&st, "IX", 0, file.schema(), sorted.scan_direct(&st));
        let was = st.io_stats();
        let s = sorted.page_count() as u64;
        drop(sorted);
        assert_eq!((s, was.reads, was.writes), (99, 399, 412));
        assert_eq!((io.reads, io.writes), (was.reads - s, was.writes - s));
        let pages = |ids: &[PageId]| -> Vec<Vec<Tuple>> {
            ids.iter().map(|&id| st.read_page_tuples_uncounted(id)).collect()
        };
        assert_eq!(pages(&loaded.leaves), pages(&written.leaves));
        let levels = |ix: &BTreeIndex| -> Vec<Vec<(Vec<Tuple>, usize)>> {
            let node = |n: &Node| (st.read_page_tuples_uncounted(n.page), n.first_child);
            ix.levels.iter().map(|level| level.iter().map(node).collect()).collect()
        };
        assert_eq!(levels(&loaded), levels(&written));
        assert_eq!(loaded.stats(), written.stats());
        written.drop_pages(&st);
        loaded.drop_pages(&st);
        assert_eq!(st.live_pages(), live);
    }

    #[test]
    fn empty_and_single_page_trees_work() {
        let st = Storage::new(8, 512);
        let (_f, empty) = build(&st, &[]);
        assert_eq!(empty.stats().height, 0);
        assert_eq!(empty.probe_eq(&st, &Value::Int(1)).len(), 0);
        assert_eq!(
            empty.range_scan(&st, &KeyBound::Unbounded, &KeyBound::Unbounded).len(),
            0
        );

        let (_f, one) = build(&st, &[(5, 50), (3, 30)]);
        assert_eq!(one.stats().height, 0, "two rows fit one leaf");
        let all = one.range_scan(&st, &KeyBound::Unbounded, &KeyBound::Unbounded);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].get(0), &Value::Int(3), "leaf order is key order");
    }

    #[test]
    fn random_databases_agree_with_naive_filter() {
        let mut rng = Rng::from_seed(0x1dbe_a575);
        for _ in 0..40 {
            let st = Storage::new(8, 128);
            let n = rng.gen_range(0..300) as usize;
            let rows: Vec<(i64, i64)> = (0..n)
                .map(|i| (rng.gen_range(-20i64..21), i as i64))
                .collect();
            let (_f, ix) = build(&st, &rows);
            for _ in 0..8 {
                let a = Value::Int(rng.gen_range(-25i64..26));
                let b = Value::Int(rng.gen_range(-25i64..26));
                let (lo, hi) = if a.total_cmp(&b) == Ordering::Greater {
                    (b.clone(), a.clone())
                } else {
                    (a.clone(), b.clone())
                };
                let lo_b = if rng.gen_bool(0.5) {
                    KeyBound::Incl(lo.clone())
                } else {
                    KeyBound::Excl(lo.clone())
                };
                let hi_b = if rng.gen_bool(0.5) {
                    KeyBound::Incl(hi.clone())
                } else {
                    KeyBound::Excl(hi.clone())
                };
                let got = ix.range_scan(&st, &lo_b, &hi_b);
                let want: Vec<i64> = {
                    let mut w: Vec<(i64, i64)> = rows
                        .iter()
                        .filter(|(k, _)| {
                            let kv = Value::Int(*k);
                            lo_b.admits_low(&kv) && hi_b.admits_high(&kv)
                        })
                        .cloned()
                        .collect();
                    w.sort();
                    w.iter().map(|(_, v)| *v).collect()
                };
                let mut got_vs: Vec<i64> = got
                    .iter()
                    .map(|t| match t.get(1) {
                        Value::Int(v) => *v,
                        _ => panic!(),
                    })
                    .collect();
                got_vs.sort();
                let mut want_sorted = want.clone();
                want_sorted.sort();
                assert_eq!(got_vs, want_sorted);
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_preserves_probes() {
        let st = Storage::new(8, 128);
        let rows: Vec<(i64, i64)> = (0..120).map(|i| (i % 11, i)).collect();
        let (_f, ix) = build(&st, &rows);
        let mut w = ByteWriter::new();
        ix.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = BTreeIndex::decode(&mut r, &st).unwrap();
        assert_eq!(back.stats(), ix.stats());
        assert_eq!(back.name(), "IX");
        assert_eq!(
            back.probe_eq(&st, &Value::Int(7)).len(),
            ix.probe_eq(&st, &Value::Int(7)).len()
        );
    }

    fn row(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    #[test]
    fn insert_costs_a_descent_and_the_leaf_it_rewrites() {
        let st = Storage::new(8, 128);
        let rows: Vec<(i64, i64)> = (0..400).map(|i| (2 * i, i)).collect();
        let (_f, ix) = build(&st, &rows);
        let (height, pages, live) = (ix.stats().height, ix.page_count(), st.live_pages());
        assert!(height >= 2);
        st.clear_buffer();
        st.reset_stats();
        // Seven entries fill a 128-byte leaf or node, and a build packs them
        // full. Key 785 belongs to the last full leaf, whose parent holds two
        // entries: the leaf splits and the parent takes the new one.
        let ix = ix.insert(&st, &[row(785, -1)]);
        let io = st.io_stats();
        assert_eq!((io.reads, io.writes), (height as u64 + 1, 3), "descent, leaf; halves, parent");
        assert_eq!(ix.page_count(), pages + 1);
        assert_eq!(st.live_pages(), live + 1, "the replaced leaf and parent are freed");
        // A half-full leaf takes the next row of its range by itself.
        st.reset_stats();
        let ix = ix.insert(&st, &[row(787, -2)]);
        assert_eq!(st.io_stats().writes, 1);
        assert_eq!(ix.page_count(), pages + 1);
        // Under ancestors that are full as well, every level splits, and
        // the root (two entries) takes the last new entry: O(height) still.
        st.reset_stats();
        let ix = ix.insert(&st, &[row(401, -3)]);
        assert_eq!(st.io_stats().writes, 2 * height as u64 + 1);
        assert_eq!(ix.stats().height, height);
        for (k, v) in [(785, -1), (787, -2), (401, -3)] {
            assert_eq!(ix.probe_eq(&st, &Value::Int(k)), vec![row(k, v)]);
        }
        assert_eq!(ix.stats().tuples, 403);
        assert_eq!(ix.stats().distinct_keys, 403);
    }

    #[test]
    fn a_tree_grown_from_nothing_splits_nodes_and_adds_roots() {
        let st = Storage::new(8, 128);
        let (file, mut ix) = build(&st, &[]);
        let mut rng = Rng::from_seed(0x5eed_1e55);
        let mut rows: Vec<(i64, i64)> = (0..600).map(|i| (i % 150, i)).collect();
        rng.shuffle(&mut rows);
        let mut heights = vec![0];
        for &(k, v) in &rows {
            ix = ix.insert(&st, &[row(k, v)]);
            if ix.stats().height != *heights.last().unwrap() {
                heights.push(ix.stats().height);
            }
        }
        // Leaves of 7, nodes of 7: 600 rows need three internal levels,
        // each one a root added over a root that split.
        assert_eq!(heights, [0, 1, 2, 3]);
        let file = file.append(&st, rows.iter().map(|&(k, v)| row(k, v)));
        let fresh = BTreeIndex::build(&st, "IX", 0, &file);
        let all = |ix: &BTreeIndex| ix.range_scan(&st, &KeyBound::Unbounded, &KeyBound::Unbounded);
        assert_eq!(all(&ix), all(&fresh));
        assert_eq!(ix.stats().distinct_keys, 150);
        assert_eq!(
            (ix.stats().min_key.clone(), ix.stats().max_key.clone()),
            (Some(Value::Int(0)), Some(Value::Int(149)))
        );
        for k in [0, 1, 74, 149, 150] {
            assert_eq!(ix.probe_eq(&st, &Value::Int(k)), fresh.probe_eq(&st, &Value::Int(k)));
        }
    }

    #[test]
    fn leaves_per_probe_on_the_empty_the_one_key_and_the_unique_tree() {
        let st = Storage::new(8, 128);
        // No keys, no leaves: a probe is still charged the one page it asks for.
        let (_f, empty) = build(&st, &[]);
        assert_eq!((empty.stats().leaf_pages, empty.stats().distinct_keys), (0, 0));
        assert_eq!(empty.stats().leaves_per_probe(), 1);
        // One key: every leaf holds matches.
        let (_f, one) = build(&st, &(0..100).map(|i| (7, i)).collect::<Vec<_>>());
        assert!(one.stats().leaf_pages > 1);
        assert_eq!(one.stats().leaves_per_probe(), one.stats().leaf_pages);
        // Unique keys: one leaf, however many there are.
        let (_f, unique) = build(&st, &(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(unique.stats().leaves_per_probe(), 1);
        // In between, rounded up.
        let (_f, some) = build(&st, &(0..200).map(|i| (i % 3, i)).collect::<Vec<_>>());
        let (per_probe, leaves) = (some.stats().leaves_per_probe(), some.stats().leaf_pages);
        assert!(3 * per_probe >= leaves && 3 * (per_probe - 1) < leaves, "{per_probe} of {leaves}");
    }

    #[test]
    fn drop_pages_releases_everything() {
        let st = Storage::new(8, 128);
        let before = st.live_pages();
        let (file, ix) = build(&st, &(0..200).map(|i| (i, i)).collect::<Vec<_>>());
        assert!(ix.page_count() > 1);
        ix.drop_pages(&st);
        file.drop_pages(&st);
        assert_eq!(st.live_pages(), before);
    }

    #[test]
    fn selectivity_estimates_are_sane() {
        let st = Storage::new(8, 128);
        let (_f, ix) = build(&st, &(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        let eq = ix.est_selectivity(
            &KeyBound::Incl(Value::Int(5)),
            &KeyBound::Incl(Value::Int(5)),
        );
        assert!((eq - 0.01).abs() < 1e-9, "unique keys: equality selects 1/100, got {eq}");
        let half = ix.est_selectivity(&KeyBound::Incl(Value::Int(50)), &KeyBound::Unbounded);
        assert!((0.3..=0.7).contains(&half), "upper half ≈ 0.5, got {half}");
        let all = ix.est_selectivity(&KeyBound::Unbounded, &KeyBound::Unbounded);
        assert!((all - 1.0).abs() < 1e-9);
    }
}
