//! One profile per observed query: a tree of timed nodes, some of them
//! operators.
//!
//! A [`Profile`] is a cheaply clonable handle. Disabled (the default) it is
//! a `None` inside: every call is one branch — no lock, no clock read, no
//! allocation, and a node's name closure never runs. Enabled, `begin` /
//! `end` push and pop nodes on one open stack. Every [`ProfileNode`] carries
//! wall time and the page-I/O delta between its begin and end; a node opened
//! with [`Profile::begin_op`] also carries [`OpCounters`], which the engine
//! fills while that node is the innermost open one. A child's interval lies
//! inside its parent's, so the children of a node never sum to more than
//! the node, in wall time or in any of the four I/O counters.
//!
//! The I/O readings come from a *probe* the creator supplies, a pure load of
//! the engine's cumulative counters, and operator counters are relaxed
//! atomics on the side: observing a query cannot change what it is charged.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Cumulative page-I/O reading taken by a profile probe, or the difference
/// of two readings charged to a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDelta {
    /// Pages read from the simulated disk.
    pub reads: u64,
    /// Pages written to the simulated disk.
    pub writes: u64,
    /// Buffer-pool hits.
    pub hits: u64,
    /// Buffer-pool misses.
    pub misses: u64,
}

impl IoDelta {
    /// Component-wise difference `self - earlier` (saturating, so a
    /// mid-query counter reset cannot underflow).
    pub fn since(&self, earlier: &IoDelta) -> IoDelta {
        IoDelta {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A u64 counter: one relaxed atomic.
///
/// Every operation is `Relaxed`: these are statistics, not
/// synchronization. Execution is serial, so one slot is all a counter
/// needs; a total read while a writer runs sees some prefix of its adds.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The sum of every add so far.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.total())
    }
}

/// Live counters of an open operator node, field for field the [`OpStats`]
/// it ends as.
#[derive(Default, Debug)]
#[allow(missing_docs)]
pub struct OpCounters {
    pub rows_in: Counter,
    pub rows_out: Counter,
    pub build_ns: AtomicU64,
    pub probe_ns: AtomicU64,
}

/// The counters of a finished operator node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Tuples consumed (summed over inputs).
    pub rows_in: u64,
    /// Tuples produced.
    pub rows_out: u64,
    /// Join build phase, nanoseconds: hash join's table build, nested-loop
    /// join's first inner pass (0 for every other operator).
    pub build_ns: u64,
    /// Join probe phase, nanoseconds (0 when not a hash or nested-loop join).
    pub probe_ns: u64,
}

/// One finished node: a named region of the query lifecycle — a phase, a
/// transformation step or a physical operator — with its wall time, I/O
/// delta, operator counters (operator nodes only) and nested children.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Node name, e.g. `"transform"`, `"NEST-JA2 step 2b"` or
    /// `"merge join (1 keys)"`.
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Page-I/O delta observed between begin and end.
    pub io: IoDelta,
    /// Operator counters; `None` for a plain lifecycle node.
    pub op: Option<OpStats>,
    /// Child nodes, in begin order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Render this subtree as indented text lines, one per node.
    pub fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut line = format!("{}{}  [{:.3} ms", "  ".repeat(depth), self.name, ms(self.wall_ns));
        let io = &self.io;
        if *io != IoDelta::default() {
            let _ = write!(line, ", io: {}r/{}w, buf: {}h/{}m", io.reads, io.writes, io.hits, io.misses);
        }
        line.push(']');
        if let Some(op) = &self.op {
            let _ = write!(line, " rows {} -> {}", op.rows_in, op.rows_out);
            if op.build_ns > 0 || op.probe_ns > 0 {
                let _ =
                    write!(line, " (build {:.3} ms, probe {:.3} ms)", ms(op.build_ns), ms(op.probe_ns));
            }
        }
        out.push(line);
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Depth-first search for the first node named `name` in this subtree
    /// (including `self`), wherever it nests.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        let hit = (self.name == name).then_some(self);
        hit.or_else(|| self.children.iter().find_map(|c| c.find(name)))
    }

    /// JSON form: `{name, wall_ns, io: {reads, writes, hits, misses},
    /// op: null | {rows_in, rows_out, build_ns, probe_ns}, children: [..]}`.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::num(n as f64);
        let io = &self.io;
        let io = [("reads", io.reads), ("writes", io.writes), ("hits", io.hits), ("misses", io.misses)];
        let op = self.op.as_ref().map_or(Json::Null, |op| {
            Json::obj([
                ("rows_in", num(op.rows_in)),
                ("rows_out", num(op.rows_out)),
                ("build_ns", num(op.build_ns)),
                ("probe_ns", num(op.probe_ns)),
            ])
        });
        Json::obj([
            ("name", Json::str(&self.name)),
            ("wall_ns", num(self.wall_ns)),
            ("io", Json::obj(io.map(|(key, n)| (key, num(n))))),
            ("op", op),
            ("children", Json::Arr(self.children.iter().map(ProfileNode::to_json).collect())),
        ])
    }
}

/// Handle to an open node; pass back to [`Profile::end`].
#[derive(Debug, Clone, Copy)]
pub struct NodeId(usize);

struct OpenNode {
    id: usize,
    node: ProfileNode,
    started: Instant,
    io_at_start: IoDelta,
    op: Option<Arc<OpCounters>>,
}

struct Recorder {
    /// Reads the cumulative I/O counters. Must be a pure load.
    probe: Box<dyn Fn() -> IoDelta + Send + Sync>,
    /// Finished top-level nodes.
    roots: Vec<ProfileNode>,
    /// Stack of open nodes, outermost first.
    open: Vec<OpenNode>,
    next_id: usize,
}

impl Recorder {
    /// Close every open node at stack depth `depth` or deeper, innermost
    /// first, all against one end reading.
    fn close_to(&mut self, depth: usize) {
        let io_now = (self.probe)();
        while self.open.len() > depth {
            let open = self.open.pop().expect("length just checked");
            let mut node = open.node;
            node.wall_ns = open.started.elapsed().as_nanos() as u64;
            node.io = io_now.since(&open.io_at_start);
            node.op = open.op.map(|c| OpStats {
                rows_in: c.rows_in.total(),
                rows_out: c.rows_out.total(),
                build_ns: c.build_ns.load(Ordering::Relaxed),
                probe_ns: c.probe_ns.load(Ordering::Relaxed),
            });
            match self.open.last_mut() {
                Some(parent) => parent.node.children.push(node),
                None => self.roots.push(node),
            }
        }
    }
}

/// Per-query recorder handle. `Profile::default()` is disabled — every
/// call a single branch and a no-op — and free to clone and pass around;
/// [`Profile::with_probe`] makes one that records.
#[derive(Clone, Default)]
pub struct Profile {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl Profile {
    /// An enabled profile whose nodes record I/O deltas via `probe` — a
    /// pure read of cumulative counters, called at each begin and end
    /// (`IoDelta::default` where there is nothing to read: wall time only).
    pub fn with_probe(probe: impl Fn() -> IoDelta + Send + Sync + 'static) -> Profile {
        let rec = Recorder { probe: Box::new(probe), roots: Vec::new(), open: Vec::new(), next_id: 0 };
        Profile { inner: Some(Arc::new(Mutex::new(rec))) }
    }

    fn open(&self, is_op: bool, name: impl FnOnce() -> String) -> NodeId {
        let Some(rec) = &self.inner else { return NodeId(usize::MAX) };
        let node = ProfileNode { name: name(), ..ProfileNode::default() };
        let mut rec = rec.lock().expect("profile lock");
        let id = rec.next_id;
        rec.next_id += 1;
        let io_at_start = (rec.probe)();
        let op = is_op.then(Arc::default);
        rec.open.push(OpenNode { id, node, started: Instant::now(), io_at_start, op });
        NodeId(id)
    }

    /// Open a node under the innermost open one.
    pub fn begin(&self, name: &str) -> NodeId {
        self.open(false, || name.to_string())
    }

    /// [`begin`](Profile::begin) with a computed name; `name` only runs
    /// when the profile records.
    pub fn begin_with(&self, name: impl FnOnce() -> String) -> NodeId {
        self.open(false, name)
    }

    /// Open an operator node: like [`begin_with`](Profile::begin_with),
    /// and the node carries [`OpCounters`].
    pub fn begin_op(&self, name: impl FnOnce() -> String) -> NodeId {
        self.open(true, name)
    }

    /// The counters of the innermost open node, when it is an operator:
    /// where engine internals record rows and build/probe time.
    pub fn current_op(&self) -> Option<Arc<OpCounters>> {
        self.inner.as_ref()?.lock().expect("profile lock").open.last()?.op.clone()
    }

    /// Close the node opened by `begin`. Nodes opened after it and not yet
    /// closed are closed first (they nest inside it), so one abandoned on an
    /// early-error path cannot corrupt the tree.
    pub fn end(&self, node: NodeId) {
        let Some(rec) = &self.inner else { return };
        let mut rec = rec.lock().expect("profile lock");
        // Not found: already closed, e.g. by an ancestor's `end`.
        if let Some(depth) = rec.open.iter().position(|o| o.id == node.0) {
            rec.close_to(depth);
        }
    }

    /// Run `f` inside a node named `name`.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Take the finished tree, closing any still-open nodes. The profile
    /// is left empty and can be reused.
    pub fn finish(&self) -> Vec<ProfileNode> {
        let Some(rec) = &self.inner else { return Vec::new() };
        let mut rec = rec.lock().expect("profile lock");
        rec.close_to(0);
        std::mem::take(&mut rec.roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile probing a counter the test bumps by hand.
    fn counted() -> (Arc<AtomicU64>, Profile) {
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let probe = move || IoDelta { reads: c.load(Ordering::Relaxed), ..IoDelta::default() };
        (counter, Profile::with_probe(probe))
    }

    #[test]
    fn disabled_profile_is_inert_and_never_names_a_node() {
        let p = Profile::default();
        let a = p.begin("x");
        let b = p.begin_with(|| unreachable!("name closure ran on a disabled profile"));
        let c = p.begin_op(|| unreachable!("name closure ran on a disabled profile"));
        assert!(p.current_op().is_none());
        [c, b, a].into_iter().for_each(|id| p.end(id));
        assert_eq!(p.scope("s", || 42), 42);
        assert!(p.finish().is_empty());
    }

    #[test]
    fn nodes_nest_carry_io_deltas_and_close_out_of_order() {
        let (counter, p) = counted();
        let outer = p.begin("outer");
        counter.fetch_add(2, Ordering::Relaxed);
        let inner = p.begin_with(|| format!("inner {}", 1)); // never ended before its parent
        counter.fetch_add(3, Ordering::Relaxed);
        p.end(outer); // closes `inner` first
        p.end(inner); // already closed: a no-op
        p.begin("c"); // never ended at all
        assert_eq!(p.scope("d", || 41 + 1), 42);

        let roots = p.finish(); // closes `c`
        assert_eq!(roots.len(), 2);
        let (o, c) = (&roots[0], &roots[1]);
        assert_eq!((o.name.as_str(), o.io.reads, o.children.len()), ("outer", 5, 1));
        assert_eq!((o.children[0].name.as_str(), o.children[0].io.reads), ("inner 1", 3));
        assert!(o.op.is_none() && o.wall_ns >= o.children[0].wall_ns);
        assert_eq!((c.name.as_str(), c.children[0].name.as_str()), ("c", "d"));
        assert!(o.find("inner 1").is_some() && o.find("d").is_none());
        assert!(p.finish().is_empty(), "finish leaves the profile empty");
    }

    #[test]
    fn an_operator_opened_inside_another_nests_under_it_and_takes_over_recording() {
        let (counter, p) = counted();
        let outer = p.begin_op(|| "materialize TEMP3".to_string());
        p.current_op().expect("operator node").rows_out.add(3);
        let join = p.begin_op(|| "nested-loop join (1 keys)".to_string());
        counter.fetch_add(2, Ordering::Relaxed);
        // Workers record through the handle fetched before fan-out.
        let op = p.current_op().expect("innermost operator");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let op = &op;
                s.spawn(move || (0..1000).for_each(|_| op.rows_in.add(1)));
            }
        });
        op.build_ns.store(2_000_000, Ordering::Relaxed);
        op.probe_ns.store(3_000_000, Ordering::Relaxed);
        p.end(join);
        p.scope("not an operator", || assert!(p.current_op().is_none()));
        p.end(outer);

        let roots = p.finish();
        assert_eq!(roots.len(), 1, "{roots:#?}");
        let outer = &roots[0];
        assert_eq!(outer.op.as_ref().map(|o| (o.rows_in, o.rows_out)), Some((0, 3)));
        let join = &outer.children[0];
        let op = join.op.as_ref().expect("operator node keeps its counters");
        assert_eq!((op.rows_in, join.io.reads, outer.io.reads), (8000, 2, 2));
        let mut lines = Vec::new();
        outer.render_into(0, &mut lines);
        assert!(lines[0].starts_with("materialize TEMP3  ["), "{lines:?}");
        assert!(lines[1].starts_with("  nested-loop join (1 keys)  ["), "{lines:?}");
        assert!(lines[1].ends_with("] rows 8000 -> 0 (build 2.000 ms, probe 3.000 ms)"), "{lines:?}");

        // The JSON export survives the in-tree parser with every key.
        let json = Json::parse(&outer.to_json().to_string()).expect("exporter emits valid JSON");
        assert_eq!(json.get("name").and_then(Json::as_str), Some("materialize TEMP3"));
        let children = json.get("children").and_then(Json::as_arr).expect("children");
        assert_eq!(children[1].get("op"), Some(&Json::Null));
        let op = children[0].get("op").expect("operator node exports its counters");
        for key in ["rows_in", "rows_out", "build_ns", "probe_ns"] {
            assert!(op.get(key).is_some(), "missing {key} in {op}");
        }
    }
}
