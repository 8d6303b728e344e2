//! The cost model: the paper's analytical page-I/O formulas (Section 7), the
//! Kim-style baselines they are compared against, and the two choices the
//! engine makes by them at plan time — a join step's method
//! ([`classic_join_costs`], and [`hash_join_cost`] for the post-paper hash
//! join) and a correlated block's access path ([`nested_access_costs`]).
//! Every page or CPU price in the workspace is computed here; the callers
//! only gather the counts.
//!
//! Notation follows [KIM 82:462] as the paper restates it: `Ri` is the
//! outer relation, `Rj` the inner, `Rt` the aggregate temporary; `Pk` is
//! the page count of `Rk`, `Nk` its tuple count; `f(i)` the fraction of
//! `Ri` tuples satisfying the simple predicates on `Ri`; `B` the buffer
//! size in pages. Sorting a `P`-page relation with a (B−1)-way merge sort
//! costs `2·P·log_{B-1}(P)` page I/Os.
//!
//! The logarithm is **continuous** (not ceiled): the Section-7.4 worked
//! example (Pi=50, Pj=30, Pt2=7, Pt3=10, Pt4=8, Pt=5, B=6) only reproduces
//! the paper's "about 475" figure with real-valued logs — with ceiling the
//! total is 558. See `EXPERIMENTS.md` (E2).

use nsql_sql::{CompareOp, InRhs, Predicate};
use nsql_types::ColumnType;

/// Sort cost: `2·P·log_{B-1}(P)`, 0 for relations of at most one page.
///
/// The `pages <= 1` guard is written as `!(pages > 1.0)` so a NaN page
/// estimate (degenerate statistics) also short-circuits to 0 instead of
/// propagating NaN into a strategy comparison.
pub fn sort_cost(pages: f64, buffer: f64) -> f64 {
    if !(pages > 1.0) {
        return 0.0;
    }
    let base = (buffer - 1.0).max(2.0);
    2.0 * pages * pages.log(base)
}

/// Pages read of a `pages`-page inner relation that is scanned `times` times
/// through a `b`-page buffer: once if it fits `B − 1` pages (one page is the
/// outer's), every time if it does not. The cliff every nested-loop formula
/// of Section 7 has.
fn rescanned_pages(pages: f64, b: f64, times: f64) -> f64 {
    if pages <= b - 1.0 {
        pages
    } else {
        times * pages
    }
}

/// `a / b` with degenerate denominators guarded: a zero-row or zero-page
/// statistic yields 0 instead of `inf`/NaN, so downstream comparisons stay
/// well-ordered.
pub fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 && a.is_finite() {
        a / b
    } else {
        0.0
    }
}

/// Clamp a predicted cost into the comparable range: NaN and negative
/// estimates (both only reachable from degenerate statistics) become
/// `+inf`, so they can never *win* a `<` comparison by accident — NaN
/// compares false against everything, which would otherwise silently keep
/// whichever plan happened to be the running minimum.
pub fn sanitize_cost(c: f64) -> f64 {
    if c.is_nan() || c < 0.0 {
        f64::INFINITY
    } else {
        c
    }
}

/// Join method at one of the two NEST-JA2 joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Nested loops (cheap iff the inner fits in `B−1` buffer pages).
    NestedLoop,
    /// Sort-merge.
    MergeJoin,
}

impl JoinMethod {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            JoinMethod::NestedLoop => "nested-loop",
            JoinMethod::MergeJoin => "merge-join",
        }
    }
}

/// Parameters of a single-level type-JA query, Section 7.4.
#[derive(Debug, Clone, Copy)]
pub struct Ja2Params {
    /// Pages of the outer relation `Ri`.
    pub pi: f64,
    /// Pages of the inner relation `Rj`.
    pub pj: f64,
    /// Pages of `Rt2` (projected/restricted outer join column).
    pub pt2: f64,
    /// Tuples in `Rt2`.
    pub nt2: f64,
    /// Pages of `Rt3` (projected/restricted inner relation).
    pub pt3: f64,
    /// Pages of `Rt4` (join result before GROUP BY).
    pub pt4: f64,
    /// Pages of `Rt` (the aggregate temporary).
    pub pt: f64,
    /// Buffer pages `B`.
    pub b: f64,
    /// `f(i)·Ni`: outer tuples satisfying the simple predicates.
    pub fi_ni: f64,
    /// Whether `Ri` arrives sorted on the join column (the final merge
    /// join then skips its sort).
    pub ri_sorted: bool,
}

impl Ja2Params {
    /// The Section-7.4 worked example.
    pub fn paper_example() -> Ja2Params {
        Ja2Params {
            pi: 50.0,
            pj: 30.0,
            pt2: 7.0,
            nt2: 100.0,
            pt3: 10.0,
            pt4: 8.0,
            pt: 5.0,
            b: 6.0,
            fi_ni: 100.0,
            ri_sorted: false,
        }
    }
}

/// Cost breakdown of NEST-JA2 (Section 7.4).
#[derive(Debug, Clone, Copy)]
pub struct Ja2Cost {
    /// Step 1: project + restrict `Ri` → `Rt2` (sorted, duplicates gone).
    pub outer_projection: f64,
    /// Step 2: build `Rt3`, join with `Rt2`, GROUP BY → `Rt`.
    pub temp_creation: f64,
    /// Step 3: join `Rt` with `Ri`.
    pub final_join: f64,
}

impl Ja2Cost {
    /// Total page I/Os.
    pub fn total(&self) -> f64 {
        self.outer_projection + self.temp_creation + self.final_join
    }
}

/// Cost of NEST-JA2 with the given join methods at the temporary-creation
/// join (`m_temp`) and the final join (`m_final`) — the "four possible
/// total costs" of Section 7.4.
pub fn ja2_cost(p: &Ja2Params, m_temp: JoinMethod, m_final: JoinMethod) -> Ja2Cost {
    // Step 1 (§7.1): read Ri, write Rt2, sort it removing duplicates.
    let outer_projection = p.pi + p.pt2 + sort_cost(p.pt2, p.b);

    // Step 2 (§7.2): create Rt3 (read Rj, write Rt3), join with Rt2, GROUP
    // BY into Rt.
    let temp_creation = match m_temp {
        JoinMethod::NestedLoop => {
            // Read Rt2 once and Rt3 once per Rt2 tuple (once if cached),
            // write Rt4.
            let join = p.pj + p.pt3 + p.pt2 + rescanned_pages(p.pt3, p.b, p.nt2) + p.pt4;
            // Rt4 from nested loops is unsorted: sort it for GROUP BY,
            // then read it and write Rt.
            join + sort_cost(p.pt4, p.b) + p.pt4 + p.pt
        }
        JoinMethod::MergeJoin => {
            // Build Rt3 and sort it (Rt2 is already in join-column order);
            // merge join writes Rt4 in GROUP BY order, so the GROUP BY is a
            // single pass: read Rt4, write Rt.
            p.pj + p.pt3 + sort_cost(p.pt3, p.b) + p.pt2 + p.pt3 + 2.0 * p.pt4 + p.pt
        }
    };

    // Step 3 (§7.3): join Rt with Ri. Rt is already in join-column order.
    let final_join = match m_final {
        JoinMethod::MergeJoin => {
            let sort_ri = if p.ri_sorted { 0.0 } else { sort_cost(p.pi, p.b) };
            sort_ri + p.pi + p.pt
        }
        JoinMethod::NestedLoop => p.pi + rescanned_pages(p.pt, p.b, p.fi_ni),
    };
    Ja2Cost { outer_projection, temp_creation, final_join }
}

/// The "four possible total costs" of Section 7.4: every (temporary-creation,
/// final) pair of join methods with [`ja2_cost`] under it, nested loops first.
pub fn ja2_costs(p: &Ja2Params) -> Vec<(JoinMethod, JoinMethod, Ja2Cost)> {
    let methods = [JoinMethod::NestedLoop, JoinMethod::MergeJoin];
    methods.iter().flat_map(|&t| methods.map(|f| (t, f, ja2_cost(p, t, f)))).collect()
}

/// Worst-case nested-iteration cost of a type-J / type-JA query
/// (Section 7.4 / [KIM 82]): read `Ri` once and `Rj` once per qualifying
/// outer tuple. When `Rj` fits in the buffer the rescans are free.
pub fn nested_iteration_cost_j(pi: f64, pj: f64, b: f64, fi_ni: f64) -> f64 {
    pi + rescanned_pages(pj, b, fi_ni)
}

/// System R cost of a type-N query: evaluate the inner block once into a
/// stored list `X` (read `Rj`, write `Px`), then scan `Ri` testing
/// membership against `X` — rescanning `X` per outer tuple when it exceeds
/// the buffer.
pub fn nested_iteration_cost_n(pi: f64, pj: f64, px: f64, b: f64, ni: f64) -> f64 {
    pj + px + pi + rescanned_pages(px, b, ni)
}

/// Cost of the canonical (transformed) two-relation query evaluated with a
/// merge join: sort both sides, scan both.
pub fn transformed_merge_join_cost(pi: f64, pj: f64, b: f64) -> f64 {
    sort_cost(pi, b) + sort_cost(pj, b) + pi + pj
}

// ------------------------------------------------------ the strategy choice

/// The two executable strategies EXPLAIN compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// System R nested iteration.
    NestedIteration,
    /// Full decorrelation (NEST-G transformation, then the flat plan).
    Transform,
}

impl StrategyKind {
    /// Display name used in EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::NestedIteration => "nested-iteration",
            StrategyKind::Transform => "transform",
        }
    }
}

/// Predicted page-I/O cost of each executable strategy on one nested
/// query, both [`sanitize_cost`]-guarded so NaN can never mis-rank.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCosts {
    /// Nested iteration ([`nested_iteration_cost_j`], or the access path
    /// the evaluator would take, [`nested_access_costs`]).
    pub nested_iteration: f64,
    /// Cheapest NEST-JA2 method combination ([`ja2_cost`]), or the
    /// merge-join canonical cost for non-JA shapes.
    pub transform: f64,
}

impl StrategyCosts {
    /// The planner's pick: the cheaper of the sanitized costs. A tie goes to
    /// the transformation, the paper's headline strategy, so equal
    /// predictions keep plans deterministic across platforms.
    pub fn pick(&self) -> StrategyKind {
        if self.of(StrategyKind::NestedIteration) < self.of(StrategyKind::Transform) {
            StrategyKind::NestedIteration
        } else {
            StrategyKind::Transform
        }
    }

    /// Cost of one strategy, sanitized.
    pub fn of(&self, kind: StrategyKind) -> f64 {
        sanitize_cost(match kind {
            StrategyKind::NestedIteration => self.nested_iteration,
            StrategyKind::Transform => self.transform,
        })
    }
}

// ------------------------------------------------------- index access paths
//
// The 1987 model prices only scans and sorts because its System R substrate
// exposed no secondary index to the transformed plans. With a B+tree on a
// column, two of NEST-JA2's steps gain a third method:
//
// * the **outer-column restriction** (§7.1's read of `Ri` under the simple
//   predicates) can probe the index instead of scanning all `Pi` pages;
// * the **back-join** of `Rt` with `Ri` (§7.3) can, instead of sorting
//   `Ri`, probe `Ri`'s index once per `Rt` tuple.
//
// Both formulas follow the same shape as the paper's: counts of page
// fetches from relation statistics, no constant factors.

/// Page fetches for one index range restriction: descend `height` internal
/// pages, then read the `selectivity` fraction of the `leaf_pages` leaves
/// (at least one when anything matches).
pub fn index_restrict_cost(height: f64, leaf_pages: f64, selectivity: f64) -> f64 {
    let leaves = (leaf_pages * selectivity.clamp(0.0, 1.0)).ceil().max(1.0);
    height + leaves.min(leaf_pages.max(1.0))
}

/// Page fetches for an index nested-loop join: read the `p_outer` pages of
/// the outer relation, and for each of its `n_outer` tuples descend the
/// inner index (`height` internal pages) and fetch the leaves holding the
/// matches (`leaves_per_probe`, ≥ 1). Repeated probes of a hot root are
/// still charged — the model, like the paper's, assumes the worst-case
/// cold buffer for each probe.
pub fn index_nested_join_cost(
    p_outer: f64,
    n_outer: f64,
    height: f64,
    leaves_per_probe: f64,
) -> f64 {
    p_outer + n_outer * (height + leaves_per_probe.max(1.0))
}

// ----------------------------------------------------------- in-memory work

/// Buffer visits — page requests the pool answers, hit or miss — that take
/// as long as one counted page I/O, and ([`SORTED_ROWS_PER_PAGE_IO`]) rows
/// through the external sort that do.
///
/// From the benchmark's kernel probes on the development host (x20 tables,
/// 4 KiB pages; `benchmark/run.sh big-unnest`, traced run): one page I/O is
/// `storage.scan_ms` over SUPPLY's pages, 0.775 ms / 250 = 3.1 µs; one
/// sorted row is `storage.sort_ms` over SUPPLY's rows, 9.43 ms / 30 000 =
/// 0.31 µs, so 10 rows to the page I/O; one visit is at most
/// `engine.nl_join_ms` over outer rows × inner pages, 72.2 ms / (2 000 ×
/// 250) = 0.14 µs — there every visit misses a 64-page pool and pays the
/// read as well. The term decides only where the inner fits the pool and
/// the page formula says `Pl + Pr`; there every visit after the first pass
/// is a hit, measured at 0.03 µs (EXPERIMENTS.md "Restrict before you
/// join", ablation 1: 499 975 hits, 14 ms), so about 100 to the page I/O.
/// Rounded down to powers of two, which keeps the ratio at the 8 visits to
/// a sorted row that held on all fourteen transformed shapes. To re-derive:
/// run the traced benchmark, divide as above.
const VISITS_PER_PAGE_IO: f64 = 64.0;
/// Rows through the external sort that take as long as one counted page I/O
/// (derived with [`VISITS_PER_PAGE_IO`]).
const SORTED_ROWS_PER_PAGE_IO: f64 = 8.0;
/// Rows hashed — into a Grace partition, into the in-memory table, or
/// against it — that take as long as one counted page I/O (see
/// [`hash_join_cost`]). From the same traced run as [`VISITS_PER_PAGE_IO`]:
/// `engine.hash_join_ms` joins PARTS (167 pages) with SUPPLY (250) through
/// the 64-page pool, building on PARTS in three partitions, one level: 1 251
/// page I/Os and (20 000 + 30 000) · 2 rows hashed in 38.4 ms, beside one
/// page I/O of `storage.scan_ms` 0.84 ms / 250 = 3.4 µs. 38.4 ms / 100 000
/// = 0.38 µs a row hashed, so 8.8 to the page I/O; rounded down to a power
/// of two.
const HASHED_ROWS_PER_PAGE_IO: f64 = 8.0;

// ---------------------------------------------------------- the join choice

/// One input of a join step, as the join choice sees it.
#[derive(Debug, Clone, Copy)]
pub struct JoinInput {
    /// Pages.
    pub pages: f64,
    /// Tuples.
    pub rows: f64,
    /// Whether it arrives in join-key order (a merge join skips its sort).
    pub sorted: bool,
}

/// One join method's cost: Section 7's page I/Os and, when priced, its
/// in-memory work as (count, unit, count per page I/O).
#[derive(Debug, Clone, Copy)]
pub struct JoinCost {
    pages: f64,
    cpu: Option<(f64, &'static str, f64)>,
}

impl JoinCost {
    /// In page I/Os.
    pub fn total(&self) -> f64 {
        self.pages + self.cpu.map_or(0.0, |(work, _, per_page_io)| work / per_page_io)
    }
}

impl std::fmt::Display for JoinCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cpu {
            Some((work, unit, _)) => write!(f, "{:.1} pages + {work:.0} {unit}", self.pages),
            None => write!(f, "{:.1}", self.pages),
        }
    }
}

/// What the paper's two join methods cost on inputs `l` (outer) and `r`
/// (inner): (nested loop, merge join). The pages are Section 7's —
/// [`nested_iteration_cost_j`] with every outer tuple qualifying, and
/// [`transformed_merge_join_cost`] less the sort of a side that arrives
/// sorted. With `price_cpu` each method also carries the work it does in
/// memory: the nested-loop kernel asks the pool for every inner page once
/// per outer tuple by design (an index may save CPU on a page, never the
/// page read), so an inner that fits `B − 1` pages costs `Pl + Pr` reads and
/// `Nl · Pr` buffer visits; the merge join pushes every row of an unsorted
/// input through the external sort.
pub fn classic_join_costs(
    l: JoinInput,
    r: JoinInput,
    b: f64,
    price_cpu: bool,
) -> (JoinCost, JoinCost) {
    let nl = nested_iteration_cost_j(l.pages, r.pages, b, l.rows);
    let sort = |side: JoinInput| if side.sorted { 0.0 } else { sort_cost(side.pages, b) };
    let mj = sort(l) + sort(r) + l.pages + r.pages;
    let sorted_rows = |side: JoinInput| if side.sorted { 0.0 } else { side.rows };
    let cpu = |work: f64, unit, per_page_io| price_cpu.then_some((work, unit, per_page_io));
    (
        JoinCost { pages: nl, cpu: cpu(l.rows * r.pages, "visits", VISITS_PER_PAGE_IO) },
        JoinCost {
            pages: mj,
            cpu: cpu(sorted_rows(l) + sorted_rows(r), "rows sorted", SORTED_ROWS_PER_PAGE_IO),
        },
    )
}

// ----------------------------------------------------------- the hash join

/// Partitioning passes a hash join makes at most before it builds in memory
/// whatever it holds. Below the cap a build side is split until it fits
/// `B − 2` pages; at the cap it is built whole, which is what the all-one-key
/// build side (no hash splits it) comes to.
pub const GRACE_MAX_DEPTH: u32 = 4;

/// How a hash join on inputs of `l_pages` and `r_pages` pages starts — the
/// one place that decides it, for the kernel, its price and the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashShape {
    /// The table is built on the left input: only an inner join, and only
    /// when the left has fewer pages (a tie builds right). A left outer join
    /// builds right, so that its probe sees every left tuple.
    pub build_left: bool,
    /// Partitions of the first Grace pass (`clamp(⌈build/(B−2)⌉, 2, B−1)`);
    /// 0 when the build side fits `B − 2` pages.
    pub partitions: usize,
}

impl HashShape {
    /// The shape under a `b`-page pool; `left_outer` for a left outer join.
    pub fn of(l_pages: f64, r_pages: f64, left_outer: bool, b: f64) -> HashShape {
        let build_left = !left_outer && l_pages < r_pages;
        let build = if build_left { l_pages } else { r_pages };
        let partitions = if hash_build_fits(build, b) { 0 } else { grace_fanout(build, b) };
        HashShape { build_left, partitions }
    }

    /// Whether the join emits its rows in the left input's order: it built
    /// on the right and did not partition, so the left streamed past the
    /// table in file order.
    pub fn keeps_left_order(&self) -> bool {
        !self.build_left && self.partitions == 0
    }
}

/// The buffer pages a hash join may fill with its table: `B − 2`, one page
/// being the probe side's and one the output's (and never fewer than one).
fn hash_table_pages(b: f64) -> f64 {
    (b - 2.0).max(1.0)
}

/// Whether a `pages`-page build side is hashed in memory as it is, rather
/// than partitioned first.
pub(crate) fn hash_build_fits(pages: f64, b: f64) -> bool {
    pages <= hash_table_pages(b)
}

/// How many partitions one Grace pass splits a `pages`-page build side
/// into: enough for each to fit [`hash_build_fits`] if the keys spread
/// evenly, at least two and at most `B − 1` (one page is the input's, one
/// each partition's output buffer).
pub(crate) fn grace_fanout(pages: f64, b: f64) -> usize {
    let most = hash_table_pages(b) + 1.0;
    (pages / hash_table_pages(b)).ceil().clamp(2.0, most.max(2.0)) as usize
}

/// Partitioning passes a `pages`-page build side needs if every pass splits
/// it evenly as many ways as [`HashShape::partitions`] says, up to
/// [`GRACE_MAX_DEPTH`].
pub fn grace_levels(pages: f64, b: f64) -> u32 {
    let (mut pages, mut levels) = (pages, 0);
    while !hash_build_fits(pages, b) && levels < GRACE_MAX_DEPTH {
        pages /= grace_fanout(pages, b) as f64;
        levels += 1;
    }
    levels
}

/// What the hash join costs on inputs `l` and `r` (left outer when
/// `left_outer`). It builds on the side [`HashShape`] names. A build
/// side that fits `B − 2` pages is hashed in memory while the other side
/// streams past it: `Pl + Pr`. A larger one is Grace-partitioned first: both
/// inputs are read, written into partitions by a hash of the key and read
/// back, once per level of [`grace_levels`], so the pages are
/// `(Pl + Pr)·(1 + 2·levels)` — a partition's partly filled last page, and
/// a partition the keys do not split evenly, are what the estimate leaves
/// out. With `price_cpu` it also carries its in-memory work: every row is
/// hashed once per partitioning level and once into or against the table,
/// `(Nl + Nr)·(1 + levels)` rows hashed.
pub fn hash_join_cost(
    l: JoinInput,
    r: JoinInput,
    left_outer: bool,
    b: f64,
    price_cpu: bool,
) -> JoinCost {
    let shape = HashShape::of(l.pages, r.pages, left_outer, b);
    let build = if shape.build_left { l.pages } else { r.pages };
    let levels = f64::from(grace_levels(build, b));
    JoinCost {
        pages: (l.pages + r.pages) * (1.0 + 2.0 * levels),
        cpu: price_cpu.then_some((
            (l.rows + r.rows) * (1.0 + levels),
            "rows hashed",
            HASHED_ROWS_PER_PAGE_IO,
        )),
    }
}

// -------------------------------------------- nested iteration's access path

/// What evaluating one correlated block costs by either path, in page-I/O
/// equivalents ([`nested_access_costs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCosts {
    /// Estimated evaluations of the block in the query (`fi·Ni`, multiplied
    /// down the nesting chain).
    pub evaluations: f64,
    /// Rescanning the inner file on every evaluation.
    pub scan: f64,
    /// Building the trees that are not in the catalog (0 when all are).
    pub build: f64,
    /// Probing on every evaluation.
    pub probes: f64,
}

impl AccessCosts {
    /// Whether building and probing is the cheaper path.
    pub fn probes_win(&self) -> bool {
        self.build + self.probes < self.scan
    }

    /// Cost of the cheaper path.
    pub fn chosen(&self) -> f64 {
        (self.build + self.probes).min(self.scan)
    }
}

impl std::fmt::Display for AccessCosts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "est. {:.0} evaluations: scan {:.0} pages vs ", self.evaluations, self.scan)?;
        if self.build > 0.0 {
            write!(f, "build {:.0} + ", self.build)?;
        }
        write!(f, "probes {:.0}", self.probes)
    }
}

/// The inner term of [`nested_iteration_cost_j`]'s `Pi + fi·Ni·Pj` by either
/// access path: rescanning the `pj`-page inner file on each of `evaluations`
/// evaluations, or paying `build` once and reading `pages_per_evaluation`
/// index pages (`h + l` per key) on each — System R's `Pi + fi·Ni·(h + l)`
/// [SEL 79]. `Pi` is left out: both paths read the outer relation once. As
/// in the paper a file that fits `B − 1` pages is read once however often it
/// is rescanned (and not at all when it is never evaluated); every page
/// either path asks the pool for is priced as a buffer visit on top, so that
/// such a file is not free.
pub fn nested_access_costs(
    evaluations: f64,
    pj: f64,
    b: f64,
    build: f64,
    pages_per_evaluation: f64,
) -> AccessCosts {
    let rescanned = evaluations * pj;
    let read = rescanned_pages(pj, b, evaluations).min(rescanned);
    let probed = evaluations * pages_per_evaluation;
    AccessCosts {
        evaluations,
        scan: read + rescanned / VISITS_PER_PAGE_IO,
        build,
        probes: probed + probed / VISITS_PER_PAGE_IO,
    }
}

/// System R's selectivity factors for predicates it has no statistics on
/// [SEL 79, Table 1]: `column = value` and `column1 = column2` 1/10, an
/// open range (`<`, `<=`, `>`, `>=`) 1/3, `IN (list)` the list's length
/// times the equality factor and at most 1/2; `AND` multiplies, `OR` is
/// `F1 + F2 − F1·F2`, `NOT` (and so `!=`) is `1 − F`. A NULL test is not in
/// the table; it is priced as an equality.
const SEL_EQ: f64 = 1.0 / 10.0;
const SEL_RANGE: f64 = 1.0 / 3.0;
const SEL_IN_MAX: f64 = 1.0 / 2.0;

/// Default selectivity of a simple predicate (see [`SEL_EQ`]).
pub fn selectivity(p: &Predicate) -> f64 {
    let not = |negated: bool, f: f64| if negated { 1.0 - f } else { f };
    match p {
        Predicate::And(ps) => ps.iter().map(selectivity).product(),
        Predicate::Or(ps) => 1.0 - ps.iter().map(|q| 1.0 - selectivity(q)).product::<f64>(),
        Predicate::Not(q) => 1.0 - selectivity(q),
        Predicate::Compare { op: CompareOp::Eq, .. } => SEL_EQ,
        Predicate::Compare { op: CompareOp::Ne, .. } => 1.0 - SEL_EQ,
        Predicate::Compare { .. } => SEL_RANGE,
        Predicate::In { negated, rhs: InRhs::List(list), .. } => {
            not(*negated, (list.len() as f64 * SEL_EQ).min(SEL_IN_MAX))
        }
        Predicate::IsNull { negated, .. } => not(*negated, SEL_EQ),
        // Nested conjuncts are not simple; nobody asks.
        Predicate::In { rhs: InRhs::Subquery(_), .. }
        | Predicate::Exists { .. }
        | Predicate::Quantified { .. } => 1.0,
    }
}

/// What the arithmetic expects of a temporary tree on a `key`-typed column
/// of a `pj`-page file, as (build, pages per probe). The tree is a clustered
/// copy: `pj` leaves under levels of `page_size / entry width` fan-out
/// (a string key is taken as 16 bytes). Building is
/// `Pj + sort(Pj) + leaves + levels`: the sort, one read of the sorted file,
/// one write per index page. A probe reads the levels and the leaves
/// holding [`SEL_EQ`] of the tuples.
pub fn temp_tree_estimate(pj: f64, key: ColumnType, page_size: usize, b: f64) -> (f64, f64) {
    let key_width = match key {
        ColumnType::Int | ColumnType::Float => 8,
        ColumnType::Date => 4,
        ColumnType::Bool => 1,
        ColumnType::Str => 16,
    };
    // An entry is a `(separator, position)` tuple.
    let fanout = (page_size / (2 + key_width + 8)).max(2) as f64;
    let (mut level, mut nodes, mut height) = (pj, 0.0, 0.0);
    while level > 1.0 {
        level = (level / fanout).ceil();
        nodes += level;
        height += 1.0;
    }
    let build = pj + sort_cost(pj, b) + pj + nodes;
    (build, height + (pj * SEL_EQ).ceil().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_cost_matches_formula() {
        // 2·P·log_{B-1}(P) with B=6 → base 5.
        let c = sort_cost(50.0, 6.0);
        assert!((c - 2.0 * 50.0 * 50.0_f64.log(5.0)).abs() < 1e-9);
        assert_eq!(sort_cost(1.0, 6.0), 0.0);
        assert_eq!(sort_cost(0.0, 6.0), 0.0);
    }

    #[test]
    fn paper_example_nested_iteration_is_3050() {
        // §7.4: "The nested iteration method of processing Q3 costs 3050
        // page fetches in the worst case."
        let p = Ja2Params::paper_example();
        assert_eq!(nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni), 3050.0);
    }

    #[test]
    fn paper_example_two_merge_joins_is_about_475() {
        // §7.4: "The transformation approach, using the modified algorithm
        // and two merge joins, costs about 475 page fetches."
        let p = Ja2Params::paper_example();
        let c = ja2_cost(&p, JoinMethod::MergeJoin, JoinMethod::MergeJoin);
        let total = c.total();
        assert!(
            (445.0..=510.0).contains(&total),
            "expected ≈475 page I/Os, got {total:.1} \
             (breakdown: {:.1} + {:.1} + {:.1})",
            c.outer_projection,
            c.temp_creation,
            c.final_join
        );
    }

    #[test]
    fn four_variants_are_all_below_nested_iteration() {
        let p = Ja2Params::paper_example();
        let ni = nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni);
        for m1 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
            for m2 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
                let c = ja2_cost(&p, m1, m2).total();
                assert!(
                    c < ni,
                    "{}/{} cost {c:.0} should beat nested iteration {ni:.0}",
                    m1.name(),
                    m2.name()
                );
            }
        }
    }

    #[test]
    fn nl_final_join_cliff_at_buffer_size() {
        let mut p = Ja2Params::paper_example();
        p.pt = 5.0; // fits in B-1 = 5
        let cheap = ja2_cost(&p, JoinMethod::MergeJoin, JoinMethod::NestedLoop).final_join;
        assert_eq!(cheap, p.pi + p.pt);
        p.pt = 6.0; // no longer fits
        let dear = ja2_cost(&p, JoinMethod::MergeJoin, JoinMethod::NestedLoop).final_join;
        assert_eq!(dear, p.pi + p.fi_ni * p.pt);
    }

    #[test]
    fn type_n_cost_cliff_at_buffer() {
        // Small X: cheap. Large X: per-tuple rescans dominate.
        let cheap = nested_iteration_cost_n(100.0, 100.0, 4.0, 6.0, 1000.0);
        assert_eq!(cheap, 100.0 + 100.0 + 4.0 + 4.0);
        let dear = nested_iteration_cost_n(100.0, 100.0, 10.0, 6.0, 1000.0);
        assert_eq!(dear, 100.0 + 10.0 + 100.0 + 10_000.0);
    }

    #[test]
    fn index_backjoin_beats_merge_when_rt_is_tiny() {
        // §7.3 with an index on Ri's join column: a 5-tuple Rt probing a
        // height-2 index costs 5·3+Pt fetches, far below sorting a 50-page
        // Ri for the merge join.
        let p = Ja2Params::paper_example();
        let merge_final = ja2_cost(&p, JoinMethod::MergeJoin, JoinMethod::MergeJoin).final_join;
        let ix_final = index_nested_join_cost(p.pt, 5.0, 2.0, 1.0);
        assert!(
            ix_final < merge_final,
            "index back-join {ix_final:.0} should beat merge {merge_final:.0}"
        );
        // ...but not when Rt carries thousands of probes.
        let ix_many = index_nested_join_cost(p.pt, 5000.0, 2.0, 1.0);
        assert!(ix_many > merge_final);
    }

    #[test]
    fn index_restrict_is_bounded_by_full_scan_shape() {
        // A selective predicate touches few leaves; selectivity 1 touches
        // them all (plus the descent).
        assert_eq!(index_restrict_cost(2.0, 100.0, 0.01), 3.0);
        assert_eq!(index_restrict_cost(2.0, 100.0, 1.0), 102.0);
        // Never less than one leaf even for vanishing selectivity.
        assert_eq!(index_restrict_cost(3.0, 50.0, 0.0), 4.0);
    }

    #[test]
    fn degenerate_statistics_never_produce_nan_or_inf() {
        // Zero-row / zero-page statistics (empty tables, empty temps) and
        // NaN estimates must stay finite through every formula a strategy
        // comparison consumes.
        assert_eq!(sort_cost(0.0, 6.0), 0.0);
        assert_eq!(sort_cost(f64::NAN, 6.0), 0.0);
        assert_eq!(sort_cost(5.0, f64::NAN), 2.0 * 5.0 * 5.0_f64.log(2.0));
        assert_eq!(safe_div(10.0, 0.0), 0.0);
        assert_eq!(safe_div(f64::NAN, 5.0), 0.0);
        assert_eq!(safe_div(10.0, f64::NAN), 0.0);
        let p = Ja2Params {
            pi: 0.0,
            pj: 0.0,
            pt2: 0.0,
            nt2: 0.0,
            pt3: 0.0,
            pt4: 0.0,
            pt: 0.0,
            b: 6.0,
            fi_ni: 0.0,
            ri_sorted: false,
        };
        for m1 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
            for m2 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
                assert!(ja2_cost(&p, m1, m2).total().is_finite());
            }
        }
        assert!(nested_iteration_cost_j(0.0, 0.0, 6.0, 0.0).is_finite());
    }

    #[test]
    fn nan_costs_are_sanitized_and_never_picked() {
        assert_eq!(sanitize_cost(f64::NAN), f64::INFINITY);
        assert_eq!(sanitize_cost(-3.0), f64::INFINITY);
        assert_eq!(sanitize_cost(7.5), 7.5);
        // A NaN entry must lose to any finite cost, whatever its position.
        let c = StrategyCosts { nested_iteration: f64::NAN, transform: 9.0 };
        assert_eq!(c.pick(), StrategyKind::Transform);
        let c = StrategyCosts { nested_iteration: 4.0, transform: f64::NAN };
        assert_eq!(c.pick(), StrategyKind::NestedIteration);
        // All-NaN degenerates to the tie-break, not to an arbitrary
        // NaN-comparison artifact.
        let c = StrategyCosts { nested_iteration: f64::NAN, transform: f64::NAN };
        assert_eq!(c.pick(), StrategyKind::Transform);
    }

    #[test]
    fn equal_costs_tie_break_in_pinned_order() {
        let c = StrategyCosts { nested_iteration: 10.0, transform: 10.0 };
        assert_eq!(c.pick(), StrategyKind::Transform);
        // Strict improvement still wins over the tie-break.
        let c = StrategyCosts { nested_iteration: 5.0, transform: 10.0 };
        assert_eq!(c.pick(), StrategyKind::NestedIteration);
    }

    #[test]
    fn transformed_cost_is_orders_cheaper_on_kim_scale() {
        // Kim's 80–95% savings claim, on a Kim-scale configuration.
        let ni = nested_iteration_cost_n(100.0, 100.0, 10.0, 6.0, 1000.0);
        let tr = transformed_merge_join_cost(100.0, 100.0, 6.0);
        let savings = 1.0 - tr / ni;
        assert!(savings > 0.80, "savings {savings:.2} below the paper's 80% band");
    }

    #[test]
    fn every_nested_loop_formula_has_its_cliff_at_b_minus_1() {
        // The inner relation of P pages is read once while P ≤ B − 1 and
        // once per outer tuple from P = B on — in each formula that has one.
        let (b, n) = (6.0, 100.0);
        for (p, fits) in [(b - 2.0, true), (b - 1.0, true), (b, false)] {
            let inner = if fits { p } else { n * p };
            assert_eq!(nested_iteration_cost_j(50.0, p, b, n), 50.0 + inner, "J, P={p}");
            assert_eq!(nested_iteration_cost_n(50.0, 30.0, p, b, n), 30.0 + p + 50.0 + inner);

            let ja = Ja2Params { pt3: p, nt2: n, ..Ja2Params::paper_example() };
            let temp = ja2_cost(&ja, JoinMethod::NestedLoop, JoinMethod::MergeJoin).temp_creation;
            let join = ja.pj + p + ja.pt2 + inner + ja.pt4;
            assert_eq!(temp, join + sort_cost(ja.pt4, b) + ja.pt4 + ja.pt, "JA2 temp, P={p}");
            let ja = Ja2Params { pt: p, fi_ni: n, ..Ja2Params::paper_example() };
            let last = ja2_cost(&ja, JoinMethod::MergeJoin, JoinMethod::NestedLoop).final_join;
            assert_eq!(last, ja.pi + inner, "JA2 final, P={p}");

            let side = |pages, rows| JoinInput { pages, rows, sorted: false };
            let (nl, _) = classic_join_costs(side(50.0, n), side(p, 40.0), b, false);
            assert_eq!(nl.pages, 50.0 + inner, "join choice, P={p}");
            let access = nested_access_costs(n, p, b, 0.0, 2.0);
            assert_eq!(access.scan, inner + n * p / VISITS_PER_PAGE_IO, "access path, P={p}");
        }
    }

    #[test]
    fn a_scanning_block_costs_nested_iteration_plus_its_visits() {
        for (n, pj, b) in [(1.0, 3.0, 6.0), (7.0, 5.0, 6.0), (7.0, 6.0, 6.0), (1000.0, 30.0, 6.0)] {
            for pages_per_evaluation in [1.0, 4.0] {
                let scan = nested_access_costs(n, pj, b, 0.0, pages_per_evaluation).scan;
                let visits = n * pj / VISITS_PER_PAGE_IO;
                assert_eq!(scan, nested_iteration_cost_j(0.0, pj, b, n) + visits, "{n} × {pj}");
            }
        }
        // Never evaluated, never read.
        assert_eq!(nested_access_costs(0.0, 3.0, 6.0, 0.0, 1.0).scan, 0.0);
    }

    #[test]
    fn the_join_choice_prices_pages_by_the_papers_formulas() {
        let (lp, ln, rp, rn, b) = (50.0, 1000.0, 30.0, 600.0, 6.0);
        let side = |pages, rows, sorted| JoinInput { pages, rows, sorted };
        let unsorted = transformed_merge_join_cost(lp, rp, b);
        for price_cpu in [false, true] {
            let (nl, mj) =
                classic_join_costs(side(lp, ln, false), side(rp, rn, false), b, price_cpu);
            assert_eq!(nl.pages, nested_iteration_cost_j(lp, rp, b, ln));
            assert_eq!(mj.pages, unsorted);
            // A side that arrives sorted saves its sort, and nothing else.
            let (_, l_sorted) =
                classic_join_costs(side(lp, ln, true), side(rp, rn, false), b, price_cpu);
            assert_eq!(l_sorted.pages, sort_cost(rp, b) + lp + rp);
            let (_, r_sorted) =
                classic_join_costs(side(lp, ln, false), side(rp, rn, true), b, price_cpu);
            assert_eq!(r_sorted.pages, sort_cost(lp, b) + lp + rp);
            let (_, both) =
                classic_join_costs(side(lp, ln, true), side(rp, rn, true), b, price_cpu);
            assert_eq!(both.pages, lp + rp);
            // The in-memory work rides on top, only when priced.
            let cpu = |priced: f64| if price_cpu { priced } else { 0.0 };
            assert_eq!(nl.total(), nl.pages + cpu(ln * rp / VISITS_PER_PAGE_IO));
            assert_eq!(mj.total(), mj.pages + cpu((ln + rn) / SORTED_ROWS_PER_PAGE_IO));
            assert_eq!(l_sorted.total(), l_sorted.pages + cpu(rn / SORTED_ROWS_PER_PAGE_IO));
            assert_eq!(both.total(), both.pages);
        }
    }

    #[test]
    fn grace_partitions_until_the_build_side_fits_b_minus_2() {
        // B = 6: four pages of table, at most five partitions a pass.
        for (pages, levels) in
            [(0.0, 0), (4.0, 0), (5.0, 1), (20.0, 1), (21.0, 2), (100.0, 2), (101.0, 3)]
        {
            assert_eq!(grace_levels(pages, 6.0), levels, "{pages} pages");
        }
        let fanouts = [5.0, 20.0, 1e6].map(|pages| grace_fanout(pages, 6.0));
        assert_eq!(fanouts, [2, 5, 5]);
        // B = 3: one page of table, two partitions a pass; the cap holds.
        assert_eq!([1.0, 2.0, 9.0].map(|pages| grace_levels(pages, 3.0)), [0, 1, 4]);
        assert_eq!(grace_levels(1e9, 3.0), GRACE_MAX_DEPTH);
        // A pool too small for the model still partitions two ways.
        assert_eq!(grace_fanout(10.0, 1.0), 2);
    }

    #[test]
    fn the_hash_join_reads_each_input_once_per_level_and_builds_on_the_smaller() {
        let side = |pages, rows| JoinInput { pages, rows, sorted: false };
        let b = 6.0;
        for (lp, rp, left_outer, build) in [
            (3.0, 30.0, false, 3.0),   // the left is smaller: built
            (30.0, 3.0, false, 3.0),   // the right is smaller: built
            (21.0, 21.0, false, 21.0), // a tie builds right
            (3.0, 30.0, true, 30.0),   // a left outer join builds right
        ] {
            let shape = HashShape::of(lp, rp, left_outer, b);
            assert_eq!(shape.build_left, lp == build && lp != rp);
            assert_eq!(shape.partitions, if build > 4.0 { grace_fanout(build, b) } else { 0 });
            assert_eq!(shape.keeps_left_order(), !shape.build_left && build <= 4.0);
            let levels = f64::from(grace_levels(build, b));
            for price_cpu in [false, true] {
                let hj = hash_join_cost(side(lp, 100.0), side(rp, 40.0), left_outer, b, price_cpu);
                assert_eq!(hj.pages, (lp + rp) * (1.0 + 2.0 * levels), "{lp} ⋈ {rp}");
                let hashed = 140.0 * (1.0 + levels);
                let cpu = if price_cpu { hashed / HASHED_ROWS_PER_PAGE_IO } else { 0.0 };
                assert_eq!(hj.total(), hj.pages + cpu);
            }
        }
        // In memory, the hash join reads what a merge join of sorted inputs
        // does, and less than an unsorted one.
        let (_, mj) = classic_join_costs(side(3.0, 100.0), side(30.0, 40.0), b, false);
        assert_eq!(hash_join_cost(side(3.0, 100.0), side(30.0, 40.0), false, b, false).pages, 33.0);
        assert!(mj.pages > 33.0);
    }
}
