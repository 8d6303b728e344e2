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

use crate::ops::JoinKind;
use nsql_sql::{CompareOp, InRhs, Predicate};
use nsql_types::{ColumnType, Schema};

/// Sort cost: `2·P·log_{B-1}(P)`, 0 for relations of at most one page.
///
/// A NaN page estimate (degenerate statistics) is 0 as well, rather than a
/// NaN propagated into a strategy comparison.
pub fn sort_cost(pages: f64, buffer: f64) -> f64 {
    if pages.is_nan() || pages <= 1.0 {
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

// --------------------------------------------------------------- the prices

/// What one join method, index probe or access path does: the page I/Os of
/// Section 7's formulas and the in-memory work they cannot see, each in the
/// unit [`PRICES`] has a price for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Counted page I/Os.
    pub pages: f64,
    /// Buffer visits: page requests the pool answers, hit or miss, beyond
    /// the page I/Os a formula counts.
    pub visits: f64,
    /// Rows through the external sort, once per pass: the pass that forms
    /// the runs and each merge pass.
    pub sorted: f64,
    /// Rows hashed into a table or against it.
    pub hashed: f64,
    /// Rows hashed into a spilled partition, once per level that spills
    /// them.
    pub partitioned: f64,
}

impl Work {
    /// Priced by [`PRICES`], in microseconds.
    pub fn micros(&self) -> f64 {
        PRICES.micros(self)
    }
}

impl std::fmt::Display for Work {
    /// The pages, every other nonzero term, then the priced total.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} pages", self.pages)?;
        let terms = [
            (self.visits, "visits"),
            (self.sorted, "rows sorted"),
            (self.hashed, "rows hashed"),
            (self.partitioned, "rows partitioned"),
        ];
        for (n, unit) in terms.iter().filter(|(n, _)| *n > 0.0) {
            write!(f, " + {n:.0} {unit}")?;
        }
        write!(f, " = {:.1} µs", self.micros())
    }
}

/// Nanoseconds per unit of each [`Work`] term: one price list for every
/// choice the default path makes — a join step's method, an index probe
/// against the three methods, a correlated block's access path. Each price
/// is per page or per row, the same at 512-byte and at 4 KiB pages: a page
/// I/O moves a shared page, not its tuples, and a price per tuple on the
/// page fits to zero (EXPERIMENTS.md, "Fitted prices").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prices {
    /// A page I/O, read or written.
    pub page: f64,
    /// A buffer visit.
    pub visit: f64,
    /// A row through one pass of the external sort.
    pub sorted_row: f64,
    /// A row hashed into a table or against it.
    pub hashed_row: f64,
    /// A row hashed into a partition.
    pub partitioned_row: f64,
}

impl Prices {
    /// `work` priced, in microseconds.
    pub fn micros(&self, w: &Work) -> f64 {
        let ns = w.pages * self.page
            + w.visits * self.visit
            + w.sorted * self.sorted_row
            + w.hashed * self.hashed_row
            + w.partitioned * self.partitioned_row;
        ns / 1e3
    }
}

/// The fitted price list: least squares of the relative error of every join
/// node's wall time on the work of the method that ran (the `calibrate`
/// binary of `nsql-bench`), over the benchmark's fourteen transformed
/// statements at `B = 6` × 512 bytes and `B = 64` × 4 KiB under the
/// cost-based and the three forced join policies; each price is the mean of
/// two fits, rounded (EXPERIMENTS.md, "Fitted prices"). To refit:
/// `cargo run --release -p nsql-bench --bin calibrate`.
pub const PRICES: Prices =
    Prices { page: 100.0, visit: 53.0, sorted_row: 104.0, hashed_row: 48.0, partitioned_row: 86.0 };

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
    /// Pages of its rows narrowed to the columns the join reads
    /// ([`narrowed_pages`]): what a spilled partition or a sort run of it
    /// fills. `pages` when the join reads every column.
    pub spill: f64,
}

/// One join method's cost: Section 7's page I/Os alone, or with `priced`
/// its whole [`Work`] at [`PRICES`].
#[derive(Debug, Clone, Copy)]
pub struct JoinCost {
    work: Work,
    priced: bool,
}

impl JoinCost {
    /// Page I/Os, or microseconds when priced: what the choice compares.
    pub fn total(&self) -> f64 {
        if self.priced {
            self.work.micros()
        } else {
            self.work.pages
        }
    }
}

impl std::fmt::Display for JoinCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.priced {
            write!(f, "{}", self.work)
        } else {
            write!(f, "{:.1}", self.work.pages)
        }
    }
}

/// Merge passes the external sort makes over a `pages`-page input through
/// a `b`-page pool: pass 0 leaves `⌈P/B⌉` sorted runs, and each merge pass
/// merges up to `B − 1` of them. The sort's pages stay the paper's
/// [`sort_cost`], `2·P·log_{B−1}(P)` with a continuous logarithm: they are
/// Section 7's figure, which `faithful_1987` compares and the figures
/// print. Its rows have no figure in the paper, so they count the kernel's
/// discrete passes, which is what a small sort takes: priced at the
/// continuous logarithm, `ml3`'s merge join at Kim's scale was fitted at
/// 0.6× its time (EXPERIMENTS.md, "Fitted prices").
fn merge_passes(pages: f64, b: f64) -> u32 {
    let (b, mut passes) = (b.max(2.0), 0);
    let mut runs = (pages / b).ceil();
    while runs > 1.0 {
        runs = (runs / (b - 1.0).max(2.0)).ceil();
        passes += 1;
    }
    passes
}

/// What the paper's two join methods cost on inputs `l` (outer) and `r`
/// (inner): (nested loop, merge join). The pages are Section 7's —
/// [`nested_iteration_cost_j`] with every outer tuple qualifying, and
/// [`transformed_merge_join_cost`] less the sort of a side that arrives
/// sorted, a side's sort priced at its narrowed `spill` pages. With
/// `priced` each also carries the work it does in memory. The nested-loop
/// kernel asks the pool for every inner page once per outer
/// tuple by design (an index may save CPU on a page, never the page read),
/// so an inner that fits `B − 1` pages costs `Pl + Pr` reads and `Nl · Pr`
/// buffer visits; on its first pass it hashes every inner tuple into a key
/// index, and each outer tuple's key is hashed against it. The merge join
/// pushes every row of an unsorted input through each pass of the external
/// sort ([`merge_passes`]).
pub fn classic_join_costs(
    l: JoinInput,
    r: JoinInput,
    b: f64,
    priced: bool,
) -> (JoinCost, JoinCost) {
    let nl = nested_iteration_cost_j(l.pages, r.pages, b, l.rows);
    // An unsorted side is read whole and sorted narrowed to the columns the
    // join reads: its runs and the sorted file it is merged from are its
    // `spill` pages, so the sort's own read is `P` where Section 7 has `S`.
    let sort = |side: JoinInput| if side.sorted { 0.0 } else { sort_cost(side.spill, b) };
    let mj = sort(l) + sort(r) + l.pages + r.pages;
    let sorted_rows = |side: JoinInput| match side.sorted {
        false => side.rows * f64::from(1 + merge_passes(side.pages, b)),
        true => 0.0,
    };
    (
        JoinCost {
            work: Work {
                pages: nl,
                visits: l.rows * r.pages,
                hashed: l.rows + r.rows,
                ..Work::default()
            },
            priced,
        },
        JoinCost {
            work: Work { pages: mj, sorted: sorted_rows(l) + sorted_rows(r), ..Work::default() },
            priced,
        },
    )
}

/// What probing the inner's B+tree once per tuple of the outer `l` costs:
/// the pages of [`index_nested_join_cost`] and, with `priced`, a visit for
/// each page a probe asks for — the descent's binary searches happen on
/// those pages.
pub fn index_join_cost(l: JoinInput, height: f64, leaves_per_probe: f64, priced: bool) -> JoinCost {
    let pages = index_nested_join_cost(l.pages, l.rows, height, leaves_per_probe);
    JoinCost { work: Work { pages, visits: pages - l.pages, ..Work::default() }, priced }
}

// ----------------------------------------------------------- the hash join

/// Partitioning passes a hash join makes at most before it builds in memory
/// whatever it holds. Below the cap a build side is split until it fits
/// `B − 2` pages; at the cap it is built whole, which is what the all-one-key
/// build side (no hash splits it) comes to.
pub const GRACE_MAX_DEPTH: u32 = 4;

/// The share of its `B − 2 − k` pages a pass plans its resident table to
/// fill: keys that spread a little unevenly, and rows packed more densely
/// than their file's pages, still fit, so the table is rarely demoted.
const RESIDENT_FILL: f64 = 0.9;

/// How a hash pass over a table of `table` pages starts — the one place
/// that decides it, for the kernel at every level, its price and the plan.
/// A table that fits `B − 2` pages is built whole. A larger one is split by
/// one **hybrid** pass: the keys whose salted hash falls in a resident share
/// of the range stay in memory as a table of at most `B − 2 − k` pages, and
/// the rest go to `k` spilled partitions. `k` is the fewest partitions that
/// each fit `B − 2` pages beside the resident share, which fills
/// [`RESIDENT_FILL`] of its budget; a table too large for any `k` the pool
/// has output pages for keeps nothing resident and is split `B − 1` ways
/// (Grace's pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashShape {
    /// The table is built on the left input: only an inner join or an
    /// anti-join, and only when the left has fewer pages (a tie builds
    /// right). A left outer join builds right, so that its probe sees every
    /// left tuple; an anti-join built left flags the tuples it matched.
    pub build_left: bool,
    /// Pages of the table: the build side's, or the groupjoin's widened
    /// rows ([`groupjoin_table_pages`]).
    pub table: f64,
    /// Partitions the first pass writes; 0 when the table fits `B − 2`
    /// pages.
    pub spilled: usize,
    /// Pages of the table the first pass keeps in memory: all of it when
    /// nothing is spilled, none in Grace's pass.
    pub resident: f64,
}

impl HashShape {
    /// The shape of a join of `kind` under a `b`-page pool: built on the
    /// input with fewer pages, its table that input's pages.
    pub fn of(l_pages: f64, r_pages: f64, kind: JoinKind, b: f64) -> HashShape {
        let build_left = kind != JoinKind::LeftOuter && l_pages < r_pages;
        HashShape::built_on(build_left, if build_left { l_pages } else { r_pages }, b)
    }

    /// The shape of a pass whose table, built on the left or right input as
    /// `build_left` says, fills `table` pages of a `b`-page pool.
    pub fn built_on(build_left: bool, table: f64, b: f64) -> HashShape {
        let fits = HashShape { build_left, table, spilled: 0, resident: table };
        if hash_build_fits(table, b) {
            return fits;
        }
        let m = hash_table_pages(b);
        let most = (m + 1.0).max(2.0) as usize;
        let split = |spilled: usize| {
            let resident = RESIDENT_FILL * (m - spilled as f64).max(0.0);
            HashShape { spilled, resident, ..fits }
        };
        (1..most)
            .map(split)
            .find(|s| table - s.resident <= s.spilled as f64 * m)
            .unwrap_or(split(most))
    }

    /// Whether the join emits its rows in the left input's order: it built
    /// on the right and did not partition, so the left streamed past the
    /// table in file order.
    pub fn keeps_left_order(&self) -> bool {
        !self.build_left && self.spilled == 0
    }

    /// The share of the salted hash range whose rows stay resident: 1 when
    /// nothing is spilled.
    pub fn resident_share(&self) -> f64 {
        if self.spilled == 0 {
            1.0
        } else {
            self.resident / self.table
        }
    }

    /// The pages the resident table may hold before it is demoted to a
    /// spilled partition of its own: `B − 2 − k`.
    pub fn resident_budget(&self, b: f64) -> f64 {
        hash_table_pages(b) - self.spilled as f64
    }
}

/// The buffer pages a hash join may fill with its table: `B − 2`, one page
/// being the probe side's and one the output's (and never fewer than one).
pub(crate) fn hash_table_pages(b: f64) -> f64 {
    (b - 2.0).max(1.0)
}

/// Whether a `pages`-page build side is hashed in memory as it is, rather
/// than partitioned first.
pub(crate) fn hash_build_fits(pages: f64, b: f64) -> bool {
    pages <= hash_table_pages(b)
}

/// Per level of partitioning a hash pass makes over a `table`-page table
/// whose partitions carry `spill` pages of it (the columns the join reads)
/// if every pass splits its keys evenly, the share of the rows written at
/// that level: the first pass splits by the table's own size, the passes
/// below it by the spilled partitions', up to [`GRACE_MAX_DEPTH`] levels.
fn spilled_per_level(table: f64, spill: f64, b: f64) -> impl Iterator<Item = f64> {
    let first = HashShape::built_on(false, table, b);
    let (mut shape, mut pages, mut share) = (first, spill, 1.0);
    std::iter::from_fn(move || {
        if shape.spilled == 0 {
            return None;
        }
        let kept = 1.0 - shape.resident_share();
        share *= kept;
        pages *= kept / shape.spilled as f64;
        shape = HashShape::built_on(false, pages, b);
        Some(share)
    })
    .take(GRACE_MAX_DEPTH as usize)
}

/// Partitioning levels a `pages`-page build side needs if every pass splits
/// its keys evenly, up to [`GRACE_MAX_DEPTH`].
pub fn hash_levels(pages: f64, b: f64) -> u32 {
    spilled_per_level(pages, pages, b).count() as u32
}

/// What the hash join of `kind` costs on inputs `l` and `r`; an anti-join
/// costs what the inner join does. It builds on the side [`HashShape`]
/// names. A build side that fits `B − 2` pages is hashed in memory while the
/// other side streams past it: `Pl + Pr`. A larger one is split by a hybrid
/// pass: both inputs are read, the rows of the resident share of the keys
/// are joined at once, and the others, narrowed to the columns the join
/// reads (each side's `spill` pages), are written into partitions and read
/// back, `2·(1 − resident/table)·(Sl + Sr)` pages; each spilled pair is
/// split the same way while it does not fit ([`hash_levels`]), over its
/// spilled pages only. A partition's partly filled last page, and keys that
/// do not spread evenly, are what the estimate leaves out. With `priced` it
/// also carries its in-memory work: every row hashed into or against a
/// table once, `Nl + Nr` rows, and into a partition at every level that
/// spills it.
pub fn hash_join_cost(
    l: JoinInput,
    r: JoinInput,
    kind: JoinKind,
    b: f64,
    priced: bool,
) -> JoinCost {
    let shape = HashShape::of(l.pages, r.pages, kind, b);
    let build = if shape.build_left { l } else { r };
    JoinCost { work: hash_work(l, r, build.pages, build.spill, b), priced }
}

/// The work of a hash pass over `l` and `r` whose table fills `table`
/// pages, `spill` pages of it partitioned: both inputs read, and the share
/// of their narrowed rows each level spills written and read back; every
/// row hashed into or against a table once, and into a partition once per
/// level that spills it.
fn hash_work(l: JoinInput, r: JoinInput, table: f64, spill: f64, b: f64) -> Work {
    let spilled: f64 = spilled_per_level(table, spill, b).sum();
    Work {
        pages: l.pages + r.pages + 2.0 * spilled * (l.spill + r.spill),
        hashed: l.rows + r.rows,
        partitioned: (l.rows + r.rows) * spilled,
        ..Work::default()
    }
}

/// Pages a file of `pages` pages and `rows` rows fills when its rows are
/// narrowed to the columns `keep` of `schema`, on `page_size`-byte pages:
/// each row's two bytes of overhead and its kept values, a number's eight
/// bytes (a date's four, a boolean's one), and for a string its share of
/// what the file's pages hold beyond its fixed-width columns. `pages` when
/// every column is kept.
pub fn narrowed_pages(
    schema: &Schema,
    keep: &[usize],
    pages: f64,
    rows: f64,
    page_size: usize,
) -> f64 {
    if keep.len() >= schema.arity() || rows <= 0.0 {
        return pages;
    }
    let width = narrowed_width(schema, keep, pages, rows, page_size);
    let per_page = (page_size as f64 / width).floor().max(1.0);
    (rows / per_page).ceil().min(pages)
}

/// The bytes a row of [`narrowed_pages`] takes.
pub fn narrowed_width(
    schema: &Schema,
    keep: &[usize],
    pages: f64,
    rows: f64,
    page_size: usize,
) -> f64 {
    let fixed = |ty: ColumnType| match ty {
        ColumnType::Int | ColumnType::Float => Some(8.0),
        ColumnType::Date => Some(4.0),
        ColumnType::Bool => Some(1.0),
        ColumnType::Str => None,
    };
    let types: Vec<ColumnType> = schema.columns().iter().map(|c| c.ty).collect();
    let strings = types.iter().filter(|&&ty| fixed(ty).is_none()).count() as f64;
    let fixed_width: f64 = types.iter().filter_map(|&ty| fixed(ty)).sum();
    let per_row = pages * page_size as f64 / rows.max(1.0);
    let string = match strings > 0.0 {
        true => ((per_row - 2.0 - fixed_width) / strings).max(2.0),
        false => 0.0,
    };
    2.0 + keep.iter().map(|&c| fixed(types[c]).unwrap_or(string)).sum::<f64>()
}

// ------------------------------------------------------------ the groupjoin

/// Bytes a groupjoin's table charges a left row for each of its aggregates:
/// a number's width. The result of a `MIN` or `MAX` over strings is wider;
/// the charge does not know its length before the right input is read.
const AGG_SLOT_BYTES: f64 = 8.0;

/// Pages a groupjoin's table fills over a left input of `pages` pages and
/// `rows` rows computing `aggs` aggregates: the rows it will emit, each left
/// row widened by one value per aggregate, on `page_size`-byte pages. The
/// kernel partitions by it, and its price counts the levels it needs.
pub fn groupjoin_table_pages(pages: f64, rows: f64, aggs: usize, page_size: usize) -> f64 {
    pages + rows * aggs as f64 * AGG_SLOT_BYTES / page_size as f64
}

/// What the groupjoin costs on the groups `l` and the rows `r` folded into
/// them over `key_sets` key sets, its table `table` pages
/// ([`groupjoin_table_pages`]). On one key set: what the hash join built on
/// `l` costs, whichever input is smaller, and with no rows emitted. On
/// several: `l` read once and `r` once per pass ([`groupjoin_passes`]), each
/// left row hashed into every chain and each right row against every chain
/// on every pass. Priced: it runs on the default path only.
pub fn groupjoin_cost(
    l: JoinInput,
    r: JoinInput,
    table: f64,
    key_sets: usize,
    b: f64,
) -> JoinCost {
    if key_sets <= 1 {
        return JoinCost { work: hash_work(l, r, table, table, b), priced: true };
    }
    let passes = groupjoin_passes(table, b) as f64;
    let work = Work {
        pages: l.pages + passes * r.pages,
        hashed: key_sets as f64 * (l.rows + passes * r.rows),
        ..Work::default()
    };
    JoinCost { work, priced: true }
}

/// The passes over its right input a groupjoin over several key sets makes
/// with a `table`-page table: one per `B − 2` pages of it, as no hash of
/// one key set partitions a disjunction.
pub fn groupjoin_passes(table: f64, b: f64) -> usize {
    (table / hash_table_pages(b)).ceil().max(1.0) as usize
}

// -------------------------------------------- nested iteration's access path

/// What evaluating one correlated block costs by either path
/// ([`nested_access_costs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCosts {
    /// Estimated evaluations of the block in the query (`fi·Ni`, multiplied
    /// down the nesting chain).
    pub evaluations: f64,
    /// Rescanning the inner file on every evaluation.
    pub scan: Work,
    /// Building the trees that are not in the catalog (no work when all are).
    pub build: Work,
    /// Probing on every evaluation.
    pub probes: Work,
}

impl AccessCosts {
    /// Whether building and probing is the cheaper path, at [`PRICES`].
    pub fn probes_win(&self) -> bool {
        self.build.micros() + self.probes.micros() < self.scan.micros()
    }

    /// Page I/Os of the cheaper path: what the strategy estimate, which
    /// counts pages, adds for the block.
    pub fn chosen(&self) -> f64 {
        if self.probes_win() {
            self.build.pages + self.probes.pages
        } else {
            self.scan.pages
        }
    }
}

impl std::fmt::Display for AccessCosts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |w: &Work| w.micros();
        write!(f, "est. {:.0} evaluations: scan {:.1} µs vs ", self.evaluations, us(&self.scan))?;
        if self.build.pages > 0.0 {
            write!(f, "build {:.1} + ", us(&self.build))?;
        }
        write!(f, "probes {:.1} µs", us(&self.probes))
    }
}

/// The inner term of [`nested_iteration_cost_j`]'s `Pi + fi·Ni·Pj` by either
/// access path: rescanning the `pj`-page inner file on each of `evaluations`
/// evaluations, or doing the `build` work once ([`temp_tree_estimate`]; no
/// work when the trees are the catalog's) and reading `pages_per_evaluation`
/// index pages (`h + l` per key) on each — System R's `Pi + fi·Ni·(h + l)`
/// [SEL 79]. `Pi` is left out: both paths read the outer relation once. As
/// in the paper a file that fits `B − 1` pages is read once however often
/// it is rescanned (and not at all when it is never evaluated); every page
/// either path asks the pool for is a buffer visit on top, so that such a
/// file is not free. The paths are compared in microseconds at [`PRICES`].
pub fn nested_access_costs(
    evaluations: f64,
    pj: f64,
    b: f64,
    build: Work,
    pages_per_evaluation: f64,
) -> AccessCosts {
    let rescanned = evaluations * pj;
    let read = rescanned_pages(pj, b, evaluations).min(rescanned);
    let probed = evaluations * pages_per_evaluation;
    let work = |pages, visits| Work { pages, visits, ..Work::default() };
    AccessCosts { evaluations, scan: work(read, rescanned), build, probes: work(probed, probed) }
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
/// of a `pj`-page, `nj`-row file, as (build, pages per probe). The tree is a
/// clustered copy: `pj` leaves under levels of `page_size / entry width`
/// fan-out (a string key is taken as 16 bytes). The build is priced as
/// `BTreeIndex::bulk_load` runs it: the sort's pages, [`sort_cost`]`(Pj)`,
/// less the write of a last pass that goes to the leaf packer as it is
/// merged (and never below one read of the file), plus one write per index
/// page; and the sort's rows, `Nj` per pass as the merge join's are
/// counted ([`merge_passes`]). A probe reads the levels and the leaves
/// holding [`SEL_EQ`] of the tuples.
pub fn temp_tree_estimate(
    pj: f64,
    nj: f64,
    key: ColumnType,
    page_size: usize,
    b: f64,
) -> (Work, f64) {
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
    let sorting = (sort_cost(pj, b) - pj).max(pj);
    let build = Work {
        pages: sorting + pj + nodes,
        sorted: nj * f64::from(1 + merge_passes(pj, b)),
        ..Work::default()
    };
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

            let side = |pages, rows| JoinInput { pages, rows, sorted: false, spill: pages };
            let (nl, _) = classic_join_costs(side(50.0, n), side(p, 40.0), b, false);
            assert_eq!(nl.work.pages, 50.0 + inner, "join choice, P={p}");
            let access = nested_access_costs(n, p, b, Work::default(), 2.0);
            assert_eq!(access.scan.pages, inner, "access path, P={p}");
        }
    }

    #[test]
    fn a_scanning_block_costs_nested_iteration_plus_its_visits() {
        for (n, pj, b) in [(1.0, 3.0, 6.0), (7.0, 5.0, 6.0), (7.0, 6.0, 6.0), (1000.0, 30.0, 6.0)] {
            for pages_per_evaluation in [1.0, 4.0] {
                let c = nested_access_costs(n, pj, b, Work::default(), pages_per_evaluation);
                assert_eq!(c.scan.pages, nested_iteration_cost_j(0.0, pj, b, n), "{n} × {pj}");
                assert_eq!(c.scan.visits, n * pj, "{n} × {pj}");
                let probed = n * pages_per_evaluation;
                assert_eq!((c.probes.pages, c.probes.visits), (probed, probed));
                let priced = |pages: f64, visits: f64| {
                    (pages * PRICES.page + visits * PRICES.visit) / 1e3
                };
                assert_eq!(c.scan.micros(), priced(c.scan.pages, n * pj));
                assert_eq!(c.probes_win(), c.probes.micros() < c.scan.micros());
                // The strategy estimate still counts pages.
                let pages = if c.probes_win() { probed } else { c.scan.pages };
                assert_eq!(c.chosen(), pages);
            }
        }
        // Never evaluated, never read.
        assert_eq!(nested_access_costs(0.0, 3.0, 6.0, Work::default(), 1.0).scan.micros(), 0.0);
        // A build is paid once, at its own prices.
        let build = Work { pages: 605.0, sorted: 4500.0, ..Work::default() };
        let c = nested_access_costs(100.0, 100.0, 6.0, build, 12.0);
        let priced = (605.0 * PRICES.page + 4500.0 * PRICES.sorted_row) / 1e3;
        assert!(c.probes_win() && c.build.micros() == priced, "{c}");
    }

    #[test]
    fn the_join_choice_prices_pages_by_the_papers_formulas() {
        let (lp, ln, rp, rn, b) = (50.0, 1000.0, 30.0, 600.0, 6.0);
        let side = |pages, rows, sorted| JoinInput { pages, rows, sorted, spill: pages };
        let unsorted = transformed_merge_join_cost(lp, rp, b);
        for priced in [false, true] {
            let (nl, mj) = classic_join_costs(side(lp, ln, false), side(rp, rn, false), b, priced);
            assert_eq!(nl.work.pages, nested_iteration_cost_j(lp, rp, b, ln));
            assert_eq!(mj.work.pages, unsorted);
            // A side that arrives sorted saves its sort, and nothing else.
            let (_, l_sorted) =
                classic_join_costs(side(lp, ln, true), side(rp, rn, false), b, priced);
            assert_eq!(l_sorted.work.pages, sort_cost(rp, b) + lp + rp);
            let (_, r_sorted) =
                classic_join_costs(side(lp, ln, false), side(rp, rn, true), b, priced);
            assert_eq!(r_sorted.work.pages, sort_cost(lp, b) + lp + rp);
            let (_, both) = classic_join_costs(side(lp, ln, true), side(rp, rn, true), b, priced);
            assert_eq!(both.work.pages, lp + rp);
            // Unpriced, the choice compares pages; priced, microseconds.
            for c in [nl, mj, l_sorted, both] {
                let want = if priced { c.work.micros() } else { c.work.pages };
                assert_eq!(c.total(), want);
            }
        }
        // The work of each method, beside its pages.
        let (nl, mj) = classic_join_costs(side(lp, ln, false), side(rp, rn, false), b, true);
        let (w, m) = (&nl.work, &mj.work);
        assert_eq!((w.visits, w.hashed, w.sorted), (ln * rp, ln + rn, 0.0));
        // 50 pages in a 6-page pool: 9 runs, merged in two passes; 30 pages:
        // 5 runs, one pass.
        assert_eq!((m.visits, m.hashed, m.sorted), (0.0, 0.0, 3.0 * ln + 2.0 * rn));
        let (_, both) = classic_join_costs(side(lp, ln, true), side(rp, rn, true), b, true);
        assert_eq!(both.work.sorted, 0.0);
    }

    #[test]
    fn the_sort_merges_b_minus_1_runs_a_pass() {
        // Pass 0 leaves ⌈P/B⌉ runs.
        for (pages, b, passes) in
            [(0.0, 6.0, 0), (6.0, 6.0, 0), (7.0, 6.0, 1), (30.0, 6.0, 1), (31.0, 6.0, 2)]
        {
            assert_eq!(merge_passes(pages, b), passes, "{pages} pages, B = {b}");
        }
        assert_eq!([64.0, 250.0, 4032.0, 4033.0].map(|p| merge_passes(p, 64.0)), [0, 1, 1, 2]);
    }

    #[test]
    fn the_prices_add_up() {
        let w = Work { pages: 10.0, visits: 3.0, sorted: 5.0, hashed: 13.0, partitioned: 17.0 };
        let p = PRICES;
        let ns = 10.0 * p.page
            + 3.0 * p.visit
            + 5.0 * p.sorted_row
            + 13.0 * p.hashed_row
            + 17.0 * p.partitioned_row;
        assert!((w.micros() - ns / 1e3).abs() < 1e-9);
        let want = format!(
            "10.0 pages + 3 visits + 5 rows sorted + 13 rows hashed + 17 rows partitioned = \
             {:.1} µs",
            w.micros()
        );
        assert_eq!(w.to_string(), want);
        // Terms without work are left out.
        let pages = Work { pages: 2.0, ..Work::default() };
        assert_eq!(pages.to_string(), format!("2.0 pages = {:.1} µs", pages.micros()));
    }

    #[test]
    fn the_index_probe_is_priced_with_a_visit_per_page_it_asks_for() {
        let side = JoinInput { pages: 7.0, rows: 100.0, sorted: false, spill: 7.0 };
        for priced in [false, true] {
            let ix = index_join_cost(side, 2.0, 1.0, priced);
            assert_eq!(ix.work.pages, index_nested_join_cost(7.0, 100.0, 2.0, 1.0));
            assert_eq!(ix.work.visits, 300.0);
            let want = if priced { ix.work.micros() } else { ix.work.pages };
            assert_eq!(ix.total(), want);
        }
    }

    #[test]
    fn a_pass_splits_until_the_build_side_fits_b_minus_2() {
        // B = 6: four pages of table, at most five partitions a pass.
        for (pages, levels) in
            [(0.0, 0), (4.0, 0), (5.0, 1), (20.0, 1), (21.0, 2), (100.0, 2), (101.0, 3)]
        {
            assert_eq!(hash_levels(pages, 6.0), levels, "{pages} pages");
        }
        // Five pages: one partition spilled beside 0.9 of the 4 − 1 pages
        // left to the table. Twenty: no partition count leaves room for a
        // resident share, so nothing is resident and five are spilled.
        let split = |pages, b| {
            let shape = HashShape::built_on(false, pages, b);
            (shape.spilled, shape.resident)
        };
        assert_eq!([5.0, 20.0, 1e6].map(|pages| split(pages, 6.0)), [(1, 2.7), (5, 0.0), (5, 0.0)]);
        assert_eq!(split(4.0, 6.0), (0, 4.0));
        // x20's flat_join: 66 pages over 62 spill one partition and keep 55.
        let flat = HashShape::built_on(false, 66.0, 64.0);
        assert_eq!((flat.spilled, (flat.resident * 10.0).round()), (1, 549.0));
        assert_eq!(flat.resident_budget(64.0), 61.0);
        // B = 3: one page of table, two partitions a pass; the cap holds.
        assert_eq!([1.0, 2.0, 9.0].map(|pages| hash_levels(pages, 3.0)), [0, 1, 4]);
        assert_eq!(hash_levels(1e9, 3.0), GRACE_MAX_DEPTH);
        // A pool too small for the model still partitions two ways.
        assert_eq!(split(10.0, 1.0), (2, 0.0));
    }

    #[test]
    fn the_hash_join_reads_each_input_once_and_spills_what_is_not_resident() {
        let side = |pages, rows| JoinInput { pages, rows, sorted: false, spill: pages };
        let b = 6.0;
        // Per case, the share of the rows each level spills: 21 pages are
        // split five ways with nothing resident, and each 4.2-page pair
        // again, 2.7 of its pages resident; 30 pages likewise, then 6.
        let (s21, s30) = (2.0 - 2.7 / 4.2, 2.0 - 2.7 / 6.0);
        for (lp, rp, kind, build, spilled) in [
            (3.0, 30.0, JoinKind::Inner, 3.0, 0.0),       // the left is smaller: built
            (30.0, 3.0, JoinKind::Inner, 3.0, 0.0),       // the right is smaller: built
            (21.0, 21.0, JoinKind::Inner, 21.0, s21),     // a tie builds right
            (3.0, 30.0, JoinKind::LeftOuter, 30.0, s30),  // a left outer join builds right
            (3.0, 30.0, JoinKind::Anti, 3.0, 0.0),        // an anti-join builds left
            (30.0, 3.0, JoinKind::Anti, 3.0, 0.0),        // ... or right
        ] {
            let shape = HashShape::of(lp, rp, kind, b);
            assert_eq!(shape.build_left, lp == build && lp != rp);
            assert_eq!(shape.table, build);
            assert_eq!(shape.spilled, if build > 4.0 { 5 } else { 0 });
            assert_eq!(shape.keeps_left_order(), !shape.build_left && build <= 4.0);
            for priced in [false, true] {
                let hj = hash_join_cost(side(lp, 100.0), side(rp, 40.0), kind, b, priced);
                let w = &hj.work;
                let pages = lp + rp + 2.0 * spilled * (lp + rp);
                assert!((w.pages - pages).abs() < 1e-9, "{lp} ⋈ {rp}: {} pages", w.pages);
                assert_eq!(w.hashed, 140.0, "{lp} ⋈ {rp}");
                assert!((w.partitioned - 140.0 * spilled).abs() < 1e-9, "{lp} ⋈ {rp}");
                assert_eq!(hj.total(), if priced { hj.work.micros() } else { hj.work.pages });
            }
        }
        // At the first level only the share that is not resident is spilled:
        // 66 of x20's pages over B = 64, narrowed to 40, spill 0.168 of 40.
        let (l, r) = (JoinInput { spill: 40.0, ..side(66.0, 2e4) }, side(300.0, 3e4));
        let flat = HashShape::of(66.0, 300.0, JoinKind::Inner, 64.0);
        let hj = hash_join_cost(l, r, JoinKind::Inner, 64.0, false);
        let kept = 1.0 - flat.resident / 66.0;
        assert!((hj.work.pages - (366.0 + 2.0 * kept * 340.0)).abs() < 1e-9);
        // In memory, the hash join reads what a merge join of sorted inputs
        // does, and less than an unsorted one.
        let (_, mj) = classic_join_costs(side(3.0, 100.0), side(30.0, 40.0), b, false);
        let hj = hash_join_cost(side(3.0, 100.0), side(30.0, 40.0), JoinKind::Inner, b, false);
        assert_eq!(hj.work.pages, 33.0);
        assert!(mj.work.pages > 33.0);
    }

    /// Grace's price of the same join: every level partitions the whole
    /// table, `clamp(⌈p/(B−2)⌉, 2, B−1)` ways, until a partition fits.
    fn grace_pages(l: JoinInput, r: JoinInput, table: f64, spill: f64, b: f64) -> f64 {
        let m = (b - 2.0).max(1.0);
        let fanout = |p: f64| (p / m).ceil().clamp(2.0, (m + 1.0).max(2.0));
        let mut levels = 0;
        if table > m {
            let mut pages = spill / fanout(table);
            levels = 1;
            while pages > m && levels < GRACE_MAX_DEPTH {
                pages /= fanout(pages);
                levels += 1;
            }
        }
        l.pages + r.pages + 2.0 * f64::from(levels) * (l.spill + r.spill)
    }

    #[test]
    fn grace_is_the_zero_resident_pass_and_the_hybrid_one_never_costs_more() {
        let side = |pages, spill| JoinInput { pages, rows: 10.0 * pages, sorted: false, spill };
        let m = |b: f64| (b - 2.0).max(1.0);
        let mut resident = 0;
        for b in [3.0, 4.0, 6.0, 16.0, 64.0] {
            for table in (0..3000).map(|p| f64::from(p) / 4.0) {
                // A left outer join builds on the right.
                let (l, r) = (side(table * 3.0, table), side(table, table * 0.6));
                let hj = hash_join_cost(l, r, JoinKind::LeftOuter, b, false).work.pages;
                let grace = grace_pages(l, r, table, r.spill, b);
                let shape = HashShape::built_on(false, table, b);
                // Nothing resident: Grace's pass, its fanout and its price.
                if shape.spilled > 0 && shape.resident == 0.0 {
                    let fanout = (table / m(b)).ceil().clamp(2.0, m(b) + 1.0);
                    assert_eq!(shape.spilled as f64, fanout, "B = {b}, {table} pages");
                }
                // B = 3 leaves no page beside the partitions' for a table.
                if b == 3.0 {
                    assert_eq!(hj, grace, "B = 3, {table} pages");
                }
                assert!(hj <= grace + 1e-9, "B = {b}, {table} pages: {hj} > Grace's {grace}");
                resident += usize::from(shape.spilled > 0 && shape.resident > 0.0);
            }
        }
        assert!(resident > 1000, "{resident} hybrid passes");
    }

    #[test]
    fn the_groupjoin_costs_the_hash_join_built_on_its_left() {
        let side = |pages, rows| JoinInput { pages, rows, sorted: false, spill: pages };
        let (small, big, b) = (side(3.0, 100.0), side(30.0, 400.0), 6.0);
        // Its table is the left's rows widened by 8 bytes an aggregate.
        let table = groupjoin_table_pages(3.0, 100.0, 2, 512);
        assert_eq!(table, 3.0 + 100.0 * 16.0 / 512.0);
        // Over a left that fits as it is, the inner hash join that builds
        // on that left too.
        let hj = hash_join_cost(small, big, JoinKind::Inner, b, true);
        assert_eq!(groupjoin_cost(small, big, 3.0, 1, b).work, hj.work);
        // Built on the left whatever the sizes say: 30 pages split five
        // ways, then each 6-page pair with 2.7 pages resident.
        let gj = groupjoin_cost(big, small, 30.0, 1, b);
        let spilled = 1.0 + (1.0 - 2.7 / 6.0);
        assert!((gj.work.pages - 33.0 * (1.0 + 2.0 * spilled)).abs() < 1e-9);
        assert!((gj.work.partitioned - 500.0 * spilled).abs() < 1e-9);
        // Widened past `B − 2` pages, it spills one partition beside its
        // resident share.
        let shape = HashShape::built_on(true, table, b);
        assert_eq!((shape.spilled, shape.resident), (1, 2.7));
        let gj = groupjoin_cost(small, big, table, 1, b);
        let pages = 33.0 * (1.0 + 2.0 * (1.0 - 2.7 / table));
        assert!((gj.work.pages - pages).abs() < 1e-9, "{}", gj.work.pages);
        assert_eq!(gj.total(), gj.work.micros());
    }

    #[test]
    fn a_groupjoin_over_key_sets_reads_its_right_once_per_chunk() {
        let side = |pages, rows| JoinInput { pages, rows, sorted: false, spill: pages };
        let (groups, rows, b) = (side(6.0, 100.0), side(98.0, 1500.0), 6.0);
        // 7.56 pages of table in chunks of `B − 2` = 4: two passes.
        let table = groupjoin_table_pages(6.0, 100.0, 1, 512);
        assert_eq!((groupjoin_passes(table, b), groupjoin_passes(4.0, b)), (2, 1));
        let gj = groupjoin_cost(groups, rows, table, 2, b);
        assert_eq!(gj.work.pages, 6.0 + 2.0 * 98.0);
        assert_eq!((gj.work.hashed, gj.work.partitioned), (2.0 * (100.0 + 2.0 * 1500.0), 0.0));
        // A table that fits is one pass.
        assert_eq!(groupjoin_cost(groups, rows, 4.0, 2, b).work.pages, 6.0 + 98.0);
    }
}
