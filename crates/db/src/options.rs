//! Query-evaluation options.

use nsql_core::UnnestOptions;

/// Physical join-method policy for transformed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPolicy {
    /// Always nested loops.
    ForceNestedLoop,
    /// Merge join wherever an equi-key exists, nested loops otherwise.
    ForceMergeJoin,
    /// Hash join wherever an equi-key exists, nested loops otherwise.
    /// A **modern extension** — System R and the paper had no hash join;
    /// kept for the E13 ablation.
    ForceHashJoin,
    /// Pick the cheaper method per join from actual page counts and the
    /// Section-7 cost formulas.
    #[default]
    CostBased,
}

impl JoinPolicy {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            JoinPolicy::ForceNestedLoop => "nested-loop",
            JoinPolicy::ForceMergeJoin => "merge-join",
            JoinPolicy::ForceHashJoin => "hash-join",
            JoinPolicy::CostBased => "cost-based",
        }
    }
}

/// Whether the executor may route restrictions and back-joins through
/// B+tree indexes ([`crate::Catalog::create_index`]). Index paths change
/// page-I/O counts, never results — the diff harness checks all three
/// settings against the naive oracle. This governs the transformed path's
/// plans; whether a correlated block of nested iteration probes an index is
/// part of [`UnnestOptions::faithful_1987`]'s one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexUse {
    /// Use an index path when the Section-7 extension says it is cheaper
    /// (`index_restrict_cost` / `index_nested_join_cost`).
    #[default]
    CostBased,
    /// Take an applicable index path even when costed as more expensive
    /// (exercises the index operators regardless of table shape).
    Prefer,
    /// Never touch an index; plans read as if no index existed.
    Never,
}

impl IndexUse {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            IndexUse::CostBased => "cost-based",
            IndexUse::Prefer => "prefer-index",
            IndexUse::Never => "no-index",
        }
    }
}

/// Which kernel the transformed path's hash joins run.
///
/// Under `Vector`, hash joins build and probe on column batches (each page
/// pivoted into typed column vectors, keys hashed straight off the lanes);
/// every other operator runs its one row kernel whatever the mode (DESIGN.md
/// "Vectorized execution" has the measurements behind that). Results, error
/// values, page-I/O totals, and buffer hit/miss splits are byte-identical
/// across modes — only CPU time changes (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Tuple-at-a-time interpretation (the historical baseline).
    Row,
    /// Hash joins build and probe on column batches; every other operator
    /// runs its row kernel.
    Vector,
    /// Let the engine decide. Today that is the constant row mode; the
    /// planner fills this seam later.
    #[default]
    Auto,
}

impl ExecMode {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Vector => "vector",
            ExecMode::Auto => "auto",
        }
    }

    /// Whether this mode (after `Auto` resolution) runs vectorized.
    pub fn vectorized(self) -> bool {
        match self {
            ExecMode::Row | ExecMode::Auto => false,
            ExecMode::Vector => true,
        }
    }
}

/// Cross-query result caching policy (see `nsql-cache` and DESIGN.md
/// "Result caching").
///
/// `On` serves only *exact* hits: same normalized computation, same
/// binding, same catalog generations. Exact hits recharge the recorded
/// page-access sequence, so results **and** counted I/O are byte-identical
/// with an uncached run (checked by `figures_identity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never consult or populate the cache.
    Off,
    /// Exact hits only — I/O-transparent.
    On,
    /// Let the engine decide. Today that is the constant [`CacheMode::Off`];
    /// the planner fills this seam later.
    #[default]
    Auto,
}

impl CacheMode {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::On => "on",
            CacheMode::Auto => "auto",
        }
    }

    /// `Auto` resolved to the mode it stands for; other modes unchanged.
    pub fn resolve(self) -> CacheMode {
        match self {
            CacheMode::Auto => CacheMode::Off,
            other => other,
        }
    }

    /// Whether this mode (after `Auto` resolution) consults the cache.
    pub fn enabled(self) -> bool {
        !matches!(self.resolve(), CacheMode::Off)
    }
}

/// How to evaluate a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// System R semantics: direct nested iteration (the paper's baseline
    /// and the semantic ground truth). By default a correlated block may
    /// probe a B+tree, and a nested conjunct is evaluated once per distinct
    /// binding; under [`UnnestOptions::faithful_1987`] it is the paper's,
    /// page for page.
    NestedIteration,
    /// Transform to canonical form first (NEST-G driving NEST-N-J and
    /// NEST-JA2 / Kim's NEST-JA), then execute the flat query.
    Transform,
    /// Let the engine decide. Today that is the constant
    /// [`Strategy::Transform`]; the planner fills this seam later.
    #[default]
    Auto,
}

impl Strategy {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::NestedIteration => "nested-iteration",
            Strategy::Transform => "transform",
            Strategy::Auto => "auto",
        }
    }

    /// `Auto` resolved to the strategy it stands for; other strategies
    /// unchanged.
    pub fn resolve(self) -> Strategy {
        match self {
            Strategy::Auto => Strategy::Transform,
            other => other,
        }
    }
}

/// Full option set for [`crate::Database::query_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Transformation options (JA variant, duplicate preservation) and the
    /// one switch between the paper's literal plans and the default ones
    /// ([`UnnestOptions::faithful_1987`]), which the executor reads too.
    pub unnest: UnnestOptions,
    /// Join-method policy for the transformed path.
    pub join_policy: JoinPolicy,
    /// Whether restriction predicates and back-joins may route through
    /// B+tree indexes (see [`IndexUse`]). Irrelevant when no index exists.
    pub index_use: IndexUse,
    /// Start from a cold buffer so the reported cost is comparable across
    /// runs. Default **false**: consecutive statements share warm buffers,
    /// which is what a session (and the benchmark's default path) sees; the
    /// named constructors below, which reproduce the paper's numbers, set it
    /// — and `unnest.faithful_1987` with it, so they run the paper's literal
    /// plans.
    pub cold_start: bool,
    /// Worker threads for morsel-parallel execution of the transformed
    /// plan's operators; nested iteration is serial.
    /// `0` (the default) resolves from `NSQL_THREADS`, falling back to the
    /// machine's available parallelism; `1` takes the exact serial code
    /// path. A count named here or by `NSQL_THREADS` is obeyed by every
    /// operator; the fallback is a budget — each operator fans out only over
    /// an input large enough to repay the dispatch (DESIGN.md "Threading
    /// model"). Parallel runs report the same per-query I/O totals as
    /// serial runs by construction.
    pub threads: usize,
    /// Collect observability data: the query's profile tree — lifecycle
    /// spans down to per-operator counters — and diagnostic events
    /// ([`crate::QueryOutcome::obs`]). Collection is
    /// pure side-state — it never changes the reported page-I/O totals,
    /// the hit/miss split, or the result rows (property-tested).
    pub observe: bool,
    /// Whether hash joins build and probe on column batches (see
    /// [`ExecMode`]); every other operator runs its row kernel either way.
    /// `Auto` (the default) is row mode.
    pub exec_mode: ExecMode,
    /// Cross-query result caching (see [`CacheMode`]). `Auto` (the
    /// default) is off.
    pub cache: CacheMode,
    /// Slow-query threshold in milliseconds: statements whose wall time
    /// reaches it are appended (with their rendered EXPLAIN) to the
    /// statistics registry's slow-query log. `Some(0)` logs everything;
    /// `None` (the default) keeps the log off.
    pub slow_query_ms: Option<u64>,
}

impl QueryOptions {
    /// Whether a statement under these options runs its hash joins on
    /// column batches — the one thing `ExecMode::Vector` changes, and only
    /// the transform strategy has hash joins: nested iteration runs one row
    /// kernel whatever `exec_mode` says. EXPLAIN's exec-mode line and
    /// `nsql_stat_statements.EXEC_MODE` both report this.
    pub(crate) fn vectorized(&self) -> bool {
        self.exec_mode.vectorized() && self.strategy.resolve() == Strategy::Transform
    }

    /// The paper's baseline: nested iteration, cold buffer.
    pub fn nested_iteration() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::NestedIteration,
            unnest: UnnestOptions::faithful(),
            cold_start: true,
            ..QueryOptions::default()
        }
    }

    /// The paper's headline configuration: NEST-JA2 + merge joins.
    pub fn transformed_merge() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Transform,
            join_policy: JoinPolicy::ForceMergeJoin,
            unnest: UnnestOptions::faithful(),
            cold_start: true,
            ..QueryOptions::default()
        }
    }

    /// Transformation with the cost-based method choice.
    pub fn transformed() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Transform,
            join_policy: JoinPolicy::CostBased,
            unnest: UnnestOptions::faithful(),
            cold_start: true,
            ..QueryOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented defaults, field by field (exhaustively destructured,
    /// so an eleventh field cannot join unpinned).
    #[test]
    fn default_options_are_the_documented_ones() {
        let QueryOptions {
            strategy,
            unnest,
            join_policy,
            index_use,
            cold_start,
            threads,
            observe,
            exec_mode,
            cache,
            slow_query_ms,
        } = QueryOptions::default();
        assert_eq!(strategy, Strategy::Auto);
        assert_eq!(unnest.ja_variant, nsql_core::JaVariant::Ja2);
        assert!(!unnest.preserve_duplicates);
        assert!(!unnest.faithful_1987, "the paper's literal plans are the switch, not the default");
        assert_eq!(join_policy, JoinPolicy::CostBased);
        assert_eq!(index_use, IndexUse::CostBased);
        assert!(!cold_start, "statements share warm buffers unless asked otherwise");
        assert_eq!(threads, 0, "0 = NSQL_THREADS, else the machine's parallelism");
        assert!(!observe);
        assert_eq!(exec_mode, ExecMode::Auto);
        assert_eq!(cache, CacheMode::Auto);
        assert_eq!(slow_query_ms, None);
        // What the `Auto`s stand for today.
        assert_eq!(strategy.resolve(), Strategy::Transform);
        assert!(!exec_mode.vectorized() && !cache.enabled());
    }
}
