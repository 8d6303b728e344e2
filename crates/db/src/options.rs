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
    /// A **modern extension** — System R and the paper had no hash join.
    /// It builds on the input with fewer pages and Grace-partitions a
    /// build side over `B − 2` pages, as the cost-based choice prices it;
    /// forcing it is the E13 ablation.
    ForceHashJoin,
    /// Pick the cheapest method per join from actual page counts: the
    /// Section-7 cost formulas, `cost::hash_join_cost` for the hash join,
    /// and each method's in-memory work. Under
    /// `UnnestOptions::faithful_1987` only the paper's two methods compete,
    /// by pages alone.
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

/// A stub: there is one execution mode, and every hash join runs the one
/// kernel (DESIGN.md "One hash-join kernel"). The type survives only
/// because `benchmark/src/main.rs` names it, and benchmark/README.md
/// requires a benchmark change before a listed symbol goes; that change
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The one mode.
    #[default]
    Auto,
}

impl ExecMode {
    /// `false`: no value runs a second kernel.
    pub fn vectorized(self) -> bool {
        false
    }
}

/// A stub: there is no cross-query result cache, and every mode runs as
/// `Off` (DESIGN.md "No result cache"). The type and
/// [`QueryOptions::cache`] survive only because `benchmark/src/probes.rs`
/// and `benchmark/src/main.rs` name them, and benchmark/README.md requires
/// a benchmark change before a listed symbol goes; that change deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No cache.
    Off,
    /// No cache either.
    On,
    /// No cache.
    #[default]
    Auto,
}

impl CacheMode {
    /// The mode every value stands for: [`CacheMode::Off`].
    pub fn resolve(self) -> CacheMode {
        CacheMode::Off
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

/// Full option set for [`crate::Database::query_with`]. There is no thread
/// count: every statement runs serially on the calling thread (DESIGN.md
/// "Execution is serial").
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
    /// Collect observability data: the query's profile tree — lifecycle
    /// spans down to per-operator counters ([`crate::QueryOutcome::obs`]). Collection is
    /// pure side-state — it never changes the reported page-I/O totals,
    /// the hit/miss split, or the result rows (property-tested).
    pub observe: bool,
    /// Ignored: there is no result cache (see [`CacheMode`]).
    pub cache: CacheMode,
    /// Slow-query threshold in milliseconds: statements whose wall time
    /// reaches it are appended (with their rendered EXPLAIN) to the
    /// statistics registry's slow-query log. `Some(0)` logs everything;
    /// `None` (the default) keeps the log off.
    pub slow_query_ms: Option<u64>,
}

impl QueryOptions {
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
    /// so a ninth field cannot join unpinned).
    #[test]
    fn default_options_are_the_documented_ones() {
        let QueryOptions {
            strategy,
            unnest,
            join_policy,
            index_use,
            cold_start,
            observe,
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
        assert!(!observe);
        assert_eq!(cache, CacheMode::Auto);
        assert_eq!(slow_query_ms, None);
        // What the `Auto`s stand for today.
        assert_eq!(strategy.resolve(), Strategy::Transform);
        assert_eq!(cache.resolve(), CacheMode::Off);
    }
}
