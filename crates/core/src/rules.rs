//! Rule-based logical optimizer.
//!
//! Two rule families share one match → precondition → rewrite discipline:
//!
//! * **Block rules** host the paper's NEST-* transforms. The recursive
//!   NEST-G driver ([`crate::nest_g`]) classifies each nested predicate by
//!   the (correlated, aggregate) pair and asks the catalog
//!   ([`select_block_rule`]) which rule fires; the rule's *precondition*
//!   re-uses exactly the validation its rewrite performs (NEST-N-J's
//!   [`merge_precondition`](crate::nest_n_j::merge_precondition), NEST-JA2
//!   / Kim's [`analyze_ja`](crate::nest_ja2::analyze_ja), type-A's
//!   [`check_type_a`](crate::nest_g::check_type_a)), so a precondition
//!   failure surfaces the same [`TransformError`] the bespoke dispatch
//!   produced. Each block rule names the Section-7 formula that prices it;
//!   `nsql-db` evaluates those formulas with catalog statistics when it
//!   compares strategies.
//!
//! * **Plan rules** rewrite the [`LogicalPlan`] temporaries: predicate
//!   pushdown (through projections, into the matching side of inner joins,
//!   merging adjacent filters — never across a left outer join, whose
//!   NULL-extending rows a pushed filter would wrongly remove) and
//!   projection pruning (dropping a plain non-distinct projection under an
//!   aggregate that reads only projected columns). [`RuleEngine::optimize`]
//!   drives them to a **fixpoint**: every rewrite strictly decreases the
//!   measure `(node count, Σ filter-subtree sizes)` in lexicographic order
//!   — merging filters and pruning projections shrink the node count,
//!   pushdown keeps it constant while strictly shrinking the subtree under
//!   some filter — so the loop terminates without relying on the iteration
//!   budget, which is only a backstop against a future non-monotone rule.
//!
//! Plan rules run by default. The one switch
//! [`UnnestOptions::faithful_1987`](crate::UnnestOptions) turns them off
//! together with the executor's own early restriction: the figures, the bug
//! demonstrations and the I/O-shape tests keep the paper's literal temp
//! shapes under it (several demonstrations — Section 5.2's late restriction
//! among them — deliberately preserve a shape a pushdown would "fix", and
//! those plans are pinned page for page).

use crate::logical::{LogicalJoinKind, LogicalPlan};
use crate::TransformError;
use nsql_analyzer::resolve::predicate_column_refs;
use nsql_sql::{ColumnRef, Predicate, QueryBlock, ScalarExpr};

// ------------------------------------------------------------- block rules

/// Classification of one nested predicate: the (correlated, aggregate)
/// pair of Section 2's four nesting types, after children were flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedShape {
    /// The inner block references an enclosing scope.
    pub correlated: bool,
    /// The inner block's SELECT is an aggregate.
    pub aggregate: bool,
}

/// What a selected block rule rewrites the nested predicate with; the
/// NEST-G driver owns the actual AST surgery (it holds the temp namer and
/// scope chain), keyed by this action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAction {
    /// NEST-N-J: merge the inner block into the outer (types N and J).
    MergeNJ,
    /// Type-A: materialize the constant inner block as a one-row temp.
    TypeAConstant,
    /// NEST-JA2 (or one of its demonstration variants, per
    /// [`crate::JaVariant`]): reduce type-JA to type-J.
    NestJa2,
    /// Kim's original NEST-JA (buggy baseline), on request.
    NestJaKim,
}

/// One block-level rewrite rule: a match on the nesting shape, a
/// precondition over the inner block, and the rewrite action the driver
/// executes when both pass.
pub struct BlockRule {
    /// Rule name (obs events, DESIGN.md rule catalog).
    pub name: &'static str,
    /// Section-7 formula that prices this rule's output plan — evaluated
    /// with catalog statistics by the strategy comparison in `nsql-db`.
    pub priced_by: &'static str,
    matches: fn(NestedShape, bool) -> bool,
    precondition: fn(&QueryBlock) -> crate::Result<()>,
    /// The rewrite the driver performs.
    pub action: BlockAction,
}

impl BlockRule {
    /// Does this rule's pattern match the shape? `kim` selects the buggy
    /// baseline for type-JA (a rule-catalog alternative, not a shape).
    pub fn matches(&self, shape: NestedShape, kim: bool) -> bool {
        (self.matches)(shape, kim)
    }

    /// Check the rule's precondition on the (flattened) inner block.
    pub fn precondition(&self, inner: &QueryBlock) -> crate::Result<()> {
        (self.precondition)(inner)
    }
}

/// The block-rule catalog, in match order.
pub const BLOCK_RULES: &[BlockRule] = &[
    BlockRule {
        name: "type-a-constant",
        priced_by: "one inner scan + one-page temp (constant fold)",
        matches: |s, _| !s.correlated && s.aggregate,
        precondition: crate::nest_g::check_type_a,
        action: BlockAction::TypeAConstant,
    },
    BlockRule {
        name: "nest-ja2",
        priced_by: "ja2_cost (Section 7.1–7.3)",
        matches: |s, kim| s.correlated && s.aggregate && !kim,
        precondition: |inner| crate::nest_ja2::analyze_ja(inner).map(|_| ()),
        action: BlockAction::NestJa2,
    },
    BlockRule {
        name: "nest-ja-kim",
        priced_by: "ja2_cost without the outer projection (Kim baseline)",
        matches: |s, kim| s.correlated && s.aggregate && kim,
        precondition: |inner| crate::nest_ja2::analyze_ja(inner).map(|_| ()),
        action: BlockAction::NestJaKim,
    },
    BlockRule {
        name: "nest-n-j",
        priced_by: "transformed_merge_join_cost / nested_iteration_cost_n",
        matches: |s, _| !s.aggregate,
        precondition: crate::nest_n_j::merge_precondition,
        action: BlockAction::MergeNJ,
    },
];

/// Select the block rule for a nesting shape. Exactly one rule matches
/// every shape (the catalog partitions the classification square), so this
/// cannot fail; the *rule's* precondition still can.
pub fn select_block_rule(shape: NestedShape, kim: bool) -> &'static BlockRule {
    BLOCK_RULES
        .iter()
        .find(|r| r.matches(shape, kim))
        .expect("the block-rule catalog covers all four nesting shapes")
}

// -------------------------------------------------------------- plan rules

/// One plan-rule firing, for the transformation trace and obs events.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleFiring {
    /// Rule name.
    pub rule: &'static str,
    /// What the firing did, human-readable.
    pub detail: String,
}

/// A rewrite rule over [`LogicalPlan`]s. `apply_once` attempts a single
/// rewrite anywhere in the plan (topmost match first) and returns the
/// rewritten plan plus a firing record, or `None` when no redex exists —
/// the precondition check lives inside the match (a pushdown that cannot
/// prove column containment, or would cross an outer join, is a non-match).
pub trait PlanRule {
    /// Rule name (trace lines, obs events).
    fn name(&self) -> &'static str;
    /// Attempt one rewrite.
    fn apply_once(&self, plan: &LogicalPlan) -> Option<(LogicalPlan, String)>;
}

/// Qualifiers (effective table names) produced by a plan subtree. Renames
/// are globally unique by construction (the temp namer reserves every
/// visible name), so qualifier containment decides column provenance.
fn qualifiers(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Scan { table, alias } => {
            out.push(alias.clone().unwrap_or_else(|| table.clone()));
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => qualifiers(input, out),
        LogicalPlan::Join { left, right, .. } => {
            qualifiers(left, out);
            qualifiers(right, out);
        }
    }
}

fn refs_within(pred: &Predicate, quals: &[String]) -> bool {
    let refs = predicate_column_refs(pred);
    !refs.is_empty()
        && refs.iter().all(|r| {
            r.table
                .as_deref()
                .is_some_and(|t| quals.iter().any(|q| q.eq_ignore_ascii_case(t)))
        })
}

/// Predicate pushdown: move filters toward the scans they restrict.
///
/// Cases (each strictly decreases the fixpoint measure):
/// * `Filter(Filter(x))` → one filter with the conjunction (node count −1);
/// * `Filter(Project(x))` → `Project(Filter(x))` when the projection is
///   plain columns (no aliasing that could capture the filter's names);
/// * `Filter(Join_inner(l, r))` → push into the side whose qualifiers
///   cover every column the predicate reads.
///
/// **Never across a left outer join**: the filter sees NULL-extended rows
/// the join manufactures; below the join those rows do not exist yet, so
/// pushing changes results (the COUNT-bug construction is exactly such a
/// plan).
pub struct PredicatePushdown;

impl PlanRule for PredicatePushdown {
    fn name(&self) -> &'static str {
        "predicate-pushdown"
    }

    fn apply_once(&self, plan: &LogicalPlan) -> Option<(LogicalPlan, String)> {
        match plan {
            LogicalPlan::Filter { input, pred } => match &**input {
                LogicalPlan::Filter { input: inner, pred: inner_pred } => {
                    let merged = Predicate::and(vec![pred.clone(), inner_pred.clone()]);
                    Some((
                        LogicalPlan::Filter { input: inner.clone(), pred: merged },
                        "merged adjacent filters".to_string(),
                    ))
                }
                LogicalPlan::Project { input: inner, items, distinct } => {
                    // Precondition: plain unaliased column projection, so
                    // every name the filter reads means the same thing
                    // below the projection.
                    let plain = items.iter().all(|i| {
                        i.alias.is_none() && matches!(i.expr, ScalarExpr::Column(_))
                    });
                    if !plain {
                        return None;
                    }
                    Some((
                        LogicalPlan::Project {
                            input: Box::new(LogicalPlan::Filter {
                                input: inner.clone(),
                                pred: pred.clone(),
                            }),
                            items: items.clone(),
                            distinct: *distinct,
                        },
                        "pushed filter below projection".to_string(),
                    ))
                }
                LogicalPlan::Join { left, right, kind, on } => {
                    // Precondition: inner join only — a left outer join is
                    // a barrier (NULL-extended rows).
                    if *kind != LogicalJoinKind::Inner {
                        return None;
                    }
                    let mut lq = Vec::new();
                    let mut rq = Vec::new();
                    qualifiers(left, &mut lq);
                    qualifiers(right, &mut rq);
                    let (side, into_left) = if refs_within(pred, &lq) {
                        ("left", true)
                    } else if refs_within(pred, &rq) {
                        ("right", false)
                    } else {
                        return None;
                    };
                    let wrap = |p: &LogicalPlan| {
                        Box::new(LogicalPlan::Filter {
                            input: Box::new(p.clone()),
                            pred: pred.clone(),
                        })
                    };
                    let (l, r) = if into_left {
                        (wrap(left), right.clone())
                    } else {
                        (left.clone(), wrap(right))
                    };
                    Some((
                        LogicalPlan::Join { left: l, right: r, kind: *kind, on: on.clone() },
                        format!("pushed filter into the {side} join input"),
                    ))
                }
                _ => None,
            },
            LogicalPlan::Project { input, items, distinct } => self
                .apply_once(input)
                .map(|(p, d)| {
                    (
                        LogicalPlan::Project {
                            input: Box::new(p),
                            items: items.clone(),
                            distinct: *distinct,
                        },
                        d,
                    )
                }),
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                self.apply_once(input).map(|(p, d)| {
                    (
                        LogicalPlan::Aggregate {
                            input: Box::new(p),
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                        },
                        d,
                    )
                })
            }
            LogicalPlan::Join { left, right, kind, on } => {
                if let Some((l, d)) = self.apply_once(left) {
                    return Some((
                        LogicalPlan::Join {
                            left: Box::new(l),
                            right: right.clone(),
                            kind: *kind,
                            on: on.clone(),
                        },
                        d,
                    ));
                }
                self.apply_once(right).map(|(r, d)| {
                    (
                        LogicalPlan::Join {
                            left: left.clone(),
                            right: Box::new(r),
                            kind: *kind,
                            on: on.clone(),
                        },
                        d,
                    )
                })
            }
            LogicalPlan::Scan { .. } => None,
        }
    }
}

/// Projection pruning: drop a plain, non-distinct, unaliased column
/// projection directly under an aggregate that reads only projected
/// columns. Such a projection changes neither row multiplicity nor any
/// column the aggregate touches, so removing it is semantics-preserving
/// and saves one pipeline stage.
pub struct ProjectionPruning;

impl PlanRule for ProjectionPruning {
    fn name(&self) -> &'static str {
        "projection-pruning"
    }

    fn apply_once(&self, plan: &LogicalPlan) -> Option<(LogicalPlan, String)> {
        match plan {
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                if let LogicalPlan::Project { input: below, items, distinct: false } = &**input {
                    let projected: Vec<&ColumnRef> = items
                        .iter()
                        .filter_map(|i| match (&i.expr, &i.alias) {
                            (ScalarExpr::Column(c), None) => Some(c),
                            _ => None,
                        })
                        .collect();
                    let plain = projected.len() == items.len();
                    let covered = |c: &ColumnRef| projected.iter().any(|p| *p == c);
                    let reads_ok = group_by.iter().all(&covered)
                        && aggs.iter().all(|a| match &a.arg {
                            nsql_sql::AggArg::Star => true,
                            nsql_sql::AggArg::Column(c) => covered(c),
                        });
                    if plain && reads_ok {
                        return Some((
                            LogicalPlan::Aggregate {
                                input: below.clone(),
                                group_by: group_by.clone(),
                                aggs: aggs.clone(),
                            },
                            "pruned redundant projection under aggregate".to_string(),
                        ));
                    }
                }
                self.apply_once(input).map(|(p, d)| {
                    (
                        LogicalPlan::Aggregate {
                            input: Box::new(p),
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                        },
                        d,
                    )
                })
            }
            LogicalPlan::Filter { input, pred } => self.apply_once(input).map(|(p, d)| {
                (LogicalPlan::Filter { input: Box::new(p), pred: pred.clone() }, d)
            }),
            LogicalPlan::Project { input, items, distinct } => {
                self.apply_once(input).map(|(p, d)| {
                    (
                        LogicalPlan::Project {
                            input: Box::new(p),
                            items: items.clone(),
                            distinct: *distinct,
                        },
                        d,
                    )
                })
            }
            LogicalPlan::Join { left, right, kind, on } => {
                if let Some((l, d)) = self.apply_once(left) {
                    return Some((
                        LogicalPlan::Join {
                            left: Box::new(l),
                            right: right.clone(),
                            kind: *kind,
                            on: on.clone(),
                        },
                        d,
                    ));
                }
                self.apply_once(right).map(|(r, d)| {
                    (
                        LogicalPlan::Join {
                            left: left.clone(),
                            right: Box::new(r),
                            kind: *kind,
                            on: on.clone(),
                        },
                        d,
                    )
                })
            }
            LogicalPlan::Scan { .. } => None,
        }
    }
}

/// The fixpoint driver over a fixed rule list.
pub struct RuleEngine {
    rules: Vec<Box<dyn PlanRule>>,
    /// Iteration backstop; the measure argument (module docs) means a
    /// standard-catalog run never reaches it.
    pub budget: usize,
}

impl RuleEngine {
    /// The standard catalog: predicate pushdown, then projection pruning.
    pub fn standard() -> RuleEngine {
        RuleEngine {
            rules: vec![Box::new(PredicatePushdown), Box::new(ProjectionPruning)],
            budget: 128,
        }
    }

    /// Drive the rules to a fixpoint. Returns the optimized plan and the
    /// ordered firing log (one entry per rewrite, for trace lines and obs
    /// events).
    pub fn optimize(&self, mut plan: LogicalPlan) -> (LogicalPlan, Vec<RuleFiring>) {
        let mut firings = Vec::new();
        'outer: for _ in 0..self.budget {
            for rule in &self.rules {
                if let Some((next, detail)) = rule.apply_once(&plan) {
                    plan = next;
                    firings.push(RuleFiring { rule: rule.name(), detail });
                    continue 'outer;
                }
            }
            break;
        }
        (plan, firings)
    }
}

/// Check a [`TransformError`] precondition result (convenience for tests).
pub fn precondition_err(e: crate::Result<()>) -> Option<TransformError> {
    e.err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::JoinPred;
    use nsql_sql::{parse_query, CompareOp, SelectItem};

    fn pred(src: &str) -> Predicate {
        parse_query(&format!("SELECT K FROM T WHERE {src}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::scan(name)
    }

    fn filter(input: LogicalPlan, p: &str) -> LogicalPlan {
        LogicalPlan::Filter { input: Box::new(input), pred: pred(p) }
    }

    fn join(l: LogicalPlan, r: LogicalPlan, kind: LogicalJoinKind) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            kind,
            on: vec![JoinPred {
                left: ColumnRef::qualified("A", "K"),
                op: CompareOp::Eq,
                right: ColumnRef::qualified("B", "K"),
            }],
        }
    }

    #[test]
    fn block_rule_catalog_partitions_the_classification_square() {
        for correlated in [false, true] {
            for aggregate in [false, true] {
                for kim in [false, true] {
                    let shape = NestedShape { correlated, aggregate };
                    let matching: Vec<&str> = BLOCK_RULES
                        .iter()
                        .filter(|r| r.matches(shape, kim))
                        .map(|r| r.name)
                        .collect();
                    assert_eq!(matching.len(), 1, "{shape:?} kim={kim}: {matching:?}");
                }
            }
        }
        let ja = select_block_rule(NestedShape { correlated: true, aggregate: true }, false);
        assert_eq!(ja.action, BlockAction::NestJa2);
        let kim = select_block_rule(NestedShape { correlated: true, aggregate: true }, true);
        assert_eq!(kim.action, BlockAction::NestJaKim);
        let nj = select_block_rule(NestedShape { correlated: true, aggregate: false }, false);
        assert_eq!(nj.action, BlockAction::MergeNJ);
        let a = select_block_rule(NestedShape { correlated: false, aggregate: true }, true);
        assert_eq!(a.action, BlockAction::TypeAConstant);
    }

    #[test]
    fn block_rule_preconditions_reject_bad_inner_blocks() {
        let nj = select_block_rule(NestedShape { correlated: false, aggregate: false }, false);
        let two_cols = parse_query("SELECT K, V FROM T").unwrap();
        assert!(nj.precondition(&two_cols).is_err(), "multi-column select must be vetoed");
        let one_col = parse_query("SELECT K FROM T").unwrap();
        assert!(nj.precondition(&one_col).is_ok());
    }

    #[test]
    fn pushdown_merges_adjacent_filters() {
        let plan = filter(filter(scan("A"), "A.K = 1"), "A.V = 2");
        let (out, firings) = RuleEngine::standard().optimize(plan);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "predicate-pushdown");
        let LogicalPlan::Filter { input, .. } = &out else { panic!("{}", out.explain()) };
        assert!(matches!(**input, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn pushdown_moves_filter_below_plain_projection() {
        let project = LogicalPlan::Project {
            input: Box::new(scan("A")),
            items: vec![SelectItem::column(ColumnRef::qualified("A", "K"))],
            distinct: true,
        };
        let plan = filter(project, "A.K = 1");
        let (out, firings) = RuleEngine::standard().optimize(plan);
        assert_eq!(firings.len(), 1, "{}", out.explain());
        assert!(
            matches!(out, LogicalPlan::Project { .. }),
            "projection should now be on top:\n{}",
            out.explain()
        );
    }

    #[test]
    fn pushdown_respects_aliased_projection() {
        let project = LogicalPlan::Project {
            input: Box::new(scan("A")),
            items: vec![SelectItem {
                expr: ScalarExpr::Column(ColumnRef::qualified("A", "K")),
                alias: Some("K2".into()),
            }],
            distinct: false,
        };
        let plan = filter(project, "A.K = 1");
        let (_, firings) = RuleEngine::standard().optimize(plan);
        assert!(firings.is_empty(), "aliased projection must block pushdown: {firings:?}");
    }

    #[test]
    fn pushdown_routes_filter_to_owning_join_side() {
        let plan = filter(join(scan("A"), scan("B"), LogicalJoinKind::Inner), "B.V = 3");
        let (out, firings) = RuleEngine::standard().optimize(plan);
        assert_eq!(firings.len(), 1);
        assert!(firings[0].detail.contains("right"), "{:?}", firings);
        let LogicalPlan::Join { right, .. } = &out else { panic!("{}", out.explain()) };
        assert!(matches!(**right, LogicalPlan::Filter { .. }), "{}", out.explain());
    }

    #[test]
    fn pushdown_never_crosses_left_outer_join() {
        // The COUNT-bug shape: a filter above a left outer join must stay
        // put, even when its columns all come from one side.
        let plan = filter(join(scan("A"), scan("B"), LogicalJoinKind::LeftOuter), "B.V = 3");
        let (out, firings) = RuleEngine::standard().optimize(plan.clone());
        assert!(firings.is_empty(), "outer join must be a barrier: {firings:?}");
        assert_eq!(out, plan);
    }

    #[test]
    fn pruning_drops_redundant_projection_under_aggregate() {
        let project = LogicalPlan::Project {
            input: Box::new(scan("A")),
            items: vec![
                SelectItem::column(ColumnRef::qualified("A", "K")),
                SelectItem::column(ColumnRef::qualified("A", "V")),
            ],
            distinct: false,
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(project),
            group_by: vec![ColumnRef::qualified("A", "K")],
            aggs: vec![crate::AggItem {
                func: nsql_sql::AggFunc::Sum,
                arg: nsql_sql::AggArg::Column(ColumnRef::qualified("A", "V")),
                alias: "S".into(),
            }],
        };
        let (out, firings) = RuleEngine::standard().optimize(plan);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "projection-pruning");
        let LogicalPlan::Aggregate { input, .. } = &out else { panic!() };
        assert!(matches!(**input, LogicalPlan::Scan { .. }), "{}", out.explain());
    }

    #[test]
    fn pruning_keeps_distinct_projections() {
        // DISTINCT changes multiplicity: the projection is load-bearing.
        let project = LogicalPlan::Project {
            input: Box::new(scan("A")),
            items: vec![SelectItem::column(ColumnRef::qualified("A", "K"))],
            distinct: true,
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(project),
            group_by: vec![ColumnRef::qualified("A", "K")],
            aggs: vec![crate::AggItem {
                func: nsql_sql::AggFunc::Count,
                arg: nsql_sql::AggArg::Star,
                alias: "C".into(),
            }],
        };
        let (_, firings) = RuleEngine::standard().optimize(plan);
        assert!(firings.is_empty(), "{firings:?}");
    }

    #[test]
    fn fixpoint_terminates_and_composes_rules() {
        // Filter over filter over projection over inner join: the engine
        // merges, pushes through the projection, then into the join side —
        // and stops (no infinite ping-pong).
        let project = LogicalPlan::Project {
            input: Box::new(join(scan("A"), scan("B"), LogicalJoinKind::Inner)),
            items: vec![
                SelectItem::column(ColumnRef::qualified("A", "K")),
                SelectItem::column(ColumnRef::qualified("A", "V")),
            ],
            distinct: false,
        };
        let plan = filter(filter(project, "A.K = 1"), "A.V = 2");
        let engine = RuleEngine::standard();
        let (out, firings) = engine.optimize(plan);
        assert!(
            firings.len() >= 3 && firings.len() < engine.budget,
            "expected a short composed chain, got {firings:?}"
        );
        // The merged filter ends up on the join's left (A) input.
        let LogicalPlan::Project { input, .. } = &out else { panic!("{}", out.explain()) };
        let LogicalPlan::Join { left, .. } = &**input else { panic!("{}", out.explain()) };
        assert!(matches!(**left, LogicalPlan::Filter { .. }), "{}", out.explain());
    }
}
