//! The block-rule catalog: which NEST-* transform fires on a nested
//! predicate.
//!
//! **Block rules** host the paper's NEST-* transforms under one match →
//! precondition → rewrite discipline. The recursive NEST-G driver
//! ([`crate::nest_g`]) classifies each nested predicate by the (correlated,
//! aggregate) pair and asks the catalog ([`select_block_rule`]) which rule
//! fires; the rule's *precondition* re-uses exactly the validation its
//! rewrite performs (NEST-N-J's
//! [`merge_precondition`](crate::nest_n_j::merge_precondition), NEST-JA2 /
//! Kim's [`analyze_ja`](crate::nest_ja2::analyze_ja), type-A's
//! [`check_type_a`](crate::nest_g::check_type_a)), so a precondition failure
//! surfaces the same [`TransformError`](crate::TransformError) the bespoke
//! dispatch produced. Each block rule names the Section-7 formula that
//! prices it; `nsql-db` evaluates those formulas with catalog statistics
//! when it compares strategies.
//!
//! There are no rules over the [`LogicalPlan`](crate::LogicalPlan)
//! temporaries: a temporary keeps the shape its algorithm emits, and where a
//! conjunct is applied, which conjuncts are join keys and which columns a
//! stored join result carries is decided in one place, by the executor's
//! join pipeline (`nsql-db`, `plan_exec.rs`), for the canonical query and
//! for a temporary over several relations alike.

use nsql_sql::QueryBlock;

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

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

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
}
