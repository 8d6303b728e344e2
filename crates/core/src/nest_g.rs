//! The recursive general transformation — procedure `nest_g` (Section 9).
//!
//! A direct postorder recursive algorithm: for each nested predicate, first
//! transform the inner block (which flattens everything below it), then
//! classify the now-flat inner block against its parent and dispatch:
//!
//! * type-A → the inner block becomes a one-row temporary (global
//!   aggregate), cross-joined into the parent;
//! * type-N / type-J → algorithm NEST-N-J merges the blocks;
//! * type-JA → algorithm NEST-JA2 (or, on request, Kim's buggy NEST-JA)
//!   reduces the block to type-J, and NEST-N-J finishes the job.
//!
//! Off the paper's literal plans one more arm comes first: a `NOT IN`,
//! `!= ALL` or `NOT EXISTS` over one relation with no aggregate, correlated
//! by an equality, becomes an anti-join of the canonical query
//! ([`AntiJoin`]) — null-aware for the first two — where Ganski & Wong's
//! algorithms stop (they refuse `NOT IN`, and Section 8 rewrites `NOT
//! EXISTS` to a COUNT that a NULL key defeats).
//! It applies in a block whose rows end in the canonical query: the root,
//! or a block NEST-N-J merges into one that does.
//!
//! As the paper highlights, the information needed at each step "is
//! confined to two levels of the query": deeper correlations are carried
//! upward by the merges ("the trans-aggregate join predicate \[is\]
//! inherited by the recursive transformation of inner query blocks").

use crate::error::TransformError;
use crate::logical::{AggItem, JoinPred, LogicalPlan};
use crate::nest_ja2::{
    analyze_ja, apply_ja2, inner_from_plan, Correlation, Ja2Config, JaAnalysis, OuterScope,
};
use crate::nest_ja_kim::apply_ja_kim;
use crate::nest_n_j::{merge_inner, merge_precondition, rename_flat_pred, Connecting};
use crate::pipeline::{lower, AntiJoin, TempNamer, TempTable, TransformPlan};
use crate::rewrites::rewrite_extended;
use crate::Result;
use nsql_analyzer::resolve::{level_column_refs, predicate_column_refs};
use nsql_analyzer::{analyze, block_is_correlated, Analyzed, SchemaSource};
use nsql_obs::Profile;
use nsql_sql::{
    AggArg, ColumnRef, CompareOp, InRhs, Operand, Predicate, Quantifier, QueryBlock, ScalarExpr,
    SelectItem, TableRef,
};

/// Which type-JA algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JaVariant {
    /// The paper's corrected NEST-JA2 (default).
    #[default]
    Ja2,
    /// NEST-JA2 *without* step 1's DISTINCT projection of the outer join
    /// column — the intermediate (still wrong) algorithm of Section 5.4,
    /// kept for the duplicates-problem demonstration.
    Ja2NoProjection,
    /// NEST-JA2 with the inner restriction applied *after* the outer join
    /// — the ordering Section 5.2 warns about ("the join would not
    /// contain the last row, and the result would be incorrect").
    Ja2LateRestriction,
    /// Kim's original NEST-JA — exhibits the COUNT and non-equality bugs.
    KimOriginal,
}

/// Options controlling the transformation.
#[derive(Debug, Clone, Default)]
pub struct UnnestOptions {
    /// Type-JA algorithm choice.
    pub ja_variant: JaVariant,
    /// What NEST-N-J's join expansion does to row multiplicity — the paper's
    /// Section 4 duplicates problem made an explicit, documented choice.
    ///
    /// Nested iteration (the semantic ground truth) emits each outer tuple at
    /// most once per `IN` test, however many inner rows match. Kim's NEST-N-J
    /// replaces the membership test with a join, so an outer tuple appears
    /// once *per match*. The two agree as bags only when the merged inner
    /// column is key-valued (at most one match per outer tuple); otherwise a
    /// choice must be made, and both available choices are deviations.
    ///
    /// Off (the default) is Kim's join form verbatim, the faithful historical
    /// reading: output multiplicity is join multiplicity, bag-equal to nested
    /// iteration for key-valued inner columns and over-counting matches
    /// otherwise (only set-level agreement is promised —
    /// `Relation::same_set`). On is the modern semijoin-style fix: the
    /// executor deduplicates the final result of an IN-merged query
    /// ([`TransformPlan::needs_distinct_for_semantics`]). The output then has
    /// DISTINCT (set) semantics — join-expansion duplicates disappear, but so
    /// do *legitimate* duplicate outer tuples, so this too matches nested
    /// iteration only up to sets. Nested iteration ignores the field.
    pub preserve_duplicates: bool,
    /// Reproduce the paper's plans literally, here and in the executor
    /// (`nsql-db` reads the same field): the temporaries keep the shapes
    /// the algorithms emit — the Section 5.2/5.4 demonstration variants,
    /// whose *point* is a shape an optimizer would repair, among them — the
    /// canonical query joins whole base tables carrying every column, and
    /// the join method is chosen on Section 7's page counts alone. Off by
    /// default: the executor restricts and projects each join input first,
    /// in the canonical query and in a temporary over several relations
    /// alike (DESIGN.md "Configuration").
    pub faithful_1987: bool,
}

impl UnnestOptions {
    /// The paper's literal plans, every other option at its default — what
    /// the figures, the bug demonstrations and every pinned page count
    /// start from.
    pub fn faithful() -> UnnestOptions {
        UnnestOptions { faithful_1987: true, ..UnnestOptions::default() }
    }
}

/// Transform a nested query into a [`TransformPlan`]: temporary-table
/// definitions plus a flat canonical query. The query is analyzed first
/// ([`analyze`]); [`transform_analyzed`] is the transformation alone.
pub fn transform_query<S: SchemaSource>(
    catalog: &S,
    query: &QueryBlock,
    options: &UnnestOptions,
) -> Result<TransformPlan> {
    transform_analyzed(analyze(catalog, query)?, options, &Profile::default())
}

/// Transform an analyzed query, reading correlation off its qualifiers,
/// under a profile: each NEST-G recursion level and each algorithm
/// dispatch (NEST-N-J merge, type-A temp, NEST-JA2 steps 1/2a/2b/3, Kim's
/// NEST-JA) opens a nested node. A disabled profile records nothing.
pub fn transform_analyzed(
    query: Analyzed,
    options: &UnnestOptions,
    profile: &Profile,
) -> Result<TransformPlan> {
    let mut q = query.into_block();
    let mut reserved = Vec::new();
    collect_table_names(&q, &mut reserved);
    let mut ctx = Ctx {
        options: options.clone(),
        namer: TempNamer::new(reserved),
        temps: Vec::new(),
        anti_joins: Vec::new(),
        anti_ok: !options.faithful_1987,
        trace: Vec::new(),
        merged_in_membership: false,
        profile: profile.clone(),
    };
    ctx.nest_g(&mut q, None)?;
    ctx.name_anti_joins_apart(&q);
    let Ctx { temps, anti_joins, trace, merged_in_membership, .. } = ctx;
    let needs_distinct_for_semantics = options.preserve_duplicates && merged_in_membership;
    let root = lower(&q, &anti_joins, needs_distinct_for_semantics)?;
    Ok(TransformPlan { temps, canonical: q, anti_joins, root, trace, needs_distinct_for_semantics })
}

fn collect_table_names(q: &QueryBlock, out: &mut Vec<String>) {
    for t in &q.from {
        out.push(t.table.clone());
        if let Some(a) = &t.alias {
            out.push(a.clone());
        }
    }
    for sub in q.child_blocks() {
        collect_table_names(sub, out);
    }
}

/// Snapshot of one enclosing block for scope lookups during JA handling.
struct ScopeFrame {
    from: Vec<TableRef>,
    simple_conjuncts: Vec<Predicate>,
}

/// A block's [`ScopeFrame`] linked to the scope of the block enclosing it:
/// the recursion lends each block its ancestors' scopes, nearest first,
/// and copies none of them.
struct Scope<'a> {
    frame: ScopeFrame,
    parent: Option<&'a Scope<'a>>,
    /// Enclosing blocks.
    depth: usize,
}

impl Scope<'_> {
    /// The frames from this block's out to the root's.
    fn frames(&self) -> impl Iterator<Item = &ScopeFrame> {
        std::iter::successors(Some(self), |s| s.parent).map(|s| &s.frame)
    }
}

impl ScopeFrame {
    fn of(block: &QueryBlock) -> ScopeFrame {
        let simple_conjuncts = block
            .where_clause
            .as_ref()
            .map(|p| {
                p.conjuncts()
                    .into_iter()
                    .filter(|c| c.is_simple())
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        ScopeFrame { from: block.from.clone(), simple_conjuncts }
    }
}

impl OuterScope for Scope<'_> {
    fn base_table(&self, effective: &str) -> Option<String> {
        for frame in self.frames() {
            for t in &frame.from {
                if t.effective_name().eq_ignore_ascii_case(effective) {
                    return Some(t.table.clone());
                }
            }
        }
        None
    }

    fn simple_predicates(&self, effective: &str) -> Vec<Predicate> {
        for frame in self.frames() {
            if !frame
                .from
                .iter()
                .any(|t| t.effective_name().eq_ignore_ascii_case(effective))
            {
                continue;
            }
            return frame
                .simple_conjuncts
                .iter()
                .filter(|c| {
                    let refs = predicate_column_refs(c);
                    !refs.is_empty()
                        && refs
                            .iter()
                            .all(|r| r.table.as_deref() == Some(effective))
                })
                .cloned()
                .collect();
        }
        Vec::new()
    }
}

struct Ctx {
    options: UnnestOptions,
    namer: TempNamer,
    temps: Vec<TempTable>,
    anti_joins: Vec<AntiJoin>,
    /// Whether the block being transformed may take its `NOT IN`,
    /// `!= ALL` and `NOT EXISTS` conjuncts as anti-joins: off the literal
    /// plans, in a block whose rows end in the canonical query. An
    /// aggregate block's go into a temporary.
    anti_ok: bool,
    trace: Vec<String>,
    merged_in_membership: bool,
    profile: Profile,
}

impl Ctx {
    /// The recursive procedure. `parent` is the enclosing block's scope.
    fn nest_g(&mut self, block: &mut QueryBlock, parent: Option<&Scope<'_>>) -> Result<()> {
        // Recursion-depth node; an error return below it leaves nodes open,
        // and `end` closes open descendants first, so `?` stays safe.
        let depth = parent.map_or(0, |p| p.depth + 1);
        let node = self.profile.begin_with(|| format!("NEST-G depth {depth}"));
        let result = self.nest_g_inner(block, parent, depth);
        self.profile.end(node);
        result
    }

    fn nest_g_inner(
        &mut self,
        block: &mut QueryBlock,
        parent: Option<&Scope<'_>>,
        depth: usize,
    ) -> Result<()> {
        // Anti-joins first, before Section 8 rewrites `NOT EXISTS` to a COUNT
        // and `!= ALL` to the `NOT IN` it refuses; then those rewrites.
        let first_anti = self.anti_joins.len();
        if self.anti_ok {
            if let Some(w) = block.where_clause.take() {
                block.where_clause = self.take_anti_joins(w);
            }
        }
        if let Some(w) = block.where_clause.take() {
            block.where_clause = Some(rewrite_extended(w, &mut self.trace));
        }

        // Scope for descendants: this block, linked to its ancestors'.
        let scope = Scope { frame: ScopeFrame::of(block), parent, depth };

        let conjuncts = match block.where_clause.take() {
            Some(p) => p.into_conjuncts(),
            None => Vec::new(),
        };
        let mut kept: Vec<Predicate> = Vec::new();
        let mut per_rows: Vec<PerRow> = Vec::new();
        for conjunct in conjuncts {
            if conjunct.is_simple() {
                kept.push(conjunct);
                continue;
            }
            // The algorithms connect one inner block to a column or constant
            // of this block. Any other place a block can sit — the operand
            // of IS NULL, of IN (list), of a quantifier, or opposite another
            // block — is refused here, so no subquery operand survives into
            // the canonical query.
            let flat = |o: &Operand| o.as_subquery().is_none();
            let (operand, op, inner, via_membership) = match conjunct {
                Predicate::Compare { left, op, right: Operand::Subquery(inner) }
                    if flat(&left) =>
                {
                    (left, op, *inner, false)
                }
                Predicate::Compare { left: Operand::Subquery(inner), op, right }
                    if flat(&right) =>
                {
                    (right, op.flip(), *inner, false)
                }
                Predicate::In { operand, negated: false, rhs: InRhs::Subquery(inner) }
                    if flat(&operand) =>
                {
                    (operand, CompareOp::Eq, *inner, true)
                }
                other => {
                    return Err(TransformError::Unsupported(format!(
                        "nested predicate shape not handled by the transformation algorithms: {}",
                        nsql_sql::print_predicate(&other)
                    )))
                }
            };
            match self.transform_nested(block, operand, op, inner, via_membership, &scope)? {
                Nested::Merged(p) => kept.push(p),
                Nested::PerRow(per_row) => per_rows.push(*per_row),
            }
        }
        // A block correlated by a disjunction reads its outer relation once
        // every other conjunct is in place: the columns they read go with it.
        for at in 0..per_rows.len() {
            let (this, later) = per_rows[at..].split_first().expect("at < len");
            let replaced = self.apply_per_row(block, &mut kept, this, later, first_anti)?;
            kept.push(replaced);
        }
        if !kept.is_empty() {
            block.where_clause = Some(Predicate::and(kept));
        }
        Ok(())
    }

    /// Transform one nested predicate: the replacement predicate, or the
    /// flattened block when it is to be evaluated per row of this block's
    /// relation.
    fn transform_nested(
        &mut self,
        block: &mut QueryBlock,
        operand: Operand,
        op: CompareOp,
        mut inner: QueryBlock,
        via_membership: bool,
        scope: &Scope<'_>,
    ) -> Result<Nested> {
        // Postorder: flatten the inner block first. Its anti-joins end in the
        // canonical query only if its rows do: not an aggregate's.
        let (anti_ok, first_anti) = (self.anti_ok, self.anti_joins.len());
        self.anti_ok &= !inner.has_aggregate_select();
        let flattened = self.nest_g(&mut inner, Some(scope));
        self.anti_ok = anti_ok;
        flattened?;

        // Classify by Section 2's (correlated, aggregate) pair and dispatch.
        // Each arm runs its rewrite's own applicability check first, so a
        // refusal is raised before anything is traced or materialized.
        let correlated = block_is_correlated(&inner);
        let inner_to_merge = match (correlated, inner.has_aggregate_select()) {
            (_, false) => {
                merge_precondition(&inner)?;
                let ty = if correlated { 'J' } else { 'N' };
                self.trace.push(format!(
                    "type-{ty} nesting: NEST-N-J merges [{}] into the outer block",
                    inner.from_names().join(", ")
                ));
                if via_membership {
                    self.merged_in_membership = true;
                }
                inner
            }
            (false, true) => {
                // Type-A: one-row temporary, cross-joined.
                check_type_a(&inner)?;
                self.trace.push("type-A nesting: inner block evaluates to a constant; \
                     materialized as a one-row temporary".to_string());
                let span = self.profile.begin("type-A temp");
                let out = self.type_a_temp(inner);
                self.profile.end(span);
                out?
            }
            // Type-JA: reduce to type-J first — or, correlated by a
            // disjunction off the literal plans, evaluate it per outer row.
            (true, true) => {
                let ja = match analyze_ja(&inner)? {
                    ja if self.options.faithful_1987 => ja.conjunctive()?,
                    ja => ja,
                };
                if ja.disjunction.is_some() {
                    let name = ja.outer_name.as_str();
                    if !block.from.iter().any(|t| t.effective_name().eq_ignore_ascii_case(name)) {
                        return Err(TransformError::Unsupported(format!(
                            "a block correlated by a disjunction must reference a relation of \
                             the block it is nested in, not {}",
                            ja.outer_name
                        )));
                    }
                    self.trace.push(format!(
                        "type-JA nesting: correlated by a disjunction; one groupjoin per row \
                         of {}",
                        ja.outer_name
                    ));
                    return Ok(Nested::PerRow(Box::new(PerRow { operand, op, inner, ja })));
                }
                let ja2 = "NEST-JA2";
                let (line, span, config) = match self.options.ja_variant {
                    JaVariant::Ja2 => ("applying NEST-JA2", ja2, Some(Ja2Config::default())),
                    JaVariant::Ja2NoProjection => (
                        "applying NEST-JA2 WITHOUT the outer projection \
                         (Section 5.4 demonstration variant)",
                        ja2,
                        Some(Ja2Config { project_outer: false, ..Ja2Config::default() }),
                    ),
                    JaVariant::Ja2LateRestriction => (
                        "applying NEST-JA2 with the restriction AFTER \
                         the join (Section 5.2 demonstration variant)",
                        ja2,
                        Some(Ja2Config { restrict_before_join: false, ..Ja2Config::default() }),
                    ),
                    JaVariant::KimOriginal => {
                        ("applying Kim's NEST-JA (buggy baseline)", "NEST-JA (Kim)", None)
                    }
                };
                self.trace.push(format!("type-JA nesting: {line}"));
                let span = self.profile.begin(span);
                let out = match config {
                    Some(config) => apply_ja2(
                        &inner,
                        scope,
                        &mut self.namer,
                        &mut self.temps,
                        &mut self.trace,
                        config,
                        &self.profile,
                    ),
                    None => {
                        apply_ja_kim(&inner, &mut self.namer, &mut self.temps, &mut self.trace)
                    }
                };
                self.profile.end(span);
                out?
            }
        };
        let merge_span = self.profile.begin("NEST-N-J merge");
        let outcome = merge_inner(
            block,
            Connecting { operand, op },
            inner_to_merge,
            &mut self.namer,
        );
        self.profile.end(merge_span);
        let outcome = outcome?;
        for (old, new) in &outcome.renames {
            self.trace.push(format!("renamed inner table {old} to {new} to avoid collision"));
            for anti in &mut self.anti_joins[first_anti..] {
                // A reference by the anti-joined relation's own name is its own.
                if !anti.name().eq_ignore_ascii_case(old) {
                    requalify(anti, old, new);
                }
            }
        }
        Ok(Nested::Merged(outcome.combined_predicate()))
    }

    /// Evaluate the block of `this`, correlated by a disjunction with this
    /// block's relation `R`, as one groupjoin per row of `R` (DESIGN.md
    /// "Disjunctive correlation"): the temporary `TEMPn` holds each row of
    /// `R` — restricted by the conjuncts of `kept` over `R` alone, which
    /// leave the block, and projected onto the columns the block, the
    /// blocks `later` and the anti-joins from `first_anti` on read of it —
    /// extended by the aggregate over the inner rows the correlation pairs
    /// it with ([`LogicalPlan::Apply`]). The block then reads `TEMPn` under
    /// `R`'s name; the predicate `x op R.AGGn` replaces the nested one.
    fn apply_per_row(
        &mut self,
        block: &mut QueryBlock,
        kept: &mut Vec<Predicate>,
        this: &PerRow,
        later: &[PerRow],
        first_anti: usize,
    ) -> Result<Predicate> {
        let span = self.profile.begin("per-row groupjoin");
        let (ja, name) = (&this.ja, this.ja.outer_name.as_str());
        let disjunction = ja.disjunction.as_ref().expect("a disjunctive block");
        let at = block.from.iter().position(|t| t.effective_name().eq_ignore_ascii_case(name));
        let at = at.expect("checked when the block was deferred");
        let own = |p: &Predicate| {
            let refs = predicate_column_refs(p);
            !refs.is_empty() && refs.iter().all(|c| c.table.as_deref() == Some(name))
        };
        let restriction: Vec<Predicate> = kept.iter().filter(|p| own(p)).cloned().collect();
        kept.retain(|p| !own(p));

        // What is read of `R` after the restriction: by the groupjoin alone
        // (this block's references), or after it too.
        let mut reads: Vec<(&ColumnRef, bool)> = Vec::new();
        for item in &block.select {
            match &item.expr {
                ScalarExpr::Column(c) | ScalarExpr::Aggregate(_, AggArg::Column(c)) => {
                    reads.push((c, true))
                }
                _ => {}
            }
        }
        reads.extend(block.group_by.iter().map(|c| (c, true)));
        reads.extend(block.order_by.iter().map(|k| (&k.column, true)));
        reads.extend(kept.iter().flat_map(predicate_column_refs).map(|c| (c, true)));
        for per_row in std::iter::once(this).chain(later) {
            if let Operand::Column(c) = &per_row.operand {
                reads.push((c, true));
            }
            let after = !std::ptr::eq(per_row, this);
            reads.extend(level_column_refs(&per_row.inner).into_iter().map(|c| (c, after)));
        }
        // An anti-joined relation named `R` hides this block's.
        for anti in self.anti_joins[first_anti..].iter().filter(|a| a.name() != name) {
            reads.extend(anti.column_refs().into_iter().map(|c| (c, true)));
        }
        let mut columns: Vec<(&str, bool)> = Vec::new();
        for (c, after) in reads.into_iter().filter(|(c, _)| c.table.as_deref() == Some(name)) {
            match columns.iter_mut().find(|(seen, _)| *seen == c.column) {
                Some(seen) => seen.1 |= after,
                None => columns.push((&c.column, after)),
            }
        }

        let temp = self.namer.fresh("TEMP");
        let mut agg = temp.replacen("TEMP", "AGG", 1);
        while columns.iter().any(|(c, _)| c.eq_ignore_ascii_case(&agg)) {
            agg.push('_');
        }
        let table = block.from[at].table.clone();
        let scan = LogicalPlan::Scan { table, alias: Some(name.into()) };
        let restriction = (!restriction.is_empty()).then(|| Predicate::and(restriction));
        let items = columns.iter().map(|(c, _)| SelectItem::column(ColumnRef::qualified(name, *c)));
        let outer = LogicalPlan::Project {
            input: Box::new(scan.filtered(restriction)),
            items: items.collect(),
            distinct: false,
        };
        let keys = disjunction
            .keys
            .iter()
            .map(|set| {
                let pair = |c: &Correlation| JoinPred {
                    left: c.outer_col.clone(),
                    op: CompareOp::Eq,
                    right: c.inner_col.clone(),
                };
                set.iter().map(pair).collect()
            })
            .collect();
        let plan = LogicalPlan::Apply {
            outer: Box::new(outer),
            outer_name: name.to_string(),
            kept: columns.iter().filter(|(_, after)| *after).map(|(c, _)| c.to_string()).collect(),
            inner: Box::new(inner_from_plan(&this.inner)?.filtered(ja.local_pred.clone())),
            keys,
            correlation: disjunction.predicate.clone(),
            aggs: vec![AggItem { func: ja.func, arg: ja.arg.clone(), alias: agg.clone() }],
        };
        self.trace.push(format!(
            "per-row groupjoin: {temp} := each row of {name} with {} over [{}] on {} key sets",
            ja.func.name(),
            this.inner.from_names().join(", "),
            disjunction.keys.len()
        ));
        self.temps.push(TempTable { name: temp.clone(), plan });
        block.from[at] = TableRef::aliased(&temp, name);
        self.profile.end(span);
        let right = Operand::Column(ColumnRef::qualified(name, agg));
        Ok(Predicate::Compare { left: this.operand.clone(), op: this.op, right })
    }

    /// Take the conjuncts of `w` that [`anti_join_of`] makes anti-joins;
    /// what is left of `w`, unchanged when nothing is taken.
    fn take_anti_joins(&mut self, w: Predicate) -> Option<Predicate> {
        if w.conjuncts().into_iter().all(|c| anti_join_of(c).is_none()) {
            return Some(w);
        }
        let mut kept = Vec::new();
        for conjunct in w.into_conjuncts() {
            let Some((what, anti)) = anti_join_of(&conjunct) else {
                kept.push(conjunct);
                continue;
            };
            let aware = if anti.null_aware.is_some() { ", null-aware" } else { "" };
            self.trace.push(format!("{what}: anti-join with [{}]{aware}", anti.table.table));
            self.anti_joins.push(anti);
        }
        (!kept.is_empty()).then(|| Predicate::and(kept))
    }

    /// Give each anti-joined relation a name no relation of the canonical
    /// query `q` or an earlier anti-join goes by; every reference by its
    /// old name is its own.
    fn name_anti_joins_apart(&mut self, q: &QueryBlock) {
        let mut taken: Vec<String> = q.from_names().into_iter().map(str::to_string).collect();
        for anti in &mut self.anti_joins {
            let name = anti.name().to_string();
            if taken.iter().any(|t| t.eq_ignore_ascii_case(&name)) {
                let fresh = self.namer.fresh(&format!("{}_", anti.table.table));
                requalify(anti, &name, &fresh);
                anti.table.alias = Some(fresh.clone());
                self.trace.push(format!("renamed anti-joined table {name} to {fresh}"));
            }
            taken.push(anti.name().to_string());
        }
    }

    /// Type-A: materialize the (uncorrelated, flat) aggregate block as a
    /// one-row temporary and return a block selecting its value. `inner`
    /// has passed [`check_type_a`].
    fn type_a_temp(&mut self, inner: QueryBlock) -> Result<QueryBlock> {
        let ScalarExpr::Aggregate(func, arg) = inner.select[0].expr.clone() else {
            return Err(TransformError::Internal("type-A without aggregate".into()));
        };
        let local_pred = inner.where_clause.clone();
        let name = self.namer.fresh("TEMP");
        let alias = "AGG".to_string();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(inner_from_plan(&inner)?.filtered(local_pred)),
            group_by: vec![],
            aggs: vec![AggItem { func, arg, alias: alias.clone() }],
        };
        self.trace.push(format!("type-A: {name} := global aggregate over [{}]",
            inner.from_names().join(", ")));
        self.temps.push(TempTable { name: name.clone(), plan });
        Ok(QueryBlock {
            distinct: false,
            select: vec![SelectItem::column(ColumnRef::qualified(&name, &alias))],
            from: vec![TableRef::new(&name)],
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
        })
    }
}

/// What [`Ctx::transform_nested`] made of a nested predicate.
enum Nested {
    /// The predicate that replaces it.
    Merged(Predicate),
    /// A type-JA block correlated by a disjunction, flattened, which
    /// [`Ctx::apply_per_row`] evaluates per row of its outer relation once
    /// the block's other conjuncts are in place.
    PerRow(Box<PerRow>),
}

/// A nested predicate `operand op (inner)` whose block is correlated by a
/// disjunction, and the block's analysis.
struct PerRow {
    operand: Operand,
    op: CompareOp,
    inner: QueryBlock,
    ja: JaAnalysis,
}

/// The anti-join a conjunct is, if it is one: `x NOT IN (…)`, `x != ALL
/// (…)` or `NOT EXISTS (…)` over a block of one relation, no aggregate, no
/// GROUP BY and no block below it, selecting one column for the first two
/// — and what the trace calls it. `x = c` is the null-aware comparison of
/// the first two. The block needs a correlation equality, a key to hash or
/// merge on: without one the anti-join is a nested loop that rereads the
/// block per outer row, where Section 8's COUNT reads a `NOT EXISTS` block
/// once (type-A) or groups it (type-JA), and nested iteration stops each
/// `NOT IN` scan at its first match.
fn anti_join_of(conjunct: &Predicate) -> Option<(&'static str, AntiJoin)> {
    let flat = |o: &Operand| o.as_subquery().is_none();
    let (what, operand, inner) = match conjunct {
        Predicate::In { operand, negated: true, rhs: InRhs::Subquery(q) } if flat(operand) => {
            ("NOT IN", Some(operand), q)
        }
        Predicate::Quantified { left, op: CompareOp::Ne, quantifier: Quantifier::All, query }
            if flat(left) =>
        {
            ("!=ALL", Some(left), query)
        }
        Predicate::Exists { negated: true, query } => ("NOT EXISTS", None, query),
        _ => return None,
    };
    let [table] = inner.from.as_slice() else { return None };
    if inner.has_aggregate_select() || !inner.group_by.is_empty() {
        return None;
    }
    let conjuncts: Vec<Predicate> =
        inner.where_clause.iter().flat_map(|w| w.conjuncts()).cloned().collect();
    if conjuncts.iter().any(Predicate::contains_subquery)
        || !has_correlation_key(&conjuncts, table.effective_name())
    {
        return None;
    }
    let null_aware = match operand {
        None => None,
        Some(x) => {
            let [SelectItem { expr: ScalarExpr::Column(c), .. }] = inner.select.as_slice() else {
                return None;
            };
            let c = Operand::Column(c.clone());
            Some(Predicate::Compare { left: x.clone(), op: CompareOp::Eq, right: c })
        }
    };
    Some((what, AntiJoin { table: table.clone(), conjuncts, null_aware }))
}

/// Whether one of `conjuncts` equates a column of the relation `name` with
/// a column of another.
fn has_correlation_key(conjuncts: &[Predicate], name: &str) -> bool {
    let own = |c: &ColumnRef| c.table.as_deref().is_some_and(|t| t.eq_ignore_ascii_case(name));
    conjuncts.iter().any(|p| match p {
        Predicate::Compare {
            left: Operand::Column(a),
            op: CompareOp::Eq,
            right: Operand::Column(b),
        } => own(a) != own(b),
        _ => false,
    })
}

/// Requalify `anti`'s references to the relation `old` as `new`.
fn requalify(anti: &mut AntiJoin, old: &str, new: &str) {
    for p in anti.conjuncts.iter_mut().chain(anti.null_aware.as_mut()) {
        rename_flat_pred(p, old, new);
    }
}

/// Type-A's applicability check: the inner block must select exactly one
/// item and it must be an aggregate.
fn check_type_a(inner: &QueryBlock) -> Result<()> {
    if inner.select.len() != 1 {
        return Err(TransformError::Unsupported(
            "type-A inner block must select exactly one aggregate".into(),
        ));
    }
    if !matches!(inner.select[0].expr, ScalarExpr::Aggregate(..)) {
        return Err(TransformError::Internal("type-A without aggregate".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_analyzer::resolve::SchemaSource;
    use nsql_sql::{parse_query, print_query};
    use nsql_types::{ColumnType, Schema};

    struct Cat;
    impl SchemaSource for Cat {
        fn table_schema(&self, t: &str) -> Option<Schema> {
            use ColumnType::*;
            match t.to_ascii_uppercase().as_str() {
                "PARTS" => Some(Schema::of_table("PARTS", &[("PNUM", Int), ("QOH", Int)])),
                "SUPPLY" => Some(Schema::of_table(
                    "SUPPLY",
                    &[("PNUM", Int), ("QUAN", Int), ("SHIPDATE", Date)],
                )),
                "S" => Some(Schema::of_table(
                    "S",
                    &[("SNO", Str), ("SNAME", Str), ("STATUS", Int), ("CITY", Str)],
                )),
                "P" => Some(Schema::of_table(
                    "P",
                    &[("PNO", Str), ("PNAME", Str), ("COLOR", Str), ("WEIGHT", Int), ("CITY", Str)],
                )),
                "SP" => Some(Schema::of_table(
                    "SP",
                    &[("SNO", Str), ("PNO", Str), ("QTY", Int), ("ORIGIN", Str)],
                )),
                _ => None,
            }
        }
    }

    fn transform(src: &str) -> TransformPlan {
        transform_query(&Cat, &parse_query(src).unwrap(), &UnnestOptions::default()).unwrap()
    }

    #[test]
    fn each_nesting_shape_reaches_its_transform() {
        // (correlated, aggregate) × Kim: one inner block per corner of the
        // classification square, named by the trace line of the arm it takes.
        let shapes = [
            (false, false, "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P)"),
            (
                true,
                false,
                "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE P.CITY = SP.ORIGIN)",
            ),
            (false, true, "SELECT SNO FROM SP WHERE QTY = (SELECT MAX(WEIGHT) FROM P)"),
            (
                true,
                true,
                "SELECT SNO FROM SP WHERE QTY = \
                 (SELECT MAX(WEIGHT) FROM P WHERE P.PNO = SP.PNO)",
            ),
        ];
        for (correlated, aggregate, src) in shapes {
            for kim in [false, true] {
                let variant = if kim { JaVariant::KimOriginal } else { JaVariant::Ja2 };
                let options = UnnestOptions { ja_variant: variant, ..Default::default() };
                let plan = transform_query(&Cat, &parse_query(src).unwrap(), &options).unwrap();
                let want = match (correlated, aggregate, kim) {
                    (false, false, _) => "type-N nesting: NEST-N-J merges",
                    (true, false, _) => "type-J nesting: NEST-N-J merges",
                    (false, true, _) => "type-A nesting:",
                    (true, true, false) => "type-JA nesting: applying NEST-JA2",
                    (true, true, true) => "type-JA nesting: applying Kim's NEST-JA",
                };
                let nesting: Vec<&String> =
                    plan.trace.iter().filter(|l| l.contains(" nesting: ")).collect();
                assert_eq!(nesting.len(), 1, "{src} kim={kim}: {:?}", plan.trace);
                assert!(nesting[0].starts_with(want), "{src} kim={kim}: {}", nesting[0]);
            }
        }
    }

    #[test]
    fn a_two_column_inner_select_is_refused() {
        let q =
            parse_query("SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO, CITY FROM P)").unwrap();
        match transform_query(&Cat, &q, &UnnestOptions::default()) {
            Err(TransformError::Unsupported(why)) => {
                assert!(why.contains("exactly one column"), "{why}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn type_n_becomes_canonical_join() {
        let plan = transform(
            "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50)",
        );
        assert!(plan.temps.is_empty());
        assert_eq!(
            print_query(&plan.canonical),
            "SELECT SP.SNO FROM SP, P WHERE P.WEIGHT > 50 AND SP.PNO = P.PNO"
        );
    }

    #[test]
    fn type_j_becomes_canonical_join() {
        let plan = transform(
            "SELECT SNAME FROM S WHERE SNO IS IN \
             (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
        );
        assert!(plan.temps.is_empty());
        assert_eq!(
            print_query(&plan.canonical),
            "SELECT S.SNAME FROM S, SP WHERE SP.QTY > 100 AND SP.ORIGIN = S.CITY AND S.SNO = SP.SNO"
        );
    }

    #[test]
    fn type_a_becomes_one_row_temp() {
        let plan = transform("SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)");
        assert_eq!(plan.temps.len(), 1);
        let LogicalPlan::Aggregate { group_by, .. } = &plan.temps[0].plan else { panic!() };
        assert!(group_by.is_empty(), "type-A temp is a global aggregate");
        assert_eq!(
            print_query(&plan.canonical),
            "SELECT SP.SNO FROM SP, TEMP1 WHERE SP.PNO = TEMP1.AGG"
        );
    }

    #[test]
    fn type_ja_produces_temps_and_flat_query() {
        let plan = transform(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        assert_eq!(plan.temps.len(), 3);
        let canonical = print_query(&plan.canonical);
        assert_eq!(
            canonical,
            "SELECT PARTS.PNUM FROM PARTS, TEMP3 \
             WHERE TEMP3.PNUM = PARTS.PNUM AND PARTS.QOH = TEMP3.AGG"
        );
    }

    #[test]
    fn kim_variant_produces_single_temp() {
        let plan = transform_query(
            &Cat,
            &parse_query(
                "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
                 WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
            )
            .unwrap(),
            &UnnestOptions { ja_variant: JaVariant::KimOriginal, ..Default::default() },
        )
        .unwrap();
        assert_eq!(plan.temps.len(), 1);
    }

    #[test]
    fn exists_rewrite_flows_into_ja2() {
        // Correlated EXISTS → 0 < COUNT(*) → type-JA via the outer join.
        let plan = transform(
            "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = S.SNO)",
        );
        assert_eq!(plan.temps.len(), 3, "{plan}");
        let canonical = print_query(&plan.canonical);
        assert!(canonical.contains("0 < TEMP3.AGG"), "{canonical}");
    }

    #[test]
    fn deep_n_chain_flattens_completely() {
        let plan = transform(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
             (SELECT PNO FROM P WHERE WEIGHT > 15))",
        );
        assert!(plan.temps.is_empty());
        let canonical = print_query(&plan.canonical);
        assert!(canonical.contains("FROM S, SP, P"), "{canonical}");
        assert!(!canonical.contains("IN ("), "{canonical}");
    }

    #[test]
    fn figure_2_multi_level_ja_detection() {
        // The Section-9 walkthrough: the aggregate block (B) has a child (C)
        // whose join predicate references the root's table; after C merges
        // into B, B is type-JA and NEST-JA2 fires.
        let plan = transform(
            "SELECT SNAME FROM S WHERE STATUS = \
               (SELECT MAX(QTY) FROM SP WHERE PNO IN \
                  (SELECT PNO FROM P WHERE P.CITY = S.CITY))",
        );
        // C (the P block) merges into B (the SP block); B inherits the
        // reference to S.CITY → type-JA → three temporaries.
        assert_eq!(plan.temps.len(), 3, "{plan}");
        let canonical = print_query(&plan.canonical);
        assert!(canonical.contains("FROM S, TEMP3"), "{canonical}");
        assert!(canonical.contains("S.STATUS = TEMP3.AGG"), "{canonical}");
        // The trace shows the recursion story.
        let trace = plan.trace.join("\n");
        assert!(trace.contains("type-J nesting"), "{trace}");
        assert!(trace.contains("NEST-JA2"), "{trace}");
    }

    #[test]
    fn negated_membership_is_unsupported() {
        let e = transform_query(
            &Cat,
            &parse_query("SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)").unwrap(),
            &UnnestOptions::faithful(),
        );
        assert!(matches!(e, Err(TransformError::Unsupported(_))));
    }

    /// Off the literal plans `NOT IN`, `!= ALL` and `NOT EXISTS` over one
    /// relation, correlated by an equality, are anti-joins of the canonical
    /// query; the first two carry their membership comparison, null-aware.
    #[test]
    fn negations_over_one_relation_are_anti_joins() {
        for (src, what, aware) in [
            (
                "SELECT SNO FROM S WHERE STATUS NOT IN \
                 (SELECT QTY FROM SP WHERE SP.SNO = S.SNO AND QTY > 1)",
                "NOT IN",
                true,
            ),
            (
                "SELECT SNO FROM S WHERE STATUS != ALL (SELECT QTY FROM SP WHERE S.SNO = SP.SNO)",
                "!=ALL",
                true,
            ),
            (
                "SELECT SNO FROM S WHERE NOT EXISTS (SELECT PNO FROM SP WHERE SP.SNO = S.SNO)",
                "NOT EXISTS",
                false,
            ),
        ] {
            let plan = transform(src);
            assert!(plan.temps.is_empty(), "{src}: {plan}");
            assert_eq!(print_query(&plan.canonical), "SELECT S.SNO FROM S", "{src}");
            let [anti] = plan.anti_joins.as_slice() else { panic!("{src}: {plan}") };
            assert_eq!(anti.name(), "SP", "{src}");
            assert_eq!(anti.null_aware.is_some(), aware, "{src}");
            let line = format!("{what}: anti-join with [SP]");
            assert!(plan.trace.iter().any(|l| l.starts_with(&line)), "{src}: {:?}", plan.trace);
        }
        let aware = transform(
            "SELECT SNO FROM S WHERE STATUS NOT IN (SELECT QTY FROM SP WHERE SP.SNO = S.SNO)",
        );
        let text = aware.canonical_text();
        let want = "ANTI JOIN SP ON SP.SNO = S.SNO NULL-AWARE S.STATUS = SP.QTY";
        assert!(text.ends_with(want), "{text}");
    }

    /// The anti-join arm takes one relation with no aggregate and no block
    /// below it, correlated by an equality, in a block whose rows reach the
    /// canonical query; anything else keeps what it did before: `NOT IN` is
    /// refused, `NOT EXISTS` goes through Section 8's COUNT.
    #[test]
    fn other_negations_keep_their_old_arms() {
        let refused = [
            "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP WHERE QTY > 1)",
            "SELECT SNO FROM S WHERE SNO != ALL (SELECT SNO FROM SP)",
            "SELECT SNO FROM S WHERE STATUS NOT IN (SELECT QTY FROM SP WHERE SP.SNO > S.SNO)",
            "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SP.SNO FROM SP, P WHERE SP.PNO = P.PNO)",
            "SELECT SNO FROM S WHERE STATUS NOT IN (SELECT MAX(QTY) FROM SP)",
            "SELECT SNO FROM S WHERE SNO NOT IN \
             (SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P))",
            "SELECT SNO FROM S WHERE STATUS = (SELECT COUNT(QTY) FROM SP \
             WHERE SP.SNO = S.SNO AND PNO NOT IN (SELECT PNO FROM P))",
        ];
        for src in refused {
            let e = transform_query(&Cat, &parse_query(src).unwrap(), &UnnestOptions::default());
            assert!(matches!(e, Err(TransformError::Unsupported(_))), "{src}: {e:?}");
        }
        let counted = transform(
            "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SP.SNO FROM SP, P \
             WHERE SP.SNO = S.SNO AND SP.PNO = P.PNO)",
        );
        assert!(counted.anti_joins.is_empty(), "{counted}");
        assert!(print_query(&counted.canonical).contains("0 = TEMP3.AGG"), "{counted}");
        // Without a correlation equality the anti-join would have no key.
        for src in [
            "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE QTY > 5)",
            "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE SP.QTY > S.STATUS)",
        ] {
            let plan = transform(src);
            assert!(plan.anti_joins.is_empty(), "{src}: {plan}");
            assert!(print_query(&plan.canonical).contains("0 = TEMP"), "{src}: {plan}");
        }
    }

    /// An anti-join inside a block NEST-N-J merges rides along with it: its
    /// references to a relation of that block that a sibling's merge has
    /// already brought in follow the rename, and its own relation, named as
    /// a relation of the canonical query, is renamed apart.
    #[test]
    fn merged_anti_joins_follow_renames() {
        let plan = transform(
            "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 1) AND SNO IN \
             (SELECT SNO FROM SP WHERE SP.QTY NOT IN (SELECT WEIGHT FROM P WHERE P.PNO = SP.PNO))",
        );
        let [anti] = plan.anti_joins.as_slice() else { panic!("{plan}") };
        let canonical = print_query(&plan.canonical);
        let renamed = plan.trace.iter().find_map(|l| l.strip_prefix("renamed inner table SP to "));
        let renamed = renamed.unwrap_or_else(|| panic!("{:?}", plan.trace)).split(' ').next();
        let renamed = renamed.unwrap();
        assert!(canonical.contains(&format!("FROM S, SP, SP {renamed}")), "{canonical}");
        assert_eq!(anti.to_string(), format!(
            "ANTI JOIN P ON P.PNO = {renamed}.PNO NULL-AWARE {renamed}.QTY = P.WEIGHT"
        ));
        let plan = transform(
            "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 1) AND NOT EXISTS \
             (SELECT PNO FROM SP WHERE SP.SNO = S.SNO AND QTY > 5)",
        );
        let [anti] = plan.anti_joins.as_slice() else { panic!("{plan}") };
        assert_ne!(anti.name(), "SP", "{plan}");
        assert!(plan.trace.iter().any(|l| l.starts_with("renamed anti-joined table SP")), "{plan}");
        let want = format!("ANTI JOIN SP {0} ON {0}.SNO = S.SNO AND {0}.QTY > 5", anti.name());
        assert_eq!(anti.to_string(), want);
    }

    /// Off the literal plans an aggregate block correlated by a disjunction
    /// with the parent's relation is one groupjoin per row of it: the
    /// parent reads the temporary under the relation's name, without the
    /// conjuncts over that relation alone, which restrict the temporary.
    #[test]
    fn a_correlated_or_is_one_groupjoin_per_outer_row() {
        let src = "SELECT SNO FROM SP WHERE ORIGIN = 'X' AND QTY = (SELECT COUNT(*) FROM P \
                   WHERE P.PNO = SP.PNO OR P.CITY = SP.ORIGIN AND P.WEIGHT > SP.QTY)";
        let plan = transform(src);
        let [temp] = plan.temps.as_slice() else { panic!("{plan}") };
        let LogicalPlan::Apply { outer, outer_name, keys, aggs, .. } = &temp.plan else {
            panic!("{plan}")
        };
        assert_eq!(outer_name, "SP");
        assert_eq!(keys.len(), 2, "{plan}");
        assert_eq!(aggs[0].alias, "AGG1");
        let explained = outer.explain();
        assert!(explained.contains("Project [SP.SNO, SP.QTY, SP.PNO, SP.ORIGIN]"), "{explained}");
        assert!(explained.contains("Filter SP.ORIGIN = 'X'"), "{explained}");
        assert_eq!(
            print_query(&plan.canonical),
            "SELECT SP.SNO FROM TEMP1 SP WHERE SP.QTY = SP.AGG1"
        );
        // The paper's plans refuse it, as NEST-JA2 does.
        let q = parse_query(src).unwrap();
        let faithful = transform_query(&Cat, &q, &UnnestOptions::faithful());
        assert!(matches!(faithful, Err(TransformError::Unsupported(_))), "{faithful:?}");
    }

    /// Two such blocks over one relation: the second reads the first's
    /// temporary, which carries what the second reads.
    #[test]
    fn two_correlated_ors_over_one_relation_chain_their_temporaries() {
        let plan = transform(
            "SELECT SNO FROM SP WHERE QTY = (SELECT COUNT(*) FROM P \
             WHERE P.PNO = SP.PNO OR P.CITY = SP.ORIGIN) AND QTY > (SELECT MAX(WEIGHT) FROM P \
             WHERE P.PNO = SP.SNO OR P.PNAME = SP.ORIGIN)",
        );
        assert_eq!(plan.temps.len(), 2, "{plan}");
        let LogicalPlan::Apply { outer, .. } = &plan.temps[1].plan else { panic!("{plan}") };
        assert!(outer.explain().contains("Scan TEMP1 AS SP"), "{plan}");
        assert_eq!(
            print_query(&plan.canonical),
            "SELECT SP.SNO FROM TEMP2 SP WHERE SP.QTY > SP.AGG2"
        );
    }

    /// A disjunct without an equality between the block and the outer
    /// relation, or a disjunction with a relation of a block further out,
    /// keeps the block refused.
    #[test]
    fn other_correlated_ors_stay_refused() {
        for src in [
            "SELECT SNO FROM SP WHERE QTY = (SELECT COUNT(*) FROM P \
             WHERE P.PNO = SP.PNO OR P.WEIGHT > SP.QTY)",
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE P.WEIGHT = \
             (SELECT COUNT(*) FROM S WHERE S.SNO = SP.SNO OR S.CITY = SP.ORIGIN))",
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE EXISTS \
             (SELECT SNO FROM S WHERE S.SNO = SP.SNO OR S.CITY = SP.ORIGIN))",
        ] {
            let e = transform_query(&Cat, &parse_query(src).unwrap(), &UnnestOptions::default());
            assert!(matches!(e, Err(TransformError::Unsupported(_))), "{src}: {e:?}");
        }
    }

    #[test]
    fn subquery_under_or_is_unsupported() {
        let e = transform_query(
            &Cat,
            &parse_query(
                "SELECT SNO FROM S WHERE STATUS = 1 OR SNO IN (SELECT SNO FROM SP)",
            )
            .unwrap(),
            &UnnestOptions::default(),
        );
        assert!(matches!(e, Err(TransformError::Unsupported(_))));
    }

    #[test]
    fn flat_query_passes_through() {
        let plan = transform("SELECT SNO FROM SP WHERE QTY > 100");
        assert!(plan.temps.is_empty());
        assert_eq!(print_query(&plan.canonical), "SELECT SP.SNO FROM SP WHERE SP.QTY > 100");
    }

    #[test]
    fn in_merge_sets_distinct_flag_only_with_option() {
        let q = parse_query("SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P)").unwrap();
        let faithful = transform_query(&Cat, &q, &UnnestOptions::default()).unwrap();
        assert!(!faithful.needs_distinct_for_semantics);
        let preserving = transform_query(
            &Cat,
            &q,
            &UnnestOptions { preserve_duplicates: true, ..Default::default() },
        )
        .unwrap();
        assert!(preserving.needs_distinct_for_semantics);
    }

    #[test]
    fn self_join_membership_renames() {
        let plan = transform(
            "SELECT SP.SNO FROM SP WHERE QTY = ANY (SELECT QTY FROM SP X WHERE X.PNO = 'P1')",
        );
        let canonical = print_query(&plan.canonical);
        assert!(canonical.contains("FROM SP, SP X"), "{canonical}");
        assert!(canonical.contains("SP.QTY = X.QTY"), "{canonical}");
    }
}
