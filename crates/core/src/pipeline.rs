//! Transformation output: temporary tables plus the canonical query.

use crate::error::TransformError;
use crate::logical::{LogicalJoinKind, LogicalPlan};
use crate::Result;
use nsql_analyzer::resolve::predicate_column_refs;
use nsql_sql::{print_predicate, print_query, ColumnRef, Predicate, QueryBlock, TableRef};
use std::fmt;

/// One temporary table to materialize before the canonical query runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TempTable {
    /// Generated name (`TEMP1`, `TEMP2`, …).
    pub name: String,
    /// Defining plan.
    pub plan: LogicalPlan,
}

/// A block the canonical query anti-joins (on the default path only): the
/// canonical query keeps a row iff no row of the block's one relation
/// matches it. `NOT EXISTS` is a strict anti-join; `NOT IN` and `!= ALL`
/// add their membership comparison, null-aware.
#[derive(Debug, Clone, PartialEq)]
pub struct AntiJoin {
    /// The block's one relation, under a name no other relation of the
    /// canonical query goes by.
    pub table: TableRef,
    /// The block's WHERE conjuncts. Those over `table` alone restrict it;
    /// the equalities of a column of it with an outer column are the
    /// join's keys; the rest are its strict residual. A match needs each
    /// of them `TRUE`.
    pub conjuncts: Vec<Predicate>,
    /// `x = c` of `x NOT IN (SELECT c …)`: a match needs it `TRUE` or
    /// `UNKNOWN`. `None` for `NOT EXISTS`.
    pub null_aware: Option<Predicate>,
}

impl AntiJoin {
    /// The name the relation's columns go by.
    pub fn name(&self) -> &str {
        self.table.effective_name()
    }

    /// The columns its conjuncts and its null-aware comparison read.
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        self.conjuncts.iter().chain(&self.null_aware).flat_map(predicate_column_refs).collect()
    }
}

impl fmt::Display for AntiJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ANTI JOIN {}", self.table.table)?;
        if let Some(alias) = &self.table.alias {
            write!(f, " {alias}")?;
        }
        if !self.conjuncts.is_empty() {
            write!(f, " ON {}", print_predicate(&Predicate::and(self.conjuncts.clone())))?;
        }
        if let Some(p) = &self.null_aware {
            write!(f, " NULL-AWARE {}", print_predicate(p))?;
        }
        Ok(())
    }
}

/// The result of transforming a nested query: an ordered list of temporary
/// tables (earlier temps may be referenced by later ones), a flat
/// canonical [`QueryBlock`] over base tables plus those temps, the blocks
/// it anti-joins, and the one tree the two lower to.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    /// Temporaries in creation order.
    pub temps: Vec<TempTable>,
    /// The canonical (single-level) query, as EXPLAIN prints it.
    pub canonical: QueryBlock,
    /// Blocks whose rows rule a row of the canonical query out, as EXPLAIN
    /// prints them.
    pub anti_joins: Vec<AntiJoin>,
    /// What runs after the temporaries: `canonical` with `anti_joins`
    /// placed, lowered by [`lower`].
    pub root: LogicalPlan,
    /// Human-readable log of the transformation steps taken, in the style
    /// of the paper's walkthroughs.
    pub trace: Vec<String>,
    /// Set when a faithful NEST-N-J IN-merge may duplicate outer tuples and
    /// the caller asked for duplicate-preserving semantics; `nsql-db`
    /// applies a final DISTINCT in that mode (see DESIGN.md).
    pub needs_distinct_for_semantics: bool,
}

impl TransformPlan {
    /// Number of temporary tables.
    pub fn temp_count(&self) -> usize {
        self.temps.len()
    }

    /// The canonical query as SQL, its anti-joins after it.
    pub fn canonical_text(&self) -> String {
        let mut text = print_query(&self.canonical);
        for anti in &self.anti_joins {
            text.push_str(&format!(" {anti}"));
        }
        text
    }
}

/// The canonical query `q` with the blocks `anti` anti-joined, as one tree:
/// its FROM entries joined left-deep in FROM order, each anti-join right
/// after the input that completes the columns it reads (last if none does),
/// its WHERE clause one filter over them, its SELECT phase the root —
/// DISTINCT also on `force_distinct`. Which conjunct is a join key, and
/// where each is applied, the executor's join pipeline decides.
pub fn lower(q: &QueryBlock, anti: &[AntiJoin], force_distinct: bool) -> Result<LogicalPlan> {
    let scan = |t: &TableRef| LogicalPlan::Scan { table: t.table.clone(), alias: t.alias.clone() };
    let join = |left, right: &TableRef, kind| {
        let (left, right) = (Box::new(left), Box::new(scan(right)));
        LogicalPlan::Join { left, right, kind, on: Vec::new() }
    };
    let anti_join = |left, a: &AntiJoin| {
        let (conjuncts, null_aware) = (a.conjuncts.clone(), a.null_aware.clone());
        join(left, &a.table, LogicalJoinKind::Anti { conjuncts, null_aware })
    };
    let (mut tree, mut pending, mut have) = (None, anti.iter().collect::<Vec<_>>(), Vec::new());
    for t in &q.from {
        let joined = match tree {
            Some(left) => join(left, t, LogicalJoinKind::Inner),
            None => scan(t),
        };
        have.push(t.effective_name());
        let ready = |a: &&AntiJoin| {
            let there = |t: &String| t.eq_ignore_ascii_case(a.name()) || have.contains(&t.as_str());
            a.column_refs().iter().all(|c| c.table.as_ref().is_some_and(there))
        };
        let (now, later): (Vec<_>, _) = pending.into_iter().partition(ready);
        (tree, pending) = (Some(now.into_iter().fold(joined, anti_join)), later);
    }
    let tree = tree.ok_or_else(|| TransformError::Unsupported("query with empty FROM".into()))?;
    let tree = pending.into_iter().fold(tree, anti_join);
    let input = Box::new(tree.filtered(q.where_clause.clone()));
    let (items, group_by, order_by) = (q.select.clone(), q.group_by.clone(), q.order_by.clone());
    let distinct = q.distinct || force_distinct;
    Ok(LogicalPlan::Select { input, items, group_by, order_by, distinct })
}

impl fmt::Display for TransformPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.temps {
            writeln!(f, "-- {} :=", t.name)?;
            write!(f, "{}", t.plan.explain())?;
        }
        write!(f, "-- canonical:\n{}", self.canonical_text())
    }
}

/// Generator of fresh temporary-table names that avoids a caller-supplied
/// set of reserved names (base tables and names already used).
pub struct TempNamer {
    next: usize,
    reserved: Vec<String>,
}

impl TempNamer {
    /// Namer that will avoid `reserved` names.
    pub fn new(reserved: Vec<String>) -> TempNamer {
        TempNamer { next: 1, reserved }
    }

    /// Reserve and return a fresh name.
    pub fn fresh(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}{}", self.next);
            self.next += 1;
            if !self.reserved.iter().any(|r| r.eq_ignore_ascii_case(&candidate)) {
                self.reserved.push(candidate.clone());
                return candidate;
            }
        }
    }

    /// Mark a name as taken.
    pub fn reserve(&mut self, name: impl Into<String>) {
        self.reserved.push(name.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namer_skips_reserved() {
        let mut n = TempNamer::new(vec!["TEMP1".into(), "temp2".into()]);
        assert_eq!(n.fresh("TEMP"), "TEMP3");
        assert_eq!(n.fresh("TEMP"), "TEMP4");
        n.reserve("TEMP5");
        assert_eq!(n.fresh("TEMP"), "TEMP6");
    }

    /// The WHERE clause of `SELECT … FROM … WHERE {conjuncts}`.
    fn conjuncts(conjuncts: &str) -> Predicate {
        let q = nsql_sql::parse_query(&format!("SELECT K FROM S WHERE {conjuncts}")).unwrap();
        q.where_clause.unwrap()
    }

    /// `S` under `name`, anti-joined on `conjuncts` (null-aware on `aware`).
    fn anti(name: &str, on: &str, aware: Option<&str>) -> AntiJoin {
        AntiJoin {
            table: TableRef::aliased("S", name),
            conjuncts: conjuncts(on).into_conjuncts(),
            null_aware: aware.map(conjuncts),
        }
    }

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan { table: table.into(), alias: None }
    }

    fn join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        let (left, right) = (Box::new(left), Box::new(right));
        LogicalPlan::Join { left, right, kind: LogicalJoinKind::Inner, on: vec![] }
    }

    fn anti_join(left: LogicalPlan, a: &AntiJoin) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(LogicalPlan::Scan { table: "S".into(), alias: a.table.alias.clone() }),
            kind: LogicalJoinKind::Anti {
                conjuncts: a.conjuncts.clone(),
                null_aware: a.null_aware.clone(),
            },
            on: vec![],
        }
    }

    /// The FROM entries scanned and joined left-deep in FROM order; `R1`,
    /// which reads `B`, right after `B`, though it comes first; `R2`, which
    /// reads `A` only, right after `A`; `R3`, which reads a column no input
    /// has, last; the WHERE clause one filter over the whole; the SELECT
    /// phase at the root.
    #[test]
    fn lowering_places_each_anti_join_after_the_input_that_completes_it() {
        let sql = "SELECT A.X, COUNT(B.Y) FROM A, B, C \
                   WHERE A.X = B.X AND B.Z = C.Z AND A.W > 1 GROUP BY A.X ORDER BY A.X";
        let q = nsql_sql::parse_query(sql).unwrap();
        let r1 = anti("R1", "R1.K = B.X AND R1.V > 2", Some("B.Y = R1.V"));
        let r2 = anti("R2", "R2.K = A.X", None);
        let r3 = anti("R3", "R3.K = D.X", None);
        let root = lower(&q, &[r1.clone(), r2.clone(), r3.clone()], true).unwrap();
        let a = anti_join(scan("A"), &r2);
        let ab = anti_join(join(a, scan("B")), &r1);
        let tree = anti_join(join(ab, scan("C")), &r3);
        let want = LogicalPlan::Select {
            input: Box::new(tree.filtered(q.where_clause.clone())),
            items: q.select.clone(),
            group_by: q.group_by.clone(),
            order_by: q.order_by,
            distinct: true,
        };
        assert_eq!(root, want, "{}", root.explain());
        let text = root.explain();
        assert!(text.starts_with("Select\n  Filter A.X = B.X AND "), "{text}");
        let r1 = "AntiJoin ON R1.K = B.X AND R1.V > 2 AND NULL-AWARE B.Y = R1.V\n";
        assert!(text.contains(r1), "{text}");
        // Without anti-joins or a WHERE clause: the scans and the root alone.
        let q = nsql_sql::parse_query("SELECT DISTINCT A.X FROM A, B").unwrap();
        let root = lower(&q, &[], false).unwrap();
        let LogicalPlan::Select { input, distinct, .. } = root else {
            panic!("the root is the SELECT phase")
        };
        assert_eq!((*input, distinct), (join(scan("A"), scan("B")), true));
        // An empty FROM list has nothing to lower.
        assert!(lower(&QueryBlock::default(), &[], false).is_err());
    }

    #[test]
    fn display_shows_temps_and_canonical() {
        let canonical = nsql_sql::parse_query("SELECT PNUM FROM PARTS").unwrap();
        let plan = TransformPlan {
            temps: vec![TempTable { name: "TEMP1".into(), plan: LogicalPlan::scan("PARTS") }],
            root: lower(&canonical, &[], false).unwrap(),
            canonical,
            anti_joins: vec![],
            trace: vec![],
            needs_distinct_for_semantics: false,
        };
        let s = plan.to_string();
        assert!(s.contains("-- TEMP1 :="), "{s}");
        assert!(s.contains("-- canonical:"), "{s}");
    }
}
