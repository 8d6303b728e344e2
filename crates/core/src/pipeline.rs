//! Transformation output: temporary tables plus the canonical query.

use crate::logical::LogicalPlan;
use nsql_sql::{print_predicate, print_query, Predicate, QueryBlock, TableRef};
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
/// canonical [`QueryBlock`] over base tables plus those temps, and the
/// blocks it anti-joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    /// Temporaries in creation order.
    pub temps: Vec<TempTable>,
    /// The canonical (single-level) query.
    pub canonical: QueryBlock,
    /// Blocks whose rows rule a row of the canonical query out, applied to
    /// its join as soon as the columns each reads are there.
    pub anti_joins: Vec<AntiJoin>,
    /// Human-readable log of the transformation steps taken, in the style
    /// of the paper's walkthroughs.
    pub trace: Vec<String>,
    /// Set when a faithful NEST-N-J IN-merge may duplicate outer tuples and
    /// the caller asked for duplicate-preserving semantics; `nsql-db`
    /// applies a final DISTINCT in that mode (see DESIGN.md).
    pub needs_distinct_for_semantics: bool,
}

impl TransformPlan {
    /// A plan with no temporaries (the query was already flat, or only
    /// NEST-N-J merges were needed).
    pub fn flat(canonical: QueryBlock) -> TransformPlan {
        TransformPlan {
            temps: Vec::new(),
            canonical,
            anti_joins: Vec::new(),
            trace: Vec::new(),
            needs_distinct_for_semantics: false,
        }
    }

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

    #[test]
    fn display_shows_temps_and_canonical() {
        let plan = TransformPlan {
            temps: vec![TempTable { name: "TEMP1".into(), plan: LogicalPlan::scan("PARTS") }],
            canonical: nsql_sql::parse_query("SELECT PNUM FROM PARTS").unwrap(),
            anti_joins: vec![],
            trace: vec![],
            needs_distinct_for_semantics: false,
        };
        let s = plan.to_string();
        assert!(s.contains("-- TEMP1 :="), "{s}");
        assert!(s.contains("-- canonical:"), "{s}");
    }
}
