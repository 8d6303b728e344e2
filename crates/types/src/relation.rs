//! In-memory relations (schema + rows) with the pretty-printer used to
//! render the paper's example tables and multiset comparison for oracles.

use crate::error::TypeError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// An in-memory table: a schema and a bag (multiset) of tuples.
///
/// SQL relations are bags, not sets — the duplicates problem of Section 5.4
/// of the paper exists precisely because of this — so `Relation` preserves
/// duplicates and insertion order. Use [`Relation::canonicalized`] to obtain
/// an order-insensitive form for comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation { schema, tuples: Vec::new() }
    }

    /// Relation from schema and rows, validating arity.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation, TypeError> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(TypeError::ArityMismatch { schema: schema.arity(), tuple: t.arity() });
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a row, validating arity.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), TypeError> {
        if tuple.arity() != self.schema.arity() {
            return Err(TypeError::ArityMismatch {
                schema: self.schema.arity(),
                tuple: tuple.arity(),
            });
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Consume into rows.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// A copy with rows sorted into the total order — a canonical form under
    /// which two relations are equal iff they are equal *as multisets*.
    pub fn canonicalized(&self) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by(|a, b| a.total_cmp(b));
        Relation { schema: self.schema.clone(), tuples }
    }

    /// Multiset equality of rows (schemas must have equal arity; column
    /// names are ignored, since transformed queries often rename columns).
    pub fn same_bag(&self, other: &Relation) -> bool {
        self.schema.arity() == other.schema.arity()
            && self.canonicalized().tuples == other.canonicalized().tuples
    }

    /// Set equality of rows: multiset equality after duplicate removal.
    /// Used where the paper's faithful transformations only promise
    /// set-level agreement: NEST-N-J's join expansion repeats an outer
    /// tuple once per inner match, so bag equality with nested iteration
    /// holds only for key-valued inner columns. The choice of join-form
    /// multiplicity is an explicit per-query option
    /// (`UnnestOptions::preserve_duplicates`, demonstrated end-to-end in
    /// `crates/db/tests/duplicate_semantics.rs`), not a silent comparison
    /// weakening; see DESIGN.md "Oracle semantics" for which equality each
    /// pipeline promises.
    pub fn same_set(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        let mut a = self.canonicalized().tuples;
        let mut b = other.canonicalized().tuples;
        a.dedup();
        b.dedup();
        a == b
    }

    /// Single-column relation helper (handy in tests and examples).
    pub fn column(&self, idx: usize) -> Vec<Value> {
        self.tuples.iter().map(|t| t.get(idx).clone()).collect()
    }

    /// Total width in bytes of all rows (storage sizing).
    pub fn storage_width(&self) -> usize {
        self.tuples.iter().map(Tuple::storage_width).sum()
    }
}

impl fmt::Display for Relation {
    /// ASCII-art rendering in the style of the paper's example tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> =
            self.schema.columns().iter().map(|c| c.qualified_name()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(Value::to_string).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", cell, w = widths[i])?;
            }
            writeln!(f)
        };
        let rule: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .chain(std::iter::once("+".to_string()))
            .collect();
        writeln!(f, "{rule}")?;
        line(f, &headers)?;
        writeln!(f, "{rule}")?;
        for row in &rows {
            line(f, row)?;
        }
        writeln!(f, "{rule}")?;
        write!(f, "({} row{})", self.len(), if self.len() == 1 { "" } else { "s" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn rel(rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(
            (0..rows.first().map_or(1, |r| r.len()))
                .map(|i| Column::new(format!("C{i}"), ColumnType::Int))
                .collect(),
        );
        Relation::new(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn arity_checked_on_construction() {
        let schema = Schema::new(vec![Column::new("A", ColumnType::Int)]);
        let bad = Relation::new(schema, vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])]);
        assert!(matches!(bad, Err(TypeError::ArityMismatch { .. })));
    }

    #[test]
    fn same_bag_ignores_order_but_counts_duplicates() {
        let a = rel(&[&[1], &[2], &[2]]);
        let b = rel(&[&[2], &[2], &[1]]);
        let c = rel(&[&[1], &[2]]);
        assert!(a.same_bag(&b));
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn same_set_ignores_duplicates() {
        let a = rel(&[&[1], &[2], &[2]]);
        let c = rel(&[&[2], &[1]]);
        assert!(a.same_set(&c));
        assert!(!a.same_set(&rel(&[&[1]])));
    }

    #[test]
    fn display_renders_table() {
        let r = rel(&[&[3, 6], &[10, 1]]);
        let s = r.to_string();
        assert!(s.contains("C0"), "{s}");
        assert!(s.contains("| 10"), "{s}");
        assert!(s.contains("(2 rows)"), "{s}");
    }

    #[test]
    fn push_validates_arity() {
        let mut r = rel(&[&[1, 2]]);
        assert!(r.push(Tuple::new(vec![Value::Int(1)])).is_err());
        assert!(r.push(Tuple::new(vec![Value::Int(1), Value::Int(2)])).is_ok());
        assert_eq!(r.len(), 2);
    }
}
