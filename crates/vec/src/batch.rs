//! Aligned column vectors — what the batch hash join builds and probes on.
//!
//! A [`Batch`] holds the rows of one heap page pivoted into columns. Batch
//! conversion happens *above* the storage seam (the page is read through
//! the counted buffer pool first), so building a batch never performs or
//! hides page I/O. Only rows that reach a join's residual or its output
//! are converted back to tuples.

use crate::column::ColumnVector;
use nsql_types::{Tuple, Value};

/// A fixed number of rows pivoted into aligned [`ColumnVector`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    cols: Vec<ColumnVector>,
    len: usize,
}

impl Batch {
    /// Pivot `rows` (all of the same arity) into columns.
    ///
    /// Zero-row input produces a zero-column batch: with no row to sniff an
    /// arity from there is nothing to pivot, and no kernel reads columns of
    /// an empty batch.
    pub fn from_tuples(rows: &[Tuple]) -> Batch {
        let len = rows.len();
        let arity = rows.first().map_or(0, |t| t.values().len());
        let mut cols = Vec::with_capacity(arity);
        let mut scratch: Vec<Value> = Vec::with_capacity(len);
        for c in 0..arity {
            scratch.clear();
            scratch.extend(rows.iter().map(|t| t.values()[c].clone()));
            cols.push(ColumnVector::from_values(&scratch));
        }
        Batch { cols, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `i`.
    pub fn col(&self, i: usize) -> &ColumnVector {
        &self.cols[i]
    }

    /// Rebuild the tuple at `row`.
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::new(self.cols.iter().map(|c| c.value(row)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vs: Vec<Value>) -> Tuple {
        Tuple::new(vs)
    }

    #[test]
    fn roundtrips_rows_through_columns() {
        let rows = vec![
            t(vec![Value::Int(1), Value::str("a"), Value::Null]),
            t(vec![Value::Int(2), Value::Null, Value::Float(0.5)]),
            t(vec![Value::Null, Value::str("b"), Value::Float(-1.0)]),
        ];
        let b = Batch::from_tuples(&rows);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&b.tuple(i), row);
        }
    }

    #[test]
    fn empty_batch_has_no_columns() {
        let b = Batch::from_tuples(&[]);
        assert!(b.is_empty());
        assert_eq!(b.arity(), 0);
    }

    #[test]
    fn null_only_rows_convert_both_ways() {
        let rows = vec![t(vec![Value::Null, Value::Null]); 4];
        let b = Batch::from_tuples(&rows);
        assert_eq!(b.arity(), 2);
        for i in 0..4 {
            assert_eq!(b.tuple(i), rows[i]);
        }
    }
}
