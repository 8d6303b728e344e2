//! Tuples: ordered lists of values.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A row of values with relational helpers.
///
/// A row never changes once built, so it is a shared immutable slice:
/// `clone()` is a reference-count bump, and a row scanned off a page, held
/// in a sort run, buffered in a join group and delivered in a result is one
/// allocation throughout. `Debug`, `Hash` and `Eq` are those of the value
/// list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values: values.into() }
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field at `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Concatenate with `n` trailing `NULL`s (outer-join padding, the
    /// paper's `^` symbol).
    pub fn join_nulls(&self, n: usize) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + n);
        values.extend_from_slice(&self.values);
        values.resize(values.len() + n, Value::Null);
        Tuple::new(values)
    }

    /// Project onto the given field indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Compare two tuples field-wise on the given key indices using the
    /// total order (sort semantics: `NULL` first).
    pub fn key_cmp(&self, other: &Tuple, keys: &[usize]) -> Ordering {
        for &k in keys {
            let o = self.values[k].total_cmp(&other.values[k]);
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// Full-tuple total-order comparison (used by DISTINCT and result
    /// canonicalisation in tests).
    pub fn total_cmp(&self, other: &Tuple) -> Ordering {
        let n = self.values.len().min(other.values.len());
        for i in 0..n {
            let o = self.values[i].total_cmp(&other.values[i]);
            if o != Ordering::Equal {
                return o;
            }
        }
        self.values.len().cmp(&other.values.len())
    }

    /// Approximate storage footprint in bytes (see
    /// [`Value::storage_width`]); drives the page-capacity computation in
    /// the storage simulator.
    pub fn storage_width(&self) -> usize {
        2 + self.values.iter().map(Value::storage_width).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(Value::to_string).collect();
        write!(f, "({})", parts.join(", "))
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple { values: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn join_concatenates() {
        assert_eq!(t(&[1, 2]).join(&t(&[3])), t(&[1, 2, 3]));
    }

    #[test]
    fn join_nulls_pads() {
        let j = t(&[1]).join_nulls(2);
        assert_eq!(j.values(), &[Value::Int(1), Value::Null, Value::Null]);
    }

    #[test]
    fn project_reorders_and_duplicates() {
        assert_eq!(t(&[10, 20, 30]).project(&[2, 0, 0]), t(&[30, 10, 10]));
    }

    #[test]
    fn key_cmp_respects_key_order() {
        let a = t(&[1, 9]);
        let b = t(&[2, 0]);
        assert_eq!(a.key_cmp(&b, &[0]), Ordering::Less);
        assert_eq!(a.key_cmp(&b, &[1]), Ordering::Greater);
        assert_eq!(a.key_cmp(&b, &[]), Ordering::Equal);
    }

    #[test]
    fn total_cmp_is_lexicographic() {
        assert_eq!(t(&[1, 2]).total_cmp(&t(&[1, 3])), Ordering::Less);
        assert_eq!(t(&[1]).total_cmp(&t(&[1, 0])), Ordering::Less);
    }

    #[test]
    fn storage_width_counts_fields() {
        let tup = Tuple::new(vec![Value::Int(1), Value::str("abc")]);
        assert_eq!(tup.storage_width(), 2 + 8 + 5);
    }
}
