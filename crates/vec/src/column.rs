//! Typed column vectors and the zero-allocation value view.
//!
//! A [`ColumnVector`] is one column of a [`crate::Batch`]: a typed payload
//! array plus a validity [`Bitmap`]. Columns are built by sniffing the
//! values of one heap page, so a column that mixes non-NULL types (legal in
//! this engine — e.g. a projected literal union) falls back to the
//! [`ColData::Vals`] catch-all and all kernels still apply through
//! [`ValRef`].
//!
//! [`ValRef`] mirrors [`Value`]'s grouping equality and hash stream
//! *exactly* — including `NaN == NaN` and Int/Float cross-comparison
//! through `f64` — but borrows string payloads instead of cloning them.
//! The unit tests below cross-check both against the row-side
//! implementation.

use crate::bitmap::Bitmap;
use nsql_types::value::float_hash_bits;
use nsql_types::{Date, FxHashMap, Value};
use std::hash::{Hash, Hasher};

/// Distinct-string cap for dictionary encoding; a page whose string column
/// exceeds this many distinct values falls back to plain storage.
pub const DICT_MAX: usize = 64;

/// String column payload: dictionary-encoded when the distinct count stays
/// under [`DICT_MAX`], plain otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum StrCol {
    /// `codes[i]` indexes into `dict`; slots under a cleared validity bit
    /// hold code 0 (or any placeholder) and are never read.
    Dict {
        /// Sorted-by-first-appearance distinct strings.
        dict: Vec<String>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
    /// One owned string per row (placeholder empty strings under NULLs).
    Plain(Vec<String>),
}

impl StrCol {
    /// The string at row `i` (caller must have checked validity).
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        match self {
            StrCol::Dict { dict, codes } => &dict[codes[i] as usize],
            StrCol::Plain(v) => &v[i],
        }
    }

    /// Whether this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        matches!(self, StrCol::Dict { .. })
    }
}

/// Typed payload of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// All non-NULL values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-NULL values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-NULL values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-NULL values are `Value::Str`.
    Str(StrCol),
    /// All non-NULL values are `Value::Date`.
    Date(Vec<Date>),
    /// Catch-all for mixed-type or otherwise unclassifiable columns; always
    /// correct, never fast.
    Vals(Vec<Value>),
}

/// One column: typed payload plus validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVector {
    /// Typed payload; slots under cleared validity bits are placeholders.
    pub data: ColData,
    /// Set bit = non-NULL row.
    pub validity: Bitmap,
}

impl ColumnVector {
    /// Build a column from one value per row, sniffing the payload type.
    /// Mixed non-NULL types demote to [`ColData::Vals`]; string columns with
    /// more than [`DICT_MAX`] distinct values demote from dictionary to
    /// plain storage.
    pub fn from_values(vals: &[Value]) -> ColumnVector {
        let mut validity = Bitmap::all_valid(vals.len());
        let mut ty: Option<&'static str> = None;
        for (i, v) in vals.iter().enumerate() {
            match v {
                Value::Null => validity.set(i, false),
                other => {
                    let t = match other {
                        Value::Int(_) => "i",
                        Value::Float(_) => "f",
                        Value::Bool(_) => "b",
                        Value::Str(_) => "s",
                        Value::Date(_) => "d",
                        Value::Null => unreachable!(),
                    };
                    match ty {
                        None => ty = Some(t),
                        Some(prev) if prev == t => {}
                        Some(_) => {
                            // Mixed column: no typed lane applies.
                            return ColumnVector {
                                data: ColData::Vals(vals.to_vec()),
                                validity,
                            };
                        }
                    }
                }
            }
        }
        let data = match ty {
            // NULL-only (or empty) column: an Int lane whose payload is
            // never read keeps the kernels branch-free.
            None => ColData::Int(vec![0; vals.len()]),
            Some("i") => ColData::Int(
                vals.iter()
                    .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                    .collect(),
            ),
            Some("f") => ColData::Float(
                vals.iter()
                    .map(|v| if let Value::Float(f) = v { *f } else { 0.0 })
                    .collect(),
            ),
            Some("b") => ColData::Bool(
                vals.iter()
                    .map(|v| matches!(v, Value::Bool(true)))
                    .collect(),
            ),
            Some("d") => {
                let placeholder = Date::new(1970, 1, 1).expect("valid placeholder date");
                ColData::Date(
                    vals.iter()
                        .map(|v| if let Value::Date(d) = v { *d } else { placeholder })
                        .collect(),
                )
            }
            Some("s") => ColData::Str(build_str_col(vals)),
            Some(_) => unreachable!("sniff tags are fixed"),
        };
        ColumnVector { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Borrowed view of row `i`.
    #[inline]
    pub fn val_ref(&self, i: usize) -> ValRef<'_> {
        if !self.validity.get(i) {
            return ValRef::Null;
        }
        match &self.data {
            ColData::Int(v) => ValRef::Int(v[i]),
            ColData::Float(v) => ValRef::Float(v[i]),
            ColData::Bool(v) => ValRef::Bool(v[i]),
            ColData::Str(s) => ValRef::Str(s.get(i)),
            ColData::Date(v) => ValRef::Date(v[i]),
            ColData::Vals(v) => ValRef::of(&v[i]),
        }
    }

    /// Owned [`Value`] of row `i` (clones string payloads).
    pub fn value(&self, i: usize) -> Value {
        self.val_ref(i).to_value()
    }
}

fn build_str_col(vals: &[Value]) -> StrCol {
    let mut dict: Vec<String> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(vals.len());
    let mut lookup: FxHashMap<String, u32> = FxHashMap::default();
    for v in vals {
        let s = match v {
            Value::Str(s) => s.as_str(),
            _ => {
                codes.push(0);
                continue;
            }
        };
        match lookup.get(s) {
            Some(&c) => codes.push(c),
            None => {
                if dict.len() >= DICT_MAX {
                    // Dictionary overflow: fall back to one string per row.
                    return StrCol::Plain(
                        vals.iter()
                            .map(|v| match v {
                                Value::Str(s) => s.clone(),
                                _ => String::new(),
                            })
                            .collect(),
                    );
                }
                let c = dict.len() as u32;
                dict.push(s.to_string());
                codes.push(c);
                lookup.insert(s.to_string(), c);
                continue;
            }
        }
    }
    StrCol::Dict { dict, codes }
}

/// A borrowed view of one [`Value`]: grouping equality and hashing without
/// allocating, with semantics bit-for-bit equal to the owned type.
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed string.
    Str(&'a str),
    /// Calendar date.
    Date(Date),
    /// Boolean.
    Bool(bool),
}

impl<'a> ValRef<'a> {
    /// View an owned value.
    #[inline]
    pub fn of(v: &'a Value) -> ValRef<'a> {
        match v {
            Value::Null => ValRef::Null,
            Value::Int(i) => ValRef::Int(*i),
            Value::Float(f) => ValRef::Float(*f),
            Value::Str(s) => ValRef::Str(s),
            Value::Date(d) => ValRef::Date(*d),
            Value::Bool(b) => ValRef::Bool(*b),
        }
    }

    /// Convert back to an owned value (clones string payloads).
    pub fn to_value(self) -> Value {
        match self {
            ValRef::Null => Value::Null,
            ValRef::Int(i) => Value::Int(i),
            ValRef::Float(f) => Value::Float(f),
            ValRef::Str(s) => Value::Str(s.to_string()),
            ValRef::Date(d) => Value::Date(d),
            ValRef::Bool(b) => Value::Bool(b),
        }
    }

    /// Whether this view is NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValRef::Null)
    }

    /// Equality under the *total* order (grouping/join-key semantics, the
    /// mirror of `Value::eq`): `NULL == NULL`, `NaN == NaN`, `3 == 3.0`,
    /// `-0.0 == 0.0`, cross-type non-numeric values unequal.
    #[inline]
    pub fn total_eq(self, other: ValRef<'_>) -> bool {
        use ValRef::*;
        let float_eq = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => float_eq(a, b),
            (Int(a), Float(b)) | (Float(b), Int(a)) => float_eq(a as f64, b),
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Feed this value into `state` with byte-for-byte the same stream as
    /// `Value::hash`, so `total_eq` values always collide.
    #[inline]
    pub fn hash_value<H: Hasher>(self, state: &mut H) {
        match self {
            ValRef::Null => 0u8.hash(state),
            ValRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            ValRef::Int(i) => {
                2u8.hash(state);
                (i as f64).to_bits().hash(state);
            }
            ValRef::Float(f) => {
                2u8.hash(state);
                float_hash_bits(f).hash(state);
            }
            ValRef::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            ValRef::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::FxHasher;

    fn vals(vs: &[Value]) -> ColumnVector {
        ColumnVector::from_values(vs)
    }

    #[test]
    fn sniffs_typed_lanes() {
        let c = vals(&[Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(matches!(c.data, ColData::Int(_)));
        assert_eq!(c.validity.count_valid(), 2);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        let c = vals(&[Value::Float(0.5), Value::Float(-1.0)]);
        assert!(matches!(c.data, ColData::Float(_)));
        let c = vals(&[Value::Bool(true), Value::Null]);
        assert!(matches!(c.data, ColData::Bool(_)));
    }

    #[test]
    fn mixed_types_demote_to_vals() {
        let c = vals(&[Value::Int(1), Value::str("x")]);
        assert!(matches!(c.data, ColData::Vals(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::str("x"));
    }

    #[test]
    fn null_only_column_roundtrips() {
        let c = vals(&[Value::Null, Value::Null, Value::Null]);
        assert!(c.validity.none_valid());
        for i in 0..3 {
            assert!(c.val_ref(i).is_null());
            assert_eq!(c.value(i), Value::Null);
        }
    }

    #[test]
    fn empty_column_is_empty() {
        let c = vals(&[]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn string_columns_dictionary_encode() {
        let vs: Vec<Value> =
            (0..100).map(|i| Value::str(["a", "b", "c"][i % 3])).collect();
        let c = vals(&vs);
        match &c.data {
            ColData::Str(s) => assert!(s.is_dict(), "3 distinct strings must dict-encode"),
            other => panic!("expected Str column, got {other:?}"),
        }
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn dictionary_overflow_falls_back_to_plain() {
        let vs: Vec<Value> = (0..DICT_MAX + 10).map(|i| Value::str(format!("s{i}"))).collect();
        let c = vals(&vs);
        match &c.data {
            ColData::Str(s) => assert!(!s.is_dict(), "distinct overflow must go plain"),
            other => panic!("expected Str column, got {other:?}"),
        }
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn dict_with_interleaved_nulls_keeps_row_alignment() {
        let vs = vec![
            Value::str("x"),
            Value::Null,
            Value::str("y"),
            Value::str("x"),
            Value::Null,
        ];
        let c = vals(&vs);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    /// Property: ValRef::total_eq agrees with Value's equality on every
    /// pair drawn from a cross-type value zoo.
    #[test]
    fn total_eq_mirrors_value_equality() {
        let zoo = [
            Value::Null,
            Value::Int(-3),
            Value::Int(3),
            Value::Int(0),
            Value::Float(3.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::str("a"),
            Value::str("b"),
            Value::Bool(false),
            Value::Bool(true),
            Value::date("7-3-79").unwrap(),
        ];
        for a in &zoo {
            for b in &zoo {
                assert_eq!(*a == *b, ValRef::of(a).total_eq(ValRef::of(b)), "eq({a:?}, {b:?})");
            }
        }
    }

    /// Property: hash_value produces the same stream as Value::hash, so
    /// values that compare equal across the row/vector divide hash alike.
    #[test]
    fn hash_value_matches_value_hash() {
        use std::hash::Hash;
        let zoo = [
            Value::Null,
            Value::Int(7),
            Value::Float(7.0),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::str("hello"),
            Value::Bool(true),
            Value::date("1-1-80").unwrap(),
        ];
        for v in &zoo {
            let mut h1 = FxHasher::default();
            v.hash(&mut h1);
            let mut h2 = FxHasher::default();
            ValRef::of(v).hash_value(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash divergence on {v:?}");
        }
        // -0.0, 0.0 and Int(0) are `total_eq`, so they must share a hash.
        let h = |v: &Value| {
            let mut s = FxHasher::default();
            ValRef::of(v).hash_value(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Float(0.0)));
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Int(0)));
    }
}
