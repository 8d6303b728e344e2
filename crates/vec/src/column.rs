//! Typed column vectors.
//!
//! A [`ColumnVector`] is one column of a [`crate::Batch`]: a typed payload
//! array plus a validity [`Bitmap`]. Columns are built by sniffing the
//! values of one heap page, so a column that mixes non-NULL types (legal in
//! this engine — e.g. a projected literal union) falls back to the
//! [`ColData::Vals`] catch-all.

use crate::bitmap::Bitmap;
use nsql_types::{Date, FxHashMap, Value};

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
            // NULL-only (or empty) column: an Int lane of placeholders.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(vs: &[Value]) -> ColumnVector {
        ColumnVector::from_values(vs)
    }

    fn valid(c: &ColumnVector) -> Vec<bool> {
        (0..c.validity.len()).map(|i| c.validity.get(i)).collect()
    }

    #[test]
    fn sniffs_typed_lanes() {
        let c = vals(&[Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.data, ColData::Int(vec![1, 0, 3]));
        assert_eq!(valid(&c), [true, false, true]);
        let c = vals(&[Value::Float(0.5), Value::Float(-1.0)]);
        assert_eq!(c.data, ColData::Float(vec![0.5, -1.0]));
        let c = vals(&[Value::Bool(true), Value::Null]);
        assert_eq!(c.data, ColData::Bool(vec![true, false]));
    }

    #[test]
    fn mixed_types_demote_to_vals() {
        let vs = [Value::Int(1), Value::str("x")];
        assert_eq!(vals(&vs).data, ColData::Vals(vs.to_vec()));
    }

    #[test]
    fn null_only_column_is_an_invalid_int_lane() {
        let c = vals(&[Value::Null, Value::Null, Value::Null]);
        assert_eq!(c.data, ColData::Int(vec![0; 3]));
        assert_eq!(valid(&c), [false; 3]);
    }

    #[test]
    fn empty_column_is_empty() {
        assert!(vals(&[]).validity.is_empty());
    }

    #[test]
    fn string_columns_dictionary_encode() {
        let vs: Vec<Value> = (0..100).map(|i| Value::str(["a", "b", "c"][i % 3])).collect();
        let codes = (0..100).map(|i| i as u32 % 3).collect();
        let dict = ["a", "b", "c"].map(String::from).to_vec();
        assert_eq!(vals(&vs).data, ColData::Str(StrCol::Dict { dict, codes }));
    }

    #[test]
    fn dictionary_overflow_falls_back_to_plain() {
        let strs: Vec<String> = (0..DICT_MAX + 10).map(|i| format!("s{i}")).collect();
        let vs: Vec<Value> = strs.iter().map(|s| Value::str(s.as_str())).collect();
        assert_eq!(vals(&vs).data, ColData::Str(StrCol::Plain(strs)));
    }

    #[test]
    fn dict_with_interleaved_nulls_keeps_row_alignment() {
        let vs = [Value::str("x"), Value::Null, Value::str("y"), Value::str("x"), Value::Null];
        let c = vals(&vs);
        let dict = vec!["x".to_string(), "y".to_string()];
        assert_eq!(c.data, ColData::Str(StrCol::Dict { dict, codes: vec![0, 0, 1, 0, 0] }));
        assert_eq!(valid(&c), [true, false, true, true, false]);
    }
}
