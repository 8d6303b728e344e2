//! Runtime datum type with SQL three-valued comparison semantics.

use crate::date::Date;
use crate::error::TypeError;
use crate::schema::ColumnType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single SQL value.
///
/// Two comparison regimes coexist:
///
/// * [`Value::sql_cmp`] — SQL semantics: comparing with `NULL` yields `None`
///   (*unknown*), and incompatible types are an error. `WHERE` predicates use
///   this.
/// * [`Value::total_cmp`] — a total order placing `NULL` first, used by sort
///   operators, duplicate elimination, and `GROUP BY` (where SQL treats
///   `NULL`s as one group).
#[derive(Debug, Clone)]
pub enum Value {
    /// The SQL null value (the paper's `^` padding from outer joins).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Variable-length string.
    Str(String),
    /// Calendar date.
    Date(Date),
    /// Boolean (used internally; the dialect has no boolean columns).
    Bool(bool),
}

impl Value {
    /// String value helper.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Parse a date literal into a value.
    pub fn date(s: &str) -> Result<Value, TypeError> {
        Ok(Value::Date(Date::parse(s)?))
    }

    /// Whether this value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`ColumnType`] this value inhabits, or `None` for `NULL`.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Str(_) => Some(ColumnType::Str),
            Value::Date(_) => Some(ColumnType::Date),
            Value::Bool(_) => Some(ColumnType::Bool),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Date(_) => "date",
            Value::Bool(_) => "bool",
        }
    }

    /// SQL three-valued comparison.
    ///
    /// Returns `Ok(None)` when either side is `NULL` (the comparison is
    /// *unknown*), `Ok(Some(ordering))` for comparable non-null values, and
    /// `Err` for a type mismatch (e.g. comparing a string with a date).
    /// Integers and floats compare numerically across types.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>, TypeError> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(None),
            (Int(a), Int(b)) => Ok(Some(a.cmp(b))),
            (Float(a), Float(b)) => Ok(Some(cmp_f64(*a, *b))),
            (Int(a), Float(b)) => Ok(Some(cmp_f64(*a as f64, *b))),
            (Float(a), Int(b)) => Ok(Some(cmp_f64(*a, *b as f64))),
            (Str(a), Str(b)) => Ok(Some(a.cmp(b))),
            (Date(a), Date(b)) => Ok(Some(a.cmp(b))),
            (Bool(a), Bool(b)) => Ok(Some(a.cmp(b))),
            (a, b) => Err(TypeError::Incomparable(
                a.type_name().to_string(),
                b.type_name().to_string(),
            )),
        }
    }

    /// SQL equality under three-valued logic: `None` if either side is null.
    pub fn sql_eq(&self, other: &Value) -> Result<Option<bool>, TypeError> {
        Ok(self.sql_cmp(other)?.map(|o| o == Ordering::Equal))
    }

    /// Total order for sorting and grouping: `NULL` sorts first; values of
    /// different non-null types order by a fixed type rank (this situation
    /// does not arise in well-typed plans but keeps sorting total).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        // The class table of `sql_cmp` again rather than a call to it: a
        // cross-class pair must fall through to the ranks without an
        // `Incomparable` error (two `String`s) being built and dropped.
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric tower shares a rank
            Value::Date(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Approximate on-disk width in bytes; drives tuples-per-page in the
    /// storage simulator so that relation page counts behave realistically.
    pub fn storage_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len(),
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
        }
    }
}

/// Total comparison of floats: NaN sorts last and equals itself, so that
/// sorting and grouping remain well-defined even for degenerate data.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => unreachable!("partial_cmp only fails on NaN"),
    })
}

/// The bits a numeric value contributes to a hash: floats that compare equal
/// (`NaN` with `NaN`, `-0.0` with `0.0` and hence with `Int(0)`) get one
/// representative.
pub fn float_hash_bits(f: f64) -> u64 {
    let canonical = if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    };
    canonical.to_bits()
}

/// `PartialEq` follows the *total* order (grouping semantics), not SQL
/// three-valued equality: `Null == Null` is `true` here. Use
/// [`Value::sql_eq`] inside predicate evaluation.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash alike when numerically equal, since
            // they compare equal; hash the f64 bits of the numeric value
            // (integers beyond 2^53 lose distinction, acceptable for the
            // grouping keys this engine sees).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                float_hash_bits(*f).hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null).unwrap(), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incompatible_types_error() {
        assert!(Value::str("a").sql_cmp(&Value::Int(1)).is_err());
        assert!(Value::date("1-1-80").unwrap().sql_cmp(&Value::str("x")).is_err());
    }

    #[test]
    fn total_order_puts_null_first() {
        let mut v = vec![Value::Int(2), Value::Null, Value::Int(1)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn grouping_equality_treats_nulls_as_equal() {
        // GROUP BY places all NULLs in one group — PartialEq must agree.
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        // Negative zero equals zero under both comparison regimes.
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Float(0.0)));
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Int(0)));
    }

    #[test]
    fn date_values_compare_chronologically() {
        let early = Value::date("7-3-79").unwrap();
        let late = Value::date("1-1-80").unwrap();
        assert_eq!(early.sql_cmp(&late).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("S1").to_string(), "S1");
        assert_eq!(Value::date("7-3-79").unwrap().to_string(), "1979-07-03");
    }

    #[test]
    fn total_order_ranks_kinds_null_bool_numeric_date_str() {
        // One representative list in ascending total order; Int and Float
        // share a rank and interleave numerically, NaN closes the numbers.
        let ladder = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Float(-0.5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::date("7-3-79").unwrap(),
            Value::date("1-1-80").unwrap(),
            Value::str(""),
            Value::str("a"),
        ];
        for (i, a) in ladder.iter().enumerate() {
            for (j, b) in ladder.iter().enumerate() {
                assert_eq!(a.total_cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Float(-0.0).total_cmp(&Value::Int(0)), Ordering::Equal);
        // Cross-class pairs are exactly the ones SQL comparison refuses,
        // and where it answers, the two class tables agree.
        for a in &ladder {
            for b in &ladder {
                let sql = a.sql_cmp(b);
                let cross = !a.is_null() && !b.is_null() && a.type_rank() != b.type_rank();
                assert_eq!(sql.is_err(), cross, "{a:?} vs {b:?}");
                if let Ok(Some(o)) = sql {
                    assert_eq!(a.total_cmp(b), o, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }
}
