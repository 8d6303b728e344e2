//! Error type for value- and schema-level failures.

use crate::schema::ColumnType;
use std::fmt;

/// Errors arising from value coercion, schema lookup, or literal parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Two values of incompatible types were compared or combined.
    Incomparable(String, String),
    /// A column name did not resolve to any column in the schema.
    UnknownColumn(String),
    /// A column name resolved to more than one column.
    AmbiguousColumn(String),
    /// A date literal could not be parsed.
    BadDate(String),
    /// An arithmetic or aggregate operation received an unsupported type.
    BadOperand(String),
    /// Tuple arity does not match the schema arity.
    ArityMismatch {
        /// Columns in the schema.
        schema: usize,
        /// Fields in the offending tuple.
        tuple: usize,
    },
    /// A value offered for a column is outside the column's comparison
    /// class ([`ColumnType::admits`]): stored, it would fail every later
    /// comparison against that column.
    ColumnMismatch {
        /// The column, qualified when its table is known.
        column: String,
        /// The column's declared type.
        declared: ColumnType,
        /// The type of the offending value.
        found: ColumnType,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Incomparable(a, b) => {
                write!(f, "cannot compare values of type {a} and {b}")
            }
            TypeError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            TypeError::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            TypeError::BadDate(s) => write!(f, "cannot parse date literal: {s:?}"),
            TypeError::BadOperand(s) => write!(f, "bad operand: {s}"),
            TypeError::ArityMismatch { schema, tuple } => {
                write!(f, "tuple arity {tuple} does not match schema arity {schema}")
            }
            TypeError::ColumnMismatch { column, declared, found } => {
                write!(f, "column {column} is declared {declared}: it cannot hold a {found} value")
            }
        }
    }
}

impl std::error::Error for TypeError {}
