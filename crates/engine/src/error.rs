//! Execution errors.

use nsql_analyzer::AnalyzeError;
use nsql_storage::StorageError;
use nsql_types::TypeError;
use std::fmt;

/// Failures during compilation or evaluation of queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Name resolution failed: the statement does not analyze.
    Analyze(AnalyzeError),
    /// Value-level failure (type mismatch, unknown column, …).
    Type(TypeError),
    /// FROM references a table that does not exist.
    UnknownTable(String),
    /// A scalar subquery produced more than one row.
    ScalarSubqueryCardinality(usize),
    /// Arithmetic overflow in an exact computation (e.g. integer `SUM`).
    Overflow(String),
    /// A query shape the executor does not support.
    Unsupported(String),
    /// Internal invariant violation — always an engine bug.
    Internal(String),
    /// A durable-storage failure (checksum mismatch, corrupt page file,
    /// injected crash) surfaced through an operator.
    Storage(StorageError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Analyze(e) => write!(f, "{e}"),
            EngineError::Type(e) => write!(f, "{e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::ScalarSubqueryCardinality(n) => {
                write!(f, "scalar subquery returned {n} rows (expected at most 1)")
            }
            EngineError::Overflow(m) => write!(f, "arithmetic overflow: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Internal(m) => write!(f, "internal error: {m}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TypeError> for EngineError {
    fn from(e: TypeError) -> Self {
        EngineError::Type(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}
