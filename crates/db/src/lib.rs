#![warn(missing_docs)]

//! Database facade: catalog, SQL entry point, evaluation strategies, and
//! EXPLAIN.
//!
//! [`Database`] ties the workspace together:
//!
//! ```text
//!   SQL text ──parse──▶ QueryBlock
//!        │
//!        ├── Strategy::NestedIteration ──▶ nsql-engine::NestedIter
//!        │        (System R reference semantics, the paper's baseline)
//!        │
//!        └── Strategy::Transform ──▶ nsql-core::transform_query
//!                 │      (NEST-N-J / NEST-JA2 / buggy NEST-JA / NEST-G)
//!                 ▼
//!            TransformPlan ──▶ plan_exec (temp tables, join-method choice)
//!                 ▼
//!            canonical flat query ──▶ physical join tree ──▶ result
//! ```
//!
//! All I/O flows through the counted buffer pool, so
//! [`Database::query_with`] can report the page-I/O cost of each strategy —
//! the paper's figure of merit.

pub mod catalog;
pub mod database;
pub mod error;
pub mod explain;
pub mod options;
pub mod plan_exec;
pub mod stat_views;

pub use catalog::Catalog;
pub use database::{Database, OpenReport, QueryOutcome};
pub use error::DbError;
pub use explain::{ExplainReport, ObsReport, PredictedCost, TempStat};
pub use options::{
    CacheMode, ExecMode, IndexUse, JoinPolicy, QueryOptions,
    Strategy,
};

/// Result alias.
pub type Result<T> = std::result::Result<T, DbError>;
