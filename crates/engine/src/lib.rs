#![warn(missing_docs)]

//! Relational executor over the paged storage simulator.
//!
//! Two evaluation paths coexist, mirroring the paper:
//!
//! 1. [`nested_iter::NestedIter`] — the **System R reference evaluator**:
//!    direct interpretation of a nested [`QueryBlock`](nsql_sql::QueryBlock),
//!    re-evaluating correlated inner blocks once per qualifying outer tuple
//!    (Section 2's "nested iteration method"). It is both the semantic
//!    ground truth for every correctness experiment and the cost baseline
//!    for every benchmark. Uncorrelated inner blocks are evaluated once and
//!    materialized, as System R did for type-N/A nesting [SEL 79:33].
//!
//! 2. Physical operators ([`ops`]) — scans, filters, projections, duplicate
//!    elimination, nested-loop and sort-merge joins and a hybrid hash join
//!    (inner and **left outer**), and sort-based grouped aggregation. The transformed
//!    (canonical) queries produced by `nsql-core` execute on these, with all
//!    I/O flowing through the counted buffer pool.
//!
//! Both paths run serially on the calling thread, as System R did, and
//! both end a block with the one SELECT phase of [`select`]: the select
//! list compiled once per block into the output schema, each item's slot,
//! the aggregates and the ORDER BY keys.
//!
//! Predicate evaluation implements SQL three-valued logic throughout; see
//! [`pred`].
//!
//! # Cost model
//!
//! [`cost`] holds the paper's page-I/O formulas (Section 7 plus the
//! Kim-style baselines; the Section-7.4 worked example reproduces to ≈475
//! page I/Os against 3050 for nested iteration) and prices the two plan-time
//! choices made by them: nested iteration's access path (here) and a join
//! step's method (`nsql-db`).
//!
//! # Panic policy
//!
//! Every failure reachable from user input — parser-accepted but
//! unsupported constructs, type or arity mismatches, multi-row scalar
//! subqueries, aggregate overflow, injected storage faults — surfaces as a
//! typed [`EngineError`], never a panic. The handful of `expect`/`panic!`
//! sites in non-test code are local invariants whose messages name the
//! invariant (an element pushed on the preceding line, an iterator that just `peek`ed
//! `Some`) plus static fixture construction in [`fixtures`].

pub mod aggregate;
pub mod cost;
pub mod error;
pub mod expr;
pub mod fixtures;
pub mod nested_iter;
pub mod ops;
pub mod pred;
pub mod provider;
pub mod select;

pub use error::EngineError;
pub use expr::{CExpr, Joined, Projector, Row};
pub use nested_iter::NestedIter;
pub use ops::{AggSpec, Exec, HashInput, JoinEmit, JoinKind, KeySet, Restriction, Unjoined};
pub use pred::CPred;
pub use provider::{MemoryProvider, TableProvider};
pub use select::SelectList;

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, EngineError>;
