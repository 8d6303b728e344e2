#![warn(missing_docs)]

//! The paper's contribution: the nested-query transformation algorithms.
//! (Its Section-7 cost model is `nsql_engine::cost`, beside the evaluators
//! whose choices it prices.)
//!
//! # Algorithms
//!
//! * [`nest_n_j`] — Kim's **NEST-N-J** (Section 3.1): merge FROM clauses,
//!   AND the WHERE clauses, replace `IS IN` by `=`. Correct for type-N and
//!   type-J nesting; retained verbatim.
//! * [`nest_ja_kim`] — Kim's original **NEST-JA** (Section 3.2), kept as a
//!   faithful *buggy baseline*: it exhibits the COUNT bug (Section 5.1), the
//!   non-equality-operator bug (Section 5.3), and the duplicates problem
//!   (Section 5.4) exactly as the paper demonstrates.
//! * [`nest_ja2`] — the paper's corrected **NEST-JA2** (Section 6): project
//!   and restrict the outer join column first; build the aggregate temporary
//!   with a join — an *outer* join when the aggregate is COUNT, rewriting
//!   `COUNT(*)` over the join column; change the original join predicate to
//!   equality.
//! * [`rewrites`] — the Section-8 extensions turning `EXISTS`, `NOT
//!   EXISTS`, `ANY`, and `ALL` predicates into COUNT / MIN / MAX forms the
//!   other algorithms handle.
//! * [`nest_g`] — the Section-9 recursive postorder driver that transforms
//!   a nested query of arbitrary depth and shape.
//!
//! # Outputs
//!
//! A transformation produces a [`pipeline::TransformPlan`]: an ordered list
//! of temporary-table definitions (as [`logical::LogicalPlan`]s, since
//! NEST-JA2's temporaries need outer joins and GROUP BYs that plain query
//! blocks cannot express) plus a *canonical* flat `QueryBlock`,
//! lowered with the blocks it anti-joins into one more `LogicalPlan` that a
//! single-level optimizer (`nsql-db`'s) executes with its choice of joins.

pub mod error;
pub mod logical;
pub mod nest_g;
pub mod nest_ja2;
pub mod nest_ja_kim;
pub mod nest_n_j;
pub mod pipeline;
pub mod rewrites;

pub use error::TransformError;
pub use logical::{AggItem, JoinPred, LogicalJoinKind, LogicalPlan};
pub use nest_g::{transform_analyzed, transform_query, JaVariant, UnnestOptions};
pub use nest_ja2::Ja2Config;
pub use pipeline::{AntiJoin, TempTable, TransformPlan};

/// Result alias for transformation.
pub type Result<T> = std::result::Result<T, TransformError>;
