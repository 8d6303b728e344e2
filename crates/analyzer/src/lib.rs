#![warn(missing_docs)]

//! Semantic analysis: name resolution, correlation discovery, and Kim's
//! nesting-type classification.
//!
//! Section 2 of the paper defines four kinds of nested predicate, all
//! distinguished by two properties of the *inner* query block:
//!
//! | | no correlated join predicate | correlated join predicate |
//! |---|---|---|
//! | **SELECT has no aggregate** | type-N | type-J |
//! | **SELECT is an aggregate** | type-A | type-JA |
//!
//! where a *correlated join predicate* is a predicate in the inner WHERE
//! clause referencing a relation that is not in the inner FROM clause
//! (necessarily a relation of some outer block). The recursive `nest_g`
//! driver in `nsql-core` re-classifies blocks after each child is merged, so
//! classification looks only at one block at a time — exactly the property
//! Section 9 highlights ("the information needed … is confined to two levels
//! of the query").

pub mod classify;
pub mod error;
pub mod normalize;
pub mod resolve;
pub mod tree;

pub use classify::{classify_inner, NestingType};
pub use error::AnalyzeError;
pub use normalize::query_fingerprint;
pub use resolve::{block_schema, outer_column_refs, validate_query, Resolver, SchemaSource};
pub use tree::{query_tree, QueryTree};

/// Result alias for analysis.
pub type Result<T> = std::result::Result<T, AnalyzeError>;
