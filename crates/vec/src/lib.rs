//! Columnar batch layer for the batch hash join.
//!
//! This crate is pure data representation: typed [`ColumnVector`]s with
//! validity [`Bitmap`]s, [`Batch`]es of aligned columns, and the
//! zero-allocation [`ValRef`] value view whose grouping equality and hash
//! stream mirror `nsql_types::Value` bit for bit. Its one user in
//! `nsql-engine` is the hash join under `Exec::with_vectorized(true)`,
//! which hashes join keys straight off typed column lanes; no other
//! operator has a batch kernel (DESIGN.md "Vectorized execution" has the
//! measurements behind that), so this crate holds what the join needs.
//!
//! Invariants the join relies on:
//!
//! * batch conversion happens above the counted buffer pool — building a
//!   batch never performs page I/O;
//! * a cleared validity bit is the *only* NULL carrier; payload slots under
//!   it are placeholders and must never be interpreted;
//! * [`ValRef`] equality and hashing agree exactly with the row-side
//!   `Value` implementations (cross-checked by unit tests), so both join
//!   kernels pair the same rows.

pub mod batch;
pub mod bitmap;
pub mod column;

pub use batch::Batch;
pub use bitmap::Bitmap;
pub use column::{ColData, ColumnVector, StrCol, ValRef, DICT_MAX};
