//! Columnar batches: one heap page's rows pivoted into typed column
//! vectors with validity bitmaps.
//!
//! No query path uses this crate (DESIGN.md "One hash-join kernel"). It
//! survives only because `benchmark/src/probes.rs` times
//! [`Batch::from_tuples`], and benchmark/README.md requires a benchmark
//! change before a listed symbol goes; that change deletes the crate.

pub mod batch;
pub mod bitmap;
pub mod column;

pub use batch::Batch;
pub use bitmap::Bitmap;
pub use column::{ColData, ColumnVector, StrCol, DICT_MAX};
