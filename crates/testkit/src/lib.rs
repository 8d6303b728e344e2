#![deny(warnings)]
#![warn(missing_docs)]

//! Hermetic test infrastructure for the nested-query-opt workspace.
//!
//! The workspace builds and tests **offline**: no crates-io dependency is
//! allowed anywhere. This crate supplies, in-tree, the things the test
//! layer previously pulled from the registry:
//!
//! * [`rng`] — a seedable xoshiro256++ PRNG (SplitMix64-seeded) with
//!   `gen_range`, `choose`, and `shuffle` (replaces `rand`);
//! * [`prop`] + [`shrink`] + [`gen`] — a minimal property-testing harness:
//!   generators are plain `Fn(&mut Rng) -> T` closures, the [`prop::forall`]
//!   runner reports a **replayable seed** on failure and greedily shrinks
//!   the counterexample (replaces `proptest`);
//! * [`tempdir`] — self-cleaning scratch directories for file-backed tests
//!   (replaces `tempfile`).
//!
//! Wall-clock measurement is not here: `benchmark/` (see `BENCHMARK.json`)
//! is the repository's one timing harness.
//!
//! Every randomized test in the workspace is deterministic by default, and
//! three environment variables — the only ones the test layer reads — steer
//! a run from outside:
//!
//! * `NSQL_TEST_CASES` — number of cases per property (harness default
//!   picks a per-property count);
//! * `NSQL_TEST_SEED` — run case 0 with exactly this seed (accepts decimal
//!   or `0x…` hex), which is what a failure report prints;
//! * `NSQL_DATA_DIR` — where [`TempDir`] puts its directories (default: the
//!   system temp dir).

pub mod gen;
pub mod prop;
pub mod rng;
pub mod tempdir;
pub mod shrink;

pub use prop::{forall, forall_cfg, run_property, Config, Failure, PropResult};
pub use rng::Rng;
pub use tempdir::TempDir;
pub use shrink::Shrink;
