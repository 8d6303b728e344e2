//! One end-to-end and per-layer benchmark of the default query path:
//! `Database::query_with(sql, &QueryOptions::default())` and
//! `Database::execute_script`, no `NSQL_*` variable set, one client in one
//! process. `README.md` beside this crate names every workload and metric;
//! `BENCHMARK.json` at the repository root is the contract.

pub mod catalogue;
pub mod compare;
pub mod gen;
pub mod probes;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
