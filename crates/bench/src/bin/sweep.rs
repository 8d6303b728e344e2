//! Prints [`nsql_bench::figures::sweep`] under the default configuration;
//! an optional first argument is the workload seed (default 42).

fn main() {
    print!("{}", nsql_bench::figures::sweep(&nsql_bench::RunConfig::from_args()));
}
