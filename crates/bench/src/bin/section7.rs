//! Prints [`nsql_bench::figures::section7`] under the default configuration;
//! an optional first argument is the workload seed (default 42).

fn main() {
    print!("{}", nsql_bench::figures::section7(&nsql_bench::RunConfig::from_args()));
}
