//! Prints [`nsql_bench::figures::figure2`] under the default configuration.

fn main() {
    print!("{}", nsql_bench::figures::figure2(&nsql_bench::RunConfig::default()));
}
