//! Prints [`nsql_bench::figures::extensions`] under the default configuration.

fn main() {
    print!("{}", nsql_bench::figures::extensions(&nsql_bench::RunConfig::default()));
}
