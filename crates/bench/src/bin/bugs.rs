//! Prints [`nsql_bench::figures::bugs`] under the default configuration, or
//! only the demonstration named by the first argument.

use nsql_bench::figures::{bug_demo, bugs, DEMOS};
use nsql_bench::RunConfig;

fn main() {
    let cfg = RunConfig::default();
    let text = match std::env::args().nth(1) {
        None => bugs(&cfg),
        Some(name) => bug_demo(&cfg, &name).unwrap_or_else(|| {
            let names: Vec<&str> = DEMOS.iter().map(|(n, _)| *n).collect();
            eprintln!("unknown demo {name:?}; available: {}", names.join(", "));
            std::process::exit(2);
        }),
    };
    print!("{text}");
}
