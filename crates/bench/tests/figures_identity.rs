//! Every figure and table is byte-identical under every engine
//! configuration.
//!
//! The paper's record is counted page I/O, and nothing the engine has grown
//! since — worker threads, the file-backed store, vectorized kernels, the
//! result cache, the statistics registry — may move one digit of it. Each
//! of the seven figures is rendered in process under the configuration of
//! record and under each of those five, and the strings are compared.
//!
//! Two cells are exempt, both for the same stated reason: `bugs` prints
//! EXPLAIN output, which under `ExecMode::Vector` gains an "exec mode:
//! vectorized" line and under `CacheMode::On` gains "cache: ..." lines.
//! Those lines are the configuration announcing itself, not a number moving.

use nsql_bench::figures::ALL;
use nsql_bench::RunConfig;
use nsql_db::{CacheMode, ExecMode};
use nsql_testkit::TempDir;

/// The first line at which two renderings part, for the failure report.
fn first_difference(want: &str, got: &str) -> String {
    let (mut w, mut g) = (want.lines(), got.lines());
    for n in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => break,
            (a, b) => {
                return format!(
                    "line {n}:\n  baseline: {}\n  this run: {}",
                    a.unwrap_or("<end of output>"),
                    b.unwrap_or("<end of output>")
                )
            }
        }
    }
    "line endings only".to_string()
}

#[test]
fn figures_are_byte_identical_under_every_configuration() {
    let baseline = RunConfig::default();
    let dir = TempDir::new("nsql-figures-identity");
    let vary = |change: &dyn Fn(&mut RunConfig)| {
        let mut cfg = RunConfig::default();
        change(&mut cfg);
        cfg
    };
    let configurations = [
        ("threads = 4", vary(&|c| c.base.threads = 4)),
        ("file store", vary(&|c| c.data_dir = Some(dir.path().to_path_buf()))),
        ("exec_mode = vector", vary(&|c| c.base.exec_mode = ExecMode::Vector)),
        ("cache = on", vary(&|c| c.base.cache = CacheMode::On)),
        ("stats off", vary(&|c| c.stats = false)),
    ];
    let mut compared = 0;
    for (figure, render) in ALL {
        let want = render(&baseline);
        assert!(!want.is_empty(), "figure {figure} rendered nothing");
        for (configuration, cfg) in &configurations {
            if figure == "bugs" && matches!(*configuration, "exec_mode = vector" | "cache = on") {
                continue;
            }
            let got = render(cfg);
            assert!(
                got == want,
                "figure {figure} differs under configuration `{configuration}` at {}",
                first_difference(&want, &got)
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 7 * 5 - 2, "7 figures x 5 configurations, less the two `bugs` cells");
}
