//! Every figure and table is byte-identical under every engine
//! configuration.
//!
//! The paper's record is counted page I/O, and nothing the engine has grown
//! since — the file-backed store, the statistics registry — may move one
//! digit of it. Each of the seven figures is rendered in process under the
//! configuration of record and under each of those two, and the strings are
//! compared.

use nsql_bench::figures::ALL;
use nsql_bench::RunConfig;
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
        ("file store", vary(&|c| c.data_dir = Some(dir.path().to_path_buf()))),
        ("stats off", vary(&|c| c.stats = false)),
    ];
    let mut compared = 0;
    for (figure, render) in ALL {
        let want = render(&baseline);
        assert!(!want.is_empty(), "figure {figure} rendered nothing");
        for (configuration, cfg) in &configurations {
            let got = render(cfg);
            assert!(
                got == want,
                "figure {figure} differs under configuration `{configuration}` at {}",
                first_difference(&want, &got)
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 7 * 2, "7 figures x 2 configurations");
}
