//! Experiment E12 — crossover sweep (extension of Figure 1).
//!
//! Sweeps the inner-relation size and buffer size to locate the regime
//! where transformation stops paying: "The comparative costs will of
//! course vary with different queries and data base conditions" (§4). The
//! crossover is exactly where the inner relation fits into the buffer and
//! nested iteration's rescans become cache hits.
//!
//! ```sh
//! cargo run --release -p nsql-bench --bin sweep
//! ```

use crate::workload::{queries, WorkloadSpec};
use crate::{measure, table, RunConfig};
use nsql_db::QueryOptions;

/// E12: the inner-size, buffer-size and outer-selectivity sweeps.
pub fn sweep(cfg: &RunConfig) -> String {
    let mut out = String::new();
    // ---- sweep 1: inner relation size at fixed B = 6 -------------------
    let mut rows = Vec::new();
    for inner_tuples in [30usize, 75, 150, 450, 1500, 4500] {
        let w = cfg.workload(WorkloadSpec {
            inner_tuples,
            ..WorkloadSpec::kim_scale()
        });
        let ni = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "ni",
            &cfg.opts(QueryOptions::nested_iteration()),
        );
        let tr = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "tr",
            &cfg.opts(QueryOptions::transformed()),
        );
        assert!(tr.relation.same_bag(&ni.relation));
        let ratio = ni.io.total() as f64 / tr.io.total() as f64;
        rows.push(vec![
            inner_tuples.to_string(),
            w.inner_pages().to_string(),
            ni.io.total().to_string(),
            tr.io.total().to_string(),
            format!("{ratio:.2}x"),
            if ratio >= 1.0 { "transform" } else { "nested iteration" }.to_string(),
        ]);
    }
    table(&mut out,
        "E12a — inner size sweep (type-JA COUNT query, B = 6, f(i)·Ni ≈ 100)",
        &["inner tuples", "Pj (pages)", "NI I/Os", "TR I/Os (cost-based)", "NI/TR", "winner"],
        &rows,
    );

    // ---- sweep 2: buffer size at fixed inner = 450 tuples --------------
    let mut rows = Vec::new();
    for buffer_pages in [4usize, 6, 12, 24, 48] {
        let w = cfg.workload(WorkloadSpec {
            inner_tuples: 450,
            buffer_pages,
            ..WorkloadSpec::kim_scale()
        });
        let ni = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "ni",
            &cfg.opts(QueryOptions::nested_iteration()),
        );
        let tr = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "tr",
            &cfg.opts(QueryOptions::transformed()),
        );
        assert!(tr.relation.same_bag(&ni.relation));
        let fits = w.inner_pages() < buffer_pages;
        rows.push(vec![
            buffer_pages.to_string(),
            format!("{}{}", w.inner_pages(), if fits { " (fits)" } else { "" }),
            ni.io.total().to_string(),
            tr.io.total().to_string(),
            format!("{:.2}x", ni.io.total() as f64 / tr.io.total() as f64),
        ]);
    }
    table(&mut out,
        "E12b — buffer size sweep (Pj ≈ 30 pages)",
        &["B (pages)", "Pj", "NI I/Os", "TR I/Os", "NI/TR"],
        &rows,
    );

    // ---- sweep 3: outer selectivity f(i) --------------------------------
    let mut rows = Vec::new();
    for sel in [0.02f64, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let w = cfg.workload(WorkloadSpec {
            inner_tuples: 450,
            outer_selectivity: sel,
            ..WorkloadSpec::kim_scale()
        });
        let ni = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "ni",
            &cfg.opts(QueryOptions::nested_iteration()),
        );
        let tr = measure(
            &w.db,
            queries::TYPE_JA_COUNT,
            "tr",
            &cfg.opts(QueryOptions::transformed()),
        );
        assert!(tr.relation.same_bag(&ni.relation));
        rows.push(vec![
            format!("{sel:.2}"),
            ni.io.total().to_string(),
            tr.io.total().to_string(),
            format!("{:.2}x", ni.io.total() as f64 / tr.io.total() as f64),
        ]);
    }
    table(&mut out,
        "E12c — outer selectivity sweep (nested iteration cost ∝ f(i)·Ni)",
        &["f(i)", "NI I/Os", "TR I/Os", "NI/TR"],
        &rows,
    );
    outln!(out,
        "Crossover reading: nested iteration is competitive only when the inner\n\
         relation fits in the buffer (E12b 'fits' rows) or almost no outer tuples\n\
         qualify (E12c smallest f(i)); everywhere else the transformation wins,\n\
         by an order of magnitude in the Kim-scale regime."
    );
    out
}
