//! Every metric by name, unit and direction: the one list `BENCHMARK.json`
//! is written from (`nsql-benchmark describe`) and every run's output is
//! checked against.

use crate::workloads::{SHAPES, SPECS};
use nsql_obs::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a caller of `Database::query` sees. Every one is measured on every
/// workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "select_geomean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "select_slowest_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "page_io_per_select",
        unit: "count",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// `(name, unit, better)` of the single-layer metrics of the traced run; the
/// part of a name before the first dot is the crate it is taken around.
const PER_LAYER: [(&str, &str, &str); 65] = [
    ("sql.parse_us", "us", "lower"),
    ("analyzer.validate_us", "us", "lower"),
    ("analyzer.fingerprint_us", "us", "lower"),
    ("core.transform_us", "us", "lower"),
    ("core.temps_per_op", "count", "lower"),
    ("core.refusals_per_op", "count", "lower"),
    ("db.query_p50_ms", "ms", "lower"),
    ("db.query_p90_ms", "ms", "lower"),
    ("db.query_p99_ms", "ms", "lower"),
    ("db.raw_ops_per_s", "1/s", "higher"),
    ("db.plan_exec_ms", "ms", "lower"),
    ("db.facade_self_us", "us", "lower"),
    ("db.insert_ms", "ms", "lower"),
    ("db.insert_p50_ms", "ms", "lower"),
    ("db.insert_p90_ms", "ms", "lower"),
    ("db.load_table_ms", "ms", "lower"),
    ("db.open_ms", "ms", "lower"),
    ("engine.ni_ms", "ms", "lower"),
    ("engine.ni_row_ms", "ms", "lower"),
    ("engine.ni_vec_ms", "ms", "lower"),
    ("engine.batched_ms", "ms", "lower"),
    ("engine.nl_join_ms", "ms", "lower"),
    ("engine.merge_join_ms", "ms", "lower"),
    ("engine.hash_join_ms", "ms", "lower"),
    ("engine.hash_join_vec_ms", "ms", "lower"),
    ("engine.group_agg_ms", "ms", "lower"),
    ("engine.filter_ms", "ms", "lower"),
    ("engine.filter_vec_ms", "ms", "lower"),
    ("vec.batch_build_us", "us", "lower"),
    ("storage.scan_ms", "ms", "lower"),
    ("storage.sort_ms", "ms", "lower"),
    ("storage.store_relation_ms", "ms", "lower"),
    ("storage.page_reads_per_select", "count", "lower"),
    ("storage.page_writes_per_select", "count", "lower"),
    ("storage.buffer_hit_ratio", "ratio", "higher"),
    ("storage.commit_ms", "ms", "lower"),
    ("storage.wal_bytes_per_commit", "bytes", "lower"),
    ("storage.checkpoints_per_insert", "count", "lower"),
    ("storage.recover_ms", "ms", "lower"),
    ("storage.durable_writes_per_insert", "count", "lower"),
    ("storage.disk_bytes_per_user_byte", "ratio", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.probe_us", "us", "lower"),
    ("index.pages_per_probe", "count", "lower"),
    ("exec-par.dispatch_us", "us", "lower"),
    ("exec-par.scan_speedup", "ratio", "higher"),
    ("cache.find_us", "us", "lower"),
    ("cache.publish_us", "us", "lower"),
    ("cache.invalidate_us", "us", "lower"),
    ("cache.warm_hit_ms", "ms", "lower"),
    ("obs.stats_record_us", "us", "lower"),
    ("obs.observe_ratio", "ratio", "lower"),
    ("sql.self_us", "us", "lower"),
    ("analyzer.self_us", "us", "lower"),
    ("core.self_us", "us", "lower"),
    ("db.self_us", "us", "lower"),
    ("engine.self_us", "us", "lower"),
    ("obs.self_us", "us", "lower"),
    ("bench.self_us", "us", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_above_floor", "ratio", "lower"),
    ("bench.selects", "count", "higher"),
    ("bench.inserts", "count", "higher"),
];

pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let shapes = SHAPES
        .iter()
        .map(|s| (format!("db.query_ms.{s}"), "ms", "lower"));
    PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .chain(shapes)
        .collect()
}

/// `(name, unit)` of the metrics a run with the given `--trace` prints.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
    ]
    .into_iter()
    .chain(["benchmark/Cargo.toml", "--"])
    .map(Json::str);
    let workloads = SPECS
        .iter()
        .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
            ("bound", Json::num(m.bound)),
        ])
    });
    let layers = per_layer().into_iter().map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::Str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ])
    });
    Json::obj([
        ("command", Json::Arr(command.collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(run_seconds as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(layers.collect())),
    ])
}

/// JSON with one top-level key, and one element of a top-level array, per
/// line: how `BENCHMARK.json` is laid out.
pub fn pretty(json: &Json) -> String {
    let Json::Obj(pairs) = json else {
        return json.to_string();
    };
    let fields: Vec<String> = pairs
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
                let items: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
                format!(
                    "  {}: [\n{}\n  ]",
                    Json::str(key.as_str()),
                    items.join(",\n")
                )
            }
            _ => format!("  {}: {value}", Json::str(key.as_str())),
        })
        .collect();
    format!("{{\n{}\n}}", fields.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back() {
        let json = benchmark_json(20);
        assert_eq!(Json::parse(&pretty(&json)).unwrap(), json);
    }
}
