//! From samples to metrics.
//!
//! Every end-to-end timing is a **quiet-host estimate**: the fastest of its
//! samples. The host this runs on is a shared two-vCPU machine whose
//! interference only ever adds time, comes in bursts of milliseconds and in
//! slow periods of minutes, and moves every higher statistic more: over ten
//! identical runs in an ordinary half hour the 10th percentiles spread by 10
//! to 13 %, the 2nd by 5 to 13 %, the minima by 3 to 13 % (README,
//! "Steadiness"). The price is that these metrics see only a slow-down that
//! hits every call of a shape; the raw pooled percentiles are kept among the
//! per-layer metrics (`db.query_p50_ms`, `db.query_p90_ms`,
//! `db.query_p99_ms`, `db.raw_ops_per_s`) for the rest.

use crate::run::{Cycle, Plain, SelectSample, Traced};
use crate::stats::{mean, median, peak_rss_mb, percentile, sorted};
use crate::workloads::{Spec, SHAPES};
use nsql_obs::Json;

pub type Metrics = Vec<(String, f64)>;

/// The quiet-host estimate of a timing: its fastest sample.
fn quiet(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ms_of_shape(selects: &[SelectSample], shape: &str) -> Vec<f64> {
    selects
        .iter()
        .filter(|s| s.shape == shape)
        .map(|s| s.ms)
        .collect()
}

/// Raw statements per second of summed statement time in one cycle.
fn raw_ops_per_s(c: &Cycle, p: &Plain) -> f64 {
    let busy_ms: f64 = p.selects[c.selects.clone()]
        .iter()
        .map(|s| s.ms)
        .sum::<f64>()
        + p.insert_ms[c.inserts.clone()].iter().sum::<f64>();
    (c.selects.len() + c.inserts.len()) as f64 / (busy_ms / 1e3)
}

/// One cycle's values, kept in the output file.
pub fn cycle_json(spec: &Spec, c: &Cycle, p: &Plain) -> Json {
    let selects = &p.selects[c.selects.clone()];
    let shape_p50 = spec.round.iter().map(|shape| {
        (
            shape.to_string(),
            Json::num(median(&ms_of_shape(selects, shape))),
        )
    });
    Json::obj([
        ("setup_s", Json::num(c.setup_s)),
        ("wall_s", Json::num(c.wall_s)),
        ("selects", Json::num(c.selects.len() as f64)),
        ("inserts", Json::num(c.inserts.len() as f64)),
        ("raw_ops_per_s", Json::num(raw_ops_per_s(c, p))),
        ("shape_p50_ms", Json::Obj(shape_p50.collect())),
        (
            "insert_p50_ms",
            Json::num(median(&p.insert_ms[c.inserts.clone()])),
        ),
        ("page_io", Json::num(page_io(c, p) as f64)),
        ("durable_writes", Json::num(c.durable_writes as f64)),
        ("calib_before_ms", Json::num(c.calib_before_ms)),
        ("calib_after_ms", Json::num(c.calib_after_ms)),
    ])
}

/// Counted page I/O of one cycle's selects.
fn page_io(c: &Cycle, p: &Plain) -> u64 {
    p.selects[c.selects.clone()]
        .iter()
        .map(|s| s.reads + s.writes)
        .sum()
}

/// Counted page I/O of every cycle: equal when the run is deterministic.
pub fn page_io_per_cycle(cycles: &[Cycle], p: &Plain) -> Vec<u64> {
    cycles.iter().map(|c| page_io(c, p)).collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(spec: &Spec, cycles: &[Cycle], p: &Plain) -> Metrics {
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
    let shapes: Vec<f64> = spec
        .round
        .iter()
        .map(|s| quiet(&ms_of_shape(&p.selects, s)))
        .collect();
    // One round at quiet-host latencies: its statements over their summed time.
    let mut round_ms: f64 = shapes.iter().sum();
    let mut statements = shapes.len();
    if !p.insert_ms.is_empty() {
        round_ms += quiet(&p.insert_ms);
        statements += 1;
    }
    let geomean = (shapes.iter().map(|ms| ms.ln()).sum::<f64>() / shapes.len() as f64).exp();
    let io: Vec<f64> = p
        .selects
        .iter()
        .map(|s| (s.reads + s.writes) as f64)
        .collect();
    vec![
        ("setup_s".into(), quiet(&setups)),
        ("ops_per_s".into(), statements as f64 / (round_ms / 1e3)),
        ("select_geomean_ms".into(), geomean),
        (
            "select_slowest_ms".into(),
            shapes.iter().copied().fold(0.0, f64::max),
        ),
        ("page_io_per_select".into(), mean(&io)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]
}

/// Median reading of the noise sentinel, and the share by which it sits
/// above the run's lowest reading.
pub fn sentinel(cycles: &[Cycle]) -> (f64, f64) {
    let v = sorted(
        &cycles
            .iter()
            .flat_map(|c| [c.calib_before_ms, c.calib_after_ms])
            .collect::<Vec<_>>(),
    );
    let reading = median(&v);
    (reading, (reading - v[0]) / v[0])
}

/// A run is marked noisy when the sentinel's median reading is this far
/// above its lowest. (Quiet runs on the development host read 6 to 29 %,
/// runs in a bad period 26 to 45 %.)
pub const NOISY_ABOVE: f64 = 0.25;

/// The per-layer metrics the traced loop yields (the probes add the rest).
pub fn per_layer(cycles: &[Cycle], t: &Traced) -> Metrics {
    let p = &t.plain;
    let totals = t.rec.totals();
    let span_median = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |(durs, _)| median(durs) / scale)
    };
    let selects = p.selects.len() as f64;
    let inserts = p.insert_ms.len() as f64;
    let per_insert = |n: u64| {
        if inserts > 0.0 {
            n as f64 / inserts
        } else {
            0.0
        }
    };
    let sum = |f: fn(&SelectSample) -> u64| p.selects.iter().map(f).sum::<u64>() as f64;
    let mut m: Metrics = vec![
        ("sql.parse_us".into(), span_median("sql.parse", 1e3)),
        (
            "analyzer.validate_us".into(),
            span_median("analyzer.validate", 1e3),
        ),
        (
            "analyzer.fingerprint_us".into(),
            span_median("analyzer.fingerprint", 1e3),
        ),
        (
            "core.transform_us".into(),
            span_median("core.transform", 1e3),
        ),
        ("core.temps_per_op".into(), t.temps as f64 / selects),
        (
            "core.refusals_per_op".into(),
            sum(|s| s.refused as u64) / selects,
        ),
        ("db.plan_exec_ms".into(), span_median("db.plan_exec", 1e6)),
        ("db.insert_ms".into(), span_median("db.insert", 1e6)),
        (
            "obs.stats_record_us".into(),
            span_median("obs.stats_record", 1e3),
        ),
    ];
    let ms = sorted(&p.selects.iter().map(|s| s.ms).collect::<Vec<_>>());
    for (name, pct) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        m.push((format!("db.query_{name}_ms"), percentile(&ms, pct)));
    }
    let raw: Vec<f64> = cycles.iter().map(|c| raw_ops_per_s(c, p)).collect();
    m.push(("db.raw_ops_per_s".into(), median(&raw)));
    for shape in SHAPES {
        m.push((
            format!("db.query_ms.{shape}"),
            median(&ms_of_shape(&p.selects, shape)),
        ));
    }
    let facade_minus_staged: Vec<f64> = p
        .selects
        .iter()
        .zip(&t.staged_ms)
        .map(|(s, staged)| (s.ms - staged) * 1e3)
        .collect();
    m.push(("db.facade_self_us".into(), median(&facade_minus_staged)));
    let insert_ms = sorted(&p.insert_ms);
    m.push(("db.insert_p50_ms".into(), percentile(&insert_ms, 50.0)));
    m.push(("db.insert_p90_ms".into(), percentile(&insert_ms, 90.0)));

    let (hits, misses) = (sum(|s| s.hits), sum(|s| s.misses));
    m.push((
        "storage.page_reads_per_select".into(),
        sum(|s| s.reads) / selects,
    ));
    m.push((
        "storage.page_writes_per_select".into(),
        sum(|s| s.writes) / selects,
    ));
    m.push(("storage.buffer_hit_ratio".into(), hits / (hits + misses)));
    m.push((
        "storage.durable_writes_per_insert".into(),
        per_insert(p.durable_writes),
    ));
    m.push((
        "storage.checkpoints_per_insert".into(),
        per_insert(p.checkpoints),
    ));
    let last = cycles.last().expect("at least one cycle");
    m.push((
        "storage.disk_bytes_per_user_byte".into(),
        last.disk_bytes as f64 / last.user_bytes as f64,
    ));

    // Self time per layer and statement. The root span `bench.op` is the
    // benchmark's own glue; everything under it is a call into a crate.
    let (op_count, op_ns) = totals.get("bench.op").map_or((1.0, 0.0), |(durs, _)| {
        (durs.len() as f64, durs.iter().sum::<f64>())
    });
    let mut in_layers = 0.0;
    for layer in ["sql", "analyzer", "core", "db", "engine", "obs", "bench"] {
        let self_ns: f64 = totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, (_, self_ns))| self_ns)
            .sum();
        if layer != "bench" {
            in_layers += self_ns;
        }
        m.push((format!("{layer}.self_us"), self_ns / 1e3 / op_count));
    }
    m.push(("trace.self_coverage".into(), in_layers / op_ns));
    let facade_ms: f64 = p.selects.iter().map(|s| s.ms).sum();
    m.push((
        "trace.overhead_ratio".into(),
        t.staged_ms.iter().sum::<f64>() / facade_ms,
    ));
    m.push(("bench.selects".into(), selects));
    m.push(("bench.inserts".into(), inserts));
    let (reading, above_floor) = sentinel(cycles);
    m.push(("host.calib_ms".into(), reading));
    m.push(("host.calib_above_floor".into(), above_floor));
    m
}
