//! `compare <a.jsonl> <b.jsonl>`: one row per workload and end-to-end
//! metric, judged against the metric's bound. Each file holds one result
//! object per line, as the runs write them under `out/`; several runs of a
//! workload in a file give the verdict its spread.

use crate::catalogue::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::SPECS;
use nsql_obs::Json;

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_num())
        .collect()
}

/// `better`, `same`, `worse`, or `unresolved` when the runs spread wider
/// than the bound and do not separate completely.
fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let sign = if m.better == "lower" { 1.0 } else { -1.0 };
    let base = median(a);
    let worse_by = sign * (median(b) - base) / base;
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| (q3 - q1) / base);
    let spread = iqr(a).max(iqr(b));
    let all_b_beat_a = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    let all_a_beat_b = a.iter().all(|x| b.iter().all(|y| sign * (x - y) < 0.0));
    let word = if a.len() > 1 && b.len() > 1 && all_b_beat_a {
        "better"
    } else if spread > m.bound && !all_a_beat_b {
        "unresolved"
    } else if worse_by > m.bound {
        "worse"
    } else if worse_by < -spread.max(m.bound / 3.0) {
        "better"
    } else {
        "same"
    };
    (word, worse_by)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare <a.jsonl> <b.jsonl>".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<20} {:<20} {:>6} {:>12} {:>12} {:>9}  verdict (bound)",
        "workload", "metric", "unit", "a", "b", "worse by"
    );
    for spec in &SPECS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, spec.name, m.name), values(&b, spec.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (word, worse_by) = verdict(m, &va, &vb);
            println!(
                "{:<20} {:<20} {:>6} {:>12.4} {:>12.4} {:>+8.1}%  {word} ({})",
                spec.name,
                m.name,
                m.unit,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                m.bound
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "select_geomean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&LATENCY, &a, &[10.2, 10.1, 10.3, 10.2]).0, "same");
        assert_eq!(verdict(&LATENCY, &a, &[11.5, 11.4, 11.6, 11.5]).0, "worse");
        assert_eq!(verdict(&LATENCY, &a, &[8.0, 8.1, 7.9, 8.0]).0, "better");
        assert_eq!(
            verdict(&LATENCY, &[8.0, 12.0, 9.0, 11.0], &[9.5, 12.5, 8.5, 11.5]).0,
            "unresolved"
        );
        let throughput = EndToEnd {
            name: "ops_per_s",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        assert_eq!(verdict(&throughput, &[100.0], &[80.0]).0, "worse");
    }
}
