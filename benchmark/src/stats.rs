//! Order statistics, the CPU sentinel and the process's peak memory.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative or above 1 where `j` was clamped: Python extrapolates.
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Milliseconds `f` takes.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Median of `reps` values of `f`.
pub fn median_of(reps: usize, f: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(f).take(reps).collect::<Vec<_>>())
}

/// Median milliseconds of `reps` calls of `f`.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median_of(reps, || time_ms(|| black_box(f())).1)
}

/// The noise sentinel: a fixed loop of integer work and dependent loads
/// over 4 MiB that touches no engine code, so its time moves only when the
/// host's processor or memory system does. The fastest of three loops, in
/// milliseconds.
pub fn calibrate() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    const MASK: usize = (1 << 20) - 1;
    let table = TABLE.get_or_init(|| {
        (0..=MASK as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect()
    });
    let once = || {
        let t = Instant::now();
        let mut x = 0x9E37_79B9u32;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x = x.wrapping_add(table[x as usize & MASK]);
        }
        black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    };
    once().min(once()).min(once())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    kb.expect("/proc/self/status reports VmHWM") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&v), 5.5);
    }
}
