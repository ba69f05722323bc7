//! Small statistics helpers shared by the workloads.

use std::time::Instant;

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between order statistics. 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Windows [`tail`] and [`window_rate`] split a run's samples into.
const WINDOWS: usize = 5;
/// Fewest samples a window may hold.
const WINDOW_MIN: usize = 20;

/// `samples`, in time order, cut into up to [`WINDOWS`] consecutive
/// windows of at least [`WINDOW_MIN`] samples (one window when there
/// are too few).
fn windows(samples: &[f64]) -> std::slice::Chunks<'_, f64> {
    let count = (samples.len() / WINDOW_MIN).clamp(1, WINDOWS);
    samples.chunks(samples.len().div_ceil(count).max(1))
}

/// The `q`-quantile of time-ordered `samples` in each window, the median
/// over the windows. A stall of the shared machine moves one window, not
/// the reported tail.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let tails: Vec<f64> = windows(samples).map(|w| quantile(w, q)).collect();
    median(&tails)
}

/// Closed-loop throughput of time-ordered latencies (ms): ops per second
/// of busy time in each window, the median over the windows.
pub fn window_rate(latency_ms: &[f64]) -> f64 {
    let rates: Vec<f64> =
        windows(latency_ms).map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3)).collect();
    median(&rates)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker count the CLI defaults to (`jobs` = available parallelism).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
