//! Digests, order statistics and the per-layer span accumulator.

use std::collections::BTreeMap;
use std::time::Instant;

/// FNV-1a accumulator for output digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Linear-interpolated quantile of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Smallest sample (NaN when empty).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Repetitions of work this long or longer are timed by their median,
/// shorter ones by their fastest; see [`steady`].
const LONG_REPETITION_S: f64 = 0.25;

/// The steady time of repeated identical work (NaN when empty).
/// Neighbours sharing the machine's cores slow code in waves lasting
/// seconds (the small `daemon-rpc` replay swings between 7 and 13 ms).
/// Hundreds of short repetitions always include some made in a lull, so
/// short work is timed by its fastest repetition. A run holds only a dozen
/// or so long repetitions, and whether one of them fell wholly into a lull
/// is a lottery, so long work is timed by its median.
pub fn steady(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if mid < LONG_REPETITION_S {
        fastest(samples)
    } else {
        mid
    }
}

/// Wall time of `f` and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Busy time and call count per layer, recorded from the benchmark's own
/// code around calls into each layer's public functions.
#[derive(Default)]
pub struct Spans {
    busy: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    /// Adds one call of `secs` busy time to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        self.add_n(layer, secs, 1);
    }

    /// Adds `calls` calls totalling `secs` busy time to `layer`.
    pub fn add_n(&mut self, layer: &'static str, secs: f64, calls: u64) {
        let e = self.busy.entry(layer).or_insert((0.0, 0));
        e.0 += secs;
        e.1 += calls;
    }

    /// Times `f` as one call of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, s) = timed(f);
        self.add(layer, s);
        out
    }

    /// `(total busy seconds, calls)` of a layer; zero when never entered.
    pub fn get(&self, layer: &str) -> (f64, u64) {
        self.busy.get(layer).copied().unwrap_or((0.0, 0))
    }

    /// Mean busy nanoseconds per call.
    pub fn per_call_ns(&self, layer: &str) -> f64 {
        let (s, n) = self.get(layer);
        if n == 0 {
            0.0
        } else {
            s * 1e9 / n as f64
        }
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from procfs.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_fastest_is_the_minimum() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert!((quantile_sorted(&v, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn steady_is_the_fastest_short_and_the_median_long_repetition() {
        assert_eq!(steady(&[0.012, 0.007, 0.013, 0.011]), 0.007);
        assert_eq!(steady(&[1.5, 1.2, 2.0, 1.3, 1.9]), 1.5);
        assert!(steady(&[]).is_nan());
    }

    #[test]
    fn spans_report_per_call_time() {
        let mut s = Spans::default();
        s.add_n("layer", 2e-6, 4);
        s.add("layer", 3e-6);
        assert_eq!(s.get("layer").1, 5);
        assert!((s.per_call_ns("layer") - 1000.0).abs() < 1e-6);
        assert_eq!(s.per_call_ns("absent"), 0.0);
    }
}
