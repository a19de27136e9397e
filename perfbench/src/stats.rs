//! Exact order statistics over raw per-operation samples.
//!
//! Every quantile the benchmark reports is read off the sorted samples
//! themselves (nearest-rank), never off histogram bucket edges, and comes
//! with the sample count and the highest percentile the sample supports.

/// The percentiles a tail report may name, highest last.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples beyond a percentile needed before that percentile is trusted.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample such
/// that at least `q` of the samples are at or below it. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest ladder percentile with at least [`TAIL_SUPPORT`] samples
/// beyond it, or `None` when not even the median is supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&q| beyond(n, q) >= TAIL_SUPPORT)
}

/// A latency summary: median, p99, and the supported tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (reported even when under-supported; see `tail_q`).
    pub p99: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail_q: Option<f64>,
    /// The value at `tail_q`.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarizes raw samples (any order; sorted internally).
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = highest_supported(v.len());
        Summary {
            n: v.len(),
            p50: quantile(&v, 0.5).unwrap_or(0.0),
            p99: quantile(&v, 0.99).unwrap_or(0.0),
            tail_q,
            tail: tail_q.and_then(|q| quantile(&v, q)),
        }
    }

    /// One-line JSON for the provenance/sample lines.
    pub fn json(&self, name: &str) -> String {
        let tail = match (self.tail_q, self.tail) {
            (Some(q), Some(v)) => format!("{{\"q\": {q}, \"value\": {v}}}"),
            _ => "null".to_string(),
        };
        format!(
            "\"{name}\": {{\"n\": {}, \"p50\": {}, \"p99\": {}, \"p99_supported\": {}, \
             \"highest_supported\": {tail}}}",
            self.n,
            self.p50,
            self.p99,
            beyond(self.n, 0.99) >= TAIL_SUPPORT
        )
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// Mean of values (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of the values between the `trim` and `1 − trim` quantiles: robust
/// to preempted outliers like a median, but not quantized to the clock's
/// resolution when the calls are sub-microsecond (0 when empty).
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim).floor() as usize;
    mean(&v[cut..v.len() - cut])
}

/// Run-level figures taken as interquartile means (the mean of the middle
/// half) over consecutive fixed windows: a burst of outside interference in
/// under a quarter of the windows does not move them, and unlike a median
/// they move smoothly when the host's speed drifts between windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Complete windows used.
    pub windows: usize,
    /// Interquartile mean over windows of the samples per second.
    pub rate: f64,
    /// Interquartile mean over windows of the window's exact median.
    pub p50: f64,
    /// Interquartile mean over windows of the window's exact p99.
    pub p99: f64,
}

/// Splits `(offset_ns, value)` samples into complete windows of
/// `window_ns` starting at offset 0 and ending by `span_ns`, and takes the
/// interquartile mean of each window's rate, p50 and p99. Samples past the
/// last complete window are ignored.
pub fn windowed(samples: &[(u64, f64)], window_ns: u64, span_ns: u64) -> Windowed {
    let n = (span_ns / window_ns.max(1)) as usize;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, v) in samples {
        if let Some(bin) = bins.get_mut((t / window_ns.max(1)) as usize) {
            bin.push(v);
        }
    }
    let secs = window_ns as f64 / 1e9;
    let (mut rate, mut p50, mut p99) = (vec![], vec![], vec![]);
    for mut b in bins {
        b.sort_by(f64::total_cmp);
        rate.push(b.len() as f64 / secs);
        p50.push(quantile(&b, 0.5).unwrap_or(0.0));
        p99.push(quantile(&b, 0.99).unwrap_or(0.0));
    }
    let iqm = |v: &[f64]| trimmed_mean(v, 0.25);
    Windowed { windows: n, rate: iqm(&rate), p50: iqm(&p50), p99: iqm(&p99) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Order of the input does not matter to the summary.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(Summary::of(&shuffled).p50, 50.0);
    }

    #[test]
    fn windowed_figures_ignore_a_minority_of_bad_windows() {
        // Five 1-s windows of 100 samples each; window 2 is ten times slower
        // and half as busy. Samples past the last whole window are dropped.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            let (count, scale) = if w == 2 { (50, 10.0) } else { (100, 1.0) };
            for i in 0..count {
                samples.push((w * 1_000_000_000 + i * 1_000, (i + 1) as f64 * scale));
            }
        }
        samples.push((5_500_000_000, 1e9));
        let w = windowed(&samples, 1_000_000_000, 5_900_000_000);
        assert_eq!(w.windows, 5);
        assert_eq!(w.rate, 100.0);
        assert_eq!(w.p50, 50.0);
        assert_eq!(w.p99, 99.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.push(1e6);
        v.push(-1e6);
        assert_eq!(trimmed_mean(&v, 0.05), 9.5);
        assert_eq!(trimmed_mean(&[], 0.05), 0.0);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        // 100 samples: p90 has 10 beyond it, p99 only 1.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(highest_supported(100), Some(0.9));
        // 1000 samples support p99 exactly (10 beyond), not p99.9.
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(5), None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!((s.tail_q, s.tail), (Some(0.99), Some(990.0)));
    }
}
