//! Percentiles and the sample-count rule.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `[0, 1]`) of `sorted` (ascending).
/// Returns `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The value a third of the way up `values`: the 3rd smallest of 9.
/// Returns `NaN` for an empty slice.
pub fn lower_tercile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 3).copied().unwrap_or(f64::NAN)
}

/// True when `n` samples put at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs rounding in `1 - q` (1 - 0.9 < 0.1 in f64).
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5].into_iter().find(|&q| supported(n, q))
}

/// Latency summary of one phase (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    /// Highest tail percentile the sample supports (see [`supported`]).
    pub tail: Option<f64>,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            count: samples.len(),
            p50: percentile(&samples, 0.5),
            p99: percentile(&samples, 0.99),
            p999: percentile(&samples, 0.999),
            tail: highest_supported_tail(samples.len()),
        }
    }

    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some(q) => format!("p{}", q * 100.0),
            None => "none".to_string(),
        };
        format!(
            "n={} p50={:.4} p99={:.4} p99.9={:.4} ms (highest supported tail: {tail})",
            self.count, self.p50, self.p99, self.p999
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(lower_tercile(&nine), 3.0);
        assert_eq!(lower_tercile(&[2.0]), 2.0);
        assert!(lower_tercile(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!supported(999, 0.99));
        assert!(supported(1_000, 0.99));
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_999, 0.999));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(1_500), Some(0.99));
        assert_eq!(highest_supported_tail(250), Some(0.95));
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(5), None);
        let s = Summary::of((0..2_000).rev().map(f64::from).collect());
        assert_eq!((s.count, s.p50, s.p99, s.tail), (2_000, 999.0, 1_979.0, Some(0.99)));
    }
}
