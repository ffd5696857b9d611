//! Order statistics over the samples of one run.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (0 < p <= 100) of unsorted samples.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile that still has at least ten samples above
/// it: the sample at rank `n - 11` (0-based) of the sorted values.
/// Returns `(percentile, value)`, or `None` with fewer than 11 samples.
pub fn tail(samples: &[u64]) -> Option<(f64, u64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let samples: Vec<u64> = (1..=100).collect();
        let (p, v) = tail(&samples).expect("enough samples");
        assert_eq!(v, 90);
        assert_eq!(samples.iter().filter(|&&s| s > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert!(tail(&samples[..10]).is_none());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5, 1, 4, 2, 3], 50.0), 3);
        assert_eq!(percentile(&[5, 1, 4, 2, 3], 100.0), 5);
    }
}
