//! Order statistics over small samples.

/// Sort a copy of `values` ascending (NaNs, which no caller produces, sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so that the
/// spreads `compare` prints are the ones the acceptance rule is stated in.
/// A sample of fewer than two values has both quartiles at its median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let at = |i: usize| -> f64 {
        // position i·(n+1)/4 on a 1-based axis; like Python, a clamped
        // rank extrapolates from the nearest pair of values
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest of the candidate percentiles 99.9, 99, 95, 90, 75 that still
/// has at least ten samples beyond it; 50 when the sample supports none.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, samples beyond it per thousand): whole numbers, so that
    // 10 000 samples leave exactly ten beyond p99.9.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, per_mille)| samples * per_mille >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(1_200), 99.0);
        // 1000 samples leave exactly 10 beyond p99.
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(60), 75.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
    }
}
