//! Order statistics for the benchmark's timings.

/// Percentiles the tail search tries, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// The `p`-quantile (`0 ≤ p ≤ 1`) by the method of Python's
/// `statistics.quantiles(method="exclusive")`: position `p·(n+1)` in the
/// 1-based sorted data, interpolated linearly (and extrapolated from the
/// outermost pair when the position falls outside `1..n`). `NaN` for no
/// data.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let h = p * (n + 1) as f64;
            let j = (h.floor() as usize).clamp(1, n - 1);
            let delta = h - j as f64;
            sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
        }
    }
}

/// The median (`NaN` for no data).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples,
/// where not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&pct| n * (1.0 - pct / 100.0) >= 10.0 - 1e-9)
        .map(|&pct| (pct, quantile(values, pct / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([3, 1, 4, 1.5, 5, 9, 2.6], n=4)
        let d = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6];
        let q = [0.25, 0.5, 0.75].map(|p| quantile(&d, p));
        assert_eq!(q, [1.5, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) extrapolates below the data.
        let q = [0.25, 0.5, 0.75].map(|p| quantile(&[2.0, 1.0], p));
        assert_eq!(q, [0.75, 1.5, 2.25]);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        // 48 misses: 12 beyond p75, 4.8 beyond p90.
        assert_eq!(tail(&ramp(48)).map(|t| t.0), Some(75.0));
        // 672 hits: 13.4 beyond p98, 6.7 beyond p99.
        assert_eq!(tail(&ramp(672)).map(|t| t.0), Some(98.0));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(99.0));
        let (pct, v) = tail(&ramp(100)).expect("100 samples qualify");
        assert_eq!(pct, 90.0);
        assert!((v - 90.9).abs() < 1e-9, "p90 of 1..=100 is {v}");
    }
}
