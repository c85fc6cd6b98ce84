//! Order statistics for the benchmark: the lower quartile of the in-run
//! repetitions, the percentile picker, and the quartile spread
//! `--repeat-check` and the driver both judge steadiness by.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller times at least one
/// repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank lower quartile of `values`: what a timing metric
/// reports from the scaled times of its in-run repetitions (see
/// [`crate::clock`]). Panics on an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lower quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.25)
}

/// The fastest of a few repetitions; the traced run compares a recorded
/// pass with its unrecorded twin by it.
pub fn fastest(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "no repetition was timed");
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency may be reported at, ascending.
pub const PERCENTILE_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples a percentile needs beyond it before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`PERCENTILE_LADDER`] that leaves at
/// least [`SAMPLES_BEYOND`] of `n` samples beyond it; `None` when even
/// the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| n - ((p * n as f64).ceil() as usize).min(n) >= SAMPLES_BEYOND)
}

/// `p` when `n` samples support it, else the highest percentile they
/// do support (a `--smoke` run is too small for a p99.9).
pub fn supported_percentile(n: usize, p: f64) -> f64 {
    match highest_percentile(n) {
        Some(best) if best < p => best,
        Some(_) => p,
        None => 0.5,
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `--repeat-check` judges exactly what the driver judges.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank_one() {
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 3.0, 1.0, 2.0, 4.0]), 2.0);
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 6.0);
    }

    #[test]
    fn fastest_is_the_smallest_time() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[5.0]), 5.0);
    }

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(1200, 0.99), 0.99);
        assert_eq!(supported_percentile(500, 0.99), 0.9);
        assert_eq!(supported_percentile(5, 0.99), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), [10.0, 20.0, 30.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
