//! The harness's arithmetic: percentiles with the "ten samples beyond"
//! rule, geometric mean, the quartile spread the acceptance check uses, and
//! the `agree` comparison of two sets of runs.

/// The `p`-th percentile (`0 < p < 1`) of `sorted` by linear interpolation
/// between closest ranks. `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let &last = sorted.last()?;
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    Some(match sorted.get(lo + 1) {
        Some(&next) => sorted[lo] + (next - sorted[lo]) * frac,
        None => last,
    })
}

/// Sorts a copy of `values` and takes [`percentile`].
pub fn percentile_of(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile_of(values, 0.5)
}

/// Samples strictly beyond the `p`-th percentile's rank in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// A tail percentile is *supported* when at least ten samples lie beyond
/// it (p90 needs 100 samples, p75 needs 40).
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Geometric mean of strictly positive values; `None` if empty or any
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the acceptance check compares with a bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `first` the `second` reading is worse (negative when it
/// is better).
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two readings of the same code agree when neither is worse than the
/// other by more than `bound`.
pub fn agrees(first: f64, second: f64, better: Better, bound: f64) -> bool {
    worse_by(first, second, better) <= bound && worse_by(second, first, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(40, 0.75));
        assert!(!tail_supported(26, 0.9));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn agree_is_symmetric_and_direction_aware() {
        assert!(agrees(100.0, 109.0, Better::Lower, 0.1));
        assert!(!agrees(100.0, 112.0, Better::Lower, 0.1));
        // 112 -> 100 is an improvement for lower-is-better, but the pair
        // still disagrees: the other order is 12 % worse.
        assert!(!agrees(112.0, 100.0, Better::Lower, 0.1));
        assert!(agrees(50.0, 46.0, Better::Higher, 0.1));
        assert!(!agrees(50.0, 44.0, Better::Higher, 0.1));
        assert!(worse_by(50.0, 55.0, Better::Higher) < 0.0);
    }
}
