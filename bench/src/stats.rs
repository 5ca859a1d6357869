//! Order statistics the ledger reports: medians, the quartiles Python's
//! `statistics.quantiles(values, n=4)` gives (the acceptance rule is stated
//! in those terms), and the tail-percentile rule.

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q3)` exactly as `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) returns them; a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" the
/// acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// 1-based nearest-rank position of the `per_mille`-th percentile among `n`
/// samples (integers keep the sample counting exact).
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The percentiles a tail may be reported at, in per mille.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, with its nearest-rank value; `None` below 20 samples, where
/// not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = *LADDER.iter().rev().find(|&&p| n >= rank(n, p) + 10)?;
    Some((p as f64 / 10.0, sorted(values)[rank(n, p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(9)), None);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(29)), Some((50.0, 15.0)));
        assert_eq!(tail(&ramp(99)), Some((75.0, 75.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1200)), Some((99.0, 1188.0)));
        for n in [29, 99, 1200] {
            let (_, v) = tail(&ramp(n)).unwrap();
            assert!(n as f64 - v >= 10.0, "n={n}: only {} beyond", n as f64 - v);
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
