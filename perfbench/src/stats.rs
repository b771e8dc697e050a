//! Order statistics over host-time samples.

/// Nearest-rank quantile of `xs` (`q` in 0..=1); `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs`; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentiles offered for a tail, highest first. The ladder is coarse
/// so that a run a few passes longer or shorter reports the same
/// percentile.
const TAILS: [usize; 3] = [99, 90, 50];

/// The highest percentile of [`TAILS`] with at least ten of `n`
/// samples beyond it (the median below a hundred samples).
pub fn tail_percentile(n: usize) -> usize {
    TAILS.into_iter().find(|p| n * (100 - p) >= 10 * 100).unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(3), 50);
    }
}
