//! Summary statistics and regression helpers.

use serde::{Deserialize, Serialize};

/// Summary of a sample of f64 values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary. Returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            std_dev: var.sqrt(),
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }
}

/// Percentile (nearest-rank with linear interpolation) of a pre-sorted
/// slice. `q` in `[0, 100]`.
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Ordinary least squares fit `y = a + b·x`; returns `(intercept a,
/// slope b)`. Returns `None` for fewer than two points or degenerate x.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 50.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "[0, 100]")]
    fn percentile_out_of_range_panics() {
        percentile_sorted(&[1.0], 150.0);
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 + 3.0 * i as f64)).collect();
        let (a, b) = linear_fit(&pts).unwrap();
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }
}
