//! Descriptive statistics: means, variances and five-number summaries.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
fn population_variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn stddev(values: &[f64]) -> Option<f64> {
    population_variance(values).map(f64::sqrt)
}

/// A compact summary of a sample: count, mean, standard deviation, and the
/// five-number summary (min, quartiles, max).
///
/// Table 1 in the paper reports per-cell mean response times; `Summary` is
/// what the analysis layer computes per cell and then formats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample. Returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let q = |p: f64| crate::quantile::quantile_sorted(&sorted, p);
        Some(Summary {
            count: values.len(),
            mean: mean(values)?,
            stddev: stddev(values)?,
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn population_variance_simple() {
        // Values 2, 4, 4, 4, 5, 5, 7, 9 have population variance 4.
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((population_variance(&v).unwrap() - 4.0).abs() < 1e-12);
        assert!((stddev(&v).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn summary_quartiles_ordered() {
        let values: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert!((s.median - 50.0).abs() < 1e-9);
        assert!((s.q1 - 25.0).abs() < 1e-9);
        assert!((s.q3 - 75.0).abs() < 1e-9);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a, b);
    }
}
