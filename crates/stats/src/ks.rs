//! Two-sample Kolmogorov–Smirnov test.
//!
//! Section 3 of the paper applies a two-sample KS test pairwise across the
//! response-time distributions of the four survey categories (no significant
//! difference) and to the related-vs-unrelated split within the "RWS (same
//! set)" category (significant difference, Figure 2). This module implements
//! the exact statistic and the standard asymptotic p-value approximation.

use crate::ecdf::Ecdf;
use serde::{Deserialize, Serialize};

/// Result of a two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KsResult {
    /// The KS statistic D: the supremum of |F1(x) - F2(x)|.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution approximation).
    pub p_value: f64,
    /// Size of the first sample.
    pub n1: usize,
    /// Size of the second sample.
    pub n2: usize,
}

impl KsResult {
    /// Whether the difference is significant at the given level (e.g. 0.05).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Compute the two-sample KS statistic and asymptotic p-value.
///
/// Panics if either sample is empty (the test is undefined).
pub fn ks_two_sample(sample1: &[f64], sample2: &[f64]) -> KsResult {
    assert!(
        !sample1.is_empty() && !sample2.is_empty(),
        "KS test requires two non-empty samples"
    );
    let e1 = Ecdf::new(sample1);
    let e2 = Ecdf::new(sample2);

    // The supremum of |F1 - F2| is attained at an observation of one of the
    // samples; evaluate both ECDFs at every pooled observation, from both
    // the left and the right of each step.
    let mut d: f64 = 0.0;
    for &x in e1.values().iter().chain(e2.values().iter()) {
        let diff_right = (e1.eval(x) - e2.eval(x)).abs();
        let diff_left = (e1.eval_strict(x) - e2.eval_strict(x)).abs();
        d = d.max(diff_right).max(diff_left);
    }

    let n1 = sample1.len();
    let n2 = sample2.len();
    let en = ((n1 * n2) as f64 / (n1 + n2) as f64).sqrt();
    // Asymptotic two-sided p-value with the small-sample correction used by
    // classic implementations (Numerical Recipes / scipy's 'asymp' mode).
    let lambda = (en + 0.12 + 0.11 / en) * d;
    let p_value = kolmogorov_survival(lambda);

    KsResult {
        statistic: d,
        p_value,
        n1,
        n2,
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)`, clamped to `[0, 1]`.
fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda.powi(2)).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256StarStar};

    #[test]
    fn identical_samples_have_zero_statistic() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = ks_two_sample(&s, &s);
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let r = ks_two_sample(&a, &b);
        assert!((r.statistic - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_distribution_not_significant() {
        let mut rng = Xoshiro256StarStar::new(42);
        let a: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
        let b: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
        let r = ks_two_sample(&a, &b);
        assert!(
            !r.significant_at(0.01),
            "same distribution should rarely be significant: D={}, p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn shifted_distribution_is_significant() {
        let mut rng = Xoshiro256StarStar::new(7);
        let a: Vec<f64> = (0..300).map(|_| rng.gaussian(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..300).map(|_| rng.gaussian(1.0, 1.0)).collect();
        let r = ks_two_sample(&a, &b);
        assert!(
            r.significant_at(0.001),
            "shifted normals must differ: p={}",
            r.p_value
        );
    }

    #[test]
    fn statistic_matches_hand_computed_value() {
        // F1 steps at 1,2 (n=2); F2 steps at 2,3 (n=2).
        // At x just below 2: F1 = 0.5, F2 = 0.0 -> D = 0.5.
        let r = ks_two_sample(&[1.0, 2.0], &[2.0, 3.0]);
        assert!((r.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p_value_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(9);
        for _ in 0..20 {
            let a: Vec<f64> = (0..50).map(|_| rng.next_f64()).collect();
            let b: Vec<f64> = (0..70).map(|_| rng.next_f64() * 1.5).collect();
            let r = ks_two_sample(&a, &b);
            assert!((0.0..=1.0).contains(&r.p_value));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        ks_two_sample(&[], &[1.0]);
    }

    #[test]
    fn kolmogorov_survival_extremes() {
        assert_eq!(kolmogorov_survival(0.0), 1.0);
        assert!(kolmogorov_survival(5.0) < 1e-9);
    }
}
