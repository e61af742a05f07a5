//! Descriptive statistics: means and variances.

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
}
