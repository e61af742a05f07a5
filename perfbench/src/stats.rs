//! The benchmark's own statistics: the median, the tail percentile with
//! enough samples beyond it to mean something, quartiles, and span self
//! time. Every function here is self-tested below.

/// The median of ascending-sorted samples (mean of the middle two for an
/// even count). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The median of samples in any order. `None` when empty.
pub fn median_of(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    median(&values)
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported, in `(0, 1]`.
    pub quantile: f64,
    /// The sample at that quantile.
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest nearest-rank quantile at or below `q_max` that still has at
/// least `min_beyond` samples above it, over ascending-sorted samples.
/// With enough samples that is `q_max` itself; with fewer, the rank drops
/// until `min_beyond` samples lie beyond it. `None` when the samples cannot
/// support any such rank (`len <= min_beyond`).
pub fn tail_percentile(sorted: &[f64], q_max: f64, min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    let highest_rank = n.checked_sub(min_beyond + 1)?;
    let wanted_rank = ((q_max * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted_rank.min(highest_rank);
    Some(Tail {
        quantile: (rank + 1) as f64 / n as f64,
        value: sorted[rank],
        beyond: n - 1 - rank,
        samples: n,
    })
}

/// First, second and third quartile of ascending-sorted samples, by the
/// same rule as Python's `statistics.quantiles(data, n=4)` (the default
/// "exclusive" method), so in-run spreads read like the acceptance check.
/// `None` for fewer than two samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap each other (a
/// pooled stage) or spill past the parent; only covered parent time counts,
/// and it counts once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median_of(vec![9.0, 1.0, 4.0, 2.0]), Some(3.0));
    }

    #[test]
    fn p90_with_enough_samples_is_the_nearest_rank() {
        // 100 samples: p90 is rank 90 (value 90) with 10 beyond.
        let t = tail_percentile(&ramp(100), 0.90, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.quantile - 0.90).abs() < 1e-12);
        // 250 samples: rank 225, 25 beyond.
        let t = tail_percentile(&ramp(250), 0.90, 10).unwrap();
        assert_eq!((t.value, t.beyond), (225.0, 25));
    }

    #[test]
    fn tail_drops_to_keep_ten_samples_beyond() {
        // 50 samples cannot support p90 (only 5 beyond): the rank drops to
        // 40, the highest with 10 beyond, and reports quantile 0.8.
        let t = tail_percentile(&ramp(50), 0.90, 10).unwrap();
        assert_eq!((t.value, t.beyond), (40.0, 10));
        assert!((t.quantile - 0.8).abs() < 1e-12);
        // Eleven samples: only the minimum qualifies.
        let t = tail_percentile(&ramp(11), 0.90, 10).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        // Ten or fewer: nothing qualifies.
        assert_eq!(tail_percentile(&ramp(10), 0.90, 10), None);
        assert_eq!(tail_percentile(&[], 0.90, 10), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children (pooled work) are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50)]), 60);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Fully covered parent has zero self time.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }
}
