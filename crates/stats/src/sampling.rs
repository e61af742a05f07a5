//! Sampling utilities: shuffles, draws without replacement and weighted
//! choices, all driven by the deterministic [`Rng`] trait.

use crate::rng::Rng;

/// Fisher–Yates shuffle in place.
pub fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    if items.len() < 2 {
        return;
    }
    for i in (1..items.len()).rev() {
        let j = rng.next_below((i + 1) as u64) as usize;
        items.swap(i, j);
    }
}

/// Draw `k` distinct indices from `0..n` uniformly without replacement.
///
/// If `k >= n`, all indices are returned (shuffled). Uses a partial
/// Fisher–Yates over the index vector, so it is O(n) in memory but exact.
pub fn sample_indices_without_replacement<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Draw `k` distinct elements uniformly without replacement, cloning them.
pub fn sample_without_replacement<T: Clone, R: Rng + ?Sized>(
    items: &[T],
    k: usize,
    rng: &mut R,
) -> Vec<T> {
    sample_indices_without_replacement(items.len(), k, rng)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

/// Draw `k` distinct indices from `0..n` uniformly without replacement in
/// O(k) memory and time, via Robert Floyd's algorithm — for tiny draws
/// from huge pools, where the partial Fisher–Yates above would pay O(n)
/// to build the index vector. Deterministic given the rng, but consumes a
/// *different* stream of draws than
/// [`sample_indices_without_replacement`]; a call site must pick one
/// sampler and stay with it.
pub fn sample_indices_floyd<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    if k >= n {
        return sample_indices_without_replacement(n, k, rng);
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for i in (n - k)..n {
        let j = rng.next_below((i + 1) as u64) as usize;
        // If j was already chosen, i itself cannot have been (previous
        // rounds only drew below i), so substituting i keeps the draw
        // uniform over k-subsets — Floyd's invariant.
        let pick = if chosen.contains(&j) { i } else { j };
        chosen.push(pick);
    }
    chosen
}

/// Choose an index according to non-negative weights. Returns `None` if the
/// slice is empty or all weights are zero / non-finite.
pub fn weighted_choice<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point slack: fall back to the last positive weight.
    weights
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &w)| w.is_finite() && w > 0.0)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_actually_permutes() {
        let mut rng = Xoshiro256StarStar::new(2);
        let original: Vec<u32> = (0..50).collect();
        let mut v = original.clone();
        shuffle(&mut v, &mut rng);
        assert_ne!(
            v, original,
            "a 50-element shuffle should not be the identity"
        );
    }

    #[test]
    fn shuffle_empty_and_single() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut empty: Vec<u32> = vec![];
        shuffle(&mut empty, &mut rng);
        assert!(empty.is_empty());
        let mut one = vec![7];
        shuffle(&mut one, &mut rng);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut rng = Xoshiro256StarStar::new(6);
        let items: Vec<u32> = (0..100).collect();
        let sample = sample_without_replacement(&items, 20, &mut rng);
        assert_eq!(sample.len(), 20);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20, "sample must not contain duplicates");
    }

    #[test]
    fn sample_without_replacement_k_exceeds_n() {
        let mut rng = Xoshiro256StarStar::new(7);
        let items = vec![1, 2, 3];
        let sample = sample_without_replacement(&items, 10, &mut rng);
        assert_eq!(sample.len(), 3);
    }

    #[test]
    fn sample_indices_cover_uniformly() {
        let mut rng = Xoshiro256StarStar::new(8);
        let mut hits = [0u32; 10];
        for _ in 0..5000 {
            for i in sample_indices_without_replacement(10, 3, &mut rng) {
                hits[i] += 1;
            }
        }
        // Each index should be selected roughly 1500 times (3/10 of 5000).
        for (i, &h) in hits.iter().enumerate() {
            assert!((1300..1700).contains(&h), "index {i} hit {h} times");
        }
    }

    #[test]
    fn weighted_choice_empty_or_zero() {
        let mut rng = Xoshiro256StarStar::new(9);
        assert_eq!(weighted_choice(&[], &mut rng), None);
        assert_eq!(weighted_choice(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn weighted_choice_skips_zero_weights() {
        let mut rng = Xoshiro256StarStar::new(10);
        for _ in 0..200 {
            let idx = weighted_choice(&[0.0, 1.0, 0.0], &mut rng).unwrap();
            assert_eq!(idx, 1);
        }
    }

    #[test]
    fn weighted_choice_respects_proportions() {
        let mut rng = Xoshiro256StarStar::new(11);
        let weights = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for _ in 0..20_000 {
            counts[weighted_choice(&weights, &mut rng).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} should be near 3");
    }

    #[test]
    fn floyd_draws_distinct_in_bounds_indices() {
        let mut rng = Xoshiro256StarStar::new(12);
        for (n, k) in [
            (10usize, 3usize),
            (100, 5),
            (100_000, 8),
            (7, 7),
            (5, 9),
            (4, 0),
        ] {
            let picks = sample_indices_floyd(n, k, &mut rng);
            assert_eq!(picks.len(), k.min(n), "n={n} k={k}");
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), picks.len(), "duplicates for n={n} k={k}");
            assert!(picks.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn floyd_is_deterministic_given_seed() {
        let a = sample_indices_floyd(1_000_000, 6, &mut Xoshiro256StarStar::new(13));
        let b = sample_indices_floyd(1_000_000, 6, &mut Xoshiro256StarStar::new(13));
        assert_eq!(a, b);
        let c = sample_indices_floyd(1_000_000, 6, &mut Xoshiro256StarStar::new(14));
        assert_ne!(a, c);
    }

    #[test]
    fn floyd_is_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::new(15);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            for i in sample_indices_floyd(10, 3, &mut rng) {
                counts[i] += 1;
            }
        }
        // Each index is chosen with probability 3/10: expect ~6000 each.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (5400..=6600).contains(&c),
                "index {i} drawn {c} times, expected ~6000"
            );
        }
    }
}
