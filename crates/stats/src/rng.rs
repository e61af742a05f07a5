//! Deterministic pseudo-random number generators.
//!
//! Every simulation in this workspace (synthetic web corpus, participant
//! behaviour, GitHub pull-request history, …) must be exactly reproducible
//! from a single `u64` seed, both across runs and across platforms. We
//! therefore implement two small, well-known generators rather than relying
//! on a platform RNG:
//!
//! * [`SplitMix64`] — used for seeding and for cheap, statistically decent
//!   streams (it is the recommended seeder for the xoshiro family).
//! * [`Xoshiro256StarStar`] — the workhorse generator used by the
//!   simulators.
//!
//! Both implement the object-safe [`Rng`] trait so that code can be written
//! against `&mut dyn Rng`.

/// A minimal deterministic random-number-generator interface.
///
/// All derived helpers (floats, ranges, booleans, normal deviates) are
/// provided as default methods on top of [`Rng::next_u64`].
pub trait Rng {
    /// Return the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Return the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits, the standard conversion for 64-bit generators.
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    /// `bound` must be non-zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        // Rejection sampling on the multiply-high technique.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (half-open). `lo < hi` is required.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi (got {lo}..{hi})");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)` (half-open).
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` of returning `true`.
    ///
    /// Values of `p` outside `[0, 1]` are clamped.
    fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.next_f64() < p
    }

    /// Standard normal deviate via the Box–Muller transform.
    fn next_gaussian(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    fn gaussian(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.next_gaussian()
    }

    /// Log-normal deviate parameterised by the underlying normal's mean and
    /// standard deviation (i.e. `exp(N(mu, sigma))`).
    ///
    /// The paper's response-time distributions are heavy-tailed and
    /// positive, which a log-normal captures well.
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gaussian(mu, sigma).exp()
    }

    /// Exponential deviate with the given rate parameter `lambda`.
    fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential requires lambda > 0");
        let u = 1.0 - self.next_f64();
        -u.ln() / lambda
    }

    /// Poisson-distributed count with the given mean, using Knuth's method
    /// for small means and a normal approximation for large means.
    fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson requires a non-negative mean");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            // Normal approximation with continuity correction.
            let x = self.gaussian(mean, mean.sqrt());
            return x.round().max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Geometric-ish integer in `[0, max]` biased towards 0, with decay
    /// probability `p` (probability of stopping at each step).
    fn geometric_capped(&mut self, p: f64, max: u64) -> u64 {
        let p = p.clamp(1e-9, 1.0);
        let mut k = 0;
        while k < max && !self.chance(p) {
            k += 1;
        }
        k
    }
}

/// SplitMix64: a tiny, fast, well-distributed 64-bit generator.
///
/// Primarily used to expand a single user-facing seed into the larger state
/// required by [`Xoshiro256StarStar`], and for short-lived derived streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive an independent-looking stream for a named sub-component.
    ///
    /// Combines the current state with a hash of `label` so that e.g. the
    /// corpus generator and the survey simulator receive decorrelated
    /// streams from the same top-level seed.
    pub fn derive(&self, label: &str) -> SplitMix64 {
        let h = crate::memo::fnv1a_bytes(label.as_bytes());
        SplitMix64::new(self.state ^ h.rotate_left(17))
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose generator used by the simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed the generator by expanding `seed` through [`SplitMix64`], per
    /// the generator authors' recommendation.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid state; the SplitMix expansion
        // of any seed cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derive an independent stream for a named sub-component.
    pub fn derive(&self, label: &str) -> Xoshiro256StarStar {
        let mut h: u64 = 1469598103934665603;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(1099511628211);
        }
        Xoshiro256StarStar::new(self.s[0] ^ self.s[3].rotate_left(23) ^ h)
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for &mut dyn Rng {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_first_value() {
        // Reference value for seed 0 from the public-domain SplitMix64 code.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_differs_by_seed() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_produces_decorrelated_streams() {
        let base = Xoshiro256StarStar::new(99);
        let mut a = base.derive("corpus");
        let mut b = base.derive("survey");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // Deriving with the same label twice gives the same stream.
        let mut c = base.derive("corpus");
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vc);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "value {x} outside [0,1)");
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xoshiro256StarStar::new(4);
        for bound in [1u64, 2, 3, 7, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in [0,5) should appear");
    }

    #[test]
    fn range_u64_within_bounds() {
        let mut rng = Xoshiro256StarStar::new(6);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn range_u64_panics_on_empty_range() {
        let mut rng = SplitMix64::new(0);
        rng.range_u64(5, 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn chance_rate_is_plausible() {
        let mut rng = Xoshiro256StarStar::new(8);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    #[test]
    fn gaussian_mean_and_stddev_are_plausible() {
        let mut rng = Xoshiro256StarStar::new(9);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.gaussian(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "stddev {}", var.sqrt());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = Xoshiro256StarStar::new(10);
        for _ in 0..1000 {
            assert!(rng.log_normal(3.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = Xoshiro256StarStar::new(11);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!(
            (mean - 2.0).abs() < 0.1,
            "mean {mean} should be near 1/lambda = 2"
        );
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let mut rng = Xoshiro256StarStar::new(12);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.poisson(4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = Xoshiro256StarStar::new(13);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approximation() {
        let mut rng = Xoshiro256StarStar::new(14);
        let n = 10_000;
        let mean = (0..n).map(|_| rng.poisson(100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn geometric_capped_respects_cap() {
        let mut rng = Xoshiro256StarStar::new(15);
        for _ in 0..1000 {
            assert!(rng.geometric_capped(0.1, 5) <= 5);
        }
    }
}
