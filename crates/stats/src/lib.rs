//! Statistical substrate for the Related Website Sets reproduction.
//!
//! The measurement paper this workspace reproduces ("A First Look at Related
//! Website Sets", IMC 2024) relies on a small set of statistical tools:
//! empirical CDFs (Figures 2, 3, 4 and 6), a two-sample Kolmogorov–Smirnov
//! test (Section 3), descriptive summaries (Table 1), and monthly
//! time-series bucketing (Figures 5, 7, 8 and 9). This crate implements all
//! of those from scratch, together with the deterministic pseudo-random
//! number generators used throughout the workspace so that every simulated
//! experiment is exactly reproducible from a seed.
//!
//! # Quick example
//!
//! ```
//! use rws_stats::prelude::*;
//!
//! let mut rng = SplitMix64::new(42);
//! let sample_a: Vec<f64> = (0..200).map(|_| rng.next_f64()).collect();
//! let sample_b: Vec<f64> = (0..200).map(|_| rng.next_f64() * 2.0).collect();
//!
//! let ecdf = Ecdf::new(&sample_a);
//! assert!(ecdf.eval(2.0) >= 0.99);
//!
//! let ks = ks_two_sample(&sample_a, &sample_b);
//! assert!(ks.statistic > 0.0);
//! ```

pub mod descriptive;
pub mod ecdf;
pub mod histogram;
pub mod ks;
pub mod latency;
pub mod memo;
pub mod quantile;
pub mod rng;
pub mod sampling;
pub mod timeseries;

pub use descriptive::{mean, stddev, Summary};
pub use ecdf::Ecdf;
pub use histogram::{CategoryCounter, Histogram};
pub use ks::{ks_two_sample, KsResult};
pub use latency::LatencyHistogram;
pub use memo::{fnv1a_bytes, fnv1a_of, ShardedMemo};
pub use quantile::{median, percentile, quantile};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use sampling::{
    sample_indices_floyd, sample_indices_without_replacement, sample_without_replacement, shuffle,
    weighted_choice,
};
pub use timeseries::{Date, Month, MonthlySeries, EPOCH};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::descriptive::{mean, stddev, Summary};
    pub use crate::ecdf::Ecdf;
    pub use crate::histogram::{CategoryCounter, Histogram};
    pub use crate::ks::{ks_two_sample, KsResult};
    pub use crate::quantile::{median, percentile, quantile};
    pub use crate::rng::{Rng, SplitMix64, Xoshiro256StarStar};
    pub use crate::sampling::{sample_without_replacement, shuffle, weighted_choice};
    pub use crate::timeseries::{Date, Month, MonthlySeries};
}
