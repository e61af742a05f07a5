//! Streaming log-bucketed latency histogram for the load engine.
//!
//! The load engine (PR 7) replays hundreds of thousands of simulated
//! requests and needs per-worker latency aggregation that is
//!
//! * **zero-alloc on the hot path** — [`LatencyHistogram::record`] touches a
//!   fixed, once-allocated bucket table and a handful of integer fields;
//! * **mergeable** — per-worker histograms combine with
//!   [`LatencyHistogram::merge`] by plain bucket addition, so pooled and
//!   sequential replays aggregate to the *identical* value regardless of
//!   how work was partitioned;
//! * **accurate at the tail** — HDR-style log-linear bucketing keeps the
//!   relative quantile error below `1/32` (~3.1%) across the full `u64`
//!   range, with no value range fixed up front.
//!
//! # Bucketing scheme
//!
//! Values below 32 get exact unit buckets. Above that, each power-of-two
//! octave is split into 32 linear sub-buckets: a value with most
//! significant bit `m >= 5` lands in group `m - 4`, sub-bucket
//! `(v >> (m - 5)) - 32`. Bucket widths double every octave, so the width
//! of the bucket containing `v` is at most `v / 32` — which bounds the
//! error of reporting a bucket's upper edge for any member value.
//!
//! Everything is integer arithmetic: no floating-point accumulation, so
//! merge order cannot perturb results (a property the pooled ≡ sequential
//! load-engine tests rely on).

use serde::{Deserialize, Serialize};

/// log2 of the number of linear sub-buckets per octave.
const SUB_BUCKET_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two octave (32).
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Total bucket count covering the whole `u64` range: one unit-width group
/// for `0..32` plus one 32-wide group per remaining octave (msb 5..=63),
/// 60 groups of 32 in all.
const BUCKET_COUNT: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS as usize;

/// Index of the bucket holding `v`. Total order preserving: monotone in
/// `v`, contiguous from 0.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        ((shift as usize + 1) << SUB_BUCKET_BITS) + ((v >> shift) - SUB_BUCKETS) as usize
    }
}

/// Smallest value mapping to bucket `index`.
#[inline]
fn bucket_low(index: usize) -> u64 {
    let group = index >> SUB_BUCKET_BITS;
    let sub = (index & (SUB_BUCKETS as usize - 1)) as u64;
    if group == 0 {
        sub
    } else {
        (SUB_BUCKETS + sub) << (group - 1)
    }
}

/// Largest value mapping to bucket `index` (inclusive upper edge).
#[inline]
fn bucket_high(index: usize) -> u64 {
    let group = index >> SUB_BUCKET_BITS;
    if group == 0 {
        bucket_low(index)
    } else {
        // Width of every bucket in group g >= 1 is 2^(g-1); the last
        // bucket's edge saturates at u64::MAX by construction.
        bucket_low(index) + ((1u64 << (group - 1)) - 1)
    }
}

/// A streaming, mergeable, log-bucketed latency histogram.
///
/// Records `u64` values (the load engine feeds simulated milliseconds) with
/// bounded relative error; quantiles are answered by rank-walking the
/// bucket table. All state is integer, so [`merge`](Self::merge) is exact
/// and order-independent.
///
/// ```
/// use rws_stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [12u64, 45, 45, 60, 900] {
///     h.record(ms);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 12);
/// assert_eq!(h.max(), 900);
/// assert!(h.p50() >= 45);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty so `merge` is a plain `min`.
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram. The bucket table is allocated once here; every
    /// subsequent [`record`](Self::record) is allocation-free.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. Zero-alloc: two array writes and four integer
    /// updates.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one. Exact: recording the union of
    /// both sample streams into a fresh histogram yields the same state.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, rank-based: the reported
    /// value `r` satisfies `x <= r <= x + x/32 + 1` where `x` is the
    /// `ceil(q * count)`-th smallest recorded sample. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Clamp the bucket's upper edge to the recorded extremes so
                // p100 reports the exact max and never undershoots the min.
                return bucket_high(index).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50) latency.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 90th percentile latency.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile latency.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        // Exhaustive over the small range, spot-checked over octave edges.
        let mut prev = 0usize;
        for v in 0u64..4096 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "gap at {v}");
            prev = idx;
        }
        for shift in 5..63u32 {
            let v = 1u64 << shift;
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_edges_bracket_their_values() {
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v && v <= bucket_high(idx), "v={v}");
            // Relative width bound: width <= low/32 for group >= 1.
            if v >= SUB_BUCKETS {
                let width = bucket_high(idx) - bucket_low(idx) + 1;
                assert!(width <= bucket_low(idx) / SUB_BUCKETS + 1, "v={v}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9, 1.0] {
            let rank = ((q * 32.0).ceil() as u64).clamp(1, 32);
            assert_eq!(h.value_at_quantile(q), rank - 1);
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // p50's exact sample is 500; the bucket edge may overshoot by ~3%.
        let p50 = h.p50();
        assert!((500..=516).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.value_at_quantile(1.0), 1000);
    }

    #[test]
    fn merge_equals_bulk_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [5u64, 40, 41, 900, 12_345, 7] {
            a.record(v);
            all.record(v);
        }
        for v in [100u64, 2, 40, 65_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        let mut m = LatencyHistogram::new();
        m.merge(&h);
        assert_eq!(m, h);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = LatencyHistogram::new();
        for v in [40u64, 44, 90, 1000] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
