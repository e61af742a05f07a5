//! Fixed-width histograms and categorical counters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fixed-bin-width histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }
}

/// A counter over string categories, preserving deterministic (sorted) order.
///
/// Used for Table 2 (factors), Table 3 (bot messages) and Figures 8/9
/// (Forcepoint categories).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounter {
    counts: BTreeMap<String, u64>,
}

impl CategoryCounter {
    /// Create an empty counter.
    pub fn new() -> CategoryCounter {
        CategoryCounter::default()
    }

    /// Increment a category by one. The key is looked up by `&str` first,
    /// so only a category's first record allocates its `String`.
    pub fn record<S: AsRef<str> + Into<String>>(&mut self, category: S) {
        match self.counts.get_mut(category.as_ref()) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(category.into(), 1);
            }
        }
    }

    /// Count for a category (0 if never recorded).
    pub fn get(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// Total across all categories.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// All `(category, count)` pairs in lexicographic category order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `(category, count)` pairs sorted by descending count (ties broken by
    /// category name), as the paper's tables present them.
    pub fn sorted_by_count(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Number of distinct categories.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Fold another counter into this one (exact, order-independent — the
    /// load engine merges per-worker error tallies with this).
    pub fn merge(&mut self, other: &CategoryCounter) {
        for (category, count) in &other.counts {
            *self.counts.entry(category.clone()).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9] {
            h.record(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-1.0);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn category_counter_counts() {
        let mut c = CategoryCounter::new();
        c.record("news and media");
        c.record("news and media");
        c.record("business and economy");
        assert_eq!(c.get("news and media"), 2);
        assert_eq!(c.get("business and economy"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn category_counter_records_borrowed_and_owned_keys_alike() {
        let mut c = CategoryCounter::new();
        let owned = String::from("timeout");
        for _ in 0..3 {
            c.record("timeout");
        }
        c.record(owned.clone());
        c.record(&owned);
        c.record("connection-refused");
        c.record(String::from("http-status"));
        c.record("connection-refused");
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(
            pairs,
            vec![
                ("connection-refused", 2),
                ("http-status", 1),
                ("timeout", 5)
            ]
        );
        assert_eq!(c.total(), 8);
        assert_eq!(
            c.sorted_by_count(),
            vec![
                ("timeout".to_string(), 5),
                ("connection-refused".to_string(), 2),
                ("http-status".to_string(), 1),
            ]
        );
    }

    #[test]
    fn category_counter_sorted_by_count() {
        let mut c = CategoryCounter::new();
        for (category, n) in [("b", 5), ("a", 5), ("c", 10)] {
            for _ in 0..n {
                c.record(category);
            }
        }
        let sorted = c.sorted_by_count();
        assert_eq!(sorted[0].0, "c");
        // ties broken alphabetically
        assert_eq!(sorted[1].0, "a");
        assert_eq!(sorted[2].0, "b");
    }
}
