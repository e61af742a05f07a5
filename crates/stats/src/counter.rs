//! Categorical counters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
