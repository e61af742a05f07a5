//! A Tranco-style top-sites ranking.
//!
//! The survey's comparison groups (3 and 4) pair RWS members with sites
//! "drawn randomly from the Tranco Top 10K list, filtered to sites within
//! the same / a different Forcepoint category". This module provides the
//! ranked list those draws come from.

use crate::category::SiteCategory;
use rws_domain::DomainName;
use serde::{Deserialize, Serialize};

/// One entry of the ranking.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrancoEntry {
    /// 1-based rank (1 = most popular).
    pub rank: usize,
    /// The ranked domain.
    pub domain: DomainName,
    /// The domain's category.
    pub category: SiteCategory,
}

/// A ranked list of top sites.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrancoList {
    entries: Vec<TrancoEntry>,
}

impl TrancoList {
    /// Build a ranking from `(domain, category)` pairs already in rank order.
    pub fn from_ranked(entries: Vec<(DomainName, SiteCategory)>) -> TrancoList {
        TrancoList {
            entries: entries
                .into_iter()
                .enumerate()
                .map(|(i, (domain, category))| TrancoEntry {
                    rank: i + 1,
                    domain,
                    category,
                })
                .collect(),
        }
    }

    /// Number of ranked sites.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &TrancoEntry> {
        self.entries.iter()
    }

    /// The top `n` entries.
    pub fn top(&self, n: usize) -> &[TrancoEntry] {
        &self.entries[..n.min(self.entries.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample() -> TrancoList {
        TrancoList::from_ranked(vec![
            (dn("searchhub.com"), SiteCategory::SearchEnginesAndPortals),
            (dn("dailywire-news.com"), SiteCategory::NewsAndMedia),
            (dn("shopmart.com"), SiteCategory::Shopping),
            (dn("technews.com"), SiteCategory::NewsAndMedia),
        ])
    }

    #[test]
    fn ranks_are_one_based_and_ordered() {
        let list = sample();
        assert_eq!(list.len(), 4);
        assert!(list.iter().map(|e| e.rank).eq(1..=4));
        assert_eq!(list.top(3)[2].domain, dn("shopmart.com"));
    }

    #[test]
    fn top_n_clamps() {
        let list = sample();
        assert_eq!(list.top(2).len(), 2);
        assert_eq!(list.top(100).len(), 4);
    }

    #[test]
    fn empty_list_behaviour() {
        let list = TrancoList::default();
        assert!(list.is_empty());
        assert!(list.top(5).is_empty());
    }
}
