//! Cookie/local-storage areas and the partitioned storage engine.

use crate::context::PartitionKey;
use rws_domain::DomainName;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single storage area: a key→value map standing in for cookies and
/// `localStorage` alike (the distinction does not matter for the privacy
/// analysis — both are per-partition state).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageArea {
    values: BTreeMap<String, String>,
}

impl StorageArea {
    /// An empty area.
    pub fn new() -> StorageArea {
        StorageArea::default()
    }

    /// Set a key.
    pub fn set<K: Into<String>, V: Into<String>>(&mut self, key: K, value: V) {
        self.values.insert(key.into(), value.into());
    }

    /// Get a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Remove a key, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        self.values.remove(key)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// The browser profile's storage: one *unpartitioned* area per site (what
/// the site sees first-party, and third-party when it has been granted
/// storage access or the browser does not partition), plus one *partitioned*
/// area per [`PartitionKey`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageEngine {
    unpartitioned: BTreeMap<DomainName, StorageArea>,
    partitioned: BTreeMap<PartitionKey, StorageArea>,
}

impl StorageEngine {
    /// An empty engine.
    pub fn new() -> StorageEngine {
        StorageEngine::default()
    }

    /// Mutable access to a site's unpartitioned (first-party) storage.
    pub fn unpartitioned_mut(&mut self, site: &DomainName) -> &mut StorageArea {
        self.unpartitioned.entry(site.clone()).or_default()
    }

    /// Read-only access to a site's unpartitioned storage, if it exists.
    pub fn unpartitioned(&self, site: &DomainName) -> Option<&StorageArea> {
        self.unpartitioned.get(site)
    }

    /// Mutable access to a partitioned storage area.
    pub fn partitioned_mut(&mut self, key: &PartitionKey) -> &mut StorageArea {
        self.partitioned.entry(key.clone()).or_default()
    }

    /// Read-only access to a partitioned storage area, if it exists.
    pub fn partitioned(&self, key: &PartitionKey) -> Option<&StorageArea> {
        self.partitioned.get(key)
    }

    /// Clear every storage area (e.g. "clear browsing data").
    pub fn clear(&mut self) {
        self.unpartitioned.clear();
        self.partitioned.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn storage_area_set_get_remove() {
        let mut area = StorageArea::new();
        assert!(area.is_empty());
        area.set("uid", "alice-123");
        assert_eq!(area.get("uid"), Some("alice-123"));
        area.set("uid", "alice-456");
        assert_eq!(area.get("uid"), Some("alice-456"));
        assert_eq!(area.len(), 1);
        assert_eq!(area.remove("uid"), Some("alice-456".to_string()));
        assert!(area.get("uid").is_none());
    }

    #[test]
    fn partitioned_areas_are_isolated_per_key() {
        let mut engine = StorageEngine::new();
        let tracker = dn("tracker.example");
        let key_a = PartitionKey::third_party(&dn("site-a.example"), &tracker);
        let key_b = PartitionKey::third_party(&dn("site-b.example"), &tracker);
        engine.partitioned_mut(&key_a).set("uid", "under-a");
        engine.partitioned_mut(&key_b).set("uid", "under-b");
        assert_eq!(
            engine.partitioned(&key_a).unwrap().get("uid"),
            Some("under-a")
        );
        assert_eq!(
            engine.partitioned(&key_b).unwrap().get("uid"),
            Some("under-b")
        );
    }

    #[test]
    fn unpartitioned_storage_is_per_site() {
        let mut engine = StorageEngine::new();
        engine.unpartitioned_mut(&dn("a.com")).set("uid", "1");
        engine.unpartitioned_mut(&dn("b.com")).set("uid", "2");
        assert_eq!(
            engine.unpartitioned(&dn("a.com")).unwrap().get("uid"),
            Some("1")
        );
        assert_eq!(
            engine.unpartitioned(&dn("b.com")).unwrap().get("uid"),
            Some("2")
        );
        assert!(engine.unpartitioned(&dn("c.com")).is_none());
    }

    #[test]
    fn partitioned_and_unpartitioned_do_not_alias() {
        let mut engine = StorageEngine::new();
        let tracker = dn("tracker.example");
        engine
            .unpartitioned_mut(&tracker)
            .set("uid", "first-party-id");
        let key = PartitionKey::third_party(&dn("news.example"), &tracker);
        assert!(engine.partitioned(&key).is_none());
        engine.partitioned_mut(&key).set("uid", "partitioned-id");
        assert_eq!(
            engine.unpartitioned(&tracker).unwrap().get("uid"),
            Some("first-party-id")
        );
        assert_eq!(
            engine.partitioned(&key).unwrap().get("uid"),
            Some("partitioned-id")
        );
    }

    #[test]
    fn clear_empties_everything() {
        let mut engine = StorageEngine::new();
        let key = PartitionKey::first_party(&dn("a.com"));
        engine.unpartitioned_mut(&dn("a.com")).set("k", "v");
        engine.partitioned_mut(&key).set("k", "v");
        engine.clear();
        assert!(engine.unpartitioned(&dn("a.com")).is_none());
        assert!(engine.partitioned(&key).is_none());
    }
}
