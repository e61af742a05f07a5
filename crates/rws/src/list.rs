//! The full Related Website Sets list: a collection of disjoint sets.

use crate::error::SetError;
use crate::set::{MemberRole, RwsSet};
use rws_domain::DomainName;
use rws_stats::memo::FnvBuildHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The Related Website Sets list — the browser-consumed artefact published
/// as `related_website_sets.JSON`.
///
/// The list maintains the invariant that no domain appears in more than one
/// set, which is what makes the browser-side lookup ("are these two sites in
/// the same set?") well-defined.
///
/// The wire form is `{"sets": [...]}`. Deserialising goes through
/// [`from_sets`](RwsList::from_sets), so a parsed list has its member
/// index and overlapping sets are a [`SetError`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "ListRepr")]
pub struct RwsList {
    sets: Vec<RwsSet>,
    /// Index from member domain to position in `sets`. Hashed with FNV:
    /// every browser-side relatedness check is two lookups here.
    #[serde(skip)]
    index: HashMap<DomainName, usize, FnvBuildHasher>,
}

/// The serialised shape of an [`RwsList`]: its sets alone.
#[derive(Deserialize)]
struct ListRepr {
    sets: Vec<RwsSet>,
}

impl TryFrom<ListRepr> for RwsList {
    type Error = SetError;

    fn try_from(repr: ListRepr) -> Result<RwsList, SetError> {
        RwsList::from_sets(repr.sets)
    }
}

impl RwsList {
    /// An empty list.
    pub fn new() -> RwsList {
        RwsList::default()
    }

    /// Build a list from sets, enforcing cross-set disjointness.
    pub fn from_sets(sets: Vec<RwsSet>) -> Result<RwsList, SetError> {
        let mut list = RwsList::new();
        for set in sets {
            list.add_set(set)?;
        }
        Ok(list)
    }

    /// Add a set, enforcing that none of its members already belong to
    /// another set.
    pub fn add_set(&mut self, set: RwsSet) -> Result<(), SetError> {
        let domains = set.domains();
        if let Some(domain) = domains.iter().find(|d| self.index.contains_key(*d)) {
            return Err(SetError::MemberInMultipleSets {
                domain: domain.to_string(),
            });
        }
        let idx = self.sets.len();
        self.index
            .extend(domains.into_iter().map(|domain| (domain, idx)));
        self.sets.push(set);
        Ok(())
    }

    /// Number of sets in the list.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Total number of member domains across all sets (including primaries).
    pub fn domain_count(&self) -> usize {
        self.sets.iter().map(RwsSet::size).sum()
    }

    /// Iterate over the sets.
    pub fn sets(&self) -> impl Iterator<Item = &RwsSet> {
        self.sets.iter()
    }

    /// The set containing a domain, if any.
    pub fn set_for(&self, domain: &DomainName) -> Option<&RwsSet> {
        self.index.get(domain).map(|&i| &self.sets[i])
    }

    /// The position (in [`sets`](Self::sets) order) of the set containing a
    /// domain, if any. Two domains are related exactly when both have the
    /// same `Some` index — precomputing this per domain turns the pair
    /// universe's O(members²) relatedness sweep into integer compares.
    pub fn set_index_of(&self, domain: &DomainName) -> Option<usize> {
        self.index.get(domain).copied()
    }

    /// The set whose primary is the given domain, if any.
    pub fn set_with_primary(&self, primary: &DomainName) -> Option<&RwsSet> {
        self.set_for(primary).filter(|set| set.primary() == primary)
    }

    /// The role a domain plays in the list, if it is a member of any set.
    pub fn role_of(&self, domain: &DomainName) -> Option<MemberRole> {
        self.set_for(domain).and_then(|set| set.role_of(domain))
    }

    /// True if the two domains are members of the same set — the core
    /// browser-side relatedness check that gates `requestStorageAccess`
    /// auto-grants.
    pub fn are_related(&self, a: &DomainName, b: &DomainName) -> bool {
        match (self.index.get(a), self.index.get(b)) {
            (Some(ia), Some(ib)) => ia == ib,
            _ => false,
        }
    }

    /// All member domains in the list, sorted.
    pub fn all_domains(&self) -> Vec<DomainName> {
        let mut v: Vec<DomainName> = self.index.keys().cloned().collect();
        v.sort();
        v
    }

    /// All `(primary, member, role)` triples for non-primary members, in set
    /// order — the iteration Figures 3 and 4 perform ("each service or
    /// associated site compared with its set primary").
    pub fn member_primary_pairs(&self) -> Vec<(DomainName, DomainName, MemberRole)> {
        let mut out = Vec::new();
        for set in &self.sets {
            for member in set.members() {
                if member.role != MemberRole::Primary {
                    out.push((set.primary().clone(), member.domain, member.role));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample_list() -> RwsList {
        let mut bild = RwsSet::new("https://bild.de").unwrap();
        bild.add_associated("https://autobild.de", "IT news sister brand")
            .unwrap()
            .add_associated("https://computerbild.de", "Computer magazine")
            .unwrap();
        let mut yandex = RwsSet::new("https://ya.ru").unwrap();
        yandex
            .add_associated("https://webvisor.com", "Web analytics service")
            .unwrap()
            .add_service("https://yastatic.net", "Static asset host")
            .unwrap();
        RwsList::from_sets(vec![bild, yandex]).unwrap()
    }

    #[test]
    fn counts() {
        let list = sample_list();
        assert_eq!(list.set_count(), 2);
        assert_eq!(list.domain_count(), 6);
        assert_eq!(list.all_domains().len(), 6);
    }

    #[test]
    fn lookups() {
        let list = sample_list();
        assert_eq!(
            list.set_for(&dn("autobild.de")).unwrap().primary(),
            &dn("bild.de")
        );
        assert!(list.set_for(&dn("unknown.com")).is_none());
        assert!(list.set_with_primary(&dn("bild.de")).is_some());
        assert!(list.set_with_primary(&dn("autobild.de")).is_none());
        assert_eq!(list.role_of(&dn("yastatic.net")), Some(MemberRole::Service));
        assert_eq!(list.role_of(&dn("ya.ru")), Some(MemberRole::Primary));
        assert_eq!(list.role_of(&dn("unknown.com")), None);
    }

    #[test]
    fn relatedness_is_same_set_membership() {
        let list = sample_list();
        assert!(list.are_related(&dn("bild.de"), &dn("autobild.de")));
        assert!(list.are_related(&dn("autobild.de"), &dn("computerbild.de")));
        assert!(!list.are_related(&dn("bild.de"), &dn("ya.ru")));
        assert!(!list.are_related(&dn("bild.de"), &dn("unknown.com")));
        assert!(!list.are_related(&dn("unknown.com"), &dn("also-unknown.com")));
    }

    #[test]
    fn cross_set_duplicates_rejected() {
        let mut a = RwsSet::new("https://a.com").unwrap();
        a.add_associated("https://shared.com", "x").unwrap();
        let mut b = RwsSet::new("https://b.com").unwrap();
        b.add_associated("https://shared.com", "y").unwrap();
        let err = RwsList::from_sets(vec![a, b]).unwrap_err();
        assert!(matches!(err, SetError::MemberInMultipleSets { .. }));
    }

    #[test]
    fn member_primary_pairs_cover_non_primaries() {
        let list = sample_list();
        let pairs = list.member_primary_pairs();
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().any(|(p, m, r)| p == &dn("ya.ru")
            && m == &dn("yastatic.net")
            && *r == MemberRole::Service));
        assert!(pairs.iter().all(|(p, m, _)| p != m));
    }

    #[test]
    fn serde_round_trip_keeps_lookup() {
        let list = sample_list();
        let json = serde_json::to_string(&list).unwrap();
        assert!(
            json.starts_with("{\"sets\":"),
            "wire form is sets-only: {json}"
        );
        let restored: RwsList = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, list);
        assert!(restored.are_related(&dn("bild.de"), &dn("autobild.de")));
        assert_eq!(
            restored.set_for(&dn("webvisor.com")).unwrap().primary(),
            &dn("ya.ru")
        );
        assert_eq!(
            restored.role_of(&dn("yastatic.net")),
            Some(MemberRole::Service)
        );
    }

    #[test]
    fn deserialising_overlapping_sets_is_a_typed_error() {
        let mut a = RwsSet::new("https://a.com").unwrap();
        a.add_associated("https://shared.com", "x").unwrap();
        let mut b = RwsSet::new("https://b.com").unwrap();
        b.add_associated("https://shared.com", "y").unwrap();
        // `from_sets` refuses this list, so build its wire form by hand.
        let json = format!(
            "{{\"sets\":[{},{}]}}",
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let err = serde_json::from_str::<RwsList>(&json).unwrap_err();
        let expected = SetError::MemberInMultipleSets {
            domain: "shared.com".to_string(),
        };
        assert!(err.to_string().contains(&expected.to_string()), "{err}");
    }

    #[test]
    fn empty_list_behaviour() {
        let list = RwsList::new();
        assert_eq!(list.set_count(), 0);
        assert_eq!(list.domain_count(), 0);
        assert!(!list.are_related(&dn("a.com"), &dn("b.com")));
        assert!(list.member_primary_pairs().is_empty());
    }
}
