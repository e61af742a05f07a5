//! Partition keys and storage-access requests.

use rws_domain::DomainName;
use rws_model::{MemberRole, RwsList};
use serde::{Deserialize, Serialize};

/// The key the partitioned storage map is indexed by: the top-level site the
/// user is visiting and the embedded site doing the storing.
///
/// When a site is loaded first-party the two components are equal — that is
/// the same storage the site sees with no partitioning at all.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartitionKey {
    /// The site (eTLD+1) shown in the address bar.
    pub top_level_site: DomainName,
    /// The site (eTLD+1) of the frame accessing storage.
    pub embedded_site: DomainName,
}

impl PartitionKey {
    /// Key for a first-party load of `site`.
    #[cfg(test)]
    pub fn first_party(site: &DomainName) -> PartitionKey {
        PartitionKey {
            top_level_site: site.clone(),
            embedded_site: site.clone(),
        }
    }

    /// Key for `embedded` loaded as a third party under `top_level`.
    pub fn third_party(top_level: &DomainName, embedded: &DomainName) -> PartitionKey {
        PartitionKey {
            top_level_site: top_level.clone(),
            embedded_site: embedded.clone(),
        }
    }
}

/// A `document.requestStorageAccess()` call, as seen by the policy layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessRequest {
    /// The top-level site the user is visiting.
    pub top_level_site: DomainName,
    /// The embedded site requesting unpartitioned storage.
    pub embedded_site: DomainName,
    /// Whether the user has previously interacted with the embedded site as
    /// a first party (required by several policies).
    pub has_prior_interaction: bool,
}

/// Everything a vendor rule reads about one `requestStorageAccess` call:
/// the two sites' standing in the RWS list and the user's prior
/// interaction. [`VendorPolicy::decide`](crate::VendorPolicy::decide) is a
/// pure function of this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFacts {
    /// The roles of the top-level and the embedded site, in that order,
    /// when both are members of the same set; `None` when the sites are
    /// not related. No rule reads a role across sets.
    pub same_set_roles: Option<(MemberRole, MemberRole)>,
    /// As [`AccessRequest::has_prior_interaction`].
    pub has_prior_interaction: bool,
}

impl AccessFacts {
    /// Look the request's sites up in `list`: one relatedness check, and
    /// the two roles only when the sites are related.
    pub fn of(request: &AccessRequest, list: &RwsList) -> AccessFacts {
        let (top, embedded) = (&request.top_level_site, &request.embedded_site);
        let same_set_roles = if list.are_related(top, embedded) {
            list.role_of(top).zip(list.role_of(embedded))
        } else {
            None
        };
        AccessFacts {
            same_set_roles,
            has_prior_interaction: request.has_prior_interaction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn first_party_key_has_equal_components() {
        let key = PartitionKey::first_party(&dn("example.com"));
        assert_eq!(key.top_level_site, key.embedded_site);
    }

    #[test]
    fn third_party_key_differs() {
        let key = PartitionKey::third_party(&dn("site.example"), &dn("tracker.example"));
        assert_ne!(key.top_level_site, key.embedded_site);
        assert_ne!(key, PartitionKey::first_party(&dn("tracker.example")));
    }

    #[test]
    fn keys_are_usable_in_maps() {
        use std::collections::HashMap;
        let mut m: HashMap<PartitionKey, u32> = HashMap::new();
        m.insert(PartitionKey::first_party(&dn("a.com")), 1);
        m.insert(PartitionKey::third_party(&dn("a.com"), &dn("b.com")), 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&PartitionKey::first_party(&dn("a.com"))], 1);
    }
}
