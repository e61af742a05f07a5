//! Per-vendor storage-access policies.
//!
//! The paper's Section 2 surveys the vendor landscape: Safari, Brave and
//! Firefox partition by default (with different Storage Access API
//! behaviours), Chrome has deployed Related Website Sets as a permanent
//! exception mechanism, and Edge / pre-phase-out Chrome do not partition at
//! all. Each of those postures is modelled here as a [`VendorPolicy`].

use crate::context::{AccessFacts, AccessRequest};
use rws_model::{MemberRole, RwsList};
use serde::{Deserialize, Serialize};

/// The policy layer's answer to a `requestStorageAccess` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyVerdict {
    /// Grant unpartitioned access without involving the user.
    AutoGrant,
    /// Ask the user; the grant depends on their answer.
    Prompt,
    /// Refuse without asking.
    Deny,
}

/// A storage-access policy: given a request and the RWS list, decide.
pub trait StorageAccessPolicy {
    /// Short vendor-style name for reports.
    fn name(&self) -> &'static str;

    /// Whether this browser partitions third-party storage by default. A
    /// browser that does not partition never needs the Storage Access API —
    /// every third party already sees its unpartitioned storage.
    fn partitions_by_default(&self) -> bool;

    /// Decide a `requestStorageAccess` call.
    fn verdict(&self, request: &AccessRequest, list: &RwsList) -> PolicyVerdict;
}

/// The vendor policies the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VendorPolicy {
    /// Chrome with Related Website Sets deployed: partitioned by default,
    /// auto-grant within a set (subject to the service-site rule), prompt
    /// otherwise.
    ChromeWithRws,
    /// Chrome before the third-party-cookie phase-out / Edge today: no
    /// partitioning, every third party gets unpartitioned storage.
    ChromeLegacy,
    /// Firefox: partitioned (Total Cookie Protection); the Storage Access
    /// API auto-grants a limited number of requests after first-party
    /// interaction and prompts otherwise.
    Firefox,
    /// Safari: partitioned; every grant requires a user prompt.
    Safari,
    /// Brave: partitioned; no storage-access exceptions at all.
    Brave,
}

impl VendorPolicy {
    /// Every modelled vendor, for sweeps.
    pub const ALL: [VendorPolicy; 5] = [
        VendorPolicy::ChromeWithRws,
        VendorPolicy::ChromeLegacy,
        VendorPolicy::Firefox,
        VendorPolicy::Safari,
        VendorPolicy::Brave,
    ];
}

impl StorageAccessPolicy for VendorPolicy {
    fn name(&self) -> &'static str {
        match self {
            VendorPolicy::ChromeWithRws => "chrome-rws",
            VendorPolicy::ChromeLegacy => "chrome-legacy",
            VendorPolicy::Firefox => "firefox",
            VendorPolicy::Safari => "safari",
            VendorPolicy::Brave => "brave",
        }
    }

    fn partitions_by_default(&self) -> bool {
        !matches!(self, VendorPolicy::ChromeLegacy)
    }

    /// Derives the facts from `list` for Chrome with RWS; the other four
    /// vendors read no list, so their facts need no lookup.
    fn verdict(&self, request: &AccessRequest, list: &RwsList) -> PolicyVerdict {
        let facts = match self {
            VendorPolicy::ChromeWithRws => AccessFacts::of(request, list),
            _ => AccessFacts {
                same_set_roles: None,
                has_prior_interaction: request.has_prior_interaction,
            },
        };
        self.decide(facts)
    }
}

impl VendorPolicy {
    /// The vendor's rule: its verdict on a call with these facts. This is
    /// the one verdict definition; [`StorageAccessPolicy::verdict`] and the
    /// load engine's id tables each derive the facts and call it.
    #[inline]
    pub fn decide(self, facts: AccessFacts) -> PolicyVerdict {
        match self {
            // No partitioning: the API is moot, grants are implicit.
            VendorPolicy::ChromeLegacy => PolicyVerdict::AutoGrant,
            VendorPolicy::Brave => PolicyVerdict::Deny,
            VendorPolicy::Safari => PolicyVerdict::Prompt,
            VendorPolicy::Firefox => {
                if facts.has_prior_interaction {
                    PolicyVerdict::AutoGrant
                } else {
                    PolicyVerdict::Prompt
                }
            }
            VendorPolicy::ChromeWithRws => {
                if rws_auto_grant(facts) {
                    PolicyVerdict::AutoGrant
                } else {
                    PolicyVerdict::Prompt
                }
            }
        }
    }
}

/// The Related Website Sets auto-grant rule: the two sites must be members
/// of the same set, and a *service* site can never be the top-level site of
/// a grant (service sites exist to support other members, and users are not
/// expected to visit them directly). Additionally, a service site embedded
/// as the requester is only auto-granted once the user has interacted with
/// some member of the set — modelled here through
/// [`AccessFacts::has_prior_interaction`], which the browser sets when any
/// member of the embedded site's set has been visited first-party.
fn rws_auto_grant(facts: AccessFacts) -> bool {
    match facts.same_set_roles {
        None => false,
        // The top level of the grant must not be a service site.
        Some((MemberRole::Service, _)) => false,
        // Service sites as the embedded requester need prior interaction
        // with the set; other member roles are granted outright.
        Some((_, MemberRole::Service)) => facts.has_prior_interaction,
        Some(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_domain::DomainName;
    use rws_model::RwsSet;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn list() -> RwsList {
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "sister brand")
            .unwrap();
        set.add_service("https://bildstatic.de", "cdn").unwrap();
        RwsList::from_sets(vec![set]).unwrap()
    }

    fn request(top: &str, embedded: &str, interacted: bool) -> AccessRequest {
        AccessRequest {
            top_level_site: dn(top),
            embedded_site: dn(embedded),
            has_prior_interaction: interacted,
        }
    }

    #[test]
    fn chrome_rws_auto_grants_within_set() {
        let l = list();
        let p = VendorPolicy::ChromeWithRws;
        assert_eq!(
            p.verdict(&request("bild.de", "autobild.de", false), &l),
            PolicyVerdict::AutoGrant
        );
        assert_eq!(
            p.verdict(&request("autobild.de", "bild.de", false), &l),
            PolicyVerdict::AutoGrant
        );
    }

    #[test]
    fn chrome_rws_prompts_outside_set() {
        let l = list();
        let p = VendorPolicy::ChromeWithRws;
        assert_eq!(
            p.verdict(&request("bild.de", "unrelated-tracker.com", false), &l),
            PolicyVerdict::Prompt
        );
        assert_eq!(
            p.verdict(&request("news-site.com", "other-tracker.com", true), &l),
            PolicyVerdict::Prompt
        );
    }

    #[test]
    fn service_site_rules() {
        let l = list();
        let p = VendorPolicy::ChromeWithRws;
        // Service site as the top level of a grant: never auto-granted.
        assert_eq!(
            p.verdict(&request("bildstatic.de", "bild.de", true), &l),
            PolicyVerdict::Prompt
        );
        // Service site embedded: auto-granted only after set interaction.
        assert_eq!(
            p.verdict(&request("bild.de", "bildstatic.de", false), &l),
            PolicyVerdict::Prompt
        );
        assert_eq!(
            p.verdict(&request("bild.de", "bildstatic.de", true), &l),
            PolicyVerdict::AutoGrant
        );
    }

    #[test]
    fn firefox_requires_interaction_for_auto_grant() {
        let l = list();
        let p = VendorPolicy::Firefox;
        assert_eq!(
            p.verdict(&request("news-site.com", "widget.com", true), &l),
            PolicyVerdict::AutoGrant
        );
        assert_eq!(
            p.verdict(&request("news-site.com", "widget.com", false), &l),
            PolicyVerdict::Prompt
        );
    }

    #[test]
    fn safari_always_prompts_and_brave_always_denies() {
        let l = list();
        for interacted in [false, true] {
            assert_eq!(
                VendorPolicy::Safari.verdict(&request("bild.de", "autobild.de", interacted), &l),
                PolicyVerdict::Prompt
            );
            assert_eq!(
                VendorPolicy::Brave.verdict(&request("bild.de", "autobild.de", interacted), &l),
                PolicyVerdict::Deny
            );
        }
    }

    #[test]
    fn legacy_chrome_never_partitions() {
        let l = list();
        assert!(!VendorPolicy::ChromeLegacy.partitions_by_default());
        assert_eq!(
            VendorPolicy::ChromeLegacy.verdict(&request("anything.com", "tracker.com", false), &l),
            PolicyVerdict::AutoGrant
        );
        for v in [
            VendorPolicy::ChromeWithRws,
            VendorPolicy::Firefox,
            VendorPolicy::Safari,
            VendorPolicy::Brave,
        ] {
            assert!(v.partitions_by_default(), "{} should partition", v.name());
        }
    }

    #[test]
    fn vendor_names_unique() {
        let mut names: Vec<&str> = VendorPolicy::ALL.iter().map(|v| v.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
