//! Cross-site linkability measurement.
//!
//! The privacy harm the paper worries about is *linkability*: how many of a
//! user's page visits an embedded third party can join into one profile.
//! With full partitioning an embedder can link nothing across top-level
//! sites; without partitioning it links everything; Related Website Sets
//! sit in between, adding back exactly the links within each set. The
//! functions here quantify that for a browsing trace.

use crate::browser::{Browser, PromptBehaviour};
use crate::policy::{StorageAccessPolicy, VendorPolicy};
use rws_domain::{DomainName, SiteResolver};
use rws_model::RwsList;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One observation made by a tracker: it was embedded under a top-level
/// site and read some identifier from the storage it was given.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerObservation {
    /// The top-level site of the visit.
    pub top_level_site: DomainName,
    /// The identifier the tracker found (or minted) in its storage.
    pub identifier: String,
}

/// The result of replaying a browsing trace against one vendor policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkabilityReport {
    /// The vendor policy simulated.
    pub vendor: String,
    /// Number of distinct top-level sites visited with the tracker present.
    pub sites_visited: usize,
    /// Number of visit *pairs* the tracker can link (same identifier seen on
    /// both sites), out of `sites_visited * (sites_visited - 1) / 2`.
    pub linkable_pairs: usize,
    /// Total possible pairs.
    pub total_pairs: usize,
    /// Size of the largest set of sites joined under one identifier.
    pub largest_linked_cluster: usize,
    /// Number of storage-access prompts shown during the trace.
    pub prompts_shown: usize,
}

impl LinkabilityReport {
    /// Fraction of pairs linked, in `[0, 1]`. Zero when fewer than two sites
    /// were visited.
    pub fn linkability(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.linkable_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// Replay a browsing trace in which the user visits each of `top_level_sites`
/// once, and `tracker` is embedded on every one of them, calling
/// `requestStorageAccess` each time. Returns the linkability the tracker
/// achieves under the given vendor policy. Sites resolve through the
/// shared memoizing `resolver`: every browser in a sweep resolves the same
/// trace hosts, so one shared memo table answers all but the first
/// replay's lookups.
pub fn linkability_report(
    vendor: VendorPolicy,
    list: &RwsList,
    top_level_sites: &[DomainName],
    tracker: &DomainName,
    prompt_behaviour: PromptBehaviour,
    resolver: &SiteResolver,
) -> LinkabilityReport {
    let mut browser = Browser::with_resolver(vendor, list.clone(), resolver.clone());
    browser.set_prompt_behaviour(prompt_behaviour);

    // The user has visited the tracker's own site at some point in the past
    // (it holds a first-party identifier) — the standard tracking setup of
    // Section 2.
    browser
        .visit(tracker)
        .set("uid", "tracker-global-id".to_string());

    let mut observations: Vec<TrackerObservation> = Vec::new();
    for (i, site) in top_level_sites.iter().enumerate() {
        browser.visit(site);
        let outcome = browser.embed_with_storage_access_request(site, tracker);
        let storage = browser.frame_storage_mut(site, tracker, outcome);
        // The tracker reads its identifier, minting a fresh partition-local
        // one if none exists (what real trackers do).
        let id = match storage.get("uid") {
            Some(existing) => existing.to_string(),
            None => {
                let fresh = format!("partition-local-{i}");
                storage.set("uid", fresh.clone());
                fresh
            }
        };
        observations.push(TrackerObservation {
            top_level_site: site.clone(),
            identifier: id,
        });
    }

    summarise(vendor, &observations, browser.prompts_shown())
}

/// Summarise a set of tracker observations into a report.
fn summarise(
    vendor: VendorPolicy,
    observations: &[TrackerObservation],
    prompts_shown: usize,
) -> LinkabilityReport {
    let mut by_identifier: BTreeMap<&str, usize> = BTreeMap::new();
    for obs in observations {
        *by_identifier.entry(obs.identifier.as_str()).or_insert(0) += 1;
    }
    let n = observations.len();
    let total_pairs = n * n.saturating_sub(1) / 2;
    let linkable_pairs: usize = by_identifier
        .values()
        .map(|&c| c * c.saturating_sub(1) / 2)
        .sum();
    let largest = by_identifier.values().copied().max().unwrap_or(0);
    LinkabilityReport {
        vendor: vendor.name().to_string(),
        sites_visited: n,
        linkable_pairs,
        total_pairs,
        largest_linked_cluster: largest,
        prompts_shown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_model::RwsSet;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn rws_list() -> RwsList {
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "sister").unwrap();
        set.add_associated("https://computerbild.de", "sister")
            .unwrap();
        RwsList::from_sets(vec![set]).unwrap()
    }

    fn trace() -> Vec<DomainName> {
        vec![
            dn("bild.de"),
            dn("autobild.de"),
            dn("computerbild.de"),
            dn("unrelated-news.com"),
            dn("unrelated-shop.com"),
        ]
    }

    #[test]
    fn legacy_browser_links_everything() {
        let report = linkability_report(
            VendorPolicy::ChromeLegacy,
            &rws_list(),
            &trace(),
            &dn("tracker.example"),
            PromptBehaviour::AlwaysDecline,
            &SiteResolver::embedded(),
        );
        assert_eq!(report.sites_visited, 5);
        assert_eq!(report.total_pairs, 10);
        assert_eq!(
            report.linkable_pairs, 10,
            "no partitioning links every pair"
        );
        assert_eq!(report.largest_linked_cluster, 5);
        assert!((report.linkability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partitioning_browser_links_nothing_for_outside_tracker() {
        for vendor in [
            VendorPolicy::Brave,
            VendorPolicy::Safari,
            VendorPolicy::ChromeWithRws,
        ] {
            let report = linkability_report(
                vendor,
                &rws_list(),
                &trace(),
                &dn("tracker.example"),
                PromptBehaviour::AlwaysDecline,
                &SiteResolver::embedded(),
            );
            assert_eq!(
                report.linkable_pairs,
                0,
                "{} should not link an unrelated tracker's visits",
                vendor.name()
            );
        }
    }

    #[test]
    fn rws_member_tracker_links_within_its_set_under_chrome() {
        // The tracker is bild.de's own associated analytics property: under
        // Chrome+RWS its embeds on set members are auto-granted, linking
        // exactly the within-set visits.
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "sister").unwrap();
        set.add_associated("https://bildanalytics.de", "in-house analytics")
            .unwrap();
        let list = RwsList::from_sets(vec![set]).unwrap();
        let sites = vec![dn("bild.de"), dn("autobild.de"), dn("independent-news.com")];
        let report = linkability_report(
            VendorPolicy::ChromeWithRws,
            &list,
            &sites,
            &dn("bildanalytics.de"),
            PromptBehaviour::AlwaysDecline,
            &SiteResolver::embedded(),
        );
        // bild.de ↔ autobild.de linkable (both in the set); the independent
        // site is not.
        assert_eq!(report.linkable_pairs, 1);
        assert_eq!(report.largest_linked_cluster, 2);
        assert!(report.linkability() > 0.0 && report.linkability() < 1.0);

        // The same trace under Brave links nothing.
        let brave = linkability_report(
            VendorPolicy::Brave,
            &list,
            &sites,
            &dn("bildanalytics.de"),
            PromptBehaviour::AlwaysDecline,
            &SiteResolver::embedded(),
        );
        assert_eq!(brave.linkable_pairs, 0);
    }

    #[test]
    fn accepting_prompts_restores_linkability_in_prompting_browsers() {
        let report = linkability_report(
            VendorPolicy::Safari,
            &rws_list(),
            &trace(),
            &dn("tracker.example"),
            PromptBehaviour::AlwaysAccept,
            &SiteResolver::embedded(),
        );
        assert_eq!(report.linkable_pairs, report.total_pairs);
        assert_eq!(report.prompts_shown, 5);
    }

    #[test]
    fn empty_trace_has_zero_linkability() {
        let report = linkability_report(
            VendorPolicy::ChromeLegacy,
            &RwsList::new(),
            &[],
            &dn("tracker.example"),
            PromptBehaviour::AlwaysDecline,
            &SiteResolver::embedded(),
        );
        assert_eq!(report.linkability(), 0.0);
        assert_eq!(report.sites_visited, 0);
    }

    #[test]
    fn summarise_counts_clusters() {
        let obs = vec![
            TrackerObservation {
                top_level_site: dn("a.com"),
                identifier: "x".into(),
            },
            TrackerObservation {
                top_level_site: dn("b.com"),
                identifier: "x".into(),
            },
            TrackerObservation {
                top_level_site: dn("c.com"),
                identifier: "y".into(),
            },
        ];
        let report = summarise(VendorPolicy::ChromeWithRws, &obs, 0);
        assert_eq!(report.linkable_pairs, 1);
        assert_eq!(report.total_pairs, 3);
        assert_eq!(report.largest_linked_cluster, 2);
    }
}
