//! The load engine's id-table verdicts equal the browser's list verdicts.
//!
//! A load run decides storage access from its `RunTables`: each site id's
//! `(set index, role)` gives the `AccessFacts` the vendor rules read. The
//! browser crate derives the same facts by looking names up in the
//! `RwsList`. Over generated lists with members of every role, hosts on
//! subdomains and hosts outside every set, both derivations must give the
//! same facts, and so every vendor the same verdict, for every pair of
//! sites the run can name and both interaction flags.

use proptest::prelude::*;
use rws_browser::{AccessFacts, AccessRequest, StorageAccessPolicy, VendorPolicy};
use rws_domain::SiteResolver;
use rws_load::{LoadTarget, RunTables};
use rws_model::{RwsList, RwsSet};
use rws_net::{SimulatedWeb, SiteHost};

/// Per set: associated, service and ccTLD member counts.
fn layout_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..3, 0usize..3), 1..5)
}

/// The list a layout describes, over distinct `site{i}` names; ccTLD
/// variants hang off the primary under `.de`. Returns the list and every
/// member domain.
fn build_list(layout: &[(usize, usize, usize)]) -> (RwsList, Vec<String>) {
    let mut next = 0usize;
    let mut take = |tld: &str| {
        next += 1;
        format!("site{next}.{tld}")
    };
    let mut sets = Vec::new();
    let mut members = Vec::new();
    for &(associated, service, cctld) in layout {
        let primary = take("com");
        let mut set = RwsSet::new(&format!("https://{primary}")).unwrap();
        members.push(primary.clone());
        for _ in 0..associated {
            let d = take("com");
            set.add_associated(&format!("https://{d}"), "affiliated brand")
                .unwrap();
            members.push(d);
        }
        for _ in 0..service {
            let d = take("net");
            set.add_service(&format!("https://{d}"), "supporting infrastructure")
                .unwrap();
            members.push(d);
        }
        let variants: Vec<String> = (0..cctld)
            .map(|_| format!("https://{}", take("de")))
            .collect();
        if !variants.is_empty() {
            let refs: Vec<&str> = variants.iter().map(String::as_str).collect();
            set.add_cctld_variants(&format!("https://{primary}"), &refs)
                .unwrap();
            members.extend(variants.iter().map(|v| v["https://".len()..].to_string()));
        }
        sets.push(set);
    }
    (RwsList::from_sets(sets).unwrap(), members)
}

/// A target serving every member (on a `www.` subdomain where `www` says
/// so, cycling) plus `outsiders` non-member hosts.
fn build_target(list: RwsList, members: &[String], www: &[bool], outsiders: usize) -> LoadTarget {
    let mut web = SimulatedWeb::new();
    let mut names: Vec<String> = members
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if www[i % www.len()] {
                format!("www.{d}")
            } else {
                d.clone()
            }
        })
        .collect();
    names.extend((0..outsiders).map(|i| format!("outsider{i}.org")));
    for name in names {
        let mut host = SiteHost::new(&name).unwrap();
        host.add_page("/", "<html><body>page</body></html>");
        web.register(host);
    }
    LoadTarget::from_frozen(web.freeze(), list)
}

proptest! {
    /// Table facts ≡ list facts, and each vendor's table verdict ≡ its
    /// `StorageAccessPolicy::verdict` on the named request, for every
    /// ordered pair of the run's sites and both interaction flags.
    #[test]
    fn table_verdicts_equal_list_verdicts(
        layout in layout_strategy(),
        www in proptest::collection::vec(any::<bool>(), 1..4),
        outsiders in 0usize..4,
    ) {
        let (list, members) = build_list(&layout);
        let target = build_target(list, &members, &www, outsiders);
        let tables = RunTables::new(&target, &SiteResolver::embedded());
        let served = target.hosts().len() + target.vanity().len();
        let mut sites: Vec<u32> = (0..served as u32).map(|h| tables.site_of(h)).collect();
        sites.sort_unstable();
        sites.dedup();
        let mut related_pairs = 0;
        for &top in &sites {
            for &embedded in &sites {
                for has_prior_interaction in [false, true] {
                    let facts = tables.facts(top, embedded, has_prior_interaction);
                    let request = AccessRequest {
                        top_level_site: tables.name(top).clone(),
                        embedded_site: tables.name(embedded).clone(),
                        has_prior_interaction,
                    };
                    prop_assert_eq!(facts, AccessFacts::of(&request, target.list()));
                    related_pairs += usize::from(facts.same_set_roles.is_some());
                    for vendor in VendorPolicy::ALL {
                        prop_assert_eq!(
                            vendor.decide(facts),
                            vendor.verdict(&request, target.list()),
                            "{} on {:?}",
                            vendor.name(),
                            request
                        );
                    }
                }
            }
        }
        // Every member is served, so each primary is related to itself.
        prop_assert!(related_pairs >= 2 * layout.len());
    }
}
