//! The tracker scenario from Section 2 of the paper, replayed across every
//! vendor policy: how many of a user's page visits can an embedded third
//! party link together, with and without Related Website Sets?
//!
//! Run with: `cargo run --example partitioning_demo`

use rws_browser::{linkability_report, PromptBehaviour, VendorPolicy};
use rws_domain::{DomainName, SiteResolver};
use rws_model::{RwsList, RwsSet};

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("static domain is valid")
}

fn main() {
    // An RWS set operated by one publisher, including an in-house analytics
    // property (the paper calls out ya.ru including webvisor.com).
    let mut set = RwsSet::new("https://bild.de").unwrap();
    set.add_associated("https://autobild.de", "Automotive sister brand")
        .unwrap();
    set.add_associated("https://computerbild.de", "IT sister brand")
        .unwrap();
    set.add_associated("https://bildanalytics.de", "In-house web analytics")
        .unwrap();
    let list = RwsList::from_sets(vec![set]).unwrap();

    // The user's browsing trace: three sites of the publisher plus two
    // independent sites.
    let trace = vec![
        dn("bild.de"),
        dn("autobild.de"),
        dn("computerbild.de"),
        dn("independent-news.com"),
        dn("independent-shop.com"),
    ];

    println!(
        "trace: {} page visits, tracker embedded on every page\n",
        trace.len()
    );

    for tracker in [dn("bildanalytics.de"), dn("thirdparty-tracker.com")] {
        println!("tracker: {tracker}");
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>9}",
            "vendor", "linkable pairs", "total pairs", "largest", "prompts"
        );
        for vendor in VendorPolicy::ALL {
            let report = linkability_report(
                vendor,
                &list,
                &trace,
                &tracker,
                PromptBehaviour::AlwaysDecline,
                &SiteResolver::embedded(),
            );
            println!(
                "{:<16} {:>14} {:>14} {:>10} {:>9}",
                report.vendor,
                report.linkable_pairs,
                report.total_pairs,
                report.largest_linked_cluster,
                report.prompts_shown
            );
        }
        println!();
    }

    println!(
        "Reading: chrome-legacy links everything (no partitioning); brave/safari/firefox link \
         nothing when prompts are declined; chrome-rws re-links exactly the visits inside the \
         Related Website Set when the tracker is itself a set member."
    );
}
