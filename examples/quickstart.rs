//! Quickstart: build a small Related Website Set, validate it the way the
//! GitHub bot would, and watch Chrome's RWS policy grant an embedded member
//! access to unpartitioned storage.
//!
//! Run with: `cargo run --example quickstart`

use rws_browser::{Browser, PromptBehaviour, VendorPolicy};
use rws_domain::{DomainName, SiteResolver};
use rws_model::{RwsList, RwsSet, SetValidator, WellKnownFile};
use rws_net::{SimulatedWeb, SiteHost, WELL_KNOWN_RWS_PATH};

fn main() {
    // 1. Describe a Related Website Set: a news publisher, its automotive
    //    sister brand and its asset CDN.
    let mut set = RwsSet::new("https://bild.de").expect("valid primary");
    set.set_contact("webmaster@bild.de");
    set.add_associated(
        "https://autobild.de",
        "Automotive news brand of the same publisher",
    )
    .expect("valid associated site");
    set.add_service(
        "https://bildstatic.de",
        "Static asset CDN for all BILD properties",
    )
    .expect("valid service site");

    // 2. Stand up the members on a simulated web, each serving its
    //    .well-known/related-website-set.json file.
    let mut web = SimulatedWeb::new();
    for member in set.domains() {
        let mut host = SiteHost::for_domain(member.clone());
        host.add_page("/", format!("<html><body><h1>{member}</h1></body></html>"));
        let well_known = if &member == set.primary() {
            WellKnownFile::for_primary(&set)
        } else {
            WellKnownFile::for_member(set.primary())
        };
        host.add_json(WELL_KNOWN_RWS_PATH, well_known.to_json_string());
        if member.as_str() == "bildstatic.de" {
            host.add_header("/", "X-Robots-Tag", "noindex");
            host.add_header(WELL_KNOWN_RWS_PATH, "X-Robots-Tag", "noindex");
        }
        web.register(host);
    }

    // 3. Run the automated validation the submission bot performs.
    let validator = SetValidator::new(web, SiteResolver::embedded());
    let report = validator.validate(&set);
    println!(
        "validation outcome for {}: {:?}",
        report.primary, report.outcome
    );
    for issue in &report.issues {
        println!("  bot message: {}", issue.bot_message());
    }
    println!("  network fetches performed: {}", report.fetches);

    // 4. Load the set into a Chrome-with-RWS browser profile and exercise
    //    the storage-access exception.
    let list = RwsList::from_sets(vec![set]).expect("disjoint set");
    let mut browser = Browser::new(VendorPolicy::ChromeWithRws, list);
    browser.set_prompt_behaviour(PromptBehaviour::AlwaysDecline);

    let primary = DomainName::parse("bild.de").unwrap();
    let associated = DomainName::parse("autobild.de").unwrap();
    let outsider = DomainName::parse("tracker.example").unwrap();

    // The user logs in on autobild.de, which stores an identifier.
    browser.visit(&associated).set("session", "user-42");

    // autobild.de embedded on bild.de: auto-granted because they share a set.
    let related = browser.embed_with_storage_access_request(&primary, &associated);
    println!("autobild.de embedded on bild.de -> {related:?}");
    println!(
        "  identifier visible to the embedded frame: {:?}",
        browser
            .frame_storage_mut(&primary, &associated, related)
            .get("session")
    );

    // An unrelated tracker gets only partitioned storage.
    let unrelated = browser.embed_with_storage_access_request(&primary, &outsider);
    println!("tracker.example embedded on bild.de -> {unrelated:?}");
    println!("prompts shown to the user: {}", browser.prompts_shown());
}
