//! Cross-crate integration tests below the full-scenario level: the corpus
//! feeding the validator, the validator feeding the governance pipeline, the
//! list feeding the browser, and the canonical JSON round-tripping through
//! the simulated web.

use rws_browser::{Browser, VendorPolicy};
use rws_classify::CategoryDatabase;
use rws_corpus::{CorpusConfig, CorpusGenerator, SiteRole};
use rws_domain::{DomainName, PublicSuffixList};
use rws_engine::EngineContext;
use rws_model::{list_from_json, list_to_json, SetValidator, WellKnownFile};
use rws_net::{Fetcher, Url, WELL_KNOWN_RWS_PATH};

fn small_corpus(seed: u64) -> rws_corpus::Corpus {
    CorpusGenerator::new(CorpusConfig::small(seed)).generate_with(&EngineContext::embedded())
}

#[test]
fn generated_well_known_files_are_fetchable_and_consistent() {
    let corpus = small_corpus(101);
    let fetcher = Fetcher::new(corpus.web.clone());
    for set in corpus.list.sets() {
        for member in set.domains() {
            let live = corpus.site(&member).map(|s| s.live).unwrap_or(false);
            if !live {
                continue;
            }
            let url = Url::https(&member, WELL_KNOWN_RWS_PATH);
            let response = fetcher
                .get(&url)
                .expect("live member serves its well-known file");
            assert!(
                response.status.is_success(),
                "{member}: {}",
                response.status
            );
            let file = WellKnownFile::from_json_str(&response.body_text()).expect("valid JSON");
            assert!(
                file.matches_submission(set),
                "{member} well-known disagrees with its set"
            );
        }
    }
}

#[test]
fn corpus_list_round_trips_through_canonical_json() {
    let corpus = small_corpus(102);
    let json = list_to_json(&corpus.list);
    let text = serde_json::to_string_pretty(&json).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    let back = list_from_json(&parsed).unwrap();
    assert_eq!(back.set_count(), corpus.list.set_count());
    assert_eq!(back.domain_count(), corpus.list.domain_count());
    for domain in corpus.list.all_domains() {
        assert_eq!(back.role_of(&domain), corpus.list.role_of(&domain));
    }
}

#[test]
fn validator_accepts_fully_live_generated_sets_and_rejects_tampered_ones() {
    let corpus = small_corpus(103);
    let validator = SetValidator::new(corpus.web.clone());
    let mut validated_clean = 0;
    for set in corpus.list.sets() {
        let all_live = set
            .domains()
            .iter()
            .all(|d| corpus.site(d).map(|s| s.live).unwrap_or(false));
        if !all_live {
            continue;
        }
        assert!(
            validator.validate(set).passed(),
            "set {} should pass",
            set.primary()
        );
        validated_clean += 1;

        // Tamper with the submission: add a member that serves nothing.
        let mut tampered = set.clone();
        tampered
            .add_associated("https://this-domain-serves-nothing.com", "broken")
            .unwrap();
        let report = validator.validate(&tampered);
        assert!(!report.passed());
        assert!(report
            .bot_messages()
            .contains(&"Unable to fetch .well-known JSON file"));
    }
    assert!(validated_clean > 0, "at least one fully-live set expected");
}

#[test]
fn browser_grants_follow_the_generated_list() {
    let corpus = small_corpus(104);
    let psl = PublicSuffixList::embedded();
    let mut browser = Browser::new(VendorPolicy::ChromeWithRws, corpus.list.clone());
    let pairs = corpus.list.member_primary_pairs();
    let mut granted = 0;
    for (primary, member, role) in pairs.iter().take(20) {
        if *role == rws_model::MemberRole::Service {
            continue;
        }
        // Same-site members (a ccTLD variant can never be same-site with its
        // primary, but be safe) are trivially unpartitioned.
        if psl.same_site(primary, member) {
            continue;
        }
        let outcome = browser.embed_with_storage_access_request(primary, member);
        assert!(
            outcome.has_unpartitioned_access(),
            "{member} should be granted under {primary}"
        );
        granted += 1;
    }
    assert!(granted > 0);

    // A top site outside the list never gets an auto-grant.
    let top_site = corpus
        .sites
        .values()
        .find(|s| s.role == SiteRole::TopSite)
        .map(|s| s.domain.clone())
        .unwrap();
    let primary = corpus.list.sets().next().unwrap().primary().clone();
    let outcome = browser.embed_with_storage_access_request(&primary, &top_site);
    assert!(!outcome.has_unpartitioned_access());
}

#[test]
fn classifier_and_ground_truth_agree_on_most_live_sites() {
    let corpus = small_corpus(105);
    let classified = CategoryDatabase::classify_corpus_on(&corpus, &EngineContext::sequential());
    let truth = CategoryDatabase::from_ground_truth(&corpus);
    let agreement = classified.agreement_with(&truth);
    assert!(
        agreement > 0.45,
        "classifier agreement with ground truth is only {agreement:.2}"
    );
}

#[test]
fn site_as_privacy_boundary_examples_from_the_paper() {
    // Section 2's worked examples, checked against the PSL machinery.
    let psl = PublicSuffixList::embedded();
    let facebook = DomainName::parse("facebook.com").unwrap();
    let mayoclinic = DomainName::parse("mayoclinic.com").unwrap();
    let eff = DomainName::parse("eff.org").unwrap();
    let act_eff = DomainName::parse("act.eff.org").unwrap();
    assert!(!psl.same_site(&facebook, &mayoclinic));
    assert!(psl.same_site(&eff, &act_eff));
    // a.example.com is not a third party with respect to example.com — the
    // misunderstanding behind the "associated site isn't an eTLD+1" errors.
    let example = DomainName::parse("example.com").unwrap();
    let sub = DomainName::parse("a.example.com").unwrap();
    assert!(psl.same_site(&example, &sub));
    assert!(!psl.is_etld_plus_one(&sub));
}
