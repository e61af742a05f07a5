//! Property tests for the corpus's frozen page store, across corpus seeds.
//!
//! * `Corpus::with_html` (borrowed view) ≡ `Corpus::html_of` (the owned
//!   compatibility wrapper, the pre-frozen-store oracle) on every site;
//! * the frozen snapshot serves every corpus URL identically to a
//!   `SimulatedWeb` over it;
//! * freezing happens by construction: every generated host is in the
//!   snapshot, and writes to a web over it never disturb it.

use proptest::prelude::*;
use rws_corpus::{CorpusConfig, CorpusGenerator};
use rws_engine::EngineContext;
use rws_net::{ServedPage, SimulatedWeb, SiteHost, Url, WELL_KNOWN_RWS_PATH};

proptest! {
    /// Borrowed page views agree with the owned oracle on every site of
    /// corpora generated from arbitrary seeds.
    #[test]
    fn with_html_matches_html_of_across_seeds(seed in 0u64..1_000_000) {
        let corpus = CorpusGenerator::new(CorpusConfig::small(seed % 97)).generate_with(&EngineContext::embedded());
        for domain in corpus.sites.keys() {
            prop_assert_eq!(
                corpus.with_html(domain, str::to_string),
                corpus.html_of(domain),
                "borrowed/owned divergence on {}", domain
            );
            prop_assert_eq!(
                corpus.page_html(domain).map(str::len),
                corpus.html_of(domain).map(|s| s.len())
            );
        }
    }

    /// The frozen store answers every corpus URL (front page, about page,
    /// well-known file) exactly as a web over it does, and writes to that
    /// web after generation leave the snapshot untouched.
    #[test]
    fn frozen_serves_match_the_web_across_seeds(seed in 0u64..1_000_000) {
        let corpus = CorpusGenerator::new(CorpusConfig::small(seed % 89)).generate_with(&EngineContext::embedded());
        prop_assert_eq!(corpus.sharded.host_count(), corpus.sites.len());

        let mut probes: Vec<Url> = Vec::new();
        for domain in corpus.sites.keys().take(60) {
            prop_assert!(corpus.sharded.has_host(domain));
            probes.push(Url::https(domain, "/"));
            probes.push(Url::https(domain, "/about"));
            probes.push(Url::https(domain, WELL_KNOWN_RWS_PATH));
        }
        let before: Vec<ServedPage> = probes.iter().map(|u| corpus.sharded.serve(u)).collect();
        let mut web = SimulatedWeb::from_frozen(corpus.sharded.clone());
        for (url, expected) in probes.iter().zip(&before) {
            prop_assert_eq!(&web.serve(url), expected, "divergence on {}", url);
        }

        // A post-generation registration (what the governance replay does
        // with defect hosts) is invisible to the snapshot, and to a clone
        // of the web taken before it.
        let clone = web.clone();
        let mut defect = SiteHost::new("defect-host.example.com").unwrap();
        defect.add_page("/", "half-configured");
        web.register(defect);
        let defect_domain = rws_domain::DomainName::parse("defect-host.example.com").unwrap();
        let defect_url = Url::https(&defect_domain, "/");
        prop_assert!(matches!(web.serve(&defect_url), ServedPage::Content { .. }));
        prop_assert_eq!(clone.serve(&defect_url), ServedPage::NoSuchHost);
        prop_assert!(!corpus.sharded.has_host(&defect_domain));
        for (url, expected) in probes.iter().zip(&before) {
            prop_assert_eq!(&corpus.sharded.serve(url), expected);
        }
    }
}
