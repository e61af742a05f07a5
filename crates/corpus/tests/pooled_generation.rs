//! Pooled generation is observationally invisible.
//!
//! Contract, across arbitrary corpus seeds: generating on a forced
//! 3-worker pool produces the *same corpus* — specs, list, tranco ranking
//! and every page byte — as sequential generation (the repo's
//! pooled-equivalence convention: the global pool on a single-core CI box
//! drains inline, so the pool is forced).

use proptest::prelude::*;
use rws_corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_engine::{EngineContext, SiteResolver, ThreadPool};
use rws_net::{Url, WELL_KNOWN_RWS_PATH};
use std::sync::OnceLock;

/// A deliberately tiny corpus: each proptest case generates it twice.
fn tiny_config(seed: u64) -> CorpusConfig {
    CorpusConfig {
        organisations: 6,
        top_sites: 40,
        ..CorpusConfig::small(seed)
    }
}

/// Probe URLs covering every host's front page, about page and well-known
/// file.
fn probes(corpus: &Corpus) -> Vec<Url> {
    let mut urls = Vec::new();
    for domain in corpus.sites.keys() {
        urls.push(Url::https(domain, "/"));
        urls.push(Url::https(domain, "/about"));
        urls.push(Url::https(domain, WELL_KNOWN_RWS_PATH));
    }
    urls
}

/// Field-for-field corpus equality: structured outputs by `==`, the page
/// store by serving every probe URL from both snapshots.
fn assert_same_corpus(baseline: &Corpus, candidate: &Corpus) {
    prop_assert_eq!(&baseline.config, &candidate.config);
    prop_assert_eq!(&baseline.organisations, &candidate.organisations);
    prop_assert_eq!(&baseline.sites, &candidate.sites);
    prop_assert_eq!(&baseline.list, &candidate.list);
    prop_assert_eq!(&baseline.tranco, &candidate.tranco);
    prop_assert_eq!(baseline.sharded.hosts(), candidate.sharded.hosts());
    for url in probes(baseline) {
        prop_assert_eq!(
            &baseline.sharded.serve(&url),
            &candidate.sharded.serve(&url),
            "page divergence on {}",
            &url
        );
    }
}

/// The forced 3-worker context, built once: pools never shut down, so one
/// pool serves every case.
fn pooled_ctx() -> &'static EngineContext {
    static POOLED: OnceLock<EngineContext> = OnceLock::new();
    POOLED.get_or_init(|| EngineContext::with_parts(ThreadPool::new(3), SiteResolver::embedded()))
}

proptest! {
    /// Pooled generation ≡ sequential: a forced 3-worker pool renders
    /// chunks concurrently yet lands on the same bytes, across seeds.
    #[test]
    fn pooled_generation_matches_sequential_across_seeds(seed in 0u64..1_000_000) {
        let config = tiny_config(seed % 89);
        let inline_ctx = EngineContext::embedded().sequential_twin();
        let generator = CorpusGenerator::new(config);
        let pooled = generator.generate_with(pooled_ctx());
        let sequential = generator.generate_with(&inline_ctx);
        assert_same_corpus(&sequential, &pooled);
    }
}
