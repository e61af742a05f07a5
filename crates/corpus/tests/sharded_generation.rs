//! Sharded generation is observationally invisible.
//!
//! Contracts, across arbitrary corpus seeds:
//!
//! * generating into any shard count {1, 2, 7, 16} produces the *same
//!   corpus* — specs, list, tranco ranking and every page byte — as the
//!   single-shard baseline (the shard count is an execution detail and
//!   must never reach an output byte);
//! * generating on a forced 3-worker pool equals sequential generation
//!   (the repo's pooled-equivalence convention: the global pool on a
//!   single-core CI box drains inline, so the pool is forced).

use proptest::prelude::*;
use rws_corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_engine::{EngineContext, SiteResolver, ThreadPool};
use rws_net::{Url, WELL_KNOWN_RWS_PATH};

const SHARD_COUNTS: &[usize] = &[1, 2, 7, 16];

/// A deliberately tiny corpus: the sweep generates it several times per
/// proptest case.
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
            "page divergence on {} ({} shards)",
            &url,
            candidate.sharded.shard_count()
        );
    }
}

proptest! {
    /// Sharded ≡ unsharded generation: every shard count produces the
    /// byte-identical corpus.
    #[test]
    fn any_shard_count_generates_the_identical_corpus(seed in 0u64..1_000_000) {
        let config = tiny_config(seed % 83);
        let ctx = EngineContext::embedded();
        let baseline = CorpusGenerator::new(config).with_shards(1).generate_with(&ctx);
        prop_assert_eq!(baseline.sharded.shard_count(), 1);
        for &count in &SHARD_COUNTS[1..] {
            let candidate = CorpusGenerator::new(config).with_shards(count).generate_with(&ctx);
            prop_assert_eq!(candidate.sharded.shard_count(), count);
            assert_same_corpus(&baseline, &candidate);
        }
    }

    /// Pooled sharded generation ≡ sequential: a forced 3-worker pool
    /// renders shards concurrently yet lands on the same bytes, across
    /// seeds and a non-power-of-two shard count.
    #[test]
    fn pooled_generation_matches_sequential_across_seeds(seed in 0u64..1_000_000) {
        let config = tiny_config(seed % 89);
        let pooled_ctx = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::embedded());
        let inline_ctx = EngineContext::embedded().sequential_twin();
        for &count in &[7usize, 8] {
            let generator = CorpusGenerator::new(config).with_shards(count);
            let pooled = generator.generate_with(&pooled_ctx);
            let sequential = generator.generate_with(&inline_ctx);
            assert_same_corpus(&sequential, &pooled);
        }
    }
}
