//! Load runs are independent of the store's shard count.
//!
//! A `LoadTarget` reads every fetch shard-then-host through the corpus's
//! [`FrozenWeb`](rws_net::FrozenWeb). The shard count is an execution
//! detail, so a 7-shard target must serve the same snapshot as a 1-shard
//! target and a replay over either must produce the identical
//! `LoadReport` — sequentially and on a forced 3-worker pool (the repo's
//! convention: single-core CI drains the global pool inline, so the pool
//! is forced).

use rws_corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_engine::{EngineContext, SiteResolver, ThreadPool};
use rws_load::{LoadEngine, LoadScale, LoadTarget};
use rws_net::Url;

fn corpus_with_shards(seed: u64, shards: usize) -> Corpus {
    CorpusGenerator::new(CorpusConfig::small(seed))
        .with_shards(shards)
        .generate_with(&EngineContext::embedded())
}

#[test]
fn seven_shard_target_mirrors_the_one_shard_target() {
    let one = LoadTarget::from_corpus_sharded(&corpus_with_shards(11, 1));
    let seven = LoadTarget::from_corpus_sharded(&corpus_with_shards(11, 7));

    assert_eq!(one.shard_count(), 1);
    assert_eq!(seven.shard_count(), 7);
    assert_eq!(one.hosts(), seven.hosts());
    assert_eq!(one.vanity(), seven.vanity());

    // Both targets serve the identical snapshot: every universe front page
    // and every vanity redirect, byte for byte, through the store and
    // through a fetcher's web.
    let (one_store, seven_store) = (one.sharded().unwrap(), seven.sharded().unwrap());
    let (one_fetcher, seven_fetcher) = (one.fetcher(), seven.fetcher());
    for host in one.hosts().iter().chain(one.vanity()) {
        let url = Url::https(host, "/");
        assert_eq!(
            one_store.serve(&url),
            seven_store.serve(&url),
            "store divergence on {url}"
        );
        assert_eq!(
            one_fetcher.get(&url),
            seven_fetcher.get(&url),
            "fetch divergence on {url}"
        );
    }
}

#[test]
fn load_replay_over_seven_shards_equals_one_shard_replay() {
    for seed in [3u64, 71] {
        let one = LoadEngine::new(
            LoadTarget::from_corpus_sharded(&corpus_with_shards(seed % 13, 1)),
            LoadScale::smoke(),
        );
        let seven = LoadEngine::new(
            LoadTarget::from_corpus_sharded(&corpus_with_shards(seed % 13, 7)),
            LoadScale::smoke(),
        );

        let pooled_ctx = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::full());
        let inline_ctx = pooled_ctx.sequential_twin();

        let baseline = one.run_on(seed, &inline_ctx);
        assert_eq!(
            seven.run_on(seed, &inline_ctx),
            baseline,
            "sequential 7 shards vs 1 shard, seed {seed}"
        );
        assert_eq!(
            seven.run_on(seed, &pooled_ctx),
            baseline,
            "pooled 7 shards vs sequential 1 shard, seed {seed}"
        );
        assert!(baseline.fetch_calls > 0);
        assert!(baseline.redirects_followed > 0);
    }
}
