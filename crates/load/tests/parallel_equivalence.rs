//! Pooled ≡ sequential equivalence gates for the load engine.
//!
//! Mirrors the convention of `crates/analysis/tests/parallel_equivalence.rs`
//! and `crates/survey/tests/parallel_equivalence.rs`: fanning client chunks
//! out across the pool changes wall-clock time and nothing else. Three
//! executions must agree **field for field** (`LoadReport` derives a full
//! `PartialEq`, histogram buckets included):
//!
//! * the pooled event-loop run (`run_on` with a pooled context),
//! * its sequential twin (`run_on` with `sequential_twin`),
//! * the straight one-client-at-a-time oracle (`replay_sequential_with`),
//!   which shares no event-loop or chunking code with `run_on`.

use proptest::prelude::*;
use rws_corpus::{CorpusConfig, CorpusGenerator};
use rws_domain::SiteResolver;
use rws_engine::EngineContext;
use rws_load::{LoadEngine, LoadScale, LoadTarget};
use rws_model::RwsList;
use rws_net::{SimulatedWeb, SiteHost};
use rws_stats::pool::ThreadPool;

/// A small hand-built universe: cheap enough to replay three times per
/// proptest case.
fn tiny_engine(clients: usize) -> LoadEngine {
    let mut web = SimulatedWeb::new();
    for name in [
        "alpha.com",
        "beta.com",
        "gamma.com",
        "delta.org",
        "epsilon.net",
    ] {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>front page</body></html>");
        host.add_page("/about", "<html><body>about page</body></html>");
        web.register(host);
    }
    let target = LoadTarget::from_frozen(web.freeze(), RwsList::default());
    let scale = LoadScale {
        clients,
        mean_visits: 5,
        think_time_ms: 250,
        ramp_ms: 3_000,
    };
    LoadEngine::new(target, scale)
}

/// A corpus-backed engine: real RWS sets (so `chrome-rws` auto-grants can
/// fire), `.well-known` files, and the generator's ~1.5% offline member
/// hosts (so error traffic exists).
fn corpus_engine(seed: u64) -> LoadEngine {
    let corpus =
        CorpusGenerator::new(CorpusConfig::small(seed)).generate_with(&EngineContext::embedded());
    LoadEngine::new(LoadTarget::from_corpus_sharded(&corpus), LoadScale::smoke())
}

proptest! {
    /// Pooled run == sequential twin == straight replay, for arbitrary
    /// seeds on the hand-built universe.
    #[test]
    fn pooled_equals_sequential_across_seeds(seed in 0u64..1_000_000) {
        let engine = tiny_engine(48);
        let ctx = EngineContext::new();
        let pooled = engine.run_on(seed, &ctx);
        let sequential = engine.run_on(seed, &ctx.sequential_twin());
        prop_assert_eq!(&pooled, &sequential);
        let replay = engine.replay_sequential_with(seed, &SiteResolver::full());
        prop_assert_eq!(&pooled, &replay);
    }
}

/// The full corpus-backed equivalence over a fixed seed panel (corpus
/// generation is too heavy for 48 proptest cases).
#[test]
fn corpus_backed_equivalence_panel() {
    for seed in [1u64, 17, 4242] {
        let engine = corpus_engine(seed % 97);
        let ctx = EngineContext::new();
        let pooled = engine.run_on(seed, &ctx);
        let sequential = engine.run_on(seed, &ctx.sequential_twin());
        assert_eq!(pooled, sequential, "pooled vs twin, seed {seed}");
        let replay = engine.replay_sequential_with(seed, &SiteResolver::full());
        assert_eq!(pooled, replay, "pooled vs replay oracle, seed {seed}");
        // Sanity: the corpus workload actually exercises the interesting
        // paths — sets auto-grant somewhere, some member hosts are down.
        assert!(pooled.fetch_calls > 1000, "seed {seed}");
        assert!(pooled.vendors[0].auto_grant > 0, "no RWS auto-grants");
        assert!(pooled.well_known_probes > 0);
        assert!(pooled.redirects_followed > 0);
    }
}

/// Forced multi-worker pool (the machine running CI may be single-core,
/// where the global pool has zero workers and drains inline — this pins
/// real cross-thread execution), matching the `with_parts` convention of
/// the survey and classify equivalence suites.
#[test]
fn forced_three_worker_pool_matches_replay() {
    let engine = tiny_engine(200);
    let ctx = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::full());
    let pooled = engine.run_on(99, &ctx);
    let replay = engine.replay_sequential_with(99, &SiteResolver::full());
    assert_eq!(pooled, replay);
    assert_eq!(pooled.sessions, 200);
    assert!(pooled.wire_requests > 0);
}

/// Error traffic aggregates identically too: target a universe where some
/// hosts are offline so every run records connection-refused classes.
#[test]
fn error_classes_aggregate_identically() {
    let mut web = SimulatedWeb::new();
    for (i, name) in ["up.com", "down.com", "flaky.org", "solid.net"]
        .iter()
        .enumerate()
    {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>x</body></html>");
        if i == 1 {
            host.set_offline(true);
        }
        web.register(host);
    }
    let target = LoadTarget::from_frozen(web.freeze(), RwsList::default());
    let scale = LoadScale {
        clients: 80,
        mean_visits: 6,
        think_time_ms: 100,
        ramp_ms: 1_000,
    };
    let engine = LoadEngine::new(target, scale);
    let ctx = EngineContext::new();
    let pooled = engine.run_on(7, &ctx);
    assert!(
        pooled.errors.get("connection-refused") > 0,
        "offline host never hit"
    );
    assert_eq!(pooled, engine.run_on(7, &ctx.sequential_twin()));
    assert_eq!(
        pooled,
        engine.replay_sequential_with(7, &SiteResolver::full())
    );
}
