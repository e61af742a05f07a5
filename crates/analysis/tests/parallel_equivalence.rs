//! Parallel-vs-sequential equivalence gates for the staged pipeline.
//!
//! The engine's whole contract is that pooling changes wall-clock time and
//! nothing else: `Scenario::generate` on the pooled pipeline must equal the
//! sequential path **field by field** across seeds, and `run_all` must
//! return the same reports in the same order. These tests are the gate the
//! EngineContext refactor ships behind.

use proptest::prelude::*;
use rws_analysis::{PaperReproduction, Scenario, ScenarioConfig};
use rws_engine::EngineContext;

/// Field-by-field equality between two scenarios. `Corpus` holds the
/// simulated web (no `PartialEq`), so the corpus is compared through its
/// deterministic projections: the list, the site table, the Tranco ranking,
/// the rendered pages and the registered hosts (including the defect hosts
/// the history replay stood up).
fn assert_scenarios_identical(a: &Scenario, b: &Scenario) {
    assert_eq!(a.config, b.config, "config");
    assert_eq!(a.corpus.list, b.corpus.list, "corpus.list");
    assert_eq!(
        a.corpus.sites.keys().collect::<Vec<_>>(),
        b.corpus.sites.keys().collect::<Vec<_>>(),
        "corpus.sites keys"
    );
    let tranco = |s: &Scenario| {
        s.corpus
            .tranco
            .iter()
            .map(|e| e.domain.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(tranco(a), tranco(b), "corpus.tranco");
    assert_eq!(
        a.corpus.web.hosts(),
        b.corpus.web.hosts(),
        "corpus.web hosts (incl. defect-host side effects)"
    );
    for domain in a.corpus.list.all_domains().iter().take(8) {
        assert_eq!(
            a.corpus.html_of(domain),
            b.corpus.html_of(domain),
            "html of {domain}"
        );
    }
    assert_eq!(a.categories, b.categories, "categories");
    assert_eq!(a.history, b.history, "history");
    assert_eq!(a.pairs, b.pairs, "pairs");
    assert_eq!(a.survey, b.survey, "survey");
    assert_eq!(a.snapshots, b.snapshots, "snapshots");
    assert_eq!(a.latest_list(), b.latest_list(), "latest list");
}

proptest! {
    /// The pooled staged pipeline equals the sequential oracle on the
    /// corpus + history layers for arbitrary seeds (cheap enough to run
    /// under proptest's case count; the full scenario equality runs over a
    /// fixed seed panel below).
    #[test]
    fn corpus_and_history_match_sequential(seed in 0u64..1_000_000) {
        use rws_corpus::{CorpusConfig, CorpusGenerator};
        use rws_github::{HistoryConfig, HistoryGenerator};

        let pooled_ctx = EngineContext::new();
        let sequential_ctx = pooled_ctx.sequential_twin();
        let generator = CorpusGenerator::new(CorpusConfig {
            organisations: 6,
            top_sites: 40,
            ..CorpusConfig::small(seed)
        });
        let corpus_pooled = generator.generate_with(&pooled_ctx);
        let corpus_sequential = generator.generate_with(&sequential_ctx);
        prop_assert_eq!(&corpus_pooled.list, &corpus_sequential.list);
        prop_assert_eq!(corpus_pooled.web.hosts(), corpus_sequential.web.hosts());

        let history = HistoryGenerator::new(HistoryConfig {
            seed: seed ^ 0xF00D,
            never_successful_primaries: 4,
            ..HistoryConfig::default()
        });
        let pooled = history.generate_with(&corpus_pooled, &pooled_ctx);
        let sequential = history.generate_with(&corpus_sequential, &sequential_ctx);
        prop_assert_eq!(pooled, sequential);
    }
}

#[test]
fn scenario_generate_matches_sequential_across_seeds() {
    for seed in [3u64, 17, 61, 2024] {
        let config = ScenarioConfig::small(seed);
        let pooled = Scenario::generate_with(config, &EngineContext::new());
        let sequential = Scenario::generate_with(config, &EngineContext::sequential());
        assert_scenarios_identical(&pooled, &sequential);
    }
}

#[test]
fn run_all_reports_match_sequential_in_order_and_content() {
    let config = ScenarioConfig::small(61);
    let pooled = PaperReproduction::with_engine(config, EngineContext::new());
    let sequential = PaperReproduction::with_engine(config, EngineContext::sequential());
    let pooled_reports = pooled.run_all();
    let sequential_reports = sequential.run_all();
    assert_eq!(pooled_reports.len(), 12);
    assert_eq!(pooled_reports, sequential_reports);
    // And re-running on the same reproduction is stable (shared scenario).
    assert_eq!(pooled.run_all(), pooled_reports);
    assert_eq!(pooled.render_all(), sequential.render_all());
}

#[test]
fn scenario_engine_resolver_is_shared_and_warm() {
    let ctx = EngineContext::new();
    let scenario = Scenario::generate_with(ScenarioConfig::small(5), &ctx);
    // Generation resolved corpus hosts through the shared resolver: the
    // memo table must already hold entries and have answered repeats.
    let stats = scenario.engine.resolver().stats();
    assert!(stats.misses > 0, "stats {stats:?}");
    assert!(stats.hits > 0, "stats {stats:?}");
    assert!(scenario.engine.resolver().cached_hosts() > 0);
}
