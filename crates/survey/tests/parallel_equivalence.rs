//! Parallel-vs-sequential equivalence gates for the survey subsystem.
//!
//! The survey chain's contract mirrors the pipeline-wide one in
//! `crates/analysis/tests/parallel_equivalence.rs`: fanning participants
//! (and pair-universe members) out across the pool changes wall-clock time
//! and nothing else. Every test here compares the pooled runner against the
//! sequential oracle **field for field**, and the indexed pair generator
//! against the retained naive double loop, across seeds.

use proptest::prelude::*;
use rws_classify::CategoryDatabase;
use rws_corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_engine::{EngineContext, ThreadPool};
use rws_stats::rng::Xoshiro256StarStar;
use rws_survey::{PairGenerator, PairUniverse, SurveyConfig, SurveyRunner};

fn fixture(seed: u64) -> (Corpus, CategoryDatabase) {
    let corpus =
        CorpusGenerator::new(CorpusConfig::small(seed)).generate_with(&EngineContext::embedded());
    let categories = CategoryDatabase::from_ground_truth(&corpus);
    (corpus, categories)
}

fn universe(corpus: &Corpus, categories: &CategoryDatabase, seed: u64) -> PairUniverse {
    let mut rng = Xoshiro256StarStar::new(seed);
    PairGenerator::new(corpus, categories).generate_on(&mut rng, &EngineContext::sequential())
}

proptest! {
    /// Pooled `SurveyRunner` output equals the sequential oracle for
    /// arbitrary seeds — responses, factor reports and counts all included
    /// in `SurveyDataset`'s `PartialEq`.
    #[test]
    fn survey_parallel_equivalence(seed in 0u64..1_000_000) {
        let (corpus, categories) = fixture(seed % 97);
        let pairs = universe(&corpus, &categories, seed);
        let runner = SurveyRunner::new(SurveyConfig {
            seed,
            ..SurveyConfig::default()
        });
        let pooled_ctx = EngineContext::new();
        let pooled = runner.run_on(&corpus, &pairs, &pooled_ctx);
        let sequential = runner.run_on(&corpus, &pairs, &pooled_ctx.sequential_twin());
        prop_assert_eq!(pooled, sequential);
    }

    /// The indexed generator reproduces the naive double loop exactly —
    /// same pairs, same groups, same order — for arbitrary seeds at paper
    /// scale, both sequentially and on the pool.
    #[test]
    fn pair_universe_matches_naive_oracle(seed in 0u64..1_000_000) {
        let (corpus, categories) = fixture(seed % 89);
        let generator = PairGenerator::new(&corpus, &categories);
        let naive = generator.generate_naive(&mut Xoshiro256StarStar::new(seed));
        let indexed = generator.generate_on(&mut Xoshiro256StarStar::new(seed), &EngineContext::sequential());
        prop_assert_eq!(&naive, &indexed);
        let pooled = generator.generate_on(
            &mut Xoshiro256StarStar::new(seed),
            &EngineContext::new(),
        );
        prop_assert_eq!(&naive, &pooled);
    }
}

/// Forced multi-worker pool: even on a single-core host (where the global
/// pool runs zero workers and everything degenerates to the caller), the
/// cross-thread claim/notify paths must produce the identical dataset.
#[test]
fn survey_equivalence_holds_on_a_forced_multiworker_pool() {
    for seed in [3u64, 17, 61, 2024] {
        let (corpus, categories) = fixture(seed);
        let pairs = universe(&corpus, &categories, seed);
        let runner = SurveyRunner::new(SurveyConfig {
            seed,
            participants: 40,
            ..SurveyConfig::default()
        });
        let forced =
            EngineContext::with_parts(ThreadPool::new(3), rws_domain::SiteResolver::embedded());
        let pooled = runner.run_on(&corpus, &pairs, &forced);
        let sequential = runner.run_on(&corpus, &pairs, &forced.sequential_twin());
        assert_eq!(pooled, sequential, "seed {seed}");
    }
}

/// The equivalence also holds under `EngineContext::new()` vs
/// `EngineContext::sequential()` (independent resolver handles), not just
/// twins sharing one memo cache.
#[test]
fn survey_equivalence_across_independent_contexts() {
    let (corpus, categories) = fixture(11);
    let pairs = universe(&corpus, &categories, 11);
    let runner = SurveyRunner::new(SurveyConfig::default());
    let pooled = runner.run_on(&corpus, &pairs, &EngineContext::new());
    let sequential = runner.run_on(&corpus, &pairs, &EngineContext::sequential());
    assert_eq!(pooled, sequential);
}
