//! The survey runner: participants × pairs → timed responses.
//!
//! # Parallel sessions
//!
//! Real survey sessions were independent: each participant saw their own
//! pair draw and judged it alone. The runner models that directly — every
//! participant's behaviour (their parameters, question draw, skips,
//! judgements, dropout and factor questionnaire) comes from an rng stream
//! **derived from the participant id**, the same per-task derivation the
//! governance replay uses per submitter. Participants therefore fan out
//! across the engine's pool one session per task, share one concurrent
//! [`CueCache`] (cues depend only on the pair), and the dataset is
//! byte-identical no matter how the sessions interleave (or whether they
//! run sequentially at all).

use crate::cue_cache::CueCache;
use crate::pairs::{PairGroup, PairUniverse, SitePair};
use crate::participant::{FactorReport, Participant, Verdict};
use rws_corpus::Corpus;
use rws_domain::SiteResolver;
use rws_engine::EngineContext;
use rws_stats::rng::Xoshiro256StarStar;
use rws_stats::sampling::{sample_indices_floyd, sample_indices_without_replacement, shuffle};
use serde::{Deserialize, Serialize};

/// Configuration of the survey run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurveyConfig {
    /// Seed for participant behaviour and pair assignment.
    pub seed: u64,
    /// Number of participants (the paper recruited 30 sessions).
    pub participants: usize,
    /// Pairs drawn per group for each participant (the paper used 5,
    /// giving 20 questions).
    pub pairs_per_group: usize,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            seed: 0x5343_2024,
            participants: 30,
            pairs_per_group: 5,
        }
    }
}

/// One answered question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyResponse {
    /// The participant (session) id.
    pub participant: usize,
    /// The pair shown.
    pub pair: SitePair,
    /// The verdict given.
    pub verdict: Verdict,
    /// Seconds spent on the question.
    pub seconds: f64,
}

impl SurveyResponse {
    /// True if this response is a privacy-harming error: the pair is related
    /// under RWS but the participant judged it unrelated.
    fn privacy_harming_error(&self) -> bool {
        self.pair.related_under_rws() && self.verdict == Verdict::Unrelated
    }

    /// True if the verdict matches the RWS ground truth.
    pub fn correct(&self) -> bool {
        (self.verdict == Verdict::Related) == self.pair.related_under_rws()
    }
}

/// The complete dataset produced by a run — the analogue of the anonymised
/// CSV released with the paper.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurveyDataset {
    /// Every answered question.
    pub responses: Vec<SurveyResponse>,
    /// Factor questionnaires from the participants that answered them.
    pub factor_reports: Vec<FactorReport>,
    /// Number of participants that started the survey.
    pub participants_started: usize,
}

impl SurveyDataset {
    /// All responses for one group.
    pub fn for_group(&self, group: PairGroup) -> Vec<&SurveyResponse> {
        self.responses
            .iter()
            .filter(|r| r.pair.group == group)
            .collect()
    }

    /// Number of distinct participants with at least one response.
    ///
    /// Counted through a participant-id bitset rather than clone-sort-dedup
    /// of the whole response vector; it runs once per analysis figure.
    pub fn active_participants(&self) -> usize {
        count_distinct_participants(self.responses.iter().map(|r| r.participant))
    }

    /// Number of participants that made at least one privacy-harming error
    /// (the paper: 22 of 30, 73.3%).
    pub fn participants_with_privacy_harming_error(&self) -> usize {
        count_distinct_participants(
            self.responses
                .iter()
                .filter(|r| r.privacy_harming_error())
                .map(|r| r.participant),
        )
    }
}

/// Count distinct ids via a growable bitset. Ids are session indices
/// (`0..participants_started`), so the bitset stays one word per 64
/// participants and each response costs one index + mask probe.
fn count_distinct_participants(ids: impl Iterator<Item = usize>) -> usize {
    let mut words: Vec<u64> = Vec::new();
    let mut distinct = 0usize;
    for id in ids {
        let word = id / 64;
        if word >= words.len() {
            words.resize(word + 1, 0);
        }
        let mask = 1u64 << (id % 64);
        if words[word] & mask == 0 {
            words[word] |= mask;
            distinct += 1;
        }
    }
    distinct
}

/// Runs the survey against a corpus.
pub struct SurveyRunner {
    config: SurveyConfig,
}

impl SurveyRunner {
    /// Create a runner.
    pub fn new(config: SurveyConfig) -> SurveyRunner {
        SurveyRunner { config }
    }

    /// Run the survey: each participant sees `pairs_per_group` pairs from
    /// each group, in shuffled order, may skip questions or abandon the
    /// survey, and finally answers the factor questionnaire. One pool task
    /// per participant; SLD cues resolve through the context's shared
    /// memoizing resolver and are shared through a concurrent [`CueCache`].
    /// Output is identical whether the context is pooled or sequential,
    /// because every participant draws from their own derived rng stream.
    pub fn run_on(
        &self,
        corpus: &Corpus,
        universe: &PairUniverse,
        ctx: &EngineContext,
    ) -> SurveyDataset {
        let cfg = self.config;
        let base = Xoshiro256StarStar::new(cfg.seed).derive("survey-runner");
        // Cues depend only on the pair, not the participant: the first
        // session to show a pair observes it, every other session (on any
        // worker) reads it back.
        let cue_cache = CueCache::new();
        let ids: Vec<usize> = (0..cfg.participants).collect();
        // Supervised sweep: under the default fail-fast policy this is the
        // plain pooled fan-out; under salvage a panicking participant is
        // quarantined in the context's monitor and contributes no
        // responses, like a session the survey platform dropped.
        let sessions: Vec<Option<ParticipantSession>> =
            ctx.par_map_supervised("survey", &ids, |_, id| {
                run_participant(
                    cfg,
                    corpus,
                    universe,
                    ctx.resolver(),
                    &cue_cache,
                    &base,
                    *id,
                )
            });

        let mut dataset = SurveyDataset {
            participants_started: cfg.participants,
            ..SurveyDataset::default()
        };
        for session in sessions.into_iter().flatten() {
            dataset.responses.extend(session.responses);
            if let Some(report) = session.factor_report {
                dataset.factor_reports.push(report);
            }
        }
        dataset
    }
}

/// Group size from which a participant's question draw switches from the
/// partial Fisher–Yates shuffle (O(pool)) to Floyd's O(k) sampler. The
/// choice is by size alone and both sides are live at paper scale: the
/// default scenario's group 4 has 4,650 pairs (Floyd; it spans 2,525–7,415
/// over eight seed offsets) while its groups 1–3 stay below the cutoff
/// (Fisher–Yates). The two samplers consume different rng streams, so each
/// side is pinned by a golden digest: `RENDER_DEFAULT` covers Floyd and
/// `RENDER_SMALL_61` (group 4 = 707 pairs) covers Fisher–Yates.
const FLOYD_CUTOFF: usize = 4096;

/// Everything one participant produced: their answered questions (in the
/// order they answered them) and their factor questionnaire, if any.
struct ParticipantSession {
    responses: Vec<SurveyResponse>,
    factor_report: Option<FactorReport>,
}

/// One complete survey session, pure in `(config, corpus, universe,
/// participant id)`: the participant's behaviour comes entirely from the
/// stream derived from their id, so sessions can run in any order, on any
/// thread, and produce the same answers.
fn run_participant(
    cfg: SurveyConfig,
    corpus: &Corpus,
    universe: &PairUniverse,
    resolver: &SiteResolver,
    cue_cache: &CueCache,
    base: &Xoshiro256StarStar,
    participant_id: usize,
) -> ParticipantSession {
    let mut rng = base.derive(&format!("participant:{participant_id}"));
    let participant = Participant::generate(participant_id, &mut rng);

    // Draw this participant's question list: pairs_per_group from each
    // group (or as many as exist), shuffled together.
    let mut questions: Vec<SitePair> = Vec::new();
    for group in PairGroup::ALL {
        let pool = universe.group(group);
        if pool.is_empty() {
            continue;
        }
        let picks = if pool.len() >= FLOYD_CUTOFF {
            sample_indices_floyd(pool.len(), cfg.pairs_per_group, &mut rng)
        } else {
            sample_indices_without_replacement(pool.len(), cfg.pairs_per_group, &mut rng)
        };
        questions.extend(picks.into_iter().map(|pick| pool[pick].clone()));
    }
    shuffle(&mut questions, &mut rng);

    let mut session = ParticipantSession {
        responses: Vec::with_capacity(questions.len()),
        factor_report: None,
    };
    for pair in questions {
        if participant.skips(&mut rng) {
            continue;
        }
        let cues = cue_cache.observe(corpus, &pair, resolver);
        let (verdict, seconds) = participant.judge(&cues, &mut rng);
        session.responses.push(SurveyResponse {
            participant: participant_id,
            pair,
            verdict,
            seconds,
        });
        if participant.drops_out(&mut rng) {
            break;
        }
    }
    session.factor_report = participant.report_factors(&mut rng);
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairGenerator;
    use rws_classify::CategoryDatabase;
    use rws_corpus::{CorpusConfig, CorpusGenerator};

    fn run_small(seed: u64) -> (rws_corpus::Corpus, SurveyDataset) {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(31)).generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let mut rng = Xoshiro256StarStar::new(seed);
        let universe = PairGenerator::new(&corpus, &categories)
            .generate_on(&mut rng, &EngineContext::sequential());
        let dataset = SurveyRunner::new(SurveyConfig {
            seed,
            ..SurveyConfig::default()
        })
        .run_on(&corpus, &universe, &EngineContext::embedded());
        (corpus, dataset)
    }

    #[test]
    fn run_produces_responses_for_every_group_present() {
        let (_, dataset) = run_small(1);
        assert!(!dataset.responses.is_empty());
        assert!(dataset.active_participants() > 20);
        assert!(dataset.participants_started == 30);
        // Most participants answer most of their 20 questions.
        let per_participant = dataset.responses.len() as f64 / dataset.active_participants() as f64;
        assert!(
            per_participant > 8.0,
            "mean responses per participant {per_participant}"
        );
        // Factor questionnaires come from roughly 70% of participants.
        assert!((10..=30).contains(&dataset.factor_reports.len()));
    }

    #[test]
    fn runs_are_deterministic() {
        let (_, a) = run_small(7);
        let (_, b) = run_small(7);
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_and_sequential_runs_are_identical() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(31)).generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let mut rng = Xoshiro256StarStar::new(9);
        let universe = PairGenerator::new(&corpus, &categories)
            .generate_on(&mut rng, &EngineContext::sequential());
        let runner = SurveyRunner::new(SurveyConfig::default());
        let pooled_ctx = EngineContext::embedded();
        let pooled = runner.run_on(&corpus, &universe, &pooled_ctx);
        let sequential = runner.run_on(&corpus, &universe, &pooled_ctx.sequential_twin());
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn distinct_participant_counts_match_sort_dedup_oracle() {
        let (_, dataset) = run_small(6);
        let oracle = |ids: Vec<usize>| {
            let mut ids = ids;
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        assert_eq!(
            dataset.active_participants(),
            oracle(dataset.responses.iter().map(|r| r.participant).collect())
        );
        assert_eq!(
            dataset.participants_with_privacy_harming_error(),
            oracle(
                dataset
                    .responses
                    .iter()
                    .filter(|r| r.privacy_harming_error())
                    .map(|r| r.participant)
                    .collect()
            )
        );
        // Sparse ids (an analysis slicing a subset) still count correctly.
        assert_eq!(
            count_distinct_participants([3, 200, 3, 64, 200].into_iter()),
            3
        );
        assert_eq!(count_distinct_participants(std::iter::empty()), 0);
    }

    /// Both question samplers at once: the default scenario's survey chain
    /// (classified categories, the scenario's pair rng) puts group 4 above
    /// [`FLOYD_CUTOFF`] and groups 1–2 below it. Whichever sampler drew a
    /// group, no participant sees a pair twice or gets more than
    /// `pairs_per_group` pairs from one group.
    #[test]
    fn default_universe_draws_are_distinct_and_capped_per_group() {
        let ctx = EngineContext::embedded();
        let corpus = CorpusGenerator::new(CorpusConfig::default()).generate_with(&ctx);
        let categories = CategoryDatabase::classify_corpus_on(&corpus, &ctx);
        let config = SurveyConfig::default();
        let mut rng = Xoshiro256StarStar::new(config.seed).derive("pair-universe");
        let universe = PairGenerator::new(&corpus, &categories).generate_on(&mut rng, &ctx);
        assert!(universe.group(PairGroup::TopSiteOtherCategory).len() >= FLOYD_CUTOFF);
        for group in [PairGroup::RwsSameSet, PairGroup::RwsOtherSet] {
            let len = universe.group(group).len();
            assert!((config.pairs_per_group..FLOYD_CUTOFF).contains(&len));
        }

        let dataset = SurveyRunner::new(config).run_on(&corpus, &universe, &ctx);
        assert!(dataset.active_participants() > 20);
        for participant in 0..config.participants {
            let seen: Vec<&SitePair> = dataset
                .responses
                .iter()
                .filter(|r| r.participant == participant)
                .map(|r| &r.pair)
                .collect();
            for (i, pair) in seen.iter().enumerate() {
                assert!(
                    !seen[..i].contains(pair),
                    "participant {participant} saw {pair:?} twice"
                );
            }
            for group in PairGroup::ALL {
                let from_group = seen.iter().filter(|p| p.group == group).count();
                assert!(
                    from_group <= config.pairs_per_group,
                    "participant {participant} got {from_group} {group:?} pairs"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a) = run_small(7);
        let (_, b) = run_small(8);
        assert_ne!(a, b);
    }

    #[test]
    fn privacy_harming_errors_only_on_same_set_pairs() {
        let (_, dataset) = run_small(3);
        for response in &dataset.responses {
            if response.privacy_harming_error() {
                assert_eq!(response.pair.group, PairGroup::RwsSameSet);
                assert_eq!(response.verdict, Verdict::Unrelated);
            }
        }
        assert!(dataset.participants_with_privacy_harming_error() <= dataset.active_participants());
    }

    #[test]
    fn response_times_within_bounds() {
        let (_, dataset) = run_small(4);
        for response in &dataset.responses {
            assert!((2.0..=120.0).contains(&response.seconds));
        }
    }

    #[test]
    fn correctness_definition_matches_ground_truth() {
        let (corpus, dataset) = run_small(5);
        for response in &dataset.responses {
            let actually_related = corpus
                .list
                .are_related(&response.pair.first, &response.pair.second);
            assert_eq!(response.pair.related_under_rws(), actually_related);
            assert_eq!(
                response.correct(),
                (response.verdict == Verdict::Related) == actually_related
            );
        }
    }
}
