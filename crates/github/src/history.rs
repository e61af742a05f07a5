//! Calibrated generation of a full pull-request history.
//!
//! The generator replays realistic submissions through the
//! [`GovernancePipeline`]: every set in the corpus's RWS list eventually
//! lands (that is how the list got its 41 sets), but most submitters fumble
//! first — they forget the `.well-known` files, submit subdomains instead of
//! eTLD+1s, omit rationales, or propose sets that never become valid at all.
//! The defect mix is weighted to reproduce the bot-message distribution of
//! Table 3, and the opening dates follow the accelerating submission rate
//! visible in Figure 5 (March 2023 → March 2024).
//!
//! # Parallel replay
//!
//! Each submitter's story (their failed attempts, defects, dates and final
//! outcome) is generated from an rng stream **derived from their primary's
//! name** — the same per-task derivation pattern the corpus uses for page
//! rendering. Submitters are therefore independent, the replay fans out
//! across the engine's thread pool one submitter per task, and the result
//! is byte-identical no matter how the tasks interleave (or whether they
//! run sequentially at all). Each submitter's bot fetches from its own
//! [`SimulatedWeb`] over the corpus store, so the defect hosts a submitter
//! stands up are seen by its validations alone and the corpus is never
//! written. PR numbers are assigned after the fan-out, in deterministic
//! (open date, primary, attempt) order.

use crate::pipeline::{GovernancePipeline, ReviewModel};
use crate::pr::{PrHistory, PullRequest};
use rws_corpus::Corpus;
use rws_domain::DomainName;
use rws_engine::EngineContext;
use rws_model::{RwsSet, WellKnownFile};
use rws_net::{SimulatedWeb, SiteHost, WELL_KNOWN_RWS_PATH};
use rws_stats::rng::{Rng, Xoshiro256StarStar};
use rws_stats::sampling::weighted_choice;
use rws_stats::timeseries::{Date, Month};
use serde::{Deserialize, Serialize};

/// A deliberate mistake injected into a submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubmissionDefect {
    /// The submitter has not yet published `.well-known` files on any
    /// member (by far the most common failure in Table 3).
    MissingWellKnown,
    /// An associated site is submitted as a subdomain rather than an eTLD+1.
    AssociatedNotEtldPlusOne,
    /// A service site is included that does not serve `X-Robots-Tag`.
    ServiceWithoutRobotsTag,
    /// A member's `.well-known` file names a different set.
    WellKnownMismatch,
    /// A ccTLD ("alias") member is submitted as a subdomain.
    AliasNotEtldPlusOne,
    /// The primary itself is submitted as a subdomain.
    PrimaryNotEtldPlusOne,
    /// One or more members lack a rationale.
    MissingRationale,
}

impl SubmissionDefect {
    /// All defect kinds with weights proportional to the *pull-request level*
    /// frequency implied by Table 3 (message counts divided by the typical
    /// number of messages a single defective submission of that kind emits).
    pub const WEIGHTED: &'static [(SubmissionDefect, f64)] = &[
        (SubmissionDefect::MissingWellKnown, 0.47),
        (SubmissionDefect::AssociatedNotEtldPlusOne, 0.20),
        (SubmissionDefect::ServiceWithoutRobotsTag, 0.09),
        (SubmissionDefect::WellKnownMismatch, 0.06),
        (SubmissionDefect::AliasNotEtldPlusOne, 0.05),
        (SubmissionDefect::PrimaryNotEtldPlusOne, 0.07),
        (SubmissionDefect::MissingRationale, 0.06),
    ];

    /// Draw a defect kind according to the calibrated weights.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> SubmissionDefect {
        let weights: Vec<f64> = Self::WEIGHTED.iter().map(|(_, w)| *w).collect();
        let idx = weighted_choice(&weights, rng).unwrap_or(0);
        Self::WEIGHTED[idx].0
    }
}

/// Configuration of the history generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoryConfig {
    /// Seed for the submission process (independent of the corpus seed).
    pub seed: u64,
    /// First month PRs may be opened (the repository opened for submissions
    /// in early 2023).
    pub start: Month,
    /// Last month of the observation window (the paper cuts off at
    /// 2024-03-30).
    pub end: Month,
    /// Mean number of *failed* attempts a successful submitter makes before
    /// the attempt that lands (paper: 1.9 PRs per primary overall).
    pub mean_failed_attempts_per_success: f64,
    /// Number of additional would-be primaries that never produce a valid
    /// submission during the window.
    pub never_successful_primaries: usize,
    /// Mean attempts made by each never-successful primary.
    pub mean_attempts_per_failure: f64,
    /// Manual review behaviour.
    pub review: ReviewModel,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            seed: 0x6010_2024,
            start: Month::new(2023, 3),
            end: Month::new(2024, 3),
            mean_failed_attempts_per_success: 0.8,
            never_successful_primaries: 19,
            mean_attempts_per_failure: 1.6,
            review: ReviewModel::default(),
        }
    }
}

/// Generates a PR history for a corpus.
pub struct HistoryGenerator {
    config: HistoryConfig,
}

impl HistoryGenerator {
    /// Create a generator.
    pub fn new(config: HistoryConfig) -> HistoryGenerator {
        HistoryGenerator { config }
    }

    /// Generate the history, fanning the independent submitter replays out
    /// across the context's pool and sharing its site resolver with every
    /// validation bot. Extra hosts needed by broken submissions (e.g.
    /// service sites without robots headers) are registered on the
    /// submitter's own web, exactly as a real submitter would stand up
    /// half-configured infrastructure; the corpus is not modified. Output
    /// is identical whether the context is pooled or sequential (each
    /// submitter draws from an rng stream derived from its primary's name).
    /// The replay is one supervised sweep: under a salvage
    /// [`SupervisionPolicy`] a panicking submitter replay is quarantined in
    /// the context's monitor and its PRs are dropped, instead of taking the
    /// whole history down.
    ///
    /// [`SupervisionPolicy`]: rws_engine::SupervisionPolicy
    pub fn generate_with(&self, corpus: &Corpus, ctx: &EngineContext) -> PrHistory {
        let cfg = self.config;
        let base = Xoshiro256StarStar::new(cfg.seed).derive("github-history");
        // Every submitter's bot gets a private web over the corpus store.
        let new_pipeline = || {
            GovernancePipeline::new(
                SimulatedWeb::from_frozen(corpus.sharded.clone()),
                cfg.review,
                ctx.resolver().clone(),
            )
        };

        // Submission dates accelerate over the window, as in Figure 5: the
        // probability mass of opening dates is proportional to (1 + month
        // index), i.e. later months see more submissions.
        let months = cfg.start.range_inclusive(cfg.end);
        let month_weights: Vec<f64> = (0..months.len()).map(|i| 1.0 + i as f64).collect();
        let draw_date = |rng: &mut Xoshiro256StarStar| -> Date {
            let idx = weighted_choice(&month_weights, rng).unwrap_or(0);
            let month = months[idx];
            let day = rng.range_u64(1, month.days_in_month() as u64 + 1) as u8;
            Date::new(month.year, month.month, day)
        };

        let sets: Vec<&RwsSet> = corpus.list.sets().collect();
        let tasks: Vec<ReplayTask> = sets
            .iter()
            .map(|set| ReplayTask::Set(set))
            .chain((0..cfg.never_successful_primaries).map(ReplayTask::Hopeless))
            .collect();

        // One submitter's whole story, pure in `(config, corpus, task)`.
        let replay_one = |task: &ReplayTask| -> Vec<PullRequest> {
            match task {
                ReplayTask::Set(set) => {
                    let mut rng = base.derive(&format!("set:{}", set.primary()));
                    let mut pipeline = new_pipeline();
                    let mut prs = Vec::new();
                    let failed_attempts =
                        rng.poisson(cfg.mean_failed_attempts_per_success) as usize;
                    let mut dates: Vec<Date> =
                        (0..=failed_attempts).map(|_| draw_date(&mut rng)).collect();
                    dates.sort();
                    // Failed attempts first, each with an injected defect.
                    for date in dates.iter().take(failed_attempts) {
                        let defect = SubmissionDefect::sample(&mut rng);
                        let broken = apply_defect(set, defect, pipeline.web_mut(), &mut rng);
                        prs.push(pipeline.process(&broken, *date, &mut rng));
                    }
                    // The final, correct attempt.
                    prs.push(pipeline.process(set, dates[failed_attempts], &mut rng));
                    prs
                }
                ReplayTask::Hopeless(i) => {
                    let mut rng = base.derive(&format!("hopeful:{i}"));
                    let mut pipeline = new_pipeline();
                    let primary = DomainName::parse(&format!("hopeful-submitter-{i}.com"))
                        .expect("generated primary is valid");
                    let mut set = RwsSet::for_primary(primary);
                    set.add_associated(
                        &format!("https://hopeful-partner-{i}.com"),
                        "claimed affiliation",
                    )
                    .expect("generated members are unique");
                    let attempts =
                        1 + rng.poisson((cfg.mean_attempts_per_failure - 1.0).max(0.0)) as usize;
                    // These submitters never stand up .well-known files (their
                    // domains are not even registered on the web), so every
                    // attempt fails the fetch check.
                    (0..attempts)
                        .map(|_| pipeline.process(&set, draw_date(&mut rng), &mut rng))
                        .collect()
                }
            }
        };

        let mut prs: Vec<PullRequest> = ctx
            .par_map_supervised("history", &tasks, |_, task| replay_one(task))
            .0
            .into_iter()
            .flatten()
            .flatten()
            .collect();

        // Deterministic global numbering: order every submitter's attempts
        // by (open date, primary, within-submitter sequence) and number
        // sequentially, exactly as the repository would have.
        prs.sort_by(|a, b| {
            (a.opened_at, a.primary.as_str(), a.number).cmp(&(
                b.opened_at,
                b.primary.as_str(),
                b.number,
            ))
        });
        for (index, pr) in prs.iter_mut().enumerate() {
            pr.number = index + 1;
        }
        PrHistory::new(prs)
    }
}

/// One independent submitter replay: a set from the corpus list (fumbles a
/// few times, then lands) or a never-successful hopeful submitter.
enum ReplayTask<'a> {
    Set(&'a RwsSet),
    Hopeless(usize),
}

/// Produce a broken variant of a valid set, and register any additional
/// hosts the broken variant needs on the submitter's web. Hosts the
/// submitter stands up carry the submitter's full primary in their name.
fn apply_defect<R: Rng + ?Sized>(
    set: &RwsSet,
    defect: SubmissionDefect,
    web: &mut SimulatedWeb,
    rng: &mut R,
) -> RwsSet {
    let primary = set.primary().clone();
    // The full primary (dots folded to dashes) — primaries are unique per
    // set, so two submitters can never mint the same host name even when
    // their independent rng streams draw the same tag.
    let slug = primary.as_str().replace('.', "-");
    let tag = rng.range_u64(1000, 9999);
    match defect {
        SubmissionDefect::MissingWellKnown => {
            // Propose the right members plus one that serves nothing.
            let mut broken = set.clone();
            let _ = broken.add_associated(
                &format!("https://unconfigured-{slug}-{tag}.com"),
                "new property without a well-known file",
            );
            broken
        }
        SubmissionDefect::AssociatedNotEtldPlusOne => {
            let mut broken = set.clone();
            let _ = broken.add_associated(
                &format!("https://blog.{primary}"),
                "subdomain submitted by mistake",
            );
            broken
        }
        SubmissionDefect::ServiceWithoutRobotsTag => {
            let mut broken = set.clone();
            let service = format!("bare-service-{slug}-{tag}.com");
            let _ = broken.add_service(&format!("https://{service}"), "cdn without robots header");
            // The host exists and serves a correct well-known file, but no
            // X-Robots-Tag header.
            if let Ok(mut host) = SiteHost::new(&service) {
                host.add_page("/", "<html><body>cdn</body></html>");
                host.add_json(
                    WELL_KNOWN_RWS_PATH,
                    WellKnownFile::for_member(&primary).to_json_string(),
                );
                web.register(host);
            }
            broken
        }
        SubmissionDefect::WellKnownMismatch => {
            let mut broken = set.clone();
            let member = format!("misconfigured-{slug}-{tag}.com");
            let _ =
                broken.add_associated(&format!("https://{member}"), "points at the wrong primary");
            if let Ok(mut host) = SiteHost::new(&member) {
                host.add_page("/", "<html><body>misconfigured</body></html>");
                let other = DomainName::parse("somebody-else.com").expect("static domain is valid");
                host.add_json(
                    WELL_KNOWN_RWS_PATH,
                    WellKnownFile::for_member(&other).to_json_string(),
                );
                web.register(host);
            }
            broken
        }
        SubmissionDefect::AliasNotEtldPlusOne => {
            let mut broken = set.clone();
            let _ = broken.add_cctld_variants(
                &format!("https://{primary}"),
                &[&format!("https://www.{primary}")],
            );
            broken
        }
        SubmissionDefect::PrimaryNotEtldPlusOne => {
            // Re-root the whole submission under a subdomain of the primary.
            let mut broken = RwsSet::for_primary(
                DomainName::parse(&format!("www.{primary}")).expect("subdomain is valid"),
            );
            for member in set.associated_sites() {
                let _ = broken.add_associated(
                    &format!("https://{member}"),
                    set.rationale_for(member).unwrap_or("affiliated"),
                );
            }
            broken
        }
        SubmissionDefect::MissingRationale => {
            let mut broken = RwsSet::for_primary(primary);
            if let Some(contact) = set.contact() {
                broken.set_contact(contact);
            }
            for member in set.associated_sites() {
                let _ = broken.add_associated_without_rationale(&format!("https://{member}"));
            }
            for member in set.service_sites() {
                let _ = broken.add_service_without_rationale(&format!("https://{member}"));
            }
            // A set with no members at all cannot miss a rationale; make sure
            // there is at least one member to flag.
            if broken.size() == 1 {
                let _ = broken.add_associated_without_rationale(&format!(
                    "https://undocumented-{slug}-{tag}.com"
                ));
            }
            broken
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr::PrState;
    use rws_corpus::{CorpusConfig, CorpusGenerator};
    use rws_model::ValidationIssue;

    fn small_history() -> (PrHistory, rws_corpus::Corpus) {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(17)).generate_with(&EngineContext::embedded());
        let history = HistoryGenerator::new(HistoryConfig {
            never_successful_primaries: 5,
            ..HistoryConfig::default()
        })
        .generate_with(&corpus, &EngineContext::embedded());
        (history, corpus)
    }

    #[test]
    fn history_is_deterministic() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(17)).generate_with(&EngineContext::embedded());
        let a = HistoryGenerator::new(HistoryConfig::default())
            .generate_with(&corpus, &EngineContext::embedded());
        let corpus2 =
            CorpusGenerator::new(CorpusConfig::small(17)).generate_with(&EngineContext::embedded());
        let b = HistoryGenerator::new(HistoryConfig::default())
            .generate_with(&corpus2, &EngineContext::embedded());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.count(PrState::Approved), b.count(PrState::Approved));
        assert_eq!(a.bot_message_counts(), b.bot_message_counts());
    }

    #[test]
    fn pooled_and_sequential_replays_are_identical() {
        let generator = HistoryGenerator::new(HistoryConfig {
            never_successful_primaries: 7,
            ..HistoryConfig::default()
        });
        let ctx = EngineContext::embedded();
        let corpus_a = CorpusGenerator::new(CorpusConfig::small(29)).generate_with(&ctx);
        let pooled = generator.generate_with(&corpus_a, &ctx);
        let corpus_b =
            CorpusGenerator::new(CorpusConfig::small(29)).generate_with(&ctx.sequential_twin());
        let sequential = generator.generate_with(&corpus_b, &ctx.sequential_twin());
        // Full structural equality: same PRs, same numbers, same reports.
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn pr_numbers_are_sequential_in_open_order() {
        let (history, _) = small_history();
        let numbers: Vec<usize> = history.prs().iter().map(|pr| pr.number).collect();
        assert_eq!(numbers, (1..=history.len()).collect::<Vec<_>>());
    }

    #[test]
    fn most_corpus_sets_eventually_land() {
        // Sets whose members are all live and whose final attempt is not hit
        // by the small manual-rejection probability get approved; offline
        // members legitimately keep some sets out, as on the real list.
        let (history, corpus) = small_history();
        let approved_primaries: std::collections::BTreeSet<_> = history
            .prs()
            .iter()
            .filter(|pr| pr.state == PrState::Approved)
            .map(|pr| pr.primary.clone())
            .collect();
        let landed = corpus
            .list
            .sets()
            .filter(|set| approved_primaries.contains(set.primary()))
            .count();
        assert!(
            landed * 2 > corpus.list.set_count(),
            "only {landed} of {} sets ever approved",
            corpus.list.set_count()
        );
        // And every approved PR belongs to a real corpus set (the
        // never-successful submitters are all rejected).
        for primary in &approved_primaries {
            assert!(corpus.list.set_with_primary(primary).is_some());
        }
    }

    #[test]
    fn never_successful_primaries_never_land() {
        let (history, _) = small_history();
        for pr in history.prs() {
            if pr.primary.as_str().starts_with("hopeful-submitter-") {
                assert_eq!(pr.state, PrState::Closed);
                assert!(pr
                    .bot_messages()
                    .iter()
                    .all(|m| *m == "Unable to fetch .well-known JSON file"));
            }
        }
    }

    #[test]
    fn dates_fall_inside_window() {
        let (history, _) = small_history();
        let start = Date::new(2023, 3, 1);
        for pr in history.prs() {
            assert!(
                pr.opened_at >= start,
                "{} opened before window",
                pr.opened_at
            );
            assert!(pr.resolved_at >= pr.opened_at);
            assert!(pr.opened_at.month_of() <= Month::new(2024, 3));
        }
    }

    #[test]
    fn rejection_rate_and_bot_messages_have_paper_shape() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::default()).generate_with(&EngineContext::embedded());
        let history = HistoryGenerator::new(HistoryConfig::default())
            .generate_with(&corpus, &EngineContext::embedded());
        // Rough shape checks against the paper: a majority-ish of PRs closed
        // without merging, ~2 PRs per distinct primary, and the most common
        // bot message is the .well-known fetch failure.
        assert!(history.len() >= 60, "history has {} PRs", history.len());
        let rejection = history.rejection_rate();
        assert!(
            (0.30..0.75).contains(&rejection),
            "rejection rate {rejection} far from the paper's 0.588"
        );
        let per_primary = history.mean_prs_per_primary();
        assert!(
            (1.2..3.0).contains(&per_primary),
            "mean PRs per primary {per_primary} far from the paper's 1.9"
        );
        let counts = history.bot_message_counts();
        let top = counts.sorted_by_count();
        assert_eq!(
            top.first().map(|(m, _)| m.as_str()),
            Some("Unable to fetch .well-known JSON file"),
            "most common message should be the well-known fetch failure: {top:?}"
        );
        // Unsuccessful PRs skew towards same-day closure.
        assert!(history.same_day_fraction(PrState::Closed) > 0.3);
        // Approved PRs take several days of manual review.
        let approved_days = history.days_to_process(PrState::Approved);
        let median = rws_stats::median(&approved_days).unwrap();
        assert!(
            (2.0..=12.0).contains(&median),
            "median approval days {median}"
        );
        // Defect hosts reach their submitter's validator: the hosts stood
        // up for the robots-header and mismatch defects are fetched and
        // judged on their content, never reported as unfetchable.
        let issues: Vec<&ValidationIssue> = history
            .prs()
            .iter()
            .filter_map(|pr| pr.validation.as_ref())
            .flat_map(|report| &report.issues)
            .collect();
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::ServiceSiteWithoutRobotsTag { .. })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::WellKnownMismatch { .. })));
        for issue in &issues {
            if let ValidationIssue::WellKnownUnfetchable { site, .. } = issue {
                assert!(
                    !site.as_str().starts_with("bare-service-")
                        && !site.as_str().starts_with("misconfigured-"),
                    "defect host {site} was not registered on its submitter's web"
                );
            }
        }
    }

    #[test]
    fn defect_sampling_covers_all_kinds() {
        let mut rng = Xoshiro256StarStar::new(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            seen.insert(format!("{:?}", SubmissionDefect::sample(&mut rng)));
        }
        assert_eq!(seen.len(), SubmissionDefect::WEIGHTED.len());
    }
}
