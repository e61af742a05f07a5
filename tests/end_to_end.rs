//! End-to-end integration tests: generate one full scenario and check that
//! every table and figure of the paper is reproduced with the expected
//! qualitative shape (who wins, by roughly what factor, where the mass of
//! the distributions sits). Absolute values are not expected to match the
//! paper — the substrate is a simulator — but the directions and orders of
//! magnitude must.

use rws_analysis::{Experiment, PaperReproduction, Scenario, ScenarioConfig};
use rws_engine::EngineContext;
use rws_github::PrState;
use rws_model::MemberRole;
use rws_survey::{PairGroup, SurveyAnalysis, Verdict};
use std::sync::OnceLock;

/// One paper-scale scenario shared by every test in this file (generation is
/// the expensive step).
fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let mut config = ScenarioConfig::default();
        // Keep the top-site pool modest so the integration suite stays fast
        // while the RWS list itself remains paper-scale (41 sets).
        config.corpus.top_sites = 400;
        Scenario::generate_with(config, &EngineContext::new())
    })
}

#[test]
fn corpus_matches_paper_scale_list_statistics() {
    let s = scenario();
    assert_eq!(
        s.corpus.list.set_count(),
        41,
        "paper: 41 sets on 2024-03-26"
    );
    let with_associated = s
        .corpus
        .list
        .sets()
        .filter(|set| set.associated_count() > 0)
        .count() as f64
        / 41.0;
    assert!(
        with_associated > 0.75,
        "paper: 92.7% of sets have associated sites"
    );
    let mean_associated: f64 = s
        .corpus
        .list
        .sets()
        .map(|set| set.associated_count() as f64)
        .sum::<f64>()
        / 41.0;
    assert!(
        (1.5..=4.0).contains(&mean_associated),
        "paper: mean 2.6 associated sites per set, got {mean_associated:.2}"
    );
}

#[test]
fn survey_reproduces_the_privacy_harming_error_pattern() {
    let s = scenario();
    let analysis = SurveyAnalysis::analyse(&s.survey);

    // Figure 1 / Table 1 shape: a substantial minority of same-set pairs are
    // judged unrelated, while unrelated pairs are overwhelmingly judged
    // unrelated.
    let harming = analysis.confusion.privacy_harming_rate();
    assert!(
        (0.15..=0.60).contains(&harming),
        "privacy-harming rate {harming:.3}; paper reports 0.368"
    );
    let correct_unrelated = analysis.confusion.correct_unrelated_rate();
    assert!(
        correct_unrelated > 0.85,
        "correct-unrelated rate {correct_unrelated:.3}; paper reports 0.937"
    );
    assert!(
        harming > 1.0 - correct_unrelated,
        "errors must be concentrated on the related (same-set) side"
    );

    // A clear majority of participants make at least one privacy-harming
    // error (paper: 73.3%).
    assert!(analysis.harmed_participant_rate() > 0.4);

    // Figure 2 shape: wrong-way judgements on same-set pairs take longer.
    let summary = analysis.summary_for(PairGroup::RwsSameSet).unwrap();
    assert!(summary.related_count > 0 && summary.unrelated_count > 0);
    assert!(
        summary.unrelated_mean_seconds > summary.related_mean_seconds,
        "unrelated verdicts ({:.1}s) should be slower than related verdicts ({:.1}s)",
        summary.unrelated_mean_seconds,
        summary.related_mean_seconds
    );
    let ks = analysis.timing.ks.as_ref().expect("both samples non-empty");
    assert!(ks.statistic > 0.0);
}

#[test]
fn survey_other_groups_are_overwhelmingly_judged_unrelated() {
    let s = scenario();
    for group in [
        PairGroup::RwsOtherSet,
        PairGroup::TopSiteSameCategory,
        PairGroup::TopSiteOtherCategory,
    ] {
        let responses = s.survey.for_group(group);
        if responses.len() < 10 {
            continue;
        }
        let unrelated = responses
            .iter()
            .filter(|r| r.verdict == Verdict::Unrelated)
            .count();
        let rate = unrelated as f64 / responses.len() as f64;
        assert!(
            rate > 0.8,
            "{}: only {rate:.2} judged unrelated",
            group.label()
        );
    }
}

#[test]
fn sld_distance_shape_matches_figure_3() {
    let s = scenario();
    let psl = rws_domain::PublicSuffixList::embedded();
    let mut associated_distances = Vec::new();
    for (primary, member, role) in s.corpus.list.member_primary_pairs() {
        if role == MemberRole::Associated {
            let c = rws_domain::SldComparison::compute(&member, &primary, &psl).unwrap();
            associated_distances.push(c.edit_distance as f64);
        }
    }
    assert!(associated_distances.len() > 40);
    // Some identical SLDs exist, but they are a small minority (paper: 9.3%).
    let identical = associated_distances.iter().filter(|&&d| d == 0.0).count() as f64
        / associated_distances.len() as f64;
    assert!(
        identical > 0.0 && identical < 0.35,
        "identical-SLD share {identical:.3}"
    );
    // Half of associated SLDs are far from their primary (paper: median 7,
    // "edit distance of 6 or more").
    let median = rws_stats::median(&associated_distances).unwrap();
    assert!(median >= 3.0, "median associated SLD distance {median}");
}

#[test]
fn html_similarity_shape_matches_figure_4() {
    let s = scenario();
    let report = rws_analysis::experiments::Figure4.run(s);
    let summary = report.table("summary").unwrap();
    let joint_median: f64 = summary.rows()[2][1].parse().unwrap();
    // Members are largely dissimilar from their primaries (paper median 0.04);
    // allow a generous band but require "low".
    assert!(
        joint_median < 0.45,
        "median joint HTML similarity {joint_median} is not low"
    );
}

#[test]
fn governance_history_matches_figure_5_and_6_shape() {
    let s = scenario();
    let history = &s.history;
    assert!(
        history.len() >= 60,
        "expected a substantial PR history, got {}",
        history.len()
    );
    // A large share of PRs is closed without merging (paper: 58.8%).
    assert!((0.30..=0.75).contains(&history.rejection_rate()));
    // Submitters retry: more PRs than distinct primaries (paper: 1.9 each).
    assert!(history.mean_prs_per_primary() > 1.2);
    // Figure 5: cumulative curves are non-decreasing and end at the totals.
    let (approved, closed) =
        history.cumulative_by_state(s.config.window_start, s.config.window_end);
    let approved_curve: Vec<f64> = approved.iter().map(|(_, v)| v).collect();
    assert!(approved_curve.windows(2).all(|w| w[1] >= w[0]));
    assert_eq!(
        *approved_curve.last().unwrap() as usize,
        history.count(PrState::Approved)
    );
    let closed_curve: Vec<f64> = closed.iter().map(|(_, v)| v).collect();
    assert_eq!(
        *closed_curve.last().unwrap() as usize,
        history.count(PrState::Closed)
    );
    // Figure 6: rejected PRs close quickly (most the same day), approvals
    // take days of manual review.
    assert!(history.same_day_fraction(PrState::Closed) > 0.3);
    let approved_median = rws_stats::median(&history.days_to_process(PrState::Approved)).unwrap();
    assert!(
        (1.0..=15.0).contains(&approved_median),
        "median approval {approved_median} days"
    );
}

#[test]
fn bot_messages_match_table_3_ordering() {
    let s = scenario();
    let counts = s.history.bot_message_counts();
    let sorted = counts.sorted_by_count();
    assert!(!sorted.is_empty());
    assert_eq!(
        sorted[0].0, "Unable to fetch .well-known JSON file",
        "paper: the .well-known fetch failure dominates Table 3"
    );
    // Every message class the bot can emit is a known Table 3 label.
    let known = [
        "Unable to fetch .well-known JSON file",
        "Associated site isn't an eTLD+1",
        "Service site without X-Robots-Tag header",
        "PR set does not match .well-known JSON file",
        "Alias site isn't an eTLD+1",
        "Primary site isn't an eTLD+1",
        "No rationale for one or more set members",
        "Other",
    ];
    for (message, _) in &sorted {
        assert!(
            known.contains(&message.as_str()),
            "unexpected bot message '{message}'"
        );
    }
}

#[test]
fn composition_over_time_grows_towards_the_final_list() {
    let s = scenario();
    let composition = s
        .snapshots
        .composition_by_month(s.config.window_start, s.config.window_end);
    let associated: Vec<f64> = composition.associated.iter().map(|(_, v)| v).collect();
    assert!(associated.windows(2).all(|w| w[1] >= w[0] - 1e-9));
    assert!(*associated.last().unwrap() > *associated.first().unwrap());
    // Associated sites dominate the composition, as in Figure 7.
    let final_associated = *associated.last().unwrap();
    let final_service = composition.service.iter().map(|(_, v)| v).last().unwrap();
    let final_cctld = composition.cctld.iter().map(|(_, v)| v).last().unwrap();
    assert!(final_associated > final_service);
    assert!(final_associated > final_cctld);
}

#[test]
fn every_experiment_report_renders() {
    // Run the registry end-to-end on a smaller scenario to keep runtime low.
    let reproduction = PaperReproduction::new(ScenarioConfig::small(71));
    let reports = reproduction.run_all();
    assert_eq!(reports.len(), 12);
    for report in &reports {
        let text = report.to_text();
        assert!(text.contains(&report.id));
        assert!(!report.title.is_empty());
        assert!(
            !report.tables.is_empty() || !report.series.is_empty(),
            "{} produced neither tables nor series",
            report.id
        );
    }
}

#[test]
fn rws_policy_creates_exactly_the_within_set_exceptions() {
    let s = scenario();
    let list = &s.corpus.list;
    let mut checked = 0;
    for set in list.sets().take(5) {
        let primary = set.primary();
        for associated in set.associated_sites() {
            let mut browser =
                rws_browser::Browser::new(rws_browser::VendorPolicy::ChromeWithRws, list.clone());
            let outcome = browser.embed_with_storage_access_request(primary, associated);
            assert!(
                outcome.has_unpartitioned_access(),
                "{associated} should be auto-granted under {primary}"
            );
            checked += 1;
        }
        // A member of a *different* set is never auto-granted.
        if let Some(other) = list.sets().find(|o| o.primary() != primary) {
            let mut browser =
                rws_browser::Browser::new(rws_browser::VendorPolicy::ChromeWithRws, list.clone());
            let outcome = browser.embed_with_storage_access_request(primary, other.primary());
            assert!(!outcome.has_unpartitioned_access());
        }
    }
    assert!(checked > 0);
}
