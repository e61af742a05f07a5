//! List-characterisation experiments: Figures 3 and 4.

use crate::experiments::Experiment;
use crate::report::{Report, Series, TextTable};
use crate::scenario::Scenario;
use rws_domain::{DomainName, SldComparison};
use rws_html::similarity::{DocumentProfile, ProfileScratch, SimilarityWeights};
use rws_model::MemberRole;
use rws_stats::Ecdf;
use std::collections::HashMap;

/// Figure 3: CDFs of the Levenshtein edit distance between service /
/// associated site SLDs and their set primary's SLD.
pub struct Figure3;

impl Figure3 {
    /// The per-role edit-distance samples underlying the figure.
    ///
    /// The pairwise sweep runs in parallel on the scenario's engine; its
    /// shared [`SiteResolver`](rws_domain::SiteResolver) — already warm from scenario generation —
    /// memoizes each primary's SLD across all of its member pairs.
    pub fn distances(scenario: &Scenario) -> (Vec<f64>, Vec<f64>) {
        let resolver = scenario.engine.resolver();
        let pairs = scenario.corpus.list.member_primary_pairs();
        let comparisons = scenario
            .engine
            .par_map(&pairs, |_, (primary, member, role)| {
                SldComparison::compute_cached(member, primary, resolver)
                    .map(|comparison| (*role, comparison.edit_distance as f64))
            });
        let mut service = Vec::new();
        let mut associated = Vec::new();
        for entry in comparisons.into_iter().flatten() {
            match entry {
                (MemberRole::Service, d) => service.push(d),
                (MemberRole::Associated, d) => associated.push(d),
                _ => {}
            }
        }
        (service, associated)
    }
}

impl Experiment for Figure3 {
    fn id(&self) -> &'static str {
        "figure3"
    }

    fn title(&self) -> &'static str {
        "Levenshtein edit distance between member SLDs and their primary's SLD"
    }

    fn paper_reference(&self) -> &'static str {
        "14 service sites, 108 associated sites; 9.3% of associated SLDs identical to the \
         primary's; median associated edit distance 7"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let (service, associated) = Figure3::distances(scenario);
        let mut report = Report::new(self.id(), self.title());
        let service_ecdf = Ecdf::new(&service);
        let associated_ecdf = Ecdf::new(&associated);
        report.add_series(Series::new(
            format!("Service sites ({})", service.len()),
            service_ecdf.steps(),
        ));
        report.add_series(Series::new(
            format!("Associated sites ({})", associated.len()),
            associated_ecdf.steps(),
        ));
        let identical = associated.iter().filter(|&&d| d == 0.0).count();
        if !associated.is_empty() {
            report.add_note(format!(
                "identical associated SLDs: {} of {} ({:.1}%, paper: 9.3%)",
                identical,
                associated.len(),
                100.0 * identical as f64 / associated.len() as f64
            ));
        }
        if let Some(median) = associated_ecdf.median() {
            report.add_note(format!(
                "median associated edit distance: {median:.1} (paper: 7)"
            ));
        }
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

/// Figure 4: CDFs of HTML style / structural / joint similarity between
/// member sites and their set primaries.
pub struct Figure4;

impl Figure4 {
    /// The three similarity samples (style, structural, joint) over every
    /// service/associated member paired with its primary.
    ///
    /// Each distinct document is tokenized and shingled exactly once (in
    /// parallel) into a [`DocumentProfile`]; the pairwise phase then only
    /// compares precomputed hash sets. Primaries appear in many pairs, so
    /// the reuse is substantial on top of the per-pair speedup. The
    /// profiling sweep runs with recycled per-worker scratch buffers
    /// (`par_map_with`) over pages *borrowed* from the corpus's frozen
    /// store (`Corpus::with_html`), so neither the tag/class accumulators
    /// nor the page text are allocated per document.
    fn similarities(scenario: &Scenario) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let weights = SimilarityWeights::default();
        let pairs: Vec<(DomainName, DomainName, MemberRole)> = scenario
            .corpus
            .list
            .member_primary_pairs()
            .into_iter()
            .filter(|(_, _, role)| matches!(role, MemberRole::Service | MemberRole::Associated))
            .collect();

        // Phase 1: profile every distinct document, in parallel.
        let mut distinct: Vec<DomainName> = Vec::new();
        let mut seen: HashMap<DomainName, usize> = HashMap::new();
        for (primary, member, _) in &pairs {
            for domain in [primary, member] {
                if !seen.contains_key(domain) {
                    seen.insert(domain.clone(), distinct.len());
                    distinct.push(domain.clone());
                }
            }
        }
        let profiles: Vec<Option<DocumentProfile>> = scenario.engine.par_map_with(
            ProfileScratch::default(),
            &distinct,
            |scratch, _, domain| {
                // Borrowed straight out of the frozen page store: the whole
                // profiling sweep runs without copying a single page.
                scenario.corpus.with_html(domain, |html| {
                    DocumentProfile::with_scratch(html, weights, scratch)
                })
            },
        );
        let profile_of = |domain: &DomainName| profiles[seen[domain]].as_ref();

        // Phase 2: compare precomputed profiles, in parallel.
        let scores = scenario.engine.par_map(&pairs, |_, (primary, member, _)| {
            let (Some(primary_profile), Some(member_profile)) =
                (profile_of(primary), profile_of(member))
            else {
                return None;
            };
            Some(primary_profile.similarity(member_profile, weights))
        });

        let mut style = Vec::new();
        let mut structural = Vec::new();
        let mut joint = Vec::new();
        for similarity in scores.into_iter().flatten() {
            style.push(similarity.style);
            structural.push(similarity.structural);
            joint.push(similarity.joint);
        }
        (style, structural, joint)
    }
}

impl Experiment for Figure4 {
    fn id(&self) -> &'static str {
        "figure4"
    }

    fn title(&self) -> &'static str {
        "HTML similarity between set primaries and their service/associated sites"
    }

    fn paper_reference(&self) -> &'static str {
        "most members dissimilar to their primaries; median joint similarity 0.04"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let (style, structural, joint) = Figure4::similarities(scenario);
        let mut report = Report::new(self.id(), self.title());
        for (name, sample) in [
            ("Style similarity", &style),
            ("Structural similarity", &structural),
            ("Joint similarity", &joint),
        ] {
            let ecdf = Ecdf::new(sample);
            report.add_series(Series::new(name, ecdf.grid(0.0, 1.0, 101)));
        }
        let mut medians = TextTable::new(vec!["Metric", "Median", "Mean"]);
        for (name, sample) in [
            ("style", &style),
            ("structural", &structural),
            ("joint", &joint),
        ] {
            medians.add_row(vec![
                name.to_string(),
                format!("{:.3}", rws_stats::median(sample).unwrap_or(0.0)),
                format!("{:.3}", rws_stats::mean(sample).unwrap_or(0.0)),
            ]);
        }
        report.add_table("summary", medians);
        report.add_note(format!(
            "pairs compared: {} (paper compares 122 member/primary pairs)",
            joint.len()
        ));
        report.add_note(format!(
            "median joint similarity: {:.3} (paper: 0.04)",
            rws_stats::median(&joint).unwrap_or(0.0)
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use rws_engine::EngineContext;

    fn scenario() -> Scenario {
        Scenario::generate_with(ScenarioConfig::small(47), &EngineContext::new())
    }

    #[test]
    fn figure3_produces_cdfs_and_sane_distances() {
        let s = scenario();
        let (service, associated) = Figure3::distances(&s);
        assert!(
            !associated.is_empty(),
            "corpus must contain associated sites"
        );
        for &d in service.iter().chain(associated.iter()) {
            assert!((0.0..40.0).contains(&d), "implausible edit distance {d}");
        }
        let report = Figure3.run(&s);
        assert_eq!(report.series.len(), 2);
        assert!(report.to_text().contains("Associated sites"));
    }

    #[test]
    fn figure4_similarities_bounded_and_mostly_low() {
        let s = scenario();
        let (style, structural, joint) = Figure4::similarities(&s);
        assert_eq!(style.len(), joint.len());
        assert_eq!(structural.len(), joint.len());
        assert!(!joint.is_empty());
        for &v in style.iter().chain(structural.iter()).chain(joint.iter()) {
            assert!((0.0..=1.0).contains(&v));
        }
        // The paper's qualitative finding: the median joint similarity is
        // low (members mostly do not look like their primaries).
        let median_joint = rws_stats::median(&joint).unwrap();
        assert!(
            median_joint < 0.5,
            "median joint similarity {median_joint} too high"
        );
        let report = Figure4.run(&s);
        assert_eq!(report.series.len(), 3);
        assert!(report.table("summary").unwrap().rows().len() == 3);
    }
}
