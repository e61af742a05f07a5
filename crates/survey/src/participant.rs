//! The behavioural participant model.
//!
//! Real participants opened both sites, looked at them, and decided whether
//! they were affiliated with a common organisation. Table 2 reports the cues
//! they say they used: branding elements (66.7%), footer text (61.9%),
//! domain names (57.1%), header text, and about pages. The simulated
//! [`Participant`] judges a pair from exactly those cues, which are computed
//! from the synthetic sites' specifications ([`Cues::observe`]); its
//! parameters are calibrated so the aggregate behaviour reproduces the
//! paper's headline rates (≈63% correct "related" on same-set pairs, ≈94%
//! correct "unrelated" elsewhere, slower responses for wrong-way same-set
//! judgements).

use crate::pairs::SitePair;
use rws_corpus::Corpus;
use rws_domain::SiteResolver;
use rws_stats::rng::Rng;
use serde::{Deserialize, Serialize};

/// A participant's answer to one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The participant judged the sites related.
    Related,
    /// The participant judged the sites unrelated.
    Unrelated,
}

impl Verdict {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Related => "Related",
            Verdict::Unrelated => "Unrelated",
        }
    }
}

/// The cues a participant can observe about a pair of sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Cues {
    /// The two pages present the same organisation name in their footers /
    /// about pages, or visibly share brand naming and palette.
    pub shared_branding: bool,
    /// The registrable domains share their SLD exactly.
    pub identical_sld: bool,
    /// One SLD contains the other (shared stem, e.g. `autobild` / `bild`).
    pub shared_domain_stem: bool,
    /// Normalised SLD edit similarity in `[0, 1]` (1 = identical).
    pub sld_similarity: f64,
    /// The sites are in the same content category (similar topic can create
    /// a false impression of affiliation).
    pub same_category: bool,
    /// Either site failed to load for the participant.
    pub load_failure: bool,
}

impl Cues {
    /// Observe the cues for a pair of sites from the corpus, resolving SLDs
    /// through a memoizing [`SiteResolver`] — the survey shows the same
    /// pairs to many participants, so every domain's SLD is resolved once.
    pub fn observe(corpus: &Corpus, pair: &SitePair, resolver: &SiteResolver) -> Cues {
        let a = corpus.site(&pair.first);
        let b = corpus.site(&pair.second);
        let (Some(a), Some(b)) = (a, b) else {
            return Cues {
                load_failure: true,
                ..Cues::default()
            };
        };
        let shared_branding = a.brand.organisation_name == b.brand.organisation_name
            || a.brand.slug.contains(&b.brand.slug)
            || b.brand.slug.contains(&a.brand.slug);
        let sld_a = resolver.second_level_label(&a.domain);
        let sld_b = resolver.second_level_label(&b.domain);
        let (identical_sld, shared_domain_stem, sld_similarity) = match (sld_a, sld_b) {
            (Some(x), Some(y)) => {
                let identical = x == y;
                let stem = !identical && (x.contains(&y) || y.contains(&x));
                (identical, stem, rws_domain::sld_similarity(&x, &y))
            }
            _ => (false, false, 0.0),
        };
        Cues {
            shared_branding,
            identical_sld,
            shared_domain_stem,
            sld_similarity,
            same_category: a.category == b.category,
            load_failure: !a.live || !b.live,
        }
    }
}

/// The cue types participants report using (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Factor {
    /// The domain names themselves.
    DomainName,
    /// Branding elements (logos, colours and similar).
    BrandingElements,
    /// Header text.
    HeaderText,
    /// Footer text.
    FooterText,
    /// "About" pages or similar.
    AboutPages,
    /// Anything else.
    Other,
}

impl Factor {
    /// Every factor, in Table 2's row order.
    pub const ALL: [Factor; 6] = [
        Factor::DomainName,
        Factor::BrandingElements,
        Factor::HeaderText,
        Factor::FooterText,
        Factor::AboutPages,
        Factor::Other,
    ];

    /// The row label used in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            Factor::DomainName => "Domain name",
            Factor::BrandingElements => "Branding elements",
            Factor::HeaderText => "Header text",
            Factor::FooterText => "Footer text",
            Factor::AboutPages => "\u{201c}About\u{201d} pages or similar",
            Factor::Other => "Other",
        }
    }

    /// The probabilities, from Table 2, that a responding participant
    /// reports using this factor when judging sites *related* and
    /// *unrelated* respectively.
    fn reporting_rates(self) -> (f64, f64) {
        match self {
            Factor::DomainName => (0.571, 0.524),
            Factor::BrandingElements => (0.667, 0.619),
            Factor::HeaderText => (0.428, 0.524),
            Factor::FooterText => (0.619, 0.524),
            Factor::AboutPages => (0.476, 0.333),
            Factor::Other => (0.19, 0.238),
        }
    }
}

/// One participant's answers to the end-of-survey factor questionnaire.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FactorReport {
    /// Factors the participant says they used to decide sites were related.
    pub for_related: Vec<Factor>,
    /// Factors used to decide sites were unrelated.
    pub for_unrelated: Vec<Factor>,
}

/// Behavioural parameters of one simulated participant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Participant {
    /// Participant (session) identifier.
    pub id: usize,
    /// Multiplier on cue-driven detection probability; below 1.0 the
    /// participant misses cues more often.
    pub attentiveness: f64,
    /// Baseline probability of calling any pair related with no cues at all.
    pub base_related_rate: f64,
    /// Median seconds spent on an easy judgement.
    pub base_seconds: f64,
    /// Log-normal sigma of the participant's response times.
    pub time_sigma: f64,
    /// Probability of skipping any individual question.
    pub skip_probability: f64,
    /// Probability of abandoning the survey after each question.
    pub dropout_probability: f64,
    /// Whether the participant answers the factor questionnaire at the end
    /// (21 of 30 did).
    pub answers_factor_question: bool,
}

impl Participant {
    /// Draw a participant from the population model.
    pub fn generate<R: Rng + ?Sized>(id: usize, rng: &mut R) -> Participant {
        Participant {
            id,
            attentiveness: rng.range_f64(0.75, 1.1),
            base_related_rate: rng.range_f64(0.02, 0.09),
            base_seconds: rng.range_f64(18.0, 34.0),
            time_sigma: rng.range_f64(0.3, 0.55),
            skip_probability: 0.05,
            dropout_probability: 0.035,
            answers_factor_question: rng.chance(0.7),
        }
    }

    /// The probability this participant judges a pair related, given cues.
    fn related_probability(&self, cues: &Cues) -> f64 {
        if cues.load_failure {
            // A site that does not load gives the participant nothing to go
            // on; they overwhelmingly answer "unrelated".
            return (self.base_related_rate * 0.5).clamp(0.0, 1.0);
        }
        let mut p = self.base_related_rate;
        if cues.shared_branding {
            p += 0.78;
        }
        if cues.identical_sld {
            p += 0.70;
        } else if cues.shared_domain_stem {
            p += 0.55;
        } else if cues.sld_similarity > 0.6 {
            p += 0.25 * cues.sld_similarity;
        }
        if cues.same_category {
            p += 0.02;
        }
        (p * self.attentiveness).clamp(0.0, 0.97)
    }

    /// Judge a pair: returns the verdict and the seconds taken.
    ///
    /// Response times follow the paper's Figure 2 pattern: judgements that
    /// go against the visible evidence — in particular calling a genuinely
    /// related pair "unrelated" after failing to spot the affiliation — take
    /// longer, because the participant keeps looking before giving up.
    pub fn judge<R: Rng + ?Sized>(&self, cues: &Cues, rng: &mut R) -> (Verdict, f64) {
        let p_related = self.related_probability(cues);
        let verdict = if rng.chance(p_related) {
            Verdict::Related
        } else {
            Verdict::Unrelated
        };
        let evidence_strength = (p_related - self.base_related_rate).max(0.0);
        let mut median_seconds = self.base_seconds;
        match verdict {
            Verdict::Related => {
                // Clear evidence is recognised quickly.
                median_seconds *= 1.0 - 0.25 * evidence_strength;
            }
            Verdict::Unrelated => {
                // Deciding "unrelated" when some evidence existed (or on a
                // same-set pair whose affiliation was simply not presented)
                // means the participant searched for longer first.
                median_seconds *= 1.0 + 0.45 * evidence_strength + 0.18;
            }
        }
        let seconds = rng
            .log_normal(median_seconds.max(3.0).ln(), self.time_sigma)
            .clamp(2.0, 120.0);
        (verdict, seconds)
    }

    /// Whether the participant skips this question.
    pub fn skips<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.chance(self.skip_probability)
    }

    /// Whether the participant abandons the survey after a question.
    pub fn drops_out<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.chance(self.dropout_probability)
    }

    /// Fill in the end-of-survey factor questionnaire, if the participant
    /// answers it.
    pub fn report_factors<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<FactorReport> {
        if !self.answers_factor_question {
            return None;
        }
        let mut report = FactorReport::default();
        for factor in Factor::ALL {
            let (p_related, p_unrelated) = factor.reporting_rates();
            if rng.chance(p_related) {
                report.for_related.push(factor);
            }
            if rng.chance(p_unrelated) {
                report.for_unrelated.push(factor);
            }
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::{PairGenerator, PairGroup};
    use rws_classify::CategoryDatabase;
    use rws_corpus::{CorpusConfig, CorpusGenerator};
    use rws_engine::EngineContext;
    use rws_stats::rng::Xoshiro256StarStar;

    /// Every pair of a small universe gets SLD cues that match their
    /// definitions: `identical_sld` is SLD equality, `shared_domain_stem`
    /// is "different, and one contains the other", and `sld_similarity` is
    /// [`rws_domain::sld_similarity`] bit for bit.
    #[test]
    fn sld_cues_match_their_definitions() {
        let ctx = EngineContext::embedded();
        let corpus = CorpusGenerator::new(CorpusConfig::small(31)).generate_with(&ctx);
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let mut rng = Xoshiro256StarStar::new(7);
        let universe = PairGenerator::new(&corpus, &categories).generate_on(&mut rng, &ctx);
        let resolver = SiteResolver::embedded();
        let (mut identical, mut stem, mut neither) = (0, 0, 0);
        for group in PairGroup::ALL {
            for pair in universe.group(group) {
                let x = resolver.second_level_label(&pair.first).unwrap();
                let y = resolver.second_level_label(&pair.second).unwrap();
                let cues = Cues::observe(&corpus, pair, &resolver);
                assert_eq!(cues.identical_sld, x == y, "{pair:?}");
                let contains = x.contains(&y) || y.contains(&x);
                assert_eq!(cues.shared_domain_stem, x != y && contains, "{pair:?}");
                assert_eq!(
                    cues.sld_similarity.to_bits(),
                    rws_domain::sld_similarity(&x, &y).to_bits(),
                    "{pair:?}"
                );
                match (cues.identical_sld, cues.shared_domain_stem) {
                    (true, _) => identical += 1,
                    (false, true) => stem += 1,
                    (false, false) => neither += 1,
                }
            }
        }
        assert!(
            identical > 0 && stem > 0 && neither > 0,
            "identical {identical}, stem {stem}, neither {neither}"
        );
    }

    fn participant(seed: u64) -> Participant {
        let mut rng = Xoshiro256StarStar::new(seed);
        Participant::generate(0, &mut rng)
    }

    #[test]
    fn strong_cues_raise_related_probability() {
        let p = participant(1);
        let none = Cues::default();
        let branding = Cues {
            shared_branding: true,
            ..Cues::default()
        };
        let domain = Cues {
            shared_domain_stem: true,
            sld_similarity: 0.6,
            ..Cues::default()
        };
        assert!(p.related_probability(&none) < 0.15);
        assert!(p.related_probability(&branding) > 0.6);
        assert!(p.related_probability(&domain) > 0.4);
        assert!(p.related_probability(&branding) <= 0.97);
    }

    #[test]
    fn load_failure_suppresses_related_verdicts() {
        let p = participant(2);
        let cues = Cues {
            shared_branding: true,
            load_failure: true,
            ..Cues::default()
        };
        assert!(p.related_probability(&cues) < 0.1);
    }

    #[test]
    fn judgement_rates_track_probabilities() {
        let p = participant(3);
        let mut rng = Xoshiro256StarStar::new(33);
        let strong = Cues {
            shared_branding: true,
            identical_sld: true,
            sld_similarity: 1.0,
            same_category: true,
            ..Cues::default()
        };
        let related = (0..2000)
            .filter(|_| p.judge(&strong, &mut rng).0 == Verdict::Related)
            .count();
        assert!(
            related > 1700,
            "strong cues should usually yield Related ({related}/2000)"
        );
        let none = Cues::default();
        let false_related = (0..2000)
            .filter(|_| p.judge(&none, &mut rng).0 == Verdict::Related)
            .count();
        assert!(
            false_related < 300,
            "no cues should rarely yield Related ({false_related}/2000)"
        );
    }

    #[test]
    fn wrong_way_unrelated_judgements_take_longer() {
        let p = participant(4);
        let mut rng = Xoshiro256StarStar::new(44);
        let strong = Cues {
            shared_branding: true,
            shared_domain_stem: true,
            sld_similarity: 0.8,
            ..Cues::default()
        };
        let mut related_times = Vec::new();
        let mut unrelated_times = Vec::new();
        for _ in 0..5000 {
            let (verdict, secs) = p.judge(&strong, &mut rng);
            match verdict {
                Verdict::Related => related_times.push(secs),
                Verdict::Unrelated => unrelated_times.push(secs),
            }
        }
        // With strong cues most verdicts are Related, but the rare Unrelated
        // ones are slower on average.
        if !unrelated_times.is_empty() {
            let mean_related = rws_stats::mean(&related_times).unwrap();
            let mean_unrelated = rws_stats::mean(&unrelated_times).unwrap();
            assert!(
                mean_unrelated > mean_related,
                "unrelated {mean_unrelated:.1}s should exceed related {mean_related:.1}s"
            );
        }
        for &t in related_times.iter().chain(unrelated_times.iter()) {
            assert!((2.0..=120.0).contains(&t));
        }
    }

    #[test]
    fn factor_reports_only_from_respondents() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut responding = 0usize;
        for id in 0..200 {
            let p = Participant::generate(id, &mut rng);
            if let Some(report) = p.report_factors(&mut rng) {
                responding += 1;
                // Reported factors are drawn from the known set without
                // duplicates.
                let mut seen = report.for_related.clone();
                seen.sort();
                seen.dedup();
                assert_eq!(seen.len(), report.for_related.len());
            } else {
                assert!(!p.answers_factor_question);
            }
        }
        assert!(
            (100..=180).contains(&responding),
            "~70% should respond, got {responding}"
        );
    }

    #[test]
    fn verdict_and_factor_labels() {
        assert_eq!(Verdict::Related.label(), "Related");
        assert_eq!(Verdict::Unrelated.label(), "Unrelated");
        assert_eq!(Factor::BrandingElements.label(), "Branding elements");
        assert_eq!(Factor::ALL.len(), 6);
    }
}
