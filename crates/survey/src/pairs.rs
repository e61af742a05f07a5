//! Construction of the survey's website pairs.
//!
//! Following Section 3 of the paper, pairs come from four groups:
//!
//! 1. **RWS (same set)** — all combinations of set primaries and associated
//!    sites *within* each set (related under the proposal);
//! 2. **RWS (other set)** — all combinations of set primaries and associated
//!    sites drawn from *different* sets (not related);
//! 3. **Top Site (same category)** — RWS members paired with one of 200
//!    Tranco top sites in the *same* Forcepoint category (not related);
//! 4. **Top Site (other category)** — RWS members paired with a top site in
//!    a *different* category (not related).
//!
//! Before pairing, the RWS member pool is filtered to live, primarily
//! English-language primaries and associated sites — the paper's manual
//! filter that reduced 146 sites to 31.
//!
//! Generation is indexed: set identity is precomputed per member, so the
//! group-2 sweep compares integers instead of walking the list's `BTreeMap`
//! index per pair, and the per-member sweeps fan out across the engine's
//! pool. The original double loop is retained as
//! [`PairGenerator::generate_naive`], the oracle the regression tests
//! compare against.

use rws_classify::CategoryDatabase;
use rws_corpus::{Corpus, SiteCategory, SiteRole};
use rws_domain::DomainName;
use rws_engine::EngineContext;
use rws_stats::rng::Rng;
use rws_stats::sampling::sample_without_replacement;
use serde::{Deserialize, Serialize};

/// Which of the four groups a pair belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairGroup {
    /// Primary and associated site from the same RWS set.
    RwsSameSet,
    /// Members of two different RWS sets.
    RwsOtherSet,
    /// An RWS member and a top site in the same category.
    TopSiteSameCategory,
    /// An RWS member and a top site in a different category.
    TopSiteOtherCategory,
}

impl PairGroup {
    /// All groups in the order the paper tabulates them.
    pub const ALL: [PairGroup; 4] = [
        PairGroup::RwsSameSet,
        PairGroup::RwsOtherSet,
        PairGroup::TopSiteSameCategory,
        PairGroup::TopSiteOtherCategory,
    ];

    /// The label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            PairGroup::RwsSameSet => "RWS (same set)",
            PairGroup::RwsOtherSet => "RWS (other set)",
            PairGroup::TopSiteSameCategory => "Top Site (same category)",
            PairGroup::TopSiteOtherCategory => "Top Site (other category)",
        }
    }

    /// Whether pairs in this group are related under the RWS proposal.
    pub fn related_under_rws(self) -> bool {
        matches!(self, PairGroup::RwsSameSet)
    }
}

/// One pair of sites shown to participants.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SitePair {
    /// First site (always an RWS primary or associated site).
    pub first: DomainName,
    /// Second site.
    pub second: DomainName,
    /// The group the pair was drawn for.
    pub group: PairGroup,
}

impl SitePair {
    /// Ground truth under the RWS proposal.
    pub fn related_under_rws(&self) -> bool {
        self.group.related_under_rws()
    }
}

/// The full universe of candidate pairs, by group — what the paper reports
/// as 39 / 426 / 141 / 216 generated pairs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PairUniverse {
    /// All candidate same-set pairs.
    pub same_set: Vec<SitePair>,
    /// All cross-set pairs.
    pub other_set: Vec<SitePair>,
    /// All same-category top-site pairs.
    pub top_same_category: Vec<SitePair>,
    /// All other-category top-site pairs.
    pub top_other_category: Vec<SitePair>,
}

impl PairUniverse {
    /// The candidate pairs for one group.
    pub fn group(&self, group: PairGroup) -> &[SitePair] {
        match group {
            PairGroup::RwsSameSet => &self.same_set,
            PairGroup::RwsOtherSet => &self.other_set,
            PairGroup::TopSiteSameCategory => &self.top_same_category,
            PairGroup::TopSiteOtherCategory => &self.top_other_category,
        }
    }

    /// Total candidate pairs across all groups.
    pub fn total(&self) -> usize {
        PairGroup::ALL.iter().map(|g| self.group(*g).len()).sum()
    }
}

/// Builds the pair universe from a corpus.
pub struct PairGenerator<'a> {
    corpus: &'a Corpus,
    categories: &'a CategoryDatabase,
    /// Number of top sites to sample for groups 3 and 4 (paper: 200).
    pub top_site_sample: usize,
}

impl<'a> PairGenerator<'a> {
    /// Create a generator over a corpus and a category database.
    pub fn new(corpus: &'a Corpus, categories: &'a CategoryDatabase) -> PairGenerator<'a> {
        PairGenerator {
            corpus,
            categories,
            top_site_sample: 200,
        }
    }

    /// The filtered pool of RWS members eligible for the survey: live,
    /// English-language primaries and associated sites, sorted.
    fn eligible_members(&self) -> Vec<DomainName> {
        let mut members: Vec<DomainName> = self
            .corpus
            .sites
            .values()
            .filter(|s| {
                s.survey_eligible()
                    && matches!(s.role, SiteRole::SetPrimary | SiteRole::SetAssociated)
            })
            .map(|s| s.domain.clone())
            .collect();
        members.sort();
        members
    }

    /// Generate the full pair universe (precomputed set ids), fanning the
    /// per-member group-2 and group-3/4 sweeps out across the context's
    /// pool. Output is identical whether the context is pooled or
    /// sequential, and identical to the `generate_naive` oracle.
    pub fn generate_on<R: Rng + ?Sized>(&self, rng: &mut R, ctx: &EngineContext) -> PairUniverse {
        let members = self.eligible_members();
        // One set id per member, so the O(members²) group-2 sweep compares
        // integers instead of walking the list's `BTreeMap` index twice per
        // pair.
        let set_of: Vec<Option<usize>> = members
            .iter()
            .map(|m| self.corpus.list.set_index_of(m))
            .collect();
        let mut universe = PairUniverse::default();

        // Group 1: each set primary paired with each of its associated
        // sites ("all combinations of set primaries and associated sites
        // within each set"), restricted to eligible members — membership
        // answered by binary search over the sorted pool.
        let eligible = |domain: &DomainName| members.binary_search(domain).is_ok();
        for set in self.corpus.list.sets() {
            if !eligible(set.primary()) {
                continue;
            }
            for associated in set.associated_sites() {
                if eligible(associated) {
                    universe.same_set.push(SitePair {
                        first: set.primary().clone(),
                        second: associated.clone(),
                        group: PairGroup::RwsSameSet,
                    });
                }
            }
        }

        // Group 2: combinations across different sets. One task per outer
        // member; each task only compares precomputed integer set ids, and
        // the per-member vectors are concatenated in member order so the
        // result is identical to the naive double loop.
        let per_member: Vec<Vec<SitePair>> = ctx.par_map(&members, |i, first| {
            let mut out = Vec::with_capacity(members.len() - i - 1);
            for j in (i + 1)..members.len() {
                let related = matches!((set_of[i], set_of[j]), (Some(a), Some(b)) if a == b);
                if !related {
                    out.push(SitePair {
                        first: first.clone(),
                        second: members[j].clone(),
                        group: PairGroup::RwsOtherSet,
                    });
                }
            }
            out
        });
        universe
            .other_set
            .reserve_exact(per_member.iter().map(Vec::len).sum());
        for chunk in per_member {
            universe.other_set.extend(chunk);
        }

        // Groups 3 and 4: RWS members × a 200-site sample of the top list.
        // Categories are resolved once per member and once per sampled top
        // site instead of twice per pair; the member sweep fans out on the
        // pool with per-member (same, other) vectors stitched in order.
        let top_pool: Vec<DomainName> = self
            .corpus
            .tranco
            .iter()
            .map(|e| e.domain.clone())
            .collect();
        let sample = sample_without_replacement(&top_pool, self.top_site_sample, rng);
        let top_categories: Vec<Option<SiteCategory>> = sample
            .iter()
            .map(|top| self.categories.known_category(top))
            .collect();
        let per_member: Vec<(Vec<SitePair>, Vec<SitePair>)> = ctx.par_map(&members, |_, member| {
            let member_category = self.categories.known_category(member);
            let mut same = Vec::new();
            let mut other = Vec::with_capacity(sample.len());
            for (top, top_category) in sample.iter().zip(&top_categories) {
                let same_category = match (member_category, top_category) {
                    (Some(a), Some(b)) => a == *b,
                    _ => false,
                };
                let (group, out) = if same_category {
                    (PairGroup::TopSiteSameCategory, &mut same)
                } else {
                    (PairGroup::TopSiteOtherCategory, &mut other)
                };
                out.push(SitePair {
                    first: member.clone(),
                    second: top.clone(),
                    group,
                });
            }
            (same, other)
        });
        for (same, other) in per_member {
            universe.top_same_category.extend(same);
            universe.top_other_category.extend(other);
        }
        universe
    }

    /// The original double-loop generator, kept as the oracle the
    /// regression tests compare the indexed generator against: linear
    /// `members` scans in group 1, a `BTreeMap`-walking `are_related` per
    /// group-2 pair and two tree walks per group-3/4 pair.
    #[doc(hidden)]
    pub fn generate_naive<R: Rng + ?Sized>(&self, rng: &mut R) -> PairUniverse {
        let members = self.eligible_members();
        let mut universe = PairUniverse::default();
        let pair = |first: &DomainName, second: &DomainName, group| SitePair {
            first: first.clone(),
            second: second.clone(),
            group,
        };

        for set in self.corpus.list.sets() {
            if !members.contains(set.primary()) {
                continue;
            }
            for associated in set.associated_sites() {
                if members.contains(associated) {
                    universe
                        .same_set
                        .push(pair(set.primary(), associated, PairGroup::RwsSameSet));
                }
            }
        }

        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let a = &members[i];
                let b = &members[j];
                if !self.corpus.list.are_related(a, b) {
                    universe.other_set.push(pair(a, b, PairGroup::RwsOtherSet));
                }
            }
        }

        let top_pool: Vec<DomainName> = self
            .corpus
            .tranco
            .iter()
            .map(|e| e.domain.clone())
            .collect();
        let sample = sample_without_replacement(&top_pool, self.top_site_sample, rng);
        for member in &members {
            for top in &sample {
                if self.categories.same_category(member, top) {
                    universe.top_same_category.push(pair(
                        member,
                        top,
                        PairGroup::TopSiteSameCategory,
                    ));
                } else {
                    universe.top_other_category.push(pair(
                        member,
                        top,
                        PairGroup::TopSiteOtherCategory,
                    ));
                }
            }
        }
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_corpus::{CorpusConfig, CorpusGenerator};
    use rws_stats::rng::Xoshiro256StarStar;

    fn universe() -> (rws_corpus::Corpus, PairUniverse) {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(23)).generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let mut rng = Xoshiro256StarStar::new(1);
        let generator = PairGenerator::new(&corpus, &categories);
        let u = generator.generate_on(&mut rng, &EngineContext::sequential());
        (corpus, u)
    }

    #[test]
    fn group_labels_and_truth() {
        assert_eq!(PairGroup::RwsSameSet.label(), "RWS (same set)");
        assert!(PairGroup::RwsSameSet.related_under_rws());
        for g in [
            PairGroup::RwsOtherSet,
            PairGroup::TopSiteSameCategory,
            PairGroup::TopSiteOtherCategory,
        ] {
            assert!(!g.related_under_rws());
        }
    }

    #[test]
    fn same_set_pairs_are_actually_related() {
        let (corpus, u) = universe();
        assert!(!u.same_set.is_empty(), "no same-set pairs generated");
        for pair in u.group(PairGroup::RwsSameSet) {
            assert!(corpus.list.are_related(&pair.first, &pair.second));
            assert!(pair.related_under_rws());
        }
    }

    #[test]
    fn other_group_pairs_are_not_related() {
        let (corpus, u) = universe();
        for group in [
            PairGroup::RwsOtherSet,
            PairGroup::TopSiteSameCategory,
            PairGroup::TopSiteOtherCategory,
        ] {
            for pair in u.group(group) {
                assert!(!corpus.list.are_related(&pair.first, &pair.second));
                assert!(!pair.related_under_rws());
            }
        }
    }

    #[test]
    fn eligible_members_are_live_english_primaries_or_associated() {
        let (corpus, _) = universe();
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let generator = PairGenerator::new(&corpus, &categories);
        for member in generator.eligible_members() {
            let spec = corpus.site(&member).unwrap();
            assert!(spec.survey_eligible());
            assert!(matches!(
                spec.role,
                SiteRole::SetPrimary | SiteRole::SetAssociated
            ));
        }
    }

    #[test]
    fn category_groups_respect_the_database() {
        let (corpus, u) = universe();
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        for pair in u.group(PairGroup::TopSiteSameCategory) {
            assert!(categories.same_category(&pair.first, &pair.second));
        }
        for pair in u.group(PairGroup::TopSiteOtherCategory) {
            assert!(!categories.same_category(&pair.first, &pair.second));
        }
    }

    #[test]
    fn universe_totals_are_consistent() {
        let (_, u) = universe();
        assert_eq!(
            u.total(),
            u.same_set.len()
                + u.other_set.len()
                + u.top_same_category.len()
                + u.top_other_category.len()
        );
        assert!(u.total() > 0);
        for g in PairGroup::ALL {
            for pair in u.group(g) {
                assert_eq!(pair.group, g);
                assert_ne!(pair.first, pair.second);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(23)).generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let generator = PairGenerator::new(&corpus, &categories);
        let mut rng_a = Xoshiro256StarStar::new(5);
        let mut rng_b = Xoshiro256StarStar::new(5);
        assert_eq!(
            generator.generate_on(&mut rng_a, &EngineContext::sequential()),
            generator.generate_on(&mut rng_b, &EngineContext::sequential())
        );
    }
}
