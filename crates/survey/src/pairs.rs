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
//! # Indexed representation
//!
//! The universe is quadratic in the member pool (the paper's 31 members
//! already yield 822 candidate pairs; a 32× pool yields half a million), so
//! [`PairUniverse`] stores each candidate as a [`PairRef`] — two `u32`
//! indices into one shared site table — rather than two owned domain names.
//! Building a pair is then an 8-byte push instead of two reference-count
//! round-trips, and the whole universe occupies a fifth of the memory. The
//! handful of pairs a participant actually sees are materialized on demand
//! into [`SitePair`]s ([`PairUniverse::materialize`]).
//!
//! Generation itself is indexed too: membership and set identity are
//! precomputed per member (hash set + member → set id map), so the group-2
//! sweep compares integers instead of walking the list's `BTreeMap` index
//! per pair, and the per-member sweeps fan out across the engine's pool.
//! The original double loop is retained as
//! [`PairGenerator::generate_naive`], the oracle the regression tests and
//! the bench trajectory compare against.

use rws_classify::CategoryDatabase;
use rws_corpus::{Corpus, SiteCategory, SiteRole};
use rws_domain::DomainName;
use rws_engine::EngineContext;
use rws_stats::memo::{FnvHasher, ShardedMemo};
use rws_stats::rng::Rng;
use rws_stats::sampling::sample_without_replacement;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// One pair of sites shown to participants — the materialized view of a
/// [`PairRef`], carrying owned domain names. Only the questions actually
/// drawn for a participant are materialized; the universe itself stays
/// indexed.
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

/// One candidate pair, as two indices into the universe's site table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairRef {
    /// Index of the first site (always an RWS member).
    pub first: u32,
    /// Index of the second site.
    pub second: u32,
}

/// The full universe of candidate pairs, by group — what the paper reports
/// as 39 / 426 / 141 / 216 generated pairs. Pairs are stored as index
/// pairs into [`sites`](Self::sites); see the module docs for why.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PairUniverse {
    /// The site table every [`PairRef`] points into: the (scaled) member
    /// pool followed by the sampled top sites.
    pub sites: Vec<DomainName>,
    /// All candidate same-set pairs.
    pub same_set: Vec<PairRef>,
    /// All cross-set pairs.
    pub other_set: Vec<PairRef>,
    /// All same-category top-site pairs.
    pub top_same_category: Vec<PairRef>,
    /// All other-category top-site pairs.
    pub top_other_category: Vec<PairRef>,
}

impl PairUniverse {
    /// The candidate pairs for one group.
    pub fn group(&self, group: PairGroup) -> &[PairRef] {
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

    /// Materialize one candidate into an owned [`SitePair`].
    pub fn materialize(&self, group: PairGroup, pair: PairRef) -> SitePair {
        SitePair {
            first: self.sites[pair.first as usize].clone(),
            second: self.sites[pair.second as usize].clone(),
            group,
        }
    }

    /// Iterate one group's pairs, materialized.
    pub fn iter_group(&self, group: PairGroup) -> impl Iterator<Item = SitePair> + '_ {
        self.group(group)
            .iter()
            .map(move |pair| self.materialize(group, *pair))
    }

    /// Iterate every candidate pair, materialized, in group order.
    pub fn iter_all(&self) -> impl Iterator<Item = SitePair> + '_ {
        PairGroup::ALL
            .into_iter()
            .flat_map(move |group| self.iter_group(group))
    }
}

/// Scaling knobs for survey universes beyond the paper's 31 filtered sites
/// and 30 sessions. [`SurveyScale::paper`] reproduces the study exactly;
/// [`SurveyScale::times`] multiplies it for the scaled benchmarks (10–100×
/// universes), padding the member pool with synthetic variants of the
/// eligible members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurveyScale {
    /// Number of survey participants (paper: 30).
    pub participants: usize,
    /// Pairs drawn per group per participant (paper: 5).
    pub pairs_per_group: usize,
    /// Top sites sampled for groups 3 and 4 (paper: 200).
    pub top_site_sample: usize,
    /// Multiplier on the eligible-member pool: 1 keeps the corpus's own
    /// filtered members, `k` adds `k - 1` synthetic variants of each.
    pub member_multiplier: usize,
}

impl SurveyScale {
    /// The paper's exact scale.
    pub fn paper() -> SurveyScale {
        SurveyScale {
            participants: 30,
            pairs_per_group: 5,
            top_site_sample: 200,
            member_multiplier: 1,
        }
    }

    /// The paper's survey multiplied `factor` times: `factor ×` the
    /// participants and `factor ×` the eligible-member pool (which grows
    /// the group-2 universe quadratically).
    pub fn times(factor: usize) -> SurveyScale {
        let factor = factor.max(1);
        SurveyScale {
            participants: 30 * factor,
            member_multiplier: factor,
            ..SurveyScale::paper()
        }
    }

    /// The runner configuration at this scale.
    pub fn survey_config(&self, seed: u64) -> crate::runner::SurveyConfig {
        crate::runner::SurveyConfig {
            seed,
            participants: self.participants,
            pairs_per_group: self.pairs_per_group,
        }
    }
}

impl Default for SurveyScale {
    fn default() -> Self {
        SurveyScale::paper()
    }
}

/// Precomputed membership facts about the (possibly scaled) member pool:
/// a member → position map for O(1) membership tests and one integer set
/// id per member, so the O(members²) group-2 sweep compares integers
/// instead of walking the list's `BTreeMap` index twice per pair and the
/// group-1 loop answers membership without scanning the pool.
struct MemberIndex {
    members: Vec<DomainName>,
    position_of: HashMap<DomainName, u32>,
    set_of: Vec<Option<usize>>,
}

impl MemberIndex {
    fn build(corpus: &Corpus, members: Vec<DomainName>) -> MemberIndex {
        let position_of: HashMap<DomainName, u32> = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i as u32))
            .collect();
        let set_of: Vec<Option<usize>> = members
            .iter()
            .map(|m| corpus.list.set_index_of(m))
            .collect();
        MemberIndex {
            members,
            position_of,
            set_of,
        }
    }

    /// The position of a domain in the member pool, if it is eligible.
    fn position_of(&self, domain: &DomainName) -> Option<u32> {
        self.position_of.get(domain).copied()
    }

    /// True when members `i` and `j` belong to the same set — exactly
    /// `corpus.list.are_related(&members[i], &members[j])`, precomputed.
    fn related(&self, i: usize, j: usize) -> bool {
        matches!((self.set_of[i], self.set_of[j]), (Some(a), Some(b)) if a == b)
    }
}

/// Builds the pair universe from a corpus.
pub struct PairGenerator<'a> {
    corpus: &'a Corpus,
    categories: &'a CategoryDatabase,
    /// Number of top sites to sample for groups 3 and 4 (paper: 200).
    pub top_site_sample: usize,
    /// Multiplier on the eligible-member pool (see
    /// [`SurveyScale::member_multiplier`]); 1 is the paper's pool.
    pub member_multiplier: usize,
}

impl<'a> PairGenerator<'a> {
    /// Create a generator over a corpus and a category database.
    pub fn new(corpus: &'a Corpus, categories: &'a CategoryDatabase) -> PairGenerator<'a> {
        PairGenerator {
            corpus,
            categories,
            top_site_sample: 200,
            member_multiplier: 1,
        }
    }

    /// Create a generator at an explicit scale.
    pub fn with_scale(
        corpus: &'a Corpus,
        categories: &'a CategoryDatabase,
        scale: SurveyScale,
    ) -> PairGenerator<'a> {
        PairGenerator {
            corpus,
            categories,
            top_site_sample: scale.top_site_sample,
            member_multiplier: scale.member_multiplier,
        }
    }

    /// The filtered pool of RWS members eligible for the survey: live,
    /// English-language primaries and associated sites.
    pub fn eligible_members(&self) -> Vec<DomainName> {
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

    /// The eligible members after applying the member multiplier: the base
    /// pool, then `member_multiplier − 1` synthetic variants of each (named
    /// `sclone<k>.<member>`, which are never on the RWS list and therefore
    /// unrelated to everything — exactly the shape of a survey universe
    /// drawn from a far larger filtered pool).
    ///
    /// Scaled pools are interned process-wide per (base pool, multiplier):
    /// the synthetic variants are parsed once and every later `generate_on`
    /// call at the same scale clones the interned pool — `DomainName` is
    /// `Arc<str>`-backed, so the clone is one refcount bump per member
    /// rather than a fresh parse and allocation.
    pub fn scaled_members(&self) -> Vec<DomainName> {
        let base = self.eligible_members();
        if self.member_multiplier <= 1 {
            return base;
        }
        interned_scaled_pool(&base, self.member_multiplier)
            .as_ref()
            .clone()
    }

    /// Generate the full pair universe (indexed membership), fanning the
    /// per-member group-2 and group-3/4 sweeps out across the context's
    /// pool. Output is identical whether the context is pooled or
    /// sequential, and identical to the `generate_naive` oracle.
    pub fn generate_on<R: Rng + ?Sized>(&self, rng: &mut R, ctx: &EngineContext) -> PairUniverse {
        let index = MemberIndex::build(self.corpus, self.scaled_members());
        let members = &index.members;
        let mut universe = PairUniverse::default();

        // Group 1: each set primary paired with each of its associated
        // sites ("all combinations of set primaries and associated sites
        // within each set"), restricted to eligible members — membership
        // (and the pair's site indices) answered by the member → position
        // map instead of scanning the pool per site.
        for set in self.corpus.list.sets() {
            let Some(primary) = index.position_of(set.primary()) else {
                continue;
            };
            for associated in set.associated_sites() {
                if let Some(associated) = index.position_of(associated) {
                    universe.same_set.push(PairRef {
                        first: primary,
                        second: associated,
                    });
                }
            }
        }

        // Group 2: combinations across different sets. One task per outer
        // member; each task only compares precomputed integer set ids, and
        // the per-member vectors are concatenated in member order so the
        // result is identical to the naive double loop.
        let per_member: Vec<Vec<PairRef>> = ctx.par_map(members, |i, _| {
            let mut out: Vec<PairRef> = Vec::with_capacity(members.len() - i - 1);
            for j in (i + 1)..members.len() {
                if !index.related(i, j) {
                    out.push(PairRef {
                        first: i as u32,
                        second: j as u32,
                    });
                }
            }
            out
        });
        let total: usize = per_member.iter().map(Vec::len).sum();
        universe.other_set.reserve_exact(total);
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
        let top_base = members.len() as u32;
        let per_member: Vec<(Vec<PairRef>, Vec<PairRef>)> = ctx.par_map(members, |i, member| {
            let member_category = self.categories.known_category(member);
            let mut same = Vec::new();
            let mut other = Vec::with_capacity(sample.len());
            for (t, top_category) in top_categories.iter().enumerate() {
                let same_category = match (member_category, top_category) {
                    (Some(a), Some(b)) => a == *b,
                    _ => false,
                };
                let pair = PairRef {
                    first: i as u32,
                    second: top_base + t as u32,
                };
                if same_category {
                    same.push(pair);
                } else {
                    other.push(pair);
                }
            }
            (same, other)
        });
        for (same, other) in per_member {
            universe.top_same_category.extend(same);
            universe.top_other_category.extend(other);
        }

        universe.sites = index.members;
        universe.sites.extend(sample);
        assert!(
            universe.sites.len() <= u32::MAX as usize,
            "site table exceeds u32 index space"
        );
        universe
    }

    /// The original double-loop generator, kept as the oracle the
    /// regression tests and the bench trajectory compare the indexed
    /// generator against: linear `members` scans in group 1, a
    /// `BTreeMap`-walking `are_related` per group-2 pair and two tree walks
    /// per group-3/4 pair.
    #[doc(hidden)]
    pub fn generate_naive<R: Rng + ?Sized>(&self, rng: &mut R) -> PairUniverse {
        let members = self.scaled_members();
        let mut universe = PairUniverse::default();

        for set in self.corpus.list.sets() {
            if !members.contains(set.primary()) {
                continue;
            }
            let primary =
                member_position(&members, set.primary()).expect("contains implies a position");
            for associated in set.associated_sites() {
                if let Some(associated) = member_position(&members, associated) {
                    universe.same_set.push(PairRef {
                        first: primary,
                        second: associated,
                    });
                }
            }
        }

        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let a = &members[i];
                let b = &members[j];
                if !self.corpus.list.are_related(a, b) {
                    universe.other_set.push(PairRef {
                        first: i as u32,
                        second: j as u32,
                    });
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
        let top_base = members.len() as u32;
        for (i, member) in members.iter().enumerate() {
            for (t, top) in sample.iter().enumerate() {
                let pair = PairRef {
                    first: i as u32,
                    second: top_base + t as u32,
                };
                if self.categories.same_category(member, top) {
                    universe.top_same_category.push(pair);
                } else {
                    universe.top_other_category.push(pair);
                }
            }
        }

        universe.sites = members;
        universe.sites.extend(sample);
        universe
    }
}

/// Most distinct (base pool, multiplier) combinations the intern table
/// retains. Real workloads cycle through a handful of scales over one or
/// two corpora; the cap stops a pathological caller (say, a property test
/// sweeping corpus seeds at scale) from growing process memory without
/// bound — beyond it, pools are built uncached, exactly as before the
/// intern table existed.
const MAX_INTERNED_POOLS: usize = 64;

/// The process-wide intern table for scaled member pools, keyed by a
/// fingerprint of the base pool plus the multiplier. First writer wins, so
/// concurrent generators at the same scale agree on one pool.
fn interned_scaled_pool(base: &[DomainName], multiplier: usize) -> Arc<Vec<DomainName>> {
    /// (base-pool fingerprint, base-pool length, multiplier) → interned pool.
    type PoolKey = (u64, usize, usize);
    static POOLS: OnceLock<ShardedMemo<PoolKey, Arc<Vec<DomainName>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(ShardedMemo::new);
    let key = (fingerprint(base), base.len(), multiplier);
    if let Some(pool) = pools.get(&key) {
        return pool;
    }
    let pool = Arc::new(build_scaled_pool(base, multiplier));
    if pools.len() >= MAX_INTERNED_POOLS {
        return pool;
    }
    pools.insert(key, pool)
}

fn build_scaled_pool(base: &[DomainName], multiplier: usize) -> Vec<DomainName> {
    let mut members: Vec<DomainName> = Vec::with_capacity(base.len() * multiplier);
    members.extend(base.iter().cloned());
    for k in 1..multiplier {
        for member in base {
            members.push(
                DomainName::parse(&format!("sclone{k}.{member}"))
                    .expect("member with a prepended label is a valid domain"),
            );
        }
    }
    members
}

/// FNV-1a over the base pool's domains (with a separator byte), identifying
/// the corpus's eligible-member pool in the intern table.
fn fingerprint(members: &[DomainName]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = FnvHasher::new();
    for member in members {
        hasher.write(member.as_str().as_bytes());
        hasher.write_u8(0);
    }
    hasher.finish()
}

/// Linear scan for a member's position — the naive generator's lookup, also
/// used by the (cold) group-1 loop.
fn member_position(members: &[DomainName], domain: &DomainName) -> Option<u32> {
    members.iter().position(|m| m == domain).map(|i| i as u32)
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
        for pair in u.iter_group(PairGroup::RwsSameSet) {
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
            for pair in u.iter_group(group) {
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
        for pair in u.iter_group(PairGroup::TopSiteSameCategory) {
            assert!(categories.same_category(&pair.first, &pair.second));
        }
        for pair in u.iter_group(PairGroup::TopSiteOtherCategory) {
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
        assert_eq!(u.iter_all().count(), u.total());
        for g in PairGroup::ALL {
            for pair in u.iter_group(g) {
                assert_eq!(pair.group, g);
                assert_ne!(pair.first, pair.second);
            }
        }
    }

    #[test]
    fn pair_refs_point_into_the_site_table() {
        let (_, u) = universe();
        for g in PairGroup::ALL {
            for pair in u.group(g) {
                assert!((pair.first as usize) < u.sites.len());
                assert!((pair.second as usize) < u.sites.len());
                assert_ne!(pair.first, pair.second);
            }
        }
    }

    #[test]
    fn scaled_member_pool_is_interned_per_scale() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(23)).generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let generator = PairGenerator::with_scale(&corpus, &categories, SurveyScale::times(3));
        let first = generator.scaled_members();
        let second = generator.scaled_members();
        assert_eq!(first, second);
        let base_len = generator.eligible_members().len();
        assert_eq!(first.len(), base_len * 3);
        // The synthetic variants come out of the intern table: the second
        // call's domains share the first call's string allocations
        // (`DomainName` is `Arc<str>`-backed) instead of re-parsing.
        for (a, b) in first.iter().zip(&second).skip(base_len) {
            assert!(
                std::ptr::eq(a.as_str(), b.as_str()),
                "synthetic variant {a} was re-parsed instead of interned"
            );
        }
        // A different multiplier is a different pool.
        let bigger = PairGenerator::with_scale(&corpus, &categories, SurveyScale::times(4));
        assert_eq!(bigger.scaled_members().len(), base_len * 4);
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
