//! A sharded, concurrent cache of observed pair cues.
//!
//! Cues depend only on the pair shown, not on the participant: every
//! participant who draws `(a, b)` sees the same branding, domain and
//! category evidence. The sequential runner memoized this in a run-local
//! `HashMap`; with participants fanned out across the pool the cache must
//! be shared *between* concurrent participants, so it wraps the same
//! [`ShardedMemo`] the site resolver's host table uses. Observation is
//! deterministic, so two participants racing on the same uncached pair
//! compute the same [`Cues`] and the first-writer-wins insert is benign.

use crate::pairs::SitePair;
use crate::participant::Cues;
use rws_corpus::Corpus;
use rws_domain::{DomainName, SiteResolver};
use rws_stats::memo::ShardedMemo;

/// A concurrent pair → [`Cues`] memo shared by every participant of a run.
#[derive(Debug, Default)]
pub struct CueCache {
    memo: ShardedMemo<(DomainName, DomainName), Cues>,
}

impl CueCache {
    /// An empty cache.
    pub fn new() -> CueCache {
        CueCache {
            memo: ShardedMemo::new(),
        }
    }

    /// The cues for a pair: answered from the cache when any participant
    /// already observed it, computed (through the shared resolver) and
    /// published otherwise.
    pub fn observe(&self, corpus: &Corpus, pair: &SitePair, resolver: &SiteResolver) -> Cues {
        self.memo
            .get_or_insert_with((pair.first.clone(), pair.second.clone()), || {
                Cues::observe(corpus, pair, resolver)
            })
    }

    /// Number of distinct pairs cached, across all shards.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairGroup;
    use rws_engine::EngineContext;

    fn pair(a: &str, b: &str) -> SitePair {
        SitePair {
            first: DomainName::parse(a).unwrap(),
            second: DomainName::parse(b).unwrap(),
            group: PairGroup::RwsOtherSet,
        }
    }

    #[test]
    fn caches_distinct_pairs_once() {
        let corpus = rws_corpus::CorpusGenerator::new(rws_corpus::CorpusConfig::small(3))
            .generate_with(&EngineContext::embedded());
        let resolver = SiteResolver::embedded();
        let cache = CueCache::new();
        assert!(cache.is_empty());
        let domains = corpus.list.all_domains();
        let p = pair(domains[0].as_str(), domains[1].as_str());
        let first = cache.observe(&corpus, &p, &resolver);
        let again = cache.observe(&corpus, &p, &resolver);
        assert_eq!(first, again);
        assert_eq!(cache.len(), 1);
        let q = pair(domains[1].as_str(), domains[2].as_str());
        let _ = cache.observe(&corpus, &q, &resolver);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_cues_match_direct_observation() {
        let corpus = rws_corpus::CorpusGenerator::new(rws_corpus::CorpusConfig::small(5))
            .generate_with(&EngineContext::embedded());
        let resolver = SiteResolver::embedded();
        let cache = CueCache::new();
        let domains = corpus.list.all_domains();
        for window in domains.windows(2).take(10) {
            let p = pair(window[0].as_str(), window[1].as_str());
            let cached = cache.observe(&corpus, &p, &resolver);
            let direct = Cues::observe(&corpus, &p, &resolver);
            assert_eq!(cached, direct);
        }
    }

    #[test]
    fn concurrent_observers_agree() {
        let corpus = rws_corpus::CorpusGenerator::new(rws_corpus::CorpusConfig::small(7))
            .generate_with(&EngineContext::embedded());
        let resolver = SiteResolver::embedded();
        let cache = CueCache::new();
        let domains = corpus.list.all_domains();
        let pairs: Vec<SitePair> = domains
            .windows(2)
            .map(|w| pair(w[0].as_str(), w[1].as_str()))
            .collect();
        let ctx = EngineContext::with_parts(rws_engine::ThreadPool::new(3), resolver.clone());
        let observed = ctx.par_map_coarse(&pairs, |_, p| cache.observe(&corpus, p, &resolver));
        for (p, cues) in pairs.iter().zip(&observed) {
            assert_eq!(*cues, Cues::observe(&corpus, p, &resolver));
        }
        assert_eq!(cache.len(), pairs.len());
    }
}
