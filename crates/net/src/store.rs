//! The frozen page store.
//!
//! The corpus is write-once, read-hundreds-of-times, so its host table
//! is frozen into an immutable [`FrozenWeb`] once generation finishes.
//! The table is split into N ≥ 1 private shards routed by the
//! workspace's FNV-1a host hash (the same [`ShardRouter`] the memo tables
//! use), so corpus generation can fan one pool task per shard and the
//! per-shard tables stay flat as the corpus scales. A [`DomainName`]
//! hashes as its cached name hash, so the route and the shard's map
//! lookup each hash eight bytes, never the name itself. One shard is simply
//! the unsharded table; the equivalence property tests compare every
//! other count against it.
//!
//! A read resolves shard-then-host: one mask/modulo on the key hash,
//! then the shard's plain `HashMap` lookup. No lock appears anywhere on
//! the path, accessors hand out genuine borrows
//! ([`page_html`](FrozenWeb::page_html) returns `&str` tied to `&self`),
//! and cloning the whole store is a single refcount bump.

use std::collections::HashMap;
use std::sync::Arc;

use rws_domain::DomainName;
use rws_stats::shard::ShardRouter;

use crate::url::Url;
use crate::web::{PageBody, ServedPage, SiteHost};

/// One shard's host table.
type Shard = HashMap<DomainName, SiteHost>;

/// Size accounting for one frozen shard, summed into the benchmark's
/// `corpus.body_bytes` metric. `body_bytes` counts the interned page
/// payloads — because bodies are interned `Bytes`, two stores sharing
/// hosts share those buffers and the sum is an upper bound on exclusive
/// ownership.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Hosts in the table.
    pub hosts: usize,
    /// Pages across all hosts.
    pub pages: usize,
    /// Total interned body bytes across all pages.
    pub body_bytes: usize,
}

impl StoreStats {
    fn add_host(&mut self, host: &SiteHost) {
        self.hosts += 1;
        for path in host.paths() {
            self.pages += 1;
            if let Some(body) = host.page_body(path) {
                self.body_bytes += body.len();
            }
        }
    }
}

/// An immutable, `Arc`-shared host table partitioned over N ≥ 1 shards.
///
/// Hosts route to shards by the FNV-1a hash of their [`DomainName`]'s
/// `Hash` (its cached name hash) — the exact assignment [`ShardRouter`]
/// computes — so a domain's shard is stable across platforms, processes,
/// and shard-local generation order. Power-of-two counts route with a mask, others with a modulo.
/// The shard count never changes what the store serves.
#[derive(Debug, Clone)]
pub struct FrozenWeb {
    shards: Arc<[Shard]>,
    router: ShardRouter,
}

impl Default for FrozenWeb {
    /// An empty one-shard store.
    fn default() -> Self {
        FrozenWeb::from_hosts(std::iter::empty(), 1)
    }
}

impl FrozenWeb {
    /// Freeze an explicit host table into `shard_count` shards. A later
    /// host replaces an earlier one with the same name.
    pub fn from_hosts<I: IntoIterator<Item = SiteHost>>(hosts: I, shard_count: usize) -> FrozenWeb {
        let router = ShardRouter::new(shard_count);
        let mut shards: Vec<Shard> = (0..shard_count).map(|_| Shard::new()).collect();
        for host in hosts {
            shards[router.route(host.domain())].insert(host.domain().clone(), host);
        }
        FrozenWeb {
            shards: shards.into(),
            router,
        }
    }

    /// Assemble from per-shard host tables that were *already routed* —
    /// the concurrent corpus generator builds each shard's table on its
    /// own pool task and stitches them here. Debug builds verify every
    /// host is keyed by its own name and lives on its routed shard.
    pub fn from_routed_shards(shards: Vec<HashMap<DomainName, SiteHost>>) -> FrozenWeb {
        assert!(!shards.is_empty(), "at least one shard required");
        let router = ShardRouter::new(shards.len());
        debug_assert!(shards.iter().enumerate().all(|(idx, shard)| {
            shard
                .iter()
                .all(|(domain, host)| host.domain() == domain && router.route(domain) == idx)
        }));
        FrozenWeb {
            shards: shards.into(),
            router,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `host` routes to.
    pub fn shard_of(&self, host: &DomainName) -> usize {
        self.router.route(host)
    }

    /// The host registered under `host`, if any. Lock-free: one hash to
    /// pick the shard, then the shard's map lookup.
    pub fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        self.shards[self.router.route(host)].get(host)
    }

    /// True if a host with this name exists.
    pub fn has_host(&self, host: &DomainName) -> bool {
        self.host(host).is_some()
    }

    /// Number of hosts across all shards.
    pub fn host_count(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// All host names, sorted (independent of the shard count).
    pub fn hosts(&self) -> Vec<DomainName> {
        let mut hosts: Vec<DomainName> = self.iter_hosts().map(|(d, _)| d.clone()).collect();
        hosts.sort();
        hosts
    }

    /// The interned body a host serves at `path`, borrowed from the
    /// snapshot.
    pub fn page_body(&self, host: &DomainName, path: &str) -> Option<&PageBody> {
        self.host(host).and_then(|h| h.page_body(path))
    }

    /// The HTML a host serves at `path`, borrowed from the snapshot —
    /// the zero-copy read the classifier and the similarity sweeps run on.
    pub fn page_html(&self, host: &DomainName, path: &str) -> Option<&str> {
        self.host(host).and_then(|h| h.page_html(path))
    }

    /// Resolve what a host would serve for a URL — identical semantics to
    /// [`SimulatedWeb::serve`](crate::SimulatedWeb::serve), without an
    /// overlay to consult first. Body and headers on the result are
    /// refcount bumps into the snapshot.
    pub fn serve(&self, url: &Url) -> ServedPage {
        match self.host(&url.host) {
            Some(host) => host.serve_path(url),
            None => ServedPage::NoSuchHost,
        }
    }

    /// Iterate the host table across shards, in unspecified order.
    /// Borrowed from the snapshot; re-freezing clones hosts from here
    /// without copying page payloads.
    pub(crate) fn iter_hosts(&self) -> impl Iterator<Item = (&DomainName, &SiteHost)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }

    /// True when `other` shares this store's shards (refcount identity,
    /// not deep comparison). This is the pin for
    /// [`SimulatedWeb::freeze`](crate::SimulatedWeb::freeze)'s fast path:
    /// freezing with an empty overlay hands back the *same* store.
    pub fn ptr_eq(&self, other: &FrozenWeb) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }

    /// Per-shard size accounting, in shard order.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards
            .iter()
            .map(|shard| {
                let mut stats = StoreStats::default();
                for host in shard.values() {
                    stats.add_host(host);
                }
                stats
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_with_page(name: &str, path: &str, html: &str) -> SiteHost {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page(path, html);
        host
    }

    fn sample_hosts(n: usize) -> Vec<SiteHost> {
        (0..n)
            .map(|i| host_with_page(&format!("site-{i}.example"), "/", &format!("<p>{i}</p>")))
            .collect()
    }

    #[test]
    fn routes_and_serves_like_one_shard() {
        let one = FrozenWeb::from_hosts(sample_hosts(40), 1);
        for count in [2usize, 7, 16] {
            let sharded = FrozenWeb::from_hosts(sample_hosts(40), count);
            assert_eq!(sharded.shard_count(), count);
            assert_eq!(sharded.host_count(), one.host_count());
            assert_eq!(sharded.hosts(), one.hosts());
            for domain in one.hosts() {
                let idx = sharded.shard_of(&domain);
                assert!(idx < count);
                assert!(sharded.shards[idx].contains_key(&domain));
                assert_eq!(sharded.page_html(&domain, "/"), one.page_html(&domain, "/"));
            }
        }
    }

    #[test]
    fn bodies_are_shared_not_copied() {
        let hosts = sample_hosts(5);
        let sharded = FrozenWeb::from_hosts(hosts.clone(), 2);
        for host in &hosts {
            let a = host.page_body("/").unwrap();
            let b = sharded.page_body(host.domain(), "/").unwrap();
            assert!(
                std::ptr::eq(a.as_bytes().as_ptr(), b.as_bytes().as_ptr()),
                "freezing must bump refcounts, not copy page payloads"
            );
        }
    }

    #[test]
    fn clone_is_identity() {
        let sharded = FrozenWeb::from_hosts(sample_hosts(10), 4);
        let clone = sharded.clone();
        assert!(sharded.ptr_eq(&clone));
        assert!(!sharded.ptr_eq(&FrozenWeb::from_hosts(sample_hosts(10), 4)));
    }

    #[test]
    fn shard_stats_cover_every_host_and_byte() {
        let hosts = sample_hosts(30);
        let total_bytes: usize = hosts
            .iter()
            .map(|h| h.page_body("/").map_or(0, |b| b.len()))
            .sum();
        let sharded = FrozenWeb::from_hosts(hosts, 7);
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 7);
        assert_eq!(stats.iter().map(|s| s.hosts).sum::<usize>(), 30);
        assert_eq!(stats.iter().map(|s| s.pages).sum::<usize>(), 30);
        assert_eq!(
            stats.iter().map(|s| s.body_bytes).sum::<usize>(),
            total_bytes
        );
    }

    #[test]
    fn from_routed_shards_matches_from_hosts() {
        let hosts = sample_hosts(20);
        let direct = FrozenWeb::from_hosts(hosts.clone(), 4);
        let router = ShardRouter::new(4);
        let mut tables: Vec<Shard> = (0..4).map(|_| Shard::new()).collect();
        for host in hosts {
            tables[router.route(host.domain())].insert(host.domain().clone(), host);
        }
        let stitched = FrozenWeb::from_routed_shards(tables);
        assert_eq!(stitched.hosts(), direct.hosts());
        assert_eq!(stitched.shard_stats(), direct.shard_stats());
    }
}
