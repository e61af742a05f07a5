//! The frozen page store.
//!
//! The corpus is write-once, read-hundreds-of-times, so its host table
//! is frozen into an immutable [`FrozenWeb`] once generation finishes:
//! one [`HostTable`] from [`DomainName`] to [`SiteHost`] behind an `Arc`.
//! The table and each host's page table are keyed through FNV
//! ([`FnvBuildHasher`]), not SipHash: the keys are trusted names and
//! paths. A [`DomainName`] hashes as its cached name hash, so a host
//! lookup runs FNV over eight bytes, never over the name itself. The
//! generator and [`SimulatedWeb::freeze`](crate::SimulatedWeb::freeze)
//! build the table with that hasher from the start, so freezing never
//! rehashes it.
//!
//! No lock appears anywhere on the read path, accessors hand out genuine
//! borrows ([`page_html`](FrozenWeb::page_html) returns `&str` tied to
//! `&self`), and cloning the whole store is a single refcount bump.

use std::collections::HashMap;
use std::sync::Arc;

use rws_domain::DomainName;
use rws_stats::memo::FnvBuildHasher;

use crate::url::Url;
use crate::web::{PageBody, ServedPage, SiteHost};

/// Size accounting for the frozen store, summed into the benchmark's
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

/// A host table keyed through FNV: what [`FrozenWeb`] freezes and what
/// [`SimulatedWeb`](crate::SimulatedWeb)'s overlay collects.
pub type HostTable = HashMap<DomainName, SiteHost, FnvBuildHasher>;

/// An immutable, `Arc`-shared host table.
#[derive(Debug, Clone, Default)]
pub struct FrozenWeb {
    hosts: Arc<HostTable>,
}

impl FrozenWeb {
    /// Freeze a host table as it stands, without rehashing it. Every host
    /// must be keyed by its own name; debug builds check this.
    pub fn from_hosts(hosts: HostTable) -> FrozenWeb {
        debug_assert!(hosts.iter().all(|(name, host)| host.domain() == name));
        FrozenWeb {
            hosts: Arc::new(hosts),
        }
    }

    /// The host registered under `host`, if any. Lock-free: one map
    /// lookup.
    pub fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        self.hosts.get(host)
    }

    /// True if a host with this name exists.
    pub fn has_host(&self, host: &DomainName) -> bool {
        self.hosts.contains_key(host)
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// All host names, sorted.
    pub fn hosts(&self) -> Vec<DomainName> {
        let mut hosts: Vec<DomainName> = self.hosts.keys().cloned().collect();
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
    /// overlay to consult first. The body on the result is a refcount bump
    /// into the snapshot, and the headers are a static map or a refcount
    /// bump of the path's prebuilt one.
    pub fn serve(&self, url: &Url) -> ServedPage {
        match self.host(&url.host) {
            Some(host) => host.serve_path(url),
            None => ServedPage::NoSuchHost,
        }
    }

    /// Iterate the host table in unspecified order. Borrowed from the
    /// snapshot; re-freezing clones hosts from here without copying page
    /// payloads.
    pub(crate) fn iter_hosts(&self) -> impl Iterator<Item = &SiteHost> {
        self.hosts.values()
    }

    /// True when `other` shares this store's table (refcount identity,
    /// not deep comparison). This is the pin for
    /// [`SimulatedWeb::freeze`](crate::SimulatedWeb::freeze)'s fast path:
    /// freezing with an empty overlay hands back the *same* store.
    pub fn ptr_eq(&self, other: &FrozenWeb) -> bool {
        Arc::ptr_eq(&self.hosts, &other.hosts)
    }

    /// Size accounting for the whole table, as a single entry. The name
    /// and the `Vec` are pinned by the repository benchmark under
    /// `perfbench/`, which sums `body_bytes` over the entries.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        let mut stats = StoreStats::default();
        for host in self.hosts.values() {
            stats.hosts += 1;
            for path in host.paths() {
                stats.pages += 1;
                if let Some(body) = host.page_body(path) {
                    stats.body_bytes += body.len();
                }
            }
        }
        vec![stats]
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

    fn frozen(hosts: Vec<SiteHost>) -> FrozenWeb {
        FrozenWeb::from_hosts(
            hosts
                .into_iter()
                .map(|host| (host.domain().clone(), host))
                .collect(),
        )
    }

    #[test]
    fn bodies_are_shared_not_copied() {
        let hosts = sample_hosts(5);
        let frozen = frozen(hosts.clone());
        for host in &hosts {
            let a = host.page_body("/").unwrap();
            let b = frozen.page_body(host.domain(), "/").unwrap();
            assert!(
                std::ptr::eq(a.as_bytes().as_ptr(), b.as_bytes().as_ptr()),
                "freezing must bump refcounts, not copy page payloads"
            );
        }
    }

    #[test]
    fn clone_is_identity() {
        let store = frozen(sample_hosts(10));
        let clone = store.clone();
        assert!(store.ptr_eq(&clone));
        assert!(!store.ptr_eq(&frozen(sample_hosts(10))));
    }

    #[test]
    fn shard_stats_cover_every_host_and_byte() {
        let hosts = sample_hosts(30);
        let total_bytes: usize = hosts
            .iter()
            .map(|h| h.page_body("/").map_or(0, |b| b.len()))
            .sum();
        let stats = frozen(hosts).shard_stats();
        assert_eq!(
            stats,
            vec![StoreStats {
                hosts: 30,
                pages: 30,
                body_bytes: total_bytes,
            }]
        );
    }
}
