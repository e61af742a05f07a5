//! Shard selection, extracted to one place.
//!
//! Three layers partition key spaces over independent slots: the memo
//! table ([`ShardedMemo`](crate::memo::ShardedMemo)) spreads keys over
//! sixteen locks, the site resolver's host memo rides on it, and the
//! frozen page store shards its host table for concurrent generation.
//! All of them must agree on *how* a key picks a shard — the FNV-1a hash
//! of the key's `Hash` impl — so that assignment is platform-stable and
//! configured in exactly one place. [`ShardRouter`] is that place.
//!
//! What gets hashed is whatever the key's `Hash` writes. A domain name
//! (`rws_domain::DomainName`) writes its own cached FNV-1a as eight
//! little-endian bytes, not its text, so routing a host costs eight FNV
//! rounds whatever the name's length.
//!
//! Routing is a mask when the shard count is a power of two (the fast
//! path every production configuration uses) and a modulo otherwise, so
//! odd counts remain *correct* — the equivalence property tests
//! deliberately exercise a 7-way split — just not mask-cheap.

use std::hash::{Hash, Hasher};

use crate::memo::FnvHasher;

/// Environment variable overriding the frozen-store shard count.
pub const STORE_SHARDS_ENV: &str = "RWS_STORE_SHARDS";

/// Default shard count for the frozen page store. A modest power of two:
/// wide enough that an 8-worker pool renders every shard concurrently,
/// narrow enough that per-shard tables stay cache-friendly at smoke
/// scale.
pub const DEFAULT_STORE_SHARDS: usize = 8;

/// The FNV-1a hash of a key through its `Hash` impl — the workspace's
/// one platform-stable hash, shared with [`crate::memo::FnvHasher`].
pub fn fnv1a_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = FnvHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Maps hashes onto a fixed number of shards.
///
/// Construction is `const`, so lock-array owners like `ShardedMemo` can
/// route through a static router rather than re-deriving the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    count: usize,
}

impl ShardRouter {
    /// A router over `count` shards. `count` must be at least 1.
    pub const fn new(count: usize) -> ShardRouter {
        assert!(count >= 1, "shard count must be at least 1");
        ShardRouter { count }
    }

    /// Number of shards routed over.
    pub const fn count(&self) -> usize {
        self.count
    }

    /// Shard index for a pre-computed 64-bit hash: a mask for power-of-two
    /// counts, a modulo otherwise.
    pub const fn route_hash(&self, hash: u64) -> usize {
        if self.count.is_power_of_two() {
            (hash as usize) & (self.count - 1)
        } else {
            (hash % self.count as u64) as usize
        }
    }

    /// Shard index for a key, hashing with FNV-1a so assignment is stable
    /// across platforms and processes.
    pub fn route<K: Hash + ?Sized>(&self, key: &K) -> usize {
        self.route_hash(fnv1a_of(key))
    }
}

/// Shard count from an optional override string (the value of
/// [`STORE_SHARDS_ENV`]), falling back to `default` when absent, empty,
/// unparsable, or zero. Split from the env read so it is testable
/// without mutating process state.
pub fn shard_count_from(raw: Option<&str>, default: usize) -> usize {
    match raw.map(str::trim).filter(|s| !s.is_empty()) {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default,
        },
        None => default,
    }
}

/// The frozen-store shard count: [`STORE_SHARDS_ENV`] when set to a
/// positive integer, [`DEFAULT_STORE_SHARDS`] otherwise.
pub fn store_shard_count() -> usize {
    shard_count_from(
        std::env::var(STORE_SHARDS_ENV).ok().as_deref(),
        DEFAULT_STORE_SHARDS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_mask_matches_modulo() {
        for count in [1usize, 2, 4, 8, 16, 64] {
            let router = ShardRouter::new(count);
            for hash in [0u64, 1, 7, 0xdead_beef, u64::MAX, 0xcbf2_9ce4_8422_2325] {
                assert_eq!(
                    router.route_hash(hash),
                    (hash % count as u64) as usize,
                    "count={count} hash={hash}"
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_counts_stay_in_range_and_spread() {
        for count in [3usize, 7, 12] {
            let router = ShardRouter::new(count);
            let mut seen = vec![0usize; count];
            for i in 0..500 {
                let idx = router.route(&format!("host-{i}.example"));
                assert!(idx < count);
                seen[idx] += 1;
            }
            assert!(
                seen.iter().all(|&n| n > 0),
                "count={count}: some shard never hit: {seen:?}"
            );
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        assert_eq!(router.route(&"anything"), 0);
        assert_eq!(router.route_hash(u64::MAX), 0);
    }

    #[test]
    fn routing_is_stable_across_routers() {
        // Same count ⇒ same assignment, regardless of router instance.
        let a = ShardRouter::new(16);
        let b = ShardRouter::new(16);
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(a.route(&key), b.route(&key));
        }
    }

    #[test]
    fn fnv_matches_memo_hasher() {
        let mut hasher = FnvHasher::new();
        "site.example".hash(&mut hasher);
        assert_eq!(fnv1a_of(&"site.example"), hasher.finish());
    }

    #[test]
    fn shard_count_override_parsing() {
        assert_eq!(shard_count_from(None, 8), 8);
        assert_eq!(shard_count_from(Some(""), 8), 8);
        assert_eq!(shard_count_from(Some("  "), 8), 8);
        assert_eq!(shard_count_from(Some("0"), 8), 8);
        assert_eq!(shard_count_from(Some("banana"), 8), 8);
        assert_eq!(shard_count_from(Some("4"), 8), 4);
        assert_eq!(shard_count_from(Some(" 32 "), 8), 32);
        assert_eq!(shard_count_from(Some("7"), 8), 7);
    }
}
