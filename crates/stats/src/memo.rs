//! A sharded, concurrent memo table.
//!
//! Several layers memoize pure functions of hashable keys and want the
//! same concurrency shape: pool workers hammering the table from every
//! core should contend on a fraction of the key space, not one global
//! lock. [`ShardedMemo`] is that shape, extracted once — the site
//! resolver's host → eTLD+1 memo and the survey's pair → cues cache both
//! wrap it. Keys hash onto [`SHARD_COUNT`] independent `RwLock<HashMap>`
//! shards by masking their FNV-1a hash ([`fnv1a_of`]), so shard
//! assignment is stable across platforms and runs. A domain name
//! (`rws_domain::DomainName`) hashes as its cached FNV-1a, eight bytes
//! whatever the name's length.
//!
//! Lookups take a shard read lock; publishing takes the write lock and is
//! first-writer-wins ([`insert`](ShardedMemo::insert) returns the winning
//! value), which is exactly right for memoized *deterministic* functions:
//! two threads racing on the same uncached key compute the same value, so
//! the insert race is benign. Values are computed **outside** any lock —
//! the caller does `get` → compute → `insert` — trading the possibility
//! of duplicate computation for never holding a shard across the
//! (potentially expensive) function.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{PoisonError, RwLock};

/// Number of independent shards (must be a power of two).
pub const SHARD_COUNT: usize = 16;

/// FNV-1a as a [`Hasher`], so hashing follows each key type's own `Hash`
/// impl but stays platform-stable (unlike `DefaultHasher`, whose keys are
/// randomized per process) and an order of magnitude quicker than SipHash
/// on short keys. The workspace's one FNV: the memo's shard choice, the
/// classifier's keyword tables, `RwsList`'s member index, the load
/// target's site table and the PSL trie all use it, and raw byte hashes
/// (shingle tokens, rng stream labels, brand chrome) use [`fnv1a_bytes`],
/// rather than re-rolling the constants.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::new()
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The FNV-1a hash of a key through its `Hash` impl: what a
/// [`FnvHasher`] finishes with after hashing `key`.
pub fn fnv1a_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = FnvHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// The FNV-1a hash of raw bytes (no length or terminator mixed in, unlike
/// hashing a `str` through [`fnv1a_of`]).
#[inline]
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FnvHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// [`BuildHasher`] handing out [`FnvHasher`]s, for `HashMap`s keyed by
/// trusted short strings where SipHash's DoS resistance buys nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::new()
    }
}

fn shard_index<K: Hash>(key: &K) -> usize {
    fnv1a_of(key) as usize & (SHARD_COUNT - 1)
}

/// A concurrent key → value memo sharded over [`SHARD_COUNT`] locks.
/// It caches a pure function, so a poisoned shard still holds only correct
/// values: every access recovers the guard with [`PoisonError::into_inner`].
#[derive(Debug)]
pub struct ShardedMemo<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARD_COUNT],
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// An empty memo.
    pub fn new() -> ShardedMemo<K, V> {
        ShardedMemo {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    /// The cached value for a key, if any thread has published one.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = &self.shards[shard_index(key)];
        let cache = shard.read().unwrap_or_else(PoisonError::into_inner);
        cache.get(key).cloned()
    }

    /// Publish a value for a key. First writer wins: if another thread
    /// published while this one computed, the already-cached value is
    /// returned (and `value` is discarded), so every caller agrees.
    pub fn insert(&self, key: K, value: V) -> V {
        let shard = &self.shards[shard_index(&key)];
        let mut cache = shard.write().unwrap_or_else(PoisonError::into_inner);
        cache.entry(key).or_insert(value).clone()
    }

    /// The value for a key, computing (outside any lock) and publishing it
    /// on a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(&key) {
            return value;
        }
        let value = compute();
        self.insert(key, value)
    }

    /// Number of distinct keys memoized, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        ShardedMemo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_memo_hasher() {
        let mut hasher = FnvHasher::new();
        "site.example".hash(&mut hasher);
        assert_eq!(fnv1a_of(&"site.example"), hasher.finish());
        // The published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let memo: ShardedMemo<String, usize> = ShardedMemo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.get(&"a".to_string()), None);
        assert_eq!(memo.get_or_insert_with("a".to_string(), || 1), 1);
        // Cached: the closure's new value is ignored.
        assert_eq!(memo.get_or_insert_with("a".to_string(), || 99), 1);
        assert_eq!(memo.get(&"a".to_string()), Some(1));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let memo: ShardedMemo<u64, &'static str> = ShardedMemo::new();
        assert_eq!(memo.insert(7, "first"), "first");
        assert_eq!(memo.insert(7, "second"), "first");
        assert_eq!(memo.get(&7), Some("first"));
    }

    #[test]
    fn many_keys_spread_over_shards_and_count_exactly() {
        let memo: ShardedMemo<String, usize> = ShardedMemo::new();
        for i in 0..500 {
            memo.insert(format!("key-{i}"), i);
        }
        assert_eq!(memo.len(), 500);
        for i in 0..500 {
            assert_eq!(memo.get(&format!("key-{i}")), Some(i));
        }
        // FNV sharding actually distributes: no shard holds everything.
        let max_shard = memo
            .shards
            .iter()
            .map(|s| s.read().unwrap().len())
            .max()
            .unwrap();
        assert!(max_shard < 500, "all keys landed on one shard");
    }

    #[test]
    fn concurrent_publishers_agree() {
        let memo: ShardedMemo<u64, u64> = ShardedMemo::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let got = memo.get_or_insert_with(i, || i * 10);
                        assert_eq!(got, i * 10, "thread {t}");
                    }
                });
            }
        });
        assert_eq!(memo.len(), 200);
    }
}
