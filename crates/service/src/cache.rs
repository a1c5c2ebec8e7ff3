//! The content-addressed solve cache: a sharded, capacity-bounded LRU
//! keyed by canonical wire bytes.
//!
//! The paper's measures are pure functions of a game description, which
//! makes solve results perfectly cacheable: the cache key is the
//! canonical JSON of the request (game + backend + budget — thread count
//! excluded, it never changes results), addressed by XXH64
//! ([`bi_util::xxh64`]), which reads the bytes a word at a time in four
//! independent lanes, so even a ~22 KB body hashes in a few µs at most.
//! The hash is computed **once** per operation: it picks the shard, then
//! indexes the shard's bucket map. Each shard is an
//! independent `Mutex`-guarded LRU, so concurrent workers rarely contend
//! on the same lock. Within a bucket, every candidate slot is compared
//! against the **full** key bytes, so a 64-bit collision can never
//! return (or displace) the wrong entry — the hash only routes, the
//! bytes decide. The collision seam is testable: a test-only constructor
//! overrides the hash function, forcing distinct keys onto one hash and
//! one shard.
//!
//! Eviction is exact LRU per shard via an intrusive doubly-linked list
//! over a slab: `get`, `insert`, and evict are all O(1) (plus the length
//! of the — almost always singleton — collision bucket). Hit, miss,
//! insertion, and eviction counts are kept in atomics and surface in the
//! server's `GET /metrics`.
//!
//! # Examples
//!
//! ```
//! use bi_service::cache::{CacheConfig, ShardedLru};
//!
//! let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
//!     capacity: 2,
//!     shards: 1,
//! });
//! cache.insert(b"a", 1);
//! cache.insert(b"b", 2);
//! assert_eq!(cache.get(b"a"), Some(1));
//! cache.insert(b"c", 3); // evicts "b", the least recently used
//! assert_eq!(cache.get(b"b"), None);
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bi_util::{xxh64, Xxh64BuildHasher};

/// No-link sentinel of the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Sizing of a [`ShardedLru`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry capacity across all shards (`0` disables caching).
    pub capacity: usize,
    /// Number of independently locked shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    /// 4096 entries across 16 shards.
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 16,
        }
    }
}

/// A point-in-time snapshot of cache effectiveness, reported by
/// `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found a live entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries inserted (updates of an existing key count too).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

/// One LRU slab entry: the key (for exact comparison), its routing hash
/// (to find the collision bucket again on evict), the value, and the
/// intrusive recency links.
struct Entry<V> {
    key: Arc<[u8]>,
    hash: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// One shard: an exact LRU over a slab, indexed by routing hash into
/// collision buckets of slots. Buckets are almost always singletons; the
/// full key bytes decide within one.
struct Shard<V> {
    /// Routing hash → slab slots carrying that hash.
    index: HashMap<u64, Vec<usize>, Xxh64BuildHasher>,
    slots: Vec<Entry<V>>,
    free: Vec<usize>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot (`NIL` when empty).
    tail: usize,
    /// Live entries (buckets can hold several, so `index.len()` is not it).
    len: usize,
    capacity: usize,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            index: HashMap::with_hasher(Xxh64BuildHasher),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Attaches `slot` at the most-recently-used end.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    /// The slot in `hash`'s bucket whose key bytes equal `key`, if any —
    /// the one place hash collisions are disambiguated.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&slot| self.slots[slot].key.as_ref() == key)
    }

    fn get(&mut self, hash: u64, key: &[u8]) -> Option<V> {
        let slot = self.find(hash, key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Drops `slot` from its collision bucket (removing the bucket when
    /// it empties).
    fn remove_from_bucket(&mut self, slot: usize) {
        let hash = self.slots[slot].hash;
        if let Some(bucket) = self.index.get_mut(&hash) {
            bucket.retain(|&s| s != slot);
            if bucket.is_empty() {
                self.index.remove(&hash);
            }
        }
    }

    /// Inserts or updates; returns whether an eviction happened.
    fn insert(&mut self, hash: u64, key: &[u8], value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(slot) = self.find(hash, key) {
            self.slots[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return false;
        }
        let mut evicted = false;
        if self.len == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty shard at capacity");
            self.unlink(lru);
            self.remove_from_bucket(lru);
            self.free.push(lru);
            self.len -= 1;
            evicted = true;
        }
        let entry = Entry {
            key: Arc::from(key),
            hash,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.entry(hash).or_default().push(slot);
        self.len += 1;
        self.push_front(slot);
        evicted
    }
}

/// A sharded, capacity-bounded, exact-LRU cache keyed by canonical bytes.
///
/// Values are cloned out on hit — use a cheap-to-clone `V` (the service
/// stores `Arc<[u8]>` response bodies).
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// The routing hash (XXH64 in production; overridable in tests to
    /// force collisions through the full-key comparison seam).
    hash_fn: fn(&[u8]) -> u64,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// Creates a cache with `config.capacity` entries spread over
    /// `config.shards` independently locked shards. The shard count is
    /// clamped to the capacity so no shard ends up with zero entries
    /// (which would silently make part of the keyspace uncacheable).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self::with_hash_fn(config, xxh64)
    }

    /// [`ShardedLru::new`] with an explicit routing-hash function — the
    /// collision tests force every key onto one hash and one shard to
    /// prove the byte comparison (not the hash) decides identity.
    fn with_hash_fn(config: CacheConfig, hash_fn: fn(&[u8]) -> u64) -> Self {
        let shards = config.shards.max(1).min(config.capacity.max(1));
        // Spread the capacity as evenly as possible; the first `rem`
        // shards take one extra entry so the total is exact.
        let per = config.capacity / shards;
        let rem = config.capacity % shards;
        ShardedLru {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(per + usize::from(i < rem))))
                .collect(),
            hash_fn,
            capacity: config.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<V>> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let hash = (self.hash_fn)(key);
        let result = self
            .shard(hash)
            .lock()
            .expect("cache shard poisoned")
            .get(hash, key);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Inserts (or refreshes) `key → value`, evicting the shard's least
    /// recently used entry if the shard is full.
    pub fn insert(&self, key: &[u8], value: V) {
        let hash = (self.hash_fn)(key);
        let evicted = self
            .shard(hash)
            .lock()
            .expect("cache shard poisoned")
            .insert(hash, key, value);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time effectiveness snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len)
                .sum(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_is_exact_within_a_shard() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            capacity: 3,
            shards: 1,
        });
        cache.insert(b"a", 1);
        cache.insert(b"b", 2);
        cache.insert(b"c", 3);
        // Touch "a" so "b" becomes the LRU.
        assert_eq!(cache.get(b"a"), Some(1));
        cache.insert(b"d", 4);
        assert_eq!(cache.get(b"b"), None, "LRU entry must be evicted");
        assert_eq!(cache.get(b"a"), Some(1));
        assert_eq!(cache.get(b"c"), Some(3));
        assert_eq!(cache.get(b"d"), Some(4));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn updates_refresh_instead_of_evicting() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        cache.insert(b"a", 1);
        cache.insert(b"b", 2);
        cache.insert(b"a", 10); // update, no eviction
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(b"a"), Some(10));
        cache.insert(b"c", 3); // now "b" is LRU
        assert_eq!(cache.get(b"b"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            capacity: 0,
            shards: 4,
        });
        cache.insert(b"a", 1);
        assert_eq!(cache.get(b"a"), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn capacity_spreads_exactly_across_shards() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            capacity: 10,
            shards: 4,
        });
        let per: Vec<usize> = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().capacity)
            .collect();
        assert_eq!(per.iter().sum::<usize>(), 10);
        assert_eq!(*per.iter().max().unwrap() - *per.iter().min().unwrap(), 1);
    }

    #[test]
    fn shard_count_clamps_to_capacity_so_every_shard_caches() {
        // capacity 8 over 16 configured shards: without clamping, half
        // the keyspace would route to zero-capacity shards and never
        // cache.
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            capacity: 8,
            shards: 16,
        });
        assert_eq!(cache.shards.len(), 8);
        for i in 0..200u32 {
            let key = format!("key-{i}");
            cache.insert(key.as_bytes(), i);
            assert_eq!(
                cache.get(key.as_bytes()),
                Some(i),
                "a just-inserted key must always be retrievable"
            );
        }
    }

    #[test]
    fn heavy_reuse_keeps_hot_keys_across_shards() {
        let cache: ShardedLru<usize> = ShardedLru::new(CacheConfig {
            capacity: 64,
            shards: 8,
        });
        for round in 0..4 {
            for i in 0..32 {
                let key = format!("game-{i}");
                match cache.get(key.as_bytes()) {
                    Some(v) => assert_eq!(v, i),
                    None => {
                        assert_eq!(round, 0, "only the first round may miss");
                        cache.insert(key.as_bytes(), i);
                    }
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.hits, 3 * 32);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new(CacheConfig {
            capacity: 128,
            shards: 8,
        }));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = format!("k{}", i % 50);
                        if let Some(v) = cache.get(key.as_bytes()) {
                            assert_eq!(v, i % 50, "thread {t}");
                        } else {
                            cache.insert(key.as_bytes(), i % 50);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.entries <= 50);
    }

    /// Every key hashes to 42 — all keys share one hash, one bucket, and
    /// one shard, so only the full-key comparison can tell them apart.
    fn colliding<V: Clone>(capacity: usize) -> ShardedLru<V> {
        ShardedLru::with_hash_fn(
            CacheConfig {
                capacity,
                shards: 4, // >1 configured: the collision also pins the shard
            },
            |_| 42,
        )
    }

    #[test]
    fn forced_collisions_do_not_alias_on_hit() {
        let cache = colliding::<u32>(8);
        cache.insert(b"alpha", 1);
        cache.insert(b"beta", 2);
        // Same 64-bit hash, same shard, same bucket — each key still
        // answers with its own value.
        assert_eq!(cache.get(b"alpha"), Some(1));
        assert_eq!(cache.get(b"beta"), Some(2));
        // A third colliding key that was never inserted must miss, not
        // alias onto a bucket-mate.
        assert_eq!(cache.get(b"gamma"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn forced_collisions_do_not_alias_on_insert() {
        let cache = colliding::<u32>(8);
        cache.insert(b"alpha", 1);
        // An insert of a colliding-but-different key must create a new
        // entry, not overwrite the bucket-mate …
        cache.insert(b"beta", 2);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get(b"alpha"), Some(1));
        // … while re-inserting the same key bytes must update in place.
        cache.insert(b"alpha", 10);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get(b"alpha"), Some(10));
        assert_eq!(cache.get(b"beta"), Some(2));
    }

    #[test]
    fn forced_collisions_evict_exactly_the_lru_key() {
        // capacity 8 over 4 shards: the pinned shard holds 2 entries, so
        // the third colliding insert must evict the LRU bucket-mate.
        let cache = colliding::<u32>(8);
        cache.insert(b"alpha", 1);
        cache.insert(b"beta", 2);
        // Touch "alpha" so "beta" is the LRU; the eviction must remove
        // "beta" from the shared bucket without disturbing "alpha".
        assert_eq!(cache.get(b"alpha"), Some(1));
        cache.insert(b"gamma", 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(b"beta"), None, "the LRU bucket-mate is gone");
        assert_eq!(cache.get(b"alpha"), Some(1));
        assert_eq!(cache.get(b"gamma"), Some(3));
        // The bucket stays coherent after eviction: the evicted key can
        // come back and all three rotate correctly.
        cache.insert(b"beta", 20);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.get(b"beta"), Some(20));
        assert_eq!(cache.stats().entries, 2);
    }
}
