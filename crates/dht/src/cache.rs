//! A per-node reputation cache: LRU + TTL eviction over DHT keys (or any
//! other small copyable key, such as a file id).
//!
//! The authoritative evaluation state lives in the overlay (and, in the
//! simulator, in the `EvaluationStore`); a [`ReputationCache`] is the
//! deliberately *stale* performance tier in front of it. Every entry
//! remembers when it was filled, so a hit can always report its staleness
//! — the divergence-bounding harness checks every hit against the
//! authoritative answer and asserts `age <= ttl`.
//!
//! The cache is fully deterministic: LRU order is a monotonically
//! increasing use sequence (no wall clock, no hash-iteration order), and a
//! TTL of zero turns the cache into a bypass (`get` always misses,
//! `insert` is a no-op) so cached and uncached runs can be compared
//! bit-for-bit.

use crate::id::Key;
use mdrep_types::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::Hash;

/// Capacity and TTL of a [`ReputationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum live entries; inserting past it evicts the least recently
    /// used entry. A capacity of zero is a bypass.
    pub capacity: usize,
    /// Entry time to live. An entry filled at `t` serves hits strictly
    /// before `t + ttl` and is evicted exactly at the expiry tick
    /// (matching the overlay's `expires_at > now` liveness rule). A TTL of
    /// zero is a bypass: every lookup misses and nothing is stored.
    pub ttl: SimDuration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 128,
            ttl: SimDuration::from_hours(1),
        }
    }
}

impl CacheConfig {
    /// A bypass configuration: the cache stores nothing and every lookup
    /// misses, so the retrieval path is bit-identical to having no cache.
    #[must_use]
    pub fn bypass() -> Self {
        Self {
            capacity: 0,
            ttl: SimDuration::ZERO,
        }
    }

    /// Whether this configuration caches nothing.
    #[must_use]
    pub fn is_bypass(&self) -> bool {
        self.capacity == 0 || self.ttl.as_ticks() == 0
    }
}

/// Hit/miss/staleness counters of one cache (or an aggregate of many).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served (`hits + misses`).
    pub lookups: u64,
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// The misses that found an entry past its TTL (evicted on contact).
    pub expired_misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Evictions forced by capacity (least recently used entry dropped).
    pub lru_evictions: u64,
    /// Evictions of entries past their TTL (lookup-time or sweep).
    pub expired_evictions: u64,
    /// Sum of hit ages in ticks (staleness mass served).
    pub sum_hit_age_ticks: u64,
    /// Worst hit age in ticks. The TTL bound guarantees
    /// `max_hit_age_ticks < ttl`.
    pub max_hit_age_ticks: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (`0.0` when no lookups — the
    /// same zero-not-NaN contract as the sim report rates).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Mean staleness of served hits in ticks (`0.0` with no hits).
    #[must_use]
    pub fn mean_hit_age_ticks(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.sum_hit_age_ticks as f64 / self.hits as f64
        }
    }

    /// Folds another stats block into this one (for aggregating per-node
    /// caches into one tier-wide view).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.expired_misses += other.expired_misses;
        self.inserts += other.inserts;
        self.lru_evictions += other.lru_evictions;
        self.expired_evictions += other.expired_evictions;
        self.sum_hit_age_ticks += other.sum_hit_age_ticks;
        self.max_hit_age_ticks = self.max_hit_age_ticks.max(other.max_hit_age_ticks);
    }
}

/// A successful lookup: the cached value plus exactly how stale it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHit<'a, V> {
    /// The cached value.
    pub value: &'a V,
    /// When the entry was filled.
    pub cached_at: SimTime,
    /// `now - cached_at` at lookup time; always `< ttl` for a served hit.
    pub age: SimDuration,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    cached_at: SimTime,
    expires_at: SimTime,
    last_used: u64,
}

/// A deterministic LRU + TTL cache keyed by DHT [`Key`] unless another
/// key type `K` is named.
///
/// # Examples
///
/// ```
/// use mdrep_dht::{CacheConfig, Key, ReputationCache};
/// use mdrep_types::{SimDuration, SimTime};
///
/// let mut cache: ReputationCache<&str> = ReputationCache::new(CacheConfig {
///     capacity: 2,
///     ttl: SimDuration::from_secs(10),
/// });
/// let key = Key::for_content(b"file");
/// assert!(cache.get(&key, SimTime::ZERO).is_none());
/// cache.insert(key, "records", SimTime::ZERO);
/// let hit = cache.get(&key, SimTime::from_ticks(9)).expect("fresh");
/// assert_eq!(*hit.value, "records");
/// assert_eq!(hit.age, SimDuration::from_secs(9));
/// // Eviction happens exactly at the expiry tick.
/// assert!(cache.get(&key, SimTime::from_ticks(10)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ReputationCache<V, K = Key> {
    config: CacheConfig,
    entries: HashMap<K, Entry<V>>,
    use_seq: u64,
    stats: CacheStats,
}

impl<V, K: Copy + Eq + Hash> ReputationCache<V, K> {
    /// An empty cache with the given configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            use_seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entries (including ones that would expire on next contact).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up at `now`, counting a hit or a miss. Entries at or
    /// past their expiry tick are evicted on contact and count as
    /// `expired_misses`.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<CacheHit<'_, V>> {
        self.stats.lookups += 1;
        if self.config.is_bypass() {
            self.stats.misses += 1;
            return None;
        }
        match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(entry) if entry.expires_at <= now => {
                self.entries.remove(key);
                self.stats.misses += 1;
                self.stats.expired_misses += 1;
                self.stats.expired_evictions += 1;
                None
            }
            Some(_) => {
                self.use_seq += 1;
                let seq = self.use_seq;
                let entry = self.entries.get_mut(key).expect("checked above");
                entry.last_used = seq;
                let age = now - entry.cached_at;
                self.stats.hits += 1;
                self.stats.sum_hit_age_ticks += age.as_ticks();
                self.stats.max_hit_age_ticks = self.stats.max_hit_age_ticks.max(age.as_ticks());
                Some(CacheHit {
                    value: &entry.value,
                    cached_at: entry.cached_at,
                    age,
                })
            }
        }
    }

    /// Whether a fresh entry exists for `key` at `now` (no counter
    /// updates, no eviction — a pure read for assertions and dedup).
    #[must_use]
    pub fn contains_fresh(&self, key: &K, now: SimTime) -> bool {
        self.entries
            .get(key)
            .is_some_and(|entry| entry.expires_at > now)
    }

    /// Mutable access to a fresh entry's value (e.g. to merge a gossiped
    /// record into an existing array) without hit/miss accounting. An
    /// entry at or past expiry is evicted and `None` is returned.
    pub fn value_mut(&mut self, key: &K, now: SimTime) -> Option<&mut V> {
        if self.config.is_bypass() {
            return None;
        }
        match self.entries.get(key) {
            None => None,
            Some(entry) if entry.expires_at <= now => {
                self.entries.remove(key);
                self.stats.expired_evictions += 1;
                None
            }
            Some(_) => {
                self.use_seq += 1;
                let seq = self.use_seq;
                let entry = self.entries.get_mut(key).expect("checked above");
                entry.last_used = seq;
                Some(&mut entry.value)
            }
        }
    }

    /// Stores `value` under `key`, stamped `now`, evicting the least
    /// recently used entry if the cache is full. A bypass configuration
    /// stores nothing; re-inserting a key refreshes its value, timestamp,
    /// and TTL.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        if self.config.is_bypass() {
            return;
        }
        self.use_seq += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.config.capacity {
            // Deterministic LRU: the smallest use sequence is unique.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.lru_evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                value,
                cached_at: now,
                expires_at: now + self.config.ttl,
                last_used: self.use_seq,
            },
        );
        self.stats.inserts += 1;
    }

    /// Sweeps every entry at or past its expiry tick; returns how many
    /// were evicted.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, entry| entry.expires_at > now);
        let evicted = before - self.entries.len();
        self.stats.expired_evictions += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::for_content(&i.to_be_bytes())
    }

    fn cache(capacity: usize, ttl_ticks: u64) -> ReputationCache<u64> {
        ReputationCache::new(CacheConfig {
            capacity,
            ttl: SimDuration::from_ticks(ttl_ticks),
        })
    }

    #[test]
    fn hit_after_insert_reports_age() {
        let mut c = cache(4, 100);
        c.insert(key(1), 42, SimTime::from_ticks(10));
        let hit = c.get(&key(1), SimTime::from_ticks(30)).expect("fresh");
        assert_eq!(*hit.value, 42);
        assert_eq!(hit.cached_at, SimTime::from_ticks(10));
        assert_eq!(hit.age.as_ticks(), 20);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (1, 1, 0));
        assert_eq!(s.max_hit_age_ticks, 20);
    }

    #[test]
    fn eviction_happens_exactly_at_the_expiry_tick() {
        let mut c = cache(4, 50);
        c.insert(key(1), 7, SimTime::ZERO);
        // One tick before expiry: still served.
        assert!(c.get(&key(1), SimTime::from_ticks(49)).is_some());
        // Exactly at the expiry tick: evicted, a miss.
        assert!(c.get(&key(1), SimTime::from_ticks(50)).is_none());
        assert!(c.is_empty(), "expired entry evicted on contact");
        let s = c.stats();
        assert_eq!(s.expired_misses, 1);
        assert_eq!(s.expired_evictions, 1);
        // The served hit's age respects the bound: age < ttl.
        assert!(s.max_hit_age_ticks < 50);
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut c = cache(2, 1000);
        c.insert(key(1), 1, SimTime::ZERO);
        c.insert(key(2), 2, SimTime::ZERO);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(c.get(&key(1), SimTime::ZERO).is_some());
        c.insert(key(3), 3, SimTime::ZERO);
        assert_eq!(c.len(), 2);
        assert!(c.contains_fresh(&key(1), SimTime::ZERO));
        assert!(!c.contains_fresh(&key(2), SimTime::ZERO), "LRU evicted");
        assert!(c.contains_fresh(&key(3), SimTime::ZERO));
        assert_eq!(c.stats().lru_evictions, 1);
    }

    #[test]
    fn ttl_zero_is_a_bypass() {
        let mut c = cache(8, 0);
        assert!(c.config().is_bypass());
        c.insert(key(1), 1, SimTime::ZERO);
        assert!(c.is_empty(), "bypass stores nothing");
        assert!(c.get(&key(1), SimTime::ZERO).is_none());
        let s = c.stats();
        assert_eq!((s.lookups, s.misses, s.inserts), (1, 1, 0));
        assert!(CacheConfig::bypass().is_bypass());
        assert!(!CacheConfig::default().is_bypass());
    }

    #[test]
    fn reinsert_refreshes_value_and_ttl() {
        let mut c = cache(4, 100);
        c.insert(key(1), 1, SimTime::ZERO);
        c.insert(key(1), 2, SimTime::from_ticks(80));
        let hit = c.get(&key(1), SimTime::from_ticks(150)).expect("refreshed");
        assert_eq!(*hit.value, 2);
        assert_eq!(hit.cached_at, SimTime::from_ticks(80));
        assert_eq!(c.len(), 1, "replaced, not duplicated");
    }

    #[test]
    fn expire_sweeps_only_stale_entries() {
        let mut c = cache(8, 100);
        c.insert(key(1), 1, SimTime::ZERO);
        c.insert(key(2), 2, SimTime::from_ticks(60));
        assert_eq!(c.expire(SimTime::from_ticks(100)), 1);
        assert!(!c.contains_fresh(&key(1), SimTime::from_ticks(100)));
        assert!(c.contains_fresh(&key(2), SimTime::from_ticks(100)));
    }

    #[test]
    fn value_mut_edits_fresh_entries_only() {
        let mut c = cache(4, 100);
        c.insert(key(1), 1, SimTime::ZERO);
        *c.value_mut(&key(1), SimTime::from_ticks(10))
            .expect("fresh") = 9;
        assert_eq!(*c.get(&key(1), SimTime::from_ticks(10)).unwrap().value, 9);
        assert!(c.value_mut(&key(1), SimTime::from_ticks(100)).is_none());
        assert!(c.is_empty(), "expired entry evicted by value_mut");
    }

    #[test]
    fn stats_aggregate_and_ratios() {
        let mut a = CacheStats {
            lookups: 8,
            hits: 6,
            misses: 2,
            sum_hit_age_ticks: 12,
            max_hit_age_ticks: 5,
            ..CacheStats::default()
        };
        let b = CacheStats {
            lookups: 2,
            hits: 0,
            misses: 2,
            max_hit_age_ticks: 0,
            ..CacheStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.lookups, 10);
        assert!((a.hit_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(a.mean_hit_age_ticks(), 2.0);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        assert_eq!(CacheStats::default().mean_hit_age_ticks(), 0.0);
    }
}
