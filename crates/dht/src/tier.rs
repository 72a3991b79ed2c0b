//! The evaluation cache tier: per-node [`ReputationCache`]s in front of
//! the overlay's retrieval path, batched republication, and gossip push
//! of hot files' evaluation records.
//!
//! The split follows the "authoritative store as source of truth, DHT as
//! performance cache" design: the overlay (and behind it the evaluation
//! store) stays authoritative, while each node keeps a TTL'd, signed
//! snapshot of recently retrieved evaluation arrays. Every cached record
//! went through signature verification on the way in — tampered gossip is
//! rejected at the receiver, never cached.
//!
//! All tier traffic flows through the [`Dht`]'s [`FaultInjector`]: gossip
//! pushes are lossy, partition-blocked, duplicated, and byzantine-tampered
//! exactly like lookups, and batched republication skips (then repairs)
//! churned publishers.
//!
//! [`FaultInjector`]: crate::FaultInjector

use crate::cache::{CacheConfig, CacheStats, ReputationCache};
use crate::dht::{Dht, DhtError, GossipDelivery, RepublishReport};
use crate::evaluation::{EvaluationInfo, EvaluationPublisher, VerifiedEvaluation};
use crate::fault::{fnv1a, mix3};
use crate::id::Key;
use mdrep_crypto::KeyRegistry;
use mdrep_types::{FileId, SimDuration, SimTime, UserId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Gossip dissemination knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Peers each hot-file push fans out to.
    pub fanout: usize,
    /// Network retrievals of a key before it counts as hot and gets
    /// pushed.
    pub hot_threshold: u64,
    /// Seed for deterministic fan-out target selection.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            fanout: 4,
            hot_threshold: 3,
            seed: 0,
        }
    }
}

/// Gossip counters: push fates on the send side, record fates on the
/// receive side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GossipStats {
    /// Pushes sent (one per fan-out target).
    pub pushes: u64,
    /// Pushes that reached an online receiver.
    pub delivered: u64,
    /// Pushes lost, blocked, timed out, or refused.
    pub failed: u64,
    /// Records merged into a receiver's cache.
    pub records_accepted: u64,
    /// Records suppressed by the receiver's seen-set (duplicate pushes and
    /// in-transit duplication).
    pub records_duplicate: u64,
    /// Records that decoded but failed signature verification.
    pub records_rejected: u64,
    /// Record bytes that did not decode (tampering garbles the encoding).
    pub records_undecodable: u64,
}

/// Configuration of an [`EvaluationCacheTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheTierConfig {
    /// Per-node cache shape (capacity + TTL).
    pub cache: CacheConfig,
    /// Gossip push of hot files' records; `None` disables gossip.
    pub gossip: Option<GossipConfig>,
    /// Minimum spacing between a publisher's batched republications.
    pub republish_interval: SimDuration,
}

impl Default for CacheTierConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            gossip: Some(GossipConfig::default()),
            republish_interval: SimDuration::from_mins(30),
        }
    }
}

/// Where a [`CachedRetrieval`] was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalSource {
    /// Served from the requester's cache; `age` is `now - cached_at`
    /// (always `< ttl`).
    Cache {
        /// Staleness of the served entry.
        age: SimDuration,
    },
    /// Served by a fresh overlay retrieval.
    Network,
}

/// A tier retrieval: the verified records plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRetrieval {
    /// Signature-valid records (invalid ones are dropped before caching,
    /// so cache and network paths agree on what "the records" means). A
    /// cache hit hands out the cached list itself; a later gossip merge
    /// at that node replaces the cached list and leaves this one as it is.
    pub records: Arc<[VerifiedEvaluation]>,
    /// Cache hit (with staleness) or network fetch.
    pub source: RetrievalSource,
    /// Replica holders the network path could not reach (always 0 on a
    /// cache hit). Non-zero means the result may be a partial owner list —
    /// such results are served but never cached.
    pub unreachable: usize,
}

/// Per-node evaluation caches + gossip + batched republication over one
/// [`Dht`].
///
/// # Examples
///
/// ```
/// use mdrep_crypto::KeyRegistry;
/// use mdrep_dht::{CacheTierConfig, Dht, DhtConfig, EvaluationCacheTier, RetrievalSource};
/// use mdrep_types::{Evaluation, FileId, SimTime, UserId};
///
/// let mut dht = Dht::new(DhtConfig::default());
/// let mut registry = KeyRegistry::new();
/// for i in 0..16 {
///     dht.join(UserId::new(i), SimTime::ZERO);
///     registry.register(UserId::new(i), 1000 + i);
/// }
/// let mut tier = EvaluationCacheTier::new(CacheTierConfig::default());
/// let key = registry.key_of(UserId::new(1)).unwrap().clone();
/// tier.publish(&mut dht, &key, UserId::new(1), FileId::new(3), Evaluation::BEST, SimTime::ZERO)
///     .unwrap();
///
/// let viewer = UserId::new(9);
/// let first = tier
///     .retrieve(&mut dht, &registry, viewer, FileId::new(3), SimTime::ZERO)
///     .unwrap();
/// assert_eq!(first.source, RetrievalSource::Network);
/// let second = tier
///     .retrieve(&mut dht, &registry, viewer, FileId::new(3), SimTime::from_ticks(5))
///     .unwrap();
/// assert!(matches!(second.source, RetrievalSource::Cache { .. }));
/// assert_eq!(second.records, first.records);
/// ```
#[derive(Debug)]
pub struct EvaluationCacheTier {
    config: CacheTierConfig,
    publisher: EvaluationPublisher,
    /// Per-node caches, keyed by file: a hit derives no DHT key.
    caches: HashMap<UserId, ReputationCache<Arc<[VerifiedEvaluation]>, FileId>>,
    /// Per-receiver digests of gossip records already processed
    /// (duplicate suppression across pushes and in-transit duplication).
    seen: HashMap<UserId, BTreeSet<u64>>,
    /// Network retrievals per file since the last push — the hot-file
    /// detector.
    hot: HashMap<FileId, u64>,
    gossip_pushes: u64,
    gossip: GossipStats,
    /// Offline replica holders named by network retrievals (the partial
    /// answers that used to be silently dropped).
    unreachable_holders: u64,
    /// Network retrievals not cached because holders were unreachable.
    uncacheable_partial: u64,
}

impl EvaluationCacheTier {
    /// An empty tier.
    #[must_use]
    pub fn new(config: CacheTierConfig) -> Self {
        Self {
            config,
            publisher: EvaluationPublisher::new(),
            caches: HashMap::new(),
            seen: HashMap::new(),
            hot: HashMap::new(),
            gossip_pushes: 0,
            gossip: GossipStats::default(),
            unreachable_holders: 0,
            uncacheable_partial: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> CacheTierConfig {
        self.config
    }

    /// Signs and publishes an evaluation (the uncached Fig. 2 step 1),
    /// registering the publication for batched republication.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the underlying store.
    pub fn publish(
        &mut self,
        dht: &mut Dht,
        key: &mdrep_crypto::SigningKey,
        owner: UserId,
        file: FileId,
        evaluation: mdrep_types::Evaluation,
        now: SimTime,
    ) -> Result<usize, DhtError> {
        self.publisher
            .publish(dht, key, owner, file, evaluation, now)
    }

    /// Retrieves `file`'s evaluation array for `requester`: from the
    /// requester's cache when a fresh entry exists, otherwise from the
    /// overlay (verifying signatures, counting unreachable holders, and
    /// caching the result if it was complete). Complete network fetches of
    /// hot keys trigger a gossip push when gossip is enabled.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the underlying lookup (cache hits
    /// still require the requester to be online — an offline node answers
    /// nothing, not even from its own cache).
    pub fn retrieve(
        &mut self,
        dht: &mut Dht,
        registry: &KeyRegistry,
        requester: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<CachedRetrieval, DhtError> {
        if !dht.is_online(requester) {
            return Err(DhtError::Offline(requester));
        }
        let cache_config = self.config.cache;
        let cache = self
            .caches
            .entry(requester)
            .or_insert_with(|| ReputationCache::new(cache_config));
        if let Some(hit) = cache.get(&file, now) {
            mdrep_obs::global().counter_inc("dht.cache.hit");
            return Ok(CachedRetrieval {
                records: Arc::clone(hit.value),
                source: RetrievalSource::Cache { age: hit.age },
                unreachable: 0,
            });
        }
        mdrep_obs::global().counter_inc("dht.cache.miss");
        let key = Key::for_file(file);
        let mut outcome = self
            .publisher
            .retrieve_keyed(dht, registry, requester, key, now)?;
        let unreachable = outcome.unreachable.len();
        let complete = outcome.is_complete();
        // One exact-size list serves the caller, the cache and the push.
        outcome.records.retain(|r| r.valid);
        let records: Arc<[VerifiedEvaluation]> = outcome.records.into();
        self.unreachable_holders += unreachable as u64;
        if complete {
            let cache = self.caches.get_mut(&requester).expect("created above");
            cache.insert(file, Arc::clone(&records), now);
        } else {
            // A partial owner list must not be pinned for TTL ticks: serve
            // it once, knowingly, and let the next query retry the network.
            self.uncacheable_partial += 1;
        }
        let hits = self.hot.entry(file).or_insert(0);
        *hits += 1;
        // Only a complete owner list is pushed: a peer would serve a
        // partial one for a full TTL, the harm the fill above refuses.
        let push = self
            .config
            .gossip
            .filter(|g| *hits >= g.hot_threshold && complete && !records.is_empty());
        if let Some(gossip) = push {
            *hits = 0;
            self.push_hot(dht, registry, gossip, requester, file, key, &records, now);
        }
        Ok(CachedRetrieval {
            records,
            source: RetrievalSource::Network,
            unreachable,
        })
    }

    /// Pushes `records` to `fanout` deterministic online peers. The
    /// records are encoded once, and every target is sent the same bytes.
    #[allow(clippy::too_many_arguments)]
    fn push_hot(
        &mut self,
        dht: &mut Dht,
        registry: &KeyRegistry,
        gossip: GossipConfig,
        from: UserId,
        file: FileId,
        key: Key,
        records: &[VerifiedEvaluation],
        now: SimTime,
    ) {
        let mut candidates = dht.online_users();
        candidates.retain(|u| *u != from);
        if candidates.is_empty() {
            return;
        }
        let payloads: Vec<Vec<u8>> = records.iter().map(|r| r.info.encode()).collect();
        let key_word = fnv1a(FNV_OFFSET, &key.as_bytes()[..8]);
        self.gossip_pushes += 1;
        let round = self.gossip_pushes;
        let mut chosen = BTreeSet::new();
        // Deterministic sampling without replacement: probe mixed slots,
        // falling back to a linear scan when the pool is small.
        let want = gossip.fanout.min(candidates.len());
        let mut probe = 0u64;
        while chosen.len() < want && probe < (candidates.len() as u64) * 4 {
            let slot = mix3(gossip.seed ^ key_word, round, probe) as usize % candidates.len();
            chosen.insert(candidates[slot]);
            probe += 1;
        }
        let mut iter = candidates.iter();
        while chosen.len() < want {
            let next = iter.next().expect("pool larger than chosen");
            chosen.insert(*next);
        }
        for target in chosen {
            self.gossip.pushes += 1;
            match dht.send_gossip(from, target, &payloads, now) {
                GossipDelivery::Failed => self.gossip.failed += 1,
                GossipDelivery::Delivered {
                    duplicated,
                    payloads,
                } => {
                    self.gossip.delivered += 1;
                    // A duplicated delivery is processed twice by the
                    // receiver; the seen-set must absorb the second pass.
                    let passes = if duplicated { 2 } else { 1 };
                    for _ in 0..passes {
                        self.deliver(registry, target, file, &payloads, now);
                    }
                }
            }
        }
    }

    /// Processes one gossip delivery at `receiver`: decode every record,
    /// verify the decoded ones in one batch, then dedup each valid record
    /// in payload order, and merge the accepted ones into the receiver's
    /// cache entry for `file` in one step.
    fn deliver(
        &mut self,
        registry: &KeyRegistry,
        receiver: UserId,
        file: FileId,
        payloads: &[Vec<u8>],
        now: SimTime,
    ) {
        let decoded: Vec<(&[u8], EvaluationInfo)> = payloads
            .iter()
            .filter_map(|bytes| EvaluationInfo::decode(bytes).map(|info| (bytes.as_slice(), info)))
            .collect();
        self.gossip.records_undecodable += (payloads.len() - decoded.len()) as u64;
        let valid = EvaluationInfo::verify_all(decoded.iter().map(|(_, info)| info), registry);
        let mut accepted = Vec::new();
        let seen = self.seen.entry(receiver).or_default();
        for ((bytes, info), valid) in decoded.into_iter().zip(valid) {
            if !valid {
                self.gossip.records_rejected += 1;
                continue;
            }
            if !seen.insert(fnv1a(FNV_OFFSET, bytes)) {
                self.gossip.records_duplicate += 1;
                continue;
            }
            self.gossip.records_accepted += 1;
            accepted.push(VerifiedEvaluation { info, valid: true });
        }
        if accepted.is_empty() {
            return;
        }
        let cache_config = self.config.cache;
        let cache = self
            .caches
            .entry(receiver)
            .or_insert_with(|| ReputationCache::new(cache_config));
        match cache.value_mut(&file, now) {
            Some(existing) => *existing = merge_by_owner(existing.to_vec(), accepted),
            None => cache.insert(file, merge_by_owner(Vec::new(), accepted), now),
        }
    }

    /// One maintenance tick: batched republication through the overlay
    /// (honoring [`CacheTierConfig::republish_interval`]) plus a TTL sweep
    /// over every node's cache.
    pub fn tick(&mut self, dht: &mut Dht, now: SimTime) -> RepublishReport {
        for cache in self.caches.values_mut() {
            cache.expire(now);
        }
        dht.republish_batch(now, self.config.republish_interval)
    }

    /// Aggregated cache counters across every node.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in self.caches.values() {
            total.absorb(&cache.stats());
        }
        total
    }

    /// Gossip counters.
    #[must_use]
    pub fn gossip_stats(&self) -> GossipStats {
        self.gossip
    }

    /// Offline replica holders named by network retrievals so far.
    #[must_use]
    pub fn unreachable_holders(&self) -> u64 {
        self.unreachable_holders
    }

    /// Network results served but not cached because holders were
    /// unreachable.
    #[must_use]
    pub fn uncacheable_partial(&self) -> u64 {
        self.uncacheable_partial
    }

    /// Read access to one node's cache (for assertions).
    #[must_use]
    pub fn cache_of(
        &self,
        user: UserId,
    ) -> Option<&ReputationCache<Arc<[VerifiedEvaluation]>, FileId>> {
        self.caches.get(&user)
    }
}

/// Merges gossiped records into an owner list, in arrival order: each
/// record replaces the first slot with its owner, or is appended. One
/// owner → slot index serves the whole merge.
fn merge_by_owner(
    mut list: Vec<VerifiedEvaluation>,
    incoming: Vec<VerifiedEvaluation>,
) -> Arc<[VerifiedEvaluation]> {
    let mut slots: HashMap<UserId, usize> = HashMap::with_capacity(list.len() + incoming.len());
    for (i, record) in list.iter().enumerate() {
        slots.entry(record.info.owner).or_insert(i);
    }
    for record in incoming {
        match slots.entry(record.info.owner) {
            Entry::Occupied(slot) => list[*slot.get()] = record,
            Entry::Vacant(slot) => {
                slot.insert(list.len());
                list.push(record);
            }
        }
    }
    list.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::DhtConfig;
    use crate::fault::FaultPlan;
    use mdrep_types::Evaluation;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    fn setup(n: u64, plan: FaultPlan) -> (Dht, KeyRegistry) {
        let mut dht = Dht::new(DhtConfig {
            fault: plan,
            ..DhtConfig::default()
        });
        let mut registry = KeyRegistry::new();
        for i in 0..n {
            dht.join(u(i), SimTime::ZERO);
            registry.register(u(i), 1000 + i);
        }
        (dht, registry)
    }

    fn tier_no_gossip() -> EvaluationCacheTier {
        EvaluationCacheTier::new(CacheTierConfig {
            gossip: None,
            ..CacheTierConfig::default()
        })
    }

    #[test]
    fn second_retrieval_is_a_cache_hit_with_equal_records() {
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = tier_no_gossip();
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        let first = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(first.source, RetrievalSource::Network);
        assert_eq!(first.records.len(), 1);
        let messages_after_fill = dht.stats().total();
        let second = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::from_ticks(10))
            .unwrap();
        assert_eq!(
            second.source,
            RetrievalSource::Cache {
                age: SimDuration::from_ticks(10)
            }
        );
        assert_eq!(second.records, first.records);
        assert_eq!(
            dht.stats().total(),
            messages_after_fill,
            "a cache hit sends no messages"
        );
        let stats = tier.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_expires_exactly_at_ttl_and_refetches() {
        let ttl = SimDuration::from_ticks(100);
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            cache: CacheConfig { capacity: 8, ttl },
            gossip: None,
            ..CacheTierConfig::default()
        });
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        tier.retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let at_boundary = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::from_ticks(100))
            .unwrap();
        assert_eq!(
            at_boundary.source,
            RetrievalSource::Network,
            "entry evicted exactly at the expiry tick"
        );
        assert_eq!(tier.cache_stats().expired_misses, 1);
        assert_eq!(tier.cache_stats().max_hit_age_ticks, 0);
    }

    #[test]
    fn gossip_prefills_target_caches() {
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: Some(GossipConfig {
                fanout: 6,
                hot_threshold: 1,
                seed: 7,
            }),
            ..CacheTierConfig::default()
        });
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        // First network fetch reaches the hot threshold and pushes.
        tier.retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let gossip = tier.gossip_stats();
        assert_eq!(gossip.pushes, 6);
        assert_eq!(gossip.delivered, 6, "quiet plan delivers everything");
        assert_eq!(gossip.records_accepted, 6);
        assert_eq!(dht.stats().gossip, 6);
        assert!(dht.stats().is_conserved());
        // A pre-filled peer now hits its cache without any network fetch
        // (the requester's own miss-fill cache is excluded).
        let prefilled: Vec<UserId> = (0..20)
            .map(u)
            .filter(|peer| {
                *peer != u(9)
                    && tier
                        .cache_of(*peer)
                        .is_some_and(|c| c.contains_fresh(&f(5), SimTime::ZERO))
            })
            .collect();
        assert_eq!(prefilled.len(), 6);
        let peer = prefilled[0];
        let got = tier
            .retrieve(&mut dht, &registry, peer, f(5), SimTime::from_ticks(1))
            .unwrap();
        assert!(matches!(got.source, RetrievalSource::Cache { .. }));
        assert_eq!(got.records.len(), 1);
        assert!(got.records[0].valid);
    }

    #[test]
    fn duplicated_gossip_is_suppressed_by_the_seen_set() {
        // Duplicate every message: each delivered push is processed twice,
        // and the second pass must be fully deduplicated.
        let plan = FaultPlan::none().with_seed(3).with_duplicates(1.0);
        let (mut dht, registry) = setup(20, plan);
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: Some(GossipConfig {
                fanout: 5,
                hot_threshold: 1,
                seed: 7,
            }),
            ..CacheTierConfig::default()
        });
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        tier.retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let gossip = tier.gossip_stats();
        assert_eq!(gossip.delivered, 5);
        assert_eq!(gossip.records_accepted, 5, "one accept per receiver");
        assert_eq!(
            gossip.records_duplicate, 5,
            "every duplicated second pass suppressed"
        );
        // Re-pushing the same records later is also suppressed.
        tier.retrieve(&mut dht, &registry, u(11), f(5), SimTime::from_ticks(1))
            .unwrap();
        let gossip = tier.gossip_stats();
        assert_eq!(gossip.records_accepted, 5, "no new accepts on re-push");
        assert!(dht.stats().is_conserved());
    }

    #[test]
    fn byzantine_gossip_sender_is_always_rejected() {
        // The gossiping requester is byzantine: every payload it pushes
        // arrives tampered and must be rejected by every receiver.
        let plan = FaultPlan::none().with_seed(11).with_byzantine(u(9));
        let (mut dht, registry) = setup(20, plan);
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: Some(GossipConfig {
                fanout: 8,
                hot_threshold: 1,
                seed: 2,
            }),
            ..CacheTierConfig::default()
        });
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        tier.retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let gossip = tier.gossip_stats();
        assert_eq!(gossip.records_accepted, 0, "tampered records never cached");
        assert_eq!(
            gossip.records_rejected + gossip.records_undecodable,
            gossip.delivered,
            "every delivered payload was rejected or undecodable"
        );
        assert!(gossip.delivered > 0, "pushes did arrive");
        assert!(dht.fault_trace().tampered > 0);
        // No receiver cache was pre-filled.
        for peer in (0..20).map(u).filter(|p| *p != u(9)) {
            assert!(
                tier.cache_of(peer)
                    .is_none_or(|c| !c.contains_fresh(&f(5), SimTime::ZERO)),
                "byzantine payload cached at {peer}"
            );
        }
    }

    #[test]
    fn partial_retrievals_are_served_but_not_cached() {
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = tier_no_gossip();
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        // Take every replica holder offline: the retrieval must name the
        // offline holders instead of silently returning an empty list.
        for i in (0..20).filter(|i| *i != 9) {
            dht.leave(u(i));
        }
        let outcome = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert!(outcome.unreachable > 0, "offline holders are counted");
        assert_eq!(tier.unreachable_holders(), outcome.unreachable as u64);
        assert_eq!(tier.uncacheable_partial(), 1);
        assert!(
            tier.cache_of(u(9))
                .is_none_or(|c| !c.contains_fresh(&f(5), SimTime::ZERO)),
            "a partial result must not be pinned in the cache"
        );
        // Bring the overlay back: the next query retries the network and
        // now caches the complete answer.
        for i in (0..20).filter(|i| *i != 9) {
            dht.join(u(i), SimTime::from_ticks(1));
        }
        let outcome = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::from_ticks(1))
            .unwrap();
        assert_eq!(outcome.source, RetrievalSource::Network);
        assert_eq!(outcome.records.len(), 1);
        assert!(tier
            .cache_of(u(9))
            .is_some_and(|c| c.contains_fresh(&f(5), SimTime::from_ticks(1))));
    }

    #[test]
    fn partial_fills_are_never_gossiped() {
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: Some(GossipConfig {
                fanout: 6,
                hot_threshold: 1,
                seed: 7,
            }),
            ..CacheTierConfig::default()
        });
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        // Take the closest replica holder offline: the other two still
        // answer, so the fill is a non-empty but partial owner list.
        let file_key = Key::for_file(f(5));
        let holder = (0..20)
            .map(u)
            .filter(|p| *p != u(9) && *p != u(1))
            .min_by_key(|p| Key::for_user(*p).distance(&file_key))
            .unwrap();
        dht.leave(holder);
        let outcome = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.unreachable, 1, "the offline holder is named");
        assert_eq!(outcome.records.len(), 1, "the live holders still answer");
        assert_eq!(
            tier.gossip_stats().pushes,
            0,
            "a partial list is not pushed"
        );
        for peer in (0..20).map(u) {
            assert!(
                tier.cache_of(peer)
                    .is_none_or(|c| !c.contains_fresh(&f(5), SimTime::ZERO)),
                "partial list cached at {peer}"
            );
        }
    }

    #[test]
    fn republication_catches_up_after_churn() {
        use crate::fault::ChurnSchedule;
        let plan = FaultPlan::none()
            .with_seed(5)
            .with_churn(ChurnSchedule::new(SimDuration::from_ticks(50), 0.4));
        let (mut dht, registry) = setup(24, plan);
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: None,
            republish_interval: SimDuration::from_ticks(100),
            ..CacheTierConfig::default()
        });
        for i in 0..8 {
            let key = registry.key_of(u(i)).unwrap().clone();
            let _ = tier.publish(&mut dht, &key, u(i), f(i), Evaluation::BEST, SimTime::ZERO);
        }
        // Churn a wave down, then run a batch: churned publishers are
        // skipped without being stamped.
        dht.apply_churn(SimTime::from_ticks(75));
        let first = tier.tick(&mut dht, SimTime::from_ticks(120));
        assert_eq!(first.due, 8, "first pass owes everyone");
        if first.skipped_offline == 0 {
            // Seed didn't churn any publisher down; nothing to assert.
            return;
        }
        // Bring the wave back and re-run within the interval: only the
        // previously-skipped publishers are still due.
        dht.apply_churn(SimTime::from_ticks(150));
        let second = tier.tick(&mut dht, SimTime::from_ticks(160));
        assert_eq!(
            second.due, first.skipped_offline,
            "skipped publishers stay due and catch up"
        );
    }

    /// Signs `owner`'s evaluation of `file` at `value`.
    fn signed(registry: &KeyRegistry, owner: u64, file: u64, value: f64) -> VerifiedEvaluation {
        let key = registry.key_of(u(owner)).unwrap();
        let info = EvaluationInfo::signed(f(file), u(owner), Evaluation::new(value).unwrap(), key);
        VerifiedEvaluation { info, valid: true }
    }

    #[test]
    fn gossip_merge_replaces_the_first_owner_slot_and_appends_new_owners() {
        let (_, registry) = setup(20, FaultPlan::none());
        let mut tier = tier_no_gossip();
        let receiver = u(4);
        // Owner 1 holds two slots (two versions served by two replicas).
        let cached = vec![
            signed(&registry, 1, 5, 0.2),
            signed(&registry, 2, 5, 0.5),
            signed(&registry, 1, 5, 0.4),
        ];
        let cache = tier
            .caches
            .entry(receiver)
            .or_insert_with(|| ReputationCache::new(CacheConfig::default()));
        cache.insert(f(5), cached.clone().into(), SimTime::ZERO);
        let incoming = [signed(&registry, 1, 5, 0.9), signed(&registry, 3, 5, 0.7)];
        // More than one chunk of lanes: the two records above, new owners,
        // a replaced owner, tampered and undecodable bytes, duplicates.
        let mut payloads: Vec<Vec<u8>> = incoming.iter().map(|r| r.info.encode()).collect();
        for owner in 6..18 {
            payloads.push(
                signed(&registry, owner, 5, owner as f64 / 20.0)
                    .info
                    .encode(),
            );
        }
        payloads.push(signed(&registry, 2, 5, 0.6).info.encode());
        let mut bad_signature = signed(&registry, 7, 5, 0.1).info.encode();
        bad_signature[40] ^= 0x01;
        let mut bad_value = signed(&registry, 8, 5, 0.3).info.encode();
        bad_value[23] ^= 0x01;
        let mut bad_owner = signed(&registry, 9, 5, 0.3).info.encode();
        bad_owner[15] = 99;
        let mut out_of_range = signed(&registry, 10, 5, 0.3).info.encode();
        out_of_range[16..24].copy_from_slice(&2.0f64.to_bits().to_be_bytes());
        let truncated = signed(&registry, 11, 5, 0.3).info.encode()[..55].to_vec();
        payloads.extend([bad_signature, bad_value, bad_owner, out_of_range, truncated]);
        payloads.push(payloads[3].clone());
        payloads.push(payloads[0].clone());
        assert_eq!(payloads.len(), 22);

        // The per-record loop the merge replaces: decode, verify, dedup,
        // then a linear search for the owner's first slot.
        let mut expected = cached;
        let mut seen = BTreeSet::new();
        let mut counters = GossipStats::default();
        for bytes in &payloads {
            let Some(info) = EvaluationInfo::decode(bytes) else {
                counters.records_undecodable += 1;
                continue;
            };
            if !info.verify(&registry) {
                counters.records_rejected += 1;
                continue;
            }
            if !seen.insert(fnv1a(FNV_OFFSET, bytes)) {
                counters.records_duplicate += 1;
                continue;
            }
            counters.records_accepted += 1;
            let record = VerifiedEvaluation { info, valid: true };
            match expected
                .iter_mut()
                .find(|r| r.info.owner == record.info.owner)
            {
                Some(slot) => *slot = record,
                None => expected.push(record),
            }
        }
        let kinds = (
            counters.records_accepted,
            counters.records_rejected,
            counters.records_undecodable,
            counters.records_duplicate,
        );
        assert_eq!(kinds, (15, 3, 2, 2));

        tier.deliver(&registry, receiver, f(5), &payloads, SimTime::from_ticks(1));
        let cache = tier.caches.get_mut(&receiver).unwrap();
        let merged = cache.get(&f(5), SimTime::from_ticks(1)).unwrap().value;
        assert_eq!(**merged, expected[..]);
        assert_eq!(
            merged[0], incoming[0],
            "the first slot of owner 1 is replaced"
        );
        assert!((merged[1].info.evaluation.value() - 0.6).abs() < 1e-12);
        assert!((merged[2].info.evaluation.value() - 0.4).abs() < 1e-12);
        assert_eq!(merged[3], incoming[1], "the new owner is appended");
        assert_eq!(merged.len(), 16);
        assert_eq!(tier.gossip_stats(), counters);
    }

    #[test]
    fn hits_share_the_cached_list_and_merges_leave_it_as_handed_out() {
        let (mut dht, registry) = setup(20, FaultPlan::none());
        let mut tier = tier_no_gossip();
        let key = registry.key_of(u(1)).unwrap().clone();
        tier.publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        let fill = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let hit = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::from_ticks(1))
            .unwrap();
        assert!(matches!(hit.source, RetrievalSource::Cache { .. }));
        assert!(
            Arc::ptr_eq(&fill.records, &hit.records),
            "a hit is the list the fill stored"
        );

        let handed_out = hit.records.to_vec();
        let payloads = vec![signed(&registry, 2, 5, 0.3).info.encode()];
        tier.deliver(&registry, u(9), f(5), &payloads, SimTime::from_ticks(2));
        assert_eq!(*hit.records, handed_out[..], "the merge copies on write");
        assert_eq!(*fill.records, handed_out[..]);
        let after = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::from_ticks(3))
            .unwrap();
        assert_eq!(after.records.len(), 2, "later hits see the merged list");
        assert!(!Arc::ptr_eq(&after.records, &hit.records));
    }

    #[test]
    fn a_byzantine_sender_tampers_each_delivered_copy_once() {
        let plan = FaultPlan::none().with_seed(11).with_byzantine(u(9));
        let (mut dht, registry) = setup(20, plan);
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            gossip: Some(GossipConfig {
                fanout: 4,
                hot_threshold: 1,
                seed: 2,
            }),
            ..CacheTierConfig::default()
        });
        for owner in 1..4 {
            let key = registry.key_of(u(owner)).unwrap().clone();
            tier.publish(
                &mut dht,
                &key,
                u(owner),
                f(5),
                Evaluation::BEST,
                SimTime::ZERO,
            )
            .unwrap();
        }
        // What the fill's own read tampers (the byzantine requester may
        // hold a replica), measured on an identical read.
        let before = dht.fault_trace().tampered;
        dht.get(u(9), Key::for_file(f(5)), SimTime::ZERO).unwrap();
        let read_tampers = dht.fault_trace().tampered - before;

        let before = dht.fault_trace().tampered;
        let fill = tier
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        let records = fill.records.len() as u64;
        let gossip = tier.gossip_stats();
        assert!(records > 0);
        assert_eq!((gossip.pushes, gossip.delivered), (4, 4));
        assert_eq!(
            dht.fault_trace().tampered - before,
            read_tampers + records * gossip.delivered,
            "one tamper per record per delivered push"
        );
        // A copy tampered twice would flip its byte back and verify.
        assert_eq!(gossip.records_rejected, records * gossip.delivered);
        assert_eq!(gossip.records_accepted, 0);
    }
}
