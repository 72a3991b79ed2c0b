//! The overlay bit-identity contract: the DHT's read path is pure
//! computation, so a faster routing table, lookup or signature check must
//! send the same RPCs, in the same order, with the same results.
//!
//! - A seeded 600-user overlay under loss, delay, duplication, churn waves
//!   and one byzantine node publishes through an [`EvaluationCacheTier`]
//!   and serves a few thousand retrievals with gossip on. Its fault-trace
//!   digest, message counters, gossip counters and a hash of every
//!   retrieval's answer equal constants recorded before the read path was
//!   reworked.
//! - `RoutingTable::closest` equals a brute-force sort of the known ids by
//!   XOR distance.
//! - After any `observe`/`remove`/`expire_stale` sequence the table holds
//!   the same entries, with the same `last_seen`, as a reference model of
//!   160 per-bucket LRU lists.

use mdrep_repro::crypto::KeyRegistry;
use mdrep_repro::dht::{
    CacheConfig, CacheTierConfig, ChurnSchedule, Dht, DhtConfig, EvaluationCacheTier, FaultPlan,
    GossipConfig, GossipStats, Key, MessageStats, NodeId, RetrievalSource, RoutingTable,
};
use mdrep_repro::types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use proptest::prelude::*;

const USERS: u64 = 600;
const FILES: u64 = 60;
const OWNERS_PER_FILE: u64 = 5;
const RETRIEVALS: u64 = 2_400;
/// Retrievals between two maintenance passes (`apply_churn` + `tick`).
const MAINTENANCE_EVERY: u64 = 120;

/// Constants recorded from the 64d6bfe overlay (before the flat routing
/// table, distance-keyed lookups, keyed HMAC state and the maintained
/// online set), and re-recorded once gossip stopped pushing partial owner
/// lists: each skipped push shifts the fault sequence that follows.
const FAULT_DIGEST: u64 = 0x7075_81d7_a1b3_652b;
const ANSWER_DIGEST: u64 = 0x47c1_065b_0bb1_6085;
const STATS: MessageStats = MessageStats {
    find_node: 75_786,
    store: 4070,
    find_value: 8447,
    gossip: 2968,
    delivered: 70_501,
    dropped: 9152,
    refused: 9557,
    blocked: 0,
    timed_out: 2061,
    retried: 16_617,
    duplicated: 2068,
};
const GOSSIP: GossipStats = GossipStats {
    pushes: 2968,
    delivered: 2586,
    failed: 382,
    records_accepted: 12_340,
    records_duplicate: 955,
    records_rejected: 0,
    records_undecodable: 0,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// SplitMix64: the workload's own generator, independent of the overlay's.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn u(i: u64) -> UserId {
    UserId::new(i)
}

struct Run {
    fault_digest: u64,
    answer_digest: u64,
    stats: MessageStats,
    gossip: GossipStats,
    tampered: u64,
}

fn run_overlay() -> Run {
    // The byzantine node is the one closest to the hottest file's key, so
    // it holds a replica that retrievals actually read.
    let hot = Key::for_file(FileId::new(0));
    let byzantine = (0..USERS)
        .min_by_key(|&i| Key::for_user(u(i)).distance(&hot))
        .expect("users");
    let plan = FaultPlan::none()
        .with_seed(19)
        .with_loss(0.1)
        .with_delay(0.05, 4)
        .with_duplicates(0.03)
        .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.1))
        .with_byzantine(u(byzantine));
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..USERS {
        dht.join(u(i), SimTime::ZERO);
        registry.register(u(i), 1_000 + i);
    }
    let mut tier = EvaluationCacheTier::new(CacheTierConfig {
        cache: CacheConfig {
            capacity: 32,
            ttl: SimDuration::from_mins(15),
        },
        gossip: Some(GossipConfig {
            fanout: 4,
            hot_threshold: 2,
            seed: 5,
        }),
        republish_interval: SimDuration::from_mins(30),
    });

    let mut answers = FNV_OFFSET;
    for f in 0..FILES {
        for j in 0..OWNERS_PER_FILE {
            let owner = u((f * 7 + j * 37) % USERS);
            let key = registry.key_of(owner).expect("registered").clone();
            let value = ((f + j) % 11) as f64 / 10.0;
            let evaluation = Evaluation::new(value).expect("in range");
            let published = tier.publish(
                &mut dht,
                &key,
                owner,
                FileId::new(f),
                evaluation,
                SimTime::ZERO,
            );
            let word = published.map_or(u64::MAX, |n| n as u64);
            answers = fnv(answers, &word.to_le_bytes());
        }
    }

    let mut rng = Mix(23);
    let mut now = SimTime::ZERO;
    for i in 0..RETRIEVALS {
        if i % MAINTENANCE_EVERY == 0 {
            dht.apply_churn(now);
            tier.tick(&mut dht, now);
        }
        now += SimDuration::from_ticks(2);
        let viewer = u(rng.next() % USERS);
        // The smaller of two uniform draws: low file ids are hot.
        let file = FileId::new((rng.next() % FILES).min(rng.next() % FILES));
        match tier.retrieve(&mut dht, &registry, viewer, file, now) {
            Err(_) => answers = fnv(answers, b"err"),
            Ok(got) => {
                let source = match got.source {
                    RetrievalSource::Network => 0u8,
                    RetrievalSource::Cache { .. } => 1,
                };
                answers = fnv(answers, &[source]);
                for record in got.records.iter() {
                    answers = fnv(answers, &record.info.owner.as_u64().to_le_bytes());
                    answers = fnv(answers, &[u8::from(record.valid)]);
                    answers = fnv(
                        answers,
                        &record.info.evaluation.value().to_bits().to_le_bytes(),
                    );
                }
                answers = fnv(answers, &(got.unreachable as u64).to_le_bytes());
            }
        }
    }
    Run {
        fault_digest: dht.fault_trace().digest(),
        answer_digest: answers,
        stats: dht.stats(),
        gossip: tier.gossip_stats(),
        tampered: dht.fault_trace().tampered,
    }
}

#[test]
fn faulty_overlay_replays_the_recorded_trace() {
    let run = run_overlay();
    assert!(run.stats.is_conserved(), "{:?}", run.stats);
    assert!(
        run.stats.dropped > 0 && run.stats.timed_out > 0 && run.stats.duplicated > 0,
        "the fault plan must bite: {:?}",
        run.stats
    );
    assert!(run.gossip.pushes > 0, "gossip must run: {:?}", run.gossip);
    assert!(
        run.tampered > 0,
        "the byzantine node must serve tampered values"
    );
    assert_eq!(run.stats, STATS, "message counters");
    assert_eq!(run.gossip, GOSSIP, "gossip counters");
    assert_eq!(
        run.fault_digest, FAULT_DIGEST,
        "fault trace digest {:#x}",
        run.fault_digest
    );
    assert_eq!(
        run.answer_digest, ANSWER_DIGEST,
        "retrieval answers digest {:#x}",
        run.answer_digest
    );
}

/// Ids that crowd a few buckets of `own`'s table: `own` is all zeros, so
/// an id's bucket is given by its highest set bit, and random ids land in
/// bucket 159 half the time, in 158 a quarter of the time, and so on.
fn universe(seed: u64, count: u64) -> (NodeId, Vec<NodeId>) {
    let own = Key::from_bytes([0; 20]);
    let ids = (0..count)
        .map(|i| Key::for_user(UserId::new(seed.wrapping_mul(1_000).wrapping_add(i))))
        .collect();
    (own, ids)
}

/// The routing table as it was kept before it was flattened: 160 bucket
/// lists, each in least-recently-seen-first order.
struct ReferenceTable {
    own: NodeId,
    buckets: Vec<Vec<(NodeId, SimTime)>>,
}

impl ReferenceTable {
    fn new(own: NodeId) -> Self {
        Self {
            own,
            buckets: vec![Vec::new(); 160],
        }
    }

    fn observe(&mut self, peer: NodeId, now: SimTime) -> bool {
        let Some(index) = self.own.bucket_index(&peer) else {
            return false;
        };
        let bucket = &mut self.buckets[index];
        if let Some(pos) = bucket.iter().position(|e| e.0 == peer) {
            bucket.remove(pos);
        } else if bucket.len() == 8 {
            bucket.remove(0);
        }
        bucket.push((peer, now));
        true
    }

    fn remove(&mut self, peer: &NodeId) {
        if let Some(index) = self.own.bucket_index(peer) {
            self.buckets[index].retain(|e| e.0 != *peer);
        }
    }

    fn expire_stale(&mut self, now: SimTime, max_age: SimDuration) -> usize {
        let before = self.len();
        for bucket in &mut self.buckets {
            bucket.retain(|e| e.1 + max_age > now);
        }
        before - self.len()
    }

    fn last_seen(&self, peer: &NodeId) -> Option<SimTime> {
        let index = self.own.bucket_index(peer)?;
        self.buckets[index]
            .iter()
            .find(|e| e.0 == *peer)
            .map(|e| e.1)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// One table operation: `(kind, id index, time step)`.
fn op() -> impl Strategy<Value = (u8, usize, u64)> {
    (0u8..10, 0usize..48, 0u64..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closest_equals_a_brute_force_sort(
        seed in any::<u64>(),
        observed in proptest::collection::vec(0usize..64, 0..120),
        target_seed in any::<u64>(),
        count in 0usize..40,
    ) {
        let (_, ids) = universe(seed, 64);
        let own = Key::for_content(&seed.to_le_bytes());
        let mut table = RoutingTable::new(own);
        for (t, &i) in observed.iter().enumerate() {
            table.observe(ids[i], SimTime::from_ticks(t as u64));
        }
        let mut known: Vec<NodeId> = ids.iter().copied().filter(|id| table.contains(id)).collect();
        known.sort();
        known.dedup();
        prop_assert_eq!(known.len(), table.len());
        prop_assert!(table.len() < 40, "a count past the table size is drawn");
        // Besides a random target, which lands in a high, full bucket of
        // `own`'s: `own` itself (no bucket), a table member (distance 0)
        // and `own` with one low bit flipped (a low, often empty bucket).
        let mut near_own = *own.as_bytes();
        near_own[19] ^= 1 << (target_seed % 8);
        let mut targets = vec![
            Key::for_content(&target_seed.to_le_bytes()),
            own,
            Key::from_bytes(near_own),
        ];
        if !known.is_empty() {
            targets.push(known[(target_seed % known.len() as u64) as usize]);
        }
        for target in targets {
            let mut nearest = known.clone();
            nearest.sort_by_key(|id| id.distance(&target));
            for count in [count, table.len() + 1] {
                let expected = &nearest[..count.min(nearest.len())];
                prop_assert_eq!(table.closest(&target, count), expected, "target {:?}, count {}", target, count);
            }
        }
    }

    #[test]
    fn table_matches_the_per_bucket_lru_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let (own, ids) = universe(seed, 48);
        let mut table = RoutingTable::new(own);
        let mut model = ReferenceTable::new(own);
        let mut now = SimTime::ZERO;
        let max_age = SimDuration::from_ticks(120);
        for (kind, index, step) in ops {
            now += SimDuration::from_ticks(step);
            let peer = ids[index];
            match kind {
                0..=6 => prop_assert_eq!(table.observe(peer, now), model.observe(peer, now)),
                7 | 8 => {
                    table.remove(&peer);
                    model.remove(&peer);
                }
                _ => prop_assert_eq!(
                    table.expire_stale(now, max_age),
                    model.expire_stale(now, max_age)
                ),
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.len() == 0);
            for id in &ids {
                prop_assert_eq!(table.last_seen(id), model.last_seen(id));
                prop_assert_eq!(table.contains(id), model.last_seen(id).is_some());
            }
        }
        // Observing ourselves never stores anything.
        prop_assert!(!table.observe(own, now));
    }
}
