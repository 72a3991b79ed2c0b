//! Property-based tests for the DHT substrate.

use mdrep_crypto::SigningKey;
use mdrep_dht::{ChurnSchedule, Dht, DhtConfig, EvaluationInfo, FaultPlan, Key};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bucket_index_is_consistent_with_distance(a in any::<u64>(), b in any::<u64>()) {
        let ka = Key::for_user(UserId::new(a));
        let kb = Key::for_user(UserId::new(b));
        match ka.bucket_index(&kb) {
            None => prop_assert_eq!(ka, kb),
            Some(i) => {
                prop_assert!(i < 160);
                // Symmetric: XOR distance is symmetric.
                prop_assert_eq!(kb.bucket_index(&ka), Some(i));
                // Leading zeros of the distance agree with the index.
                prop_assert_eq!(ka.distance(&kb).leading_zeros(), 159 - i);
            }
        }
    }

    #[test]
    fn store_get_round_trip_from_any_node(nodes in 4u64..48,
                                          publisher in 0u64..48,
                                          requester in 0u64..48,
                                          payload in proptest::collection::vec(any::<u8>(), 1..128)) {
        let publisher = publisher % nodes;
        let requester = requester % nodes;
        let mut dht = Dht::new(DhtConfig::default());
        for i in 0..nodes {
            dht.join(UserId::new(i), SimTime::ZERO);
        }
        let key = Key::for_content(&payload);
        dht.store(UserId::new(publisher), key, payload.clone(), SimTime::ZERO)
            .expect("healthy overlay accepts stores");
        let got = dht.get(UserId::new(requester), key, SimTime::ZERO).expect("online");
        prop_assert!(got.values.contains(&payload));
        prop_assert!(got.is_complete(), "healthy overlay reaches every replica");
    }

    #[test]
    fn evaluation_info_round_trips(file in any::<u64>(), owner in any::<u64>(),
                                   value in 0.0f64..=1.0, seed in any::<u64>()) {
        let key = SigningKey::from_seed(seed);
        let info = EvaluationInfo::signed(
            FileId::new(file),
            UserId::new(owner),
            Evaluation::new(value).expect("in range"),
            &key,
        );
        let decoded = EvaluationInfo::decode(&info.encode()).expect("well-formed");
        prop_assert_eq!(&decoded, &info);
        // Corrupting any byte breaks either decoding or the signature.
        let mut bytes = info.encode();
        let idx = (seed as usize) % bytes.len();
        bytes[idx] ^= 0xff;
        if let Some(corrupted) = EvaluationInfo::decode(&bytes) {
            let mut registry = mdrep_crypto::KeyRegistry::new();
            registry.register(UserId::new(owner), seed ^ 1);
            prop_assert!(!corrupted.verify(&registry));
        }
    }

    #[test]
    fn online_count_tracks_joins_and_leaves(ops in proptest::collection::vec((0u64..24, any::<bool>()), 1..80)) {
        let mut dht = Dht::new(DhtConfig::default());
        let mut online = std::collections::HashSet::new();
        for (user, join) in ops {
            if join {
                dht.join(UserId::new(user), SimTime::ZERO);
                online.insert(user);
            } else {
                dht.leave(UserId::new(user));
                // leave() of an unknown user is a no-op.
                if online.contains(&user) {
                    online.remove(&user);
                }
            }
        }
        prop_assert_eq!(dht.online_count(), online.len());
        for &u in &online {
            prop_assert!(dht.is_online(UserId::new(u)));
        }
    }

    #[test]
    fn message_stats_only_grow(nodes in 8u64..32, keys in 1usize..10) {
        let mut dht = Dht::new(DhtConfig::default());
        for i in 0..nodes {
            dht.join(UserId::new(i), SimTime::ZERO);
        }
        let mut last_total = dht.stats().total();
        for k in 0..keys {
            let key = Key::for_content(&k.to_be_bytes());
            let _ = dht.store(UserId::new(0), key, vec![1], SimTime::ZERO);
            let total = dht.stats().total();
            prop_assert!(total >= last_total);
            last_total = total;
        }
    }

    #[test]
    fn lookups_terminate_under_faults_and_churn(nodes in 8u64..40,
                                                seed in any::<u64>(),
                                                loss in 0.0f64..0.6,
                                                down in 0.0f64..0.5,
                                                keys in 1usize..8) {
        // Lossy network plus scheduled churn: every store/get must return
        // (terminate) rather than loop, whatever the plan.
        let plan = FaultPlan::message_loss(loss, seed)
            .with_delay(0.2, 4)
            .with_churn(ChurnSchedule::new(SimDuration::from_hours(1), down)
                .immune(UserId::new(0)));
        let mut dht = Dht::new(DhtConfig { fault: plan, ..DhtConfig::default() });
        for i in 0..nodes {
            dht.join(UserId::new(i), SimTime::ZERO);
        }
        for k in 0..keys {
            let now = SimTime::from_ticks(k as u64 * 1800);
            dht.apply_churn(now);
            let key = Key::for_content(&k.to_be_bytes());
            let _ = dht.store(UserId::new(0), key, vec![k as u8], now);
            let _ = dht.get(UserId::new(0), key, now);
        }
        prop_assert!(dht.stats().is_conserved(), "{:?}", dht.stats());
    }

    #[test]
    fn departed_nodes_leave_no_routing_trace_after_expiry(nodes in 6u64..30,
                                                          departed in 0u64..30,
                                                          seed in any::<u64>()) {
        let departed = departed % nodes;
        let mut dht = Dht::new(DhtConfig {
            fault: FaultPlan::message_loss(0.1, seed),
            ..DhtConfig::default()
        });
        for i in 0..nodes {
            dht.join(UserId::new(i), SimTime::ZERO);
        }
        let departed_id = dht.node_of(UserId::new(departed)).expect("joined").id();
        dht.leave(UserId::new(departed));
        // A departed node is never observed again, so one expiry pass at
        // departure + route_entry_ttl evicts it from every table.
        let ttl = DhtConfig::default().route_entry_ttl;
        let later = SimTime::ZERO + ttl + SimDuration::from_ticks(1);
        dht.expire_routing(later);
        for i in 0..nodes {
            if i == departed {
                continue;
            }
            let node = dht.node_of(UserId::new(i)).expect("joined");
            prop_assert!(
                !node.routing().contains(&departed_id),
                "node {} still routes to the departed node", i
            );
        }
    }

    #[test]
    fn message_stats_are_conserved_under_arbitrary_faults(
        nodes in 6u64..32,
        seed in any::<u64>(),
        loss in 0.0f64..0.7,
        delay in 0.0f64..0.7,
        dup in 0.0f64..0.4,
        ops in proptest::collection::vec((0u64..32, 0u64..8, any::<bool>()), 1..30),
    ) {
        // Every sent request must land in exactly one outcome bucket:
        // total == delivered + dropped + refused + blocked + timed_out.
        let plan = FaultPlan::message_loss(loss, seed)
            .with_delay(delay, 5)
            .with_duplicates(dup);
        let mut dht = Dht::new(DhtConfig { fault: plan, ..DhtConfig::default() });
        for i in 0..nodes {
            dht.join(UserId::new(i), SimTime::ZERO);
        }
        for (user, file, is_store) in ops {
            let user = UserId::new(user % nodes);
            let key = Key::for_content(&file.to_be_bytes());
            if is_store {
                let _ = dht.store(user, key, vec![file as u8], SimTime::ZERO);
            } else {
                let _ = dht.get(user, key, SimTime::ZERO);
            }
            prop_assert!(dht.stats().is_conserved(), "{:?}", dht.stats());
        }
    }
}

// --- Cache tier properties (PR: DHT reputation cache + gossip) ---

use mdrep_crypto::KeyRegistry;
use mdrep_dht::{
    CacheConfig, CacheTierConfig, EvaluationCacheTier, EvaluationPublisher, ReputationCache,
    RetrievalSource,
};

fn cache_overlay(nodes: u64, plan: &FaultPlan) -> (Dht, KeyRegistry) {
    let mut dht = Dht::new(DhtConfig {
        fault: plan.clone(),
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..nodes {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 1000 + i);
    }
    (dht, registry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_ttl_cache_is_a_transparent_bypass(
        ops in proptest::collection::vec((0u64..16, any::<bool>(), 0u64..50), 1..60),
    ) {
        let mut cache: ReputationCache<u64> = ReputationCache::new(CacheConfig {
            capacity: 8,
            ttl: SimDuration::ZERO,
        });
        let mut now = SimTime::ZERO;
        for (k, is_insert, val) in ops {
            now += SimDuration::from_ticks(1);
            let key = Key::for_content(&k.to_be_bytes());
            if is_insert {
                cache.insert(key, val, now);
            } else {
                prop_assert!(cache.get(&key, now).is_none(), "a bypass never hits");
            }
        }
        prop_assert_eq!(cache.stats().hits, 0);
        prop_assert_eq!(cache.stats().inserts, 0);
        prop_assert_eq!(cache.len(), 0);
        prop_assert_eq!(cache.stats().misses, cache.stats().lookups);
    }

    #[test]
    fn served_hits_are_always_younger_than_ttl(
        ttl in 1u64..80,
        ops in proptest::collection::vec((0u64..8, any::<bool>(), 0u64..5), 1..100),
    ) {
        let mut cache: ReputationCache<u64> = ReputationCache::new(CacheConfig {
            capacity: 4,
            ttl: SimDuration::from_ticks(ttl),
        });
        let mut now = SimTime::ZERO;
        for (k, is_insert, advance) in ops {
            now += SimDuration::from_ticks(advance);
            let key = Key::for_content(&k.to_be_bytes());
            if is_insert {
                cache.insert(key, k, now);
            } else if let Some(hit) = cache.get(&key, now) {
                prop_assert!(
                    hit.age.as_ticks() < ttl,
                    "hit age {} must stay below ttl {}",
                    hit.age.as_ticks(),
                    ttl
                );
            }
        }
        prop_assert!(cache.stats().max_hit_age_ticks < ttl);
    }

    #[test]
    fn bypass_tier_is_equivalent_to_direct_retrieval(
        nodes in 8u64..24,
        seed in any::<u64>(),
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        queries in proptest::collection::vec((0u64..24, 0u64..6, 1u64..30), 1..20),
    ) {
        // Two overlays driven by the identical seeded plan: one behind a
        // zero-TTL cache tier (gossip off), one queried directly. Every
        // retrieval must return the same records and leave the same fault
        // trace — the cache layer is transparent when disabled.
        let plan = FaultPlan::message_loss(loss, seed).with_duplicates(dup);
        let (mut dht_a, registry) = cache_overlay(nodes, &plan);
        let (mut dht_b, _) = cache_overlay(nodes, &plan);
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            cache: CacheConfig { capacity: 8, ttl: SimDuration::ZERO },
            gossip: None,
            ..CacheTierConfig::default()
        });
        let publisher = EvaluationPublisher::new();
        for i in 0..4u64 {
            let owner = UserId::new((i * 3) % nodes);
            let key = registry.key_of(owner).unwrap().clone();
            let r1 = tier.publish(&mut dht_a, &key, owner, FileId::new(i), Evaluation::NEUTRAL, SimTime::ZERO);
            let r2 = publisher.publish(&mut dht_b, &key, owner, FileId::new(i), Evaluation::NEUTRAL, SimTime::ZERO);
            prop_assert_eq!(r1.is_ok(), r2.is_ok(), "publication outcomes agree");
        }
        let mut now = SimTime::ZERO;
        for (user, file, advance) in queries {
            now += SimDuration::from_ticks(advance);
            let requester = UserId::new(user % nodes);
            let file = FileId::new(file);
            let a = tier.retrieve(&mut dht_a, &registry, requester, file, now);
            let b = publisher.retrieve_detailed(&mut dht_b, &registry, requester, file, now);
            match (a, b) {
                (Ok(cached), Ok(direct)) => {
                    prop_assert_eq!(cached.source, RetrievalSource::Network, "ttl 0 never hits");
                    prop_assert_eq!(&*cached.records, &direct.records[..]);
                    prop_assert_eq!(cached.unreachable, direct.unreachable.len());
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(false, "outcomes diverged: {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(
            dht_a.fault_trace().digest(),
            dht_b.fault_trace().digest(),
            "identical RPC sequences leave identical fault traces"
        );
        prop_assert!(dht_a.stats().is_conserved());
        prop_assert_eq!(tier.cache_stats().hits, 0);
    }
}
