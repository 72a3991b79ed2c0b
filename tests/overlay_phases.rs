//! Every overlay layer is one phase. A faulted cache tier over a `Dht`
//! (publish, retrieve, gossip, and `tick` under churn) records each span
//! name the tracer holds as a registry timer with the same count, and no
//! span per RPC: each `dht.get.op` carries its RPCs' fates as annotations,
//! which add up to the overlay's own message counters.
//!
//! The only test in its binary: it reads the process-wide registry and
//! tracer, which concurrent tests would write to.

use mdrep_repro::crypto::KeyRegistry;
use mdrep_repro::dht::{
    CacheTierConfig, ChurnSchedule, Dht, DhtConfig, EvaluationCacheTier, FaultPlan, GossipConfig,
    Key, Partition,
};
use mdrep_repro::types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use std::collections::BTreeMap;

const NODES: u64 = 48;
const FILES: u64 = 12;

fn arg(event: &mdrep_obs::TraceEvent, key: &str) -> u64 {
    event
        .args
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{} carries `{key}`", event.name))
        .1
        .parse()
        .expect("a count")
}

/// Asserts that every recorded span name is a registry timer with the
/// same count, and that the tracer kept every span.
fn spans_match_timers(stretch: &str) {
    let tracer = mdrep_obs::tracer();
    assert_eq!(
        tracer.stats().dropped,
        0,
        "{stretch}: the trace holds every span"
    );
    let mut spans: BTreeMap<&str, u64> = BTreeMap::new();
    for event in tracer.events() {
        *spans.entry(event.name).or_default() += 1;
    }
    assert!(
        spans.contains_key("dht.get.op"),
        "{stretch}: retrievals ran"
    );
    let timers = mdrep_obs::global().snapshot();
    for (name, count) in &spans {
        assert_eq!(
            timers.timer(name).map(|t| t.count),
            Some(*count),
            "{stretch}: span `{name}` has a registry timer with its count"
        );
    }
    let per_rpc: Vec<&&str> = spans.keys().filter(|n| n.starts_with("dht.rpc.")).collect();
    assert!(per_rpc.is_empty(), "{stretch}: per-RPC spans {per_rpc:?}");
}

fn reset() {
    mdrep_obs::global().clear();
    mdrep_obs::tracer().clear();
}

#[test]
fn overlay_layers_are_phases_and_annotate_their_rpcs() {
    mdrep_obs::global().set_enabled(true);
    mdrep_obs::tracer().set_enabled(true);
    reset();

    let viewer = UserId::new(NODES - 1);
    // Loss, delays past the timeout, churn, and a partition during the
    // get-only stretch: every outcome bucket fills.
    let plan = FaultPlan::message_loss(0.15, 22)
        .with_delay(0.2, 5)
        .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.25).immune(viewer))
        .with_partition(Partition {
            start: SimTime::ZERO + SimDuration::from_mins(90),
            end: SimTime::ZERO + SimDuration::from_mins(120),
            minority_fraction: 0.3,
        });
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..NODES {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 9000 + i);
    }
    let mut tier = EvaluationCacheTier::new(CacheTierConfig {
        gossip: Some(GossipConfig {
            fanout: 4,
            hot_threshold: 2,
            seed: 22,
        }),
        ..CacheTierConfig::default()
    });
    for f in 0..FILES {
        for owner in 0..3 {
            let user = UserId::new((f * 3 + owner) % (NODES - 1));
            let key = registry.key_of(user).expect("registered").clone();
            // Under loss a store may find no replica; republication repairs it.
            let _ = tier.publish(
                &mut dht,
                &key,
                user,
                FileId::new(f),
                Evaluation::BEST,
                SimTime::ZERO,
            );
        }
    }
    for round in 0..3u64 {
        let now = SimTime::ZERO + SimDuration::from_mins(25 * round);
        dht.apply_churn(now);
        tier.tick(&mut dht, now);
        for f in 0..FILES {
            for asker in [viewer, UserId::new(f % 7)] {
                // An asker taken down by the churn wave answers nothing.
                let _ = tier.retrieve(&mut dht, &registry, asker, FileId::new(f), now);
            }
        }
    }
    assert!(tier.gossip_stats().pushes > 0, "hot files gossip");
    spans_match_timers("tier");
    for name in ["dht.store.op", "dht.republish.batch", "dht.gossip.push"] {
        assert!(
            mdrep_obs::global().snapshot().timer(name).is_some(),
            "{name} ran"
        );
    }

    // A get-only stretch: the `dht.get.op` spans account for every
    // message the overlay sent in it, bucket by bucket.
    reset();
    let now = SimTime::ZERO + SimDuration::from_mins(95);
    dht.apply_churn(now);
    let before = dht.stats();
    for f in 0..FILES {
        dht.get(viewer, Key::for_file(FileId::new(f)), now)
            .expect("the viewer is churn-immune");
    }
    let after = dht.stats();
    spans_match_timers("get-only");
    let gets: Vec<_> = mdrep_obs::tracer()
        .events()
        .into_iter()
        .filter(|e| e.name == "dht.get.op")
        .collect();
    assert_eq!(gets.len() as u64, FILES);
    let sum = |key: &str| gets.iter().map(|e| arg(e, key)).sum::<u64>();
    assert_eq!(sum("sent"), after.total() - before.total());
    assert_eq!(sum("lost"), after.dropped - before.dropped);
    assert_eq!(sum("blocked"), after.blocked - before.blocked);
    assert_eq!(sum("timed_out"), after.timed_out - before.timed_out);
    assert_eq!(sum("refused"), after.refused - before.refused);
    assert_eq!(sum("retries"), after.retried - before.retried);
    for bucket in ["lost", "blocked", "timed_out", "refused", "retries"] {
        assert!(sum(bucket) > 0, "the fault plan fills `{bucket}`");
    }

    mdrep_obs::global().set_enabled(false);
    mdrep_obs::tracer().set_enabled(false);
}
