//! Integration of the DHT substrate with crypto and the reputation core:
//! the full Figure 2 pipeline, plus failure injection (message loss,
//! churn, forged records).

use mdrep_repro::core::{OwnerEvaluation, Params, ReputationEngine};
use mdrep_repro::crypto::KeyRegistry;
use mdrep_repro::dht::{
    ChurnSchedule, Dht, DhtConfig, EvaluationCacheTier, EvaluationInfo, EvaluationPublisher,
    FaultPlan, Key, RetrievalSource,
};
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};

fn overlay(n: u64, loss: f64, seed: u64) -> (Dht, KeyRegistry) {
    let mut dht = Dht::new(DhtConfig {
        fault: FaultPlan::message_loss(loss, seed),
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..n {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 7000 + i);
    }
    (dht, registry)
}

#[test]
fn figure_two_pipeline_end_to_end() {
    let (mut dht, registry) = overlay(64, 0.0, 1);
    let publisher = EvaluationPublisher::new();
    let file = FileId::new(5);
    let viewer = UserId::new(60);

    // Owners publish signed evaluations (step 1).
    for (owner, value) in [(1u64, 0.9), (2, 0.8), (3, 0.2)] {
        let key = registry
            .key_of(UserId::new(owner))
            .expect("registered")
            .clone();
        publisher
            .publish(
                &mut dht,
                &key,
                UserId::new(owner),
                file,
                Evaluation::new(value).expect("valid"),
                SimTime::ZERO,
            )
            .expect("store succeeds");
    }

    // The viewer retrieves and verifies them (step 3).
    let records = publisher
        .retrieve(&mut dht, &registry, viewer, file, SimTime::ZERO)
        .expect("online");
    assert_eq!(records.len(), 3);
    assert!(records.iter().all(|r| r.valid));

    // The viewer computes the file's reputation from its own trust (steps
    // 4–5): here it trusts owner 1 fully and nobody else.
    let mut engine = ReputationEngine::new(Params::default());
    engine.observe_download(
        SimTime::ZERO,
        viewer,
        UserId::new(1),
        FileId::new(99),
        FileSize::from_mib(10),
    );
    engine.observe_vote(SimTime::ZERO, viewer, FileId::new(99), Evaluation::BEST);
    engine.recompute(SimTime::ZERO);

    let evals: Vec<OwnerEvaluation> = records
        .iter()
        .filter(|r| r.valid)
        .map(|r| OwnerEvaluation::new(r.info.owner, r.info.evaluation))
        .collect();
    let rep = engine
        .file_reputation(viewer, &evals)
        .expect("owner 1 is reputable");
    assert!(
        (rep.value() - 0.9).abs() < 1e-9,
        "only owner 1 counts: {rep}"
    );
}

#[test]
fn forged_records_never_verify() {
    let (mut dht, registry) = overlay(32, 0.0, 2);
    let publisher = EvaluationPublisher::new();
    let file = FileId::new(9);

    // Attacker 5 forges a record in user 1's name with its own key.
    let attacker_key = registry.key_of(UserId::new(5)).expect("registered").clone();
    let forged = EvaluationInfo::signed(file, UserId::new(1), Evaluation::BEST, &attacker_key);
    dht.store(
        UserId::new(5),
        Key::for_file(file),
        forged.encode(),
        SimTime::ZERO,
    )
    .expect("store succeeds");

    let records = publisher
        .retrieve(&mut dht, &registry, UserId::new(2), file, SimTime::ZERO)
        .expect("online");
    assert_eq!(records.len(), 1);
    assert!(!records[0].valid, "forgery must be detected");
}

#[test]
fn lossy_network_still_converges_with_retries() {
    let (mut dht, registry) = overlay(64, 0.3, 3);
    let publisher = EvaluationPublisher::new();
    let file = FileId::new(1);
    let key = registry.key_of(UserId::new(0)).expect("registered").clone();

    // Publishing may need retries under 30% loss.
    let mut published = false;
    for _ in 0..20 {
        if publisher
            .publish(
                &mut dht,
                &key,
                UserId::new(0),
                file,
                Evaluation::BEST,
                SimTime::ZERO,
            )
            .is_ok()
        {
            published = true;
            break;
        }
    }
    assert!(published, "30% loss must not make publication impossible");

    // Retrieval with retries eventually sees the record.
    let mut seen = false;
    for _ in 0..20 {
        let records = publisher
            .retrieve(&mut dht, &registry, UserId::new(9), file, SimTime::ZERO)
            .expect("requester online");
        if records.iter().any(|r| r.valid) {
            seen = true;
            break;
        }
    }
    assert!(seen);
    assert!(dht.stats().dropped > 0, "loss actually happened");
}

#[test]
fn mass_churn_darkens_unreplicated_evaluations() {
    let (mut dht, registry) = overlay(48, 0.0, 4);
    let publisher = EvaluationPublisher::new();
    let key = registry.key_of(UserId::new(0)).expect("registered").clone();
    for f in 0..30u64 {
        publisher
            .publish(
                &mut dht,
                &key,
                UserId::new(0),
                FileId::new(f),
                Evaluation::BEST,
                SimTime::ZERO,
            )
            .expect("store succeeds");
    }
    // Everyone except one asker and the publisher leaves.
    for i in 2..48 {
        dht.leave(UserId::new(i));
    }
    let mut found = 0;
    for f in 0..30u64 {
        let records = publisher
            .retrieve(
                &mut dht,
                &registry,
                UserId::new(1),
                FileId::new(f),
                SimTime::ZERO,
            )
            .expect("asker online");
        if !records.is_empty() {
            found += 1;
        }
    }
    assert!(
        found < 30,
        "mass churn must lose some replicas (found {found})"
    );

    // Republication by the (online) publisher restores availability.
    dht.republish(UserId::new(0), SimTime::ZERO)
        .expect("publisher online");
    let mut after = 0;
    for f in 0..30u64 {
        let records = publisher
            .retrieve(
                &mut dht,
                &registry,
                UserId::new(1),
                FileId::new(f),
                SimTime::ZERO,
            )
            .expect("asker online");
        if !records.is_empty() {
            after += 1;
        }
    }
    assert!(after >= found, "republication cannot make things worse");
    assert_eq!(after, 30, "publisher republication restores everything");
}

#[test]
fn ttl_expiry_then_republish_cycle() {
    let (mut dht, registry) = overlay(32, 0.0, 5);
    let publisher = EvaluationPublisher::new();
    let key = registry.key_of(UserId::new(3)).expect("registered").clone();
    let file = FileId::new(2);
    publisher
        .publish(
            &mut dht,
            &key,
            UserId::new(3),
            file,
            Evaluation::BEST,
            SimTime::ZERO,
        )
        .expect("store succeeds");

    let after_ttl = SimTime::ZERO + SimDuration::from_hours(25);
    let gone = publisher
        .retrieve(&mut dht, &registry, UserId::new(4), file, after_ttl)
        .expect("online");
    assert!(gone.is_empty(), "TTL expired");

    dht.republish(UserId::new(3), after_ttl)
        .expect("publisher online");
    let back = publisher
        .retrieve(&mut dht, &registry, UserId::new(4), file, after_ttl)
        .expect("online");
    assert_eq!(back.len(), 1);
}

/// Partial-result path: when some replica holders are offline, the
/// retrieval names exactly who never answered, and the surviving valid
/// records still feed Equation 9 — graceful degradation, not an error.
#[test]
fn partial_owner_lists_still_yield_file_reputations() {
    let (mut dht, registry) = overlay(32, 0.0, 6);
    let publisher = EvaluationPublisher::new();
    let file = FileId::new(11);
    let viewer = UserId::new(31);

    for (owner, value) in [(1u64, 0.9), (2, 0.7), (3, 0.4)] {
        let key = registry
            .key_of(UserId::new(owner))
            .expect("registered")
            .clone();
        publisher
            .publish(
                &mut dht,
                &key,
                UserId::new(owner),
                file,
                Evaluation::new(value).expect("valid"),
                SimTime::ZERO,
            )
            .expect("store succeeds");
    }

    // Find a replica holder by brute force: the first departed node that
    // shows up as unreachable. Take most of the overlay offline so at
    // least one holder is certain to be gone.
    for i in 10..31u64 {
        dht.leave(UserId::new(i));
    }
    let outcome = publisher
        .retrieve_detailed(&mut dht, &registry, viewer, file, SimTime::ZERO)
        .expect("viewer online");
    assert!(
        !outcome.is_complete(),
        "with 21 nodes gone some replica holder must be unreachable"
    );
    for &holder in &outcome.unreachable {
        assert!(
            !dht.is_online(holder),
            "unreachable list must name offline nodes, got {holder}"
        );
    }
    assert!(
        outcome.valid_records().count() > 0,
        "surviving replicas still serve the records"
    );

    // The partial owner list still produces an Eq. 9 file reputation.
    let mut engine = ReputationEngine::new(Params::default());
    engine.observe_download(
        SimTime::ZERO,
        viewer,
        UserId::new(1),
        FileId::new(99),
        FileSize::from_mib(10),
    );
    engine.observe_vote(SimTime::ZERO, viewer, FileId::new(99), Evaluation::BEST);
    engine.recompute(SimTime::ZERO);
    let evals: Vec<OwnerEvaluation> = outcome
        .valid_records()
        .map(|r| OwnerEvaluation::new(r.info.owner, r.info.evaluation))
        .collect();
    let rep = engine
        .file_reputation(viewer, &evals)
        .expect("owner 1 is reputable and present");
    assert!(
        (rep.value() - 0.9).abs() < 1e-9,
        "only owner 1 counts: {rep}"
    );
}

/// Acceptance bound from the fault-injection issue: under a 10%
/// message-loss plan with moderate scheduled churn, the default retry
/// budget keeps owner-list retrieval success at 99% or better.
#[test]
fn retries_keep_retrieval_success_above_99_percent_under_faults() {
    const FILES: u64 = 100;
    let viewer = UserId::new(63);
    let publisher_id = UserId::new(0);
    let plan = FaultPlan::message_loss(0.1, 42).with_churn(
        ChurnSchedule::new(SimDuration::from_hours(1), 0.1)
            .immune(viewer)
            .immune(publisher_id),
    );
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..64 {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 7000 + i);
    }
    let publisher = EvaluationPublisher::new();
    let key = registry.key_of(publisher_id).expect("registered").clone();
    for f in 0..FILES {
        publisher
            .publish(
                &mut dht,
                &key,
                publisher_id,
                FileId::new(f),
                Evaluation::BEST,
                SimTime::ZERO,
            )
            .expect("store succeeds under 10% loss with retries");
    }

    // Two hours in, a churn wave takes ~10% of the overlay down.
    let later = SimTime::ZERO + SimDuration::from_hours(2);
    let (downs, _) = dht.apply_churn(later);
    assert!(downs > 0, "the churn schedule actually fired");

    let mut successes = 0u64;
    for f in 0..FILES {
        let outcome = publisher
            .retrieve_detailed(&mut dht, &registry, viewer, FileId::new(f), later)
            .expect("viewer is churn-immune");
        if outcome.valid_records().count() > 0 {
            successes += 1;
        }
    }
    let success_rate = successes as f64 / FILES as f64;
    assert!(
        success_rate >= 0.99,
        "retries must keep owner-list retrieval success >= 99%, got {:.1}% \
         ({successes}/{FILES})",
        success_rate * 100.0
    );
    assert!(
        dht.fault_trace().drops > 0,
        "the loss plan actually dropped messages"
    );
    assert!(dht.stats().retried > 0, "retries were actually exercised");
    assert!(
        dht.stats().is_conserved(),
        "message accounting stays closed"
    );
}

/// The cache tier over a churning overlay: cached answers keep serving
/// through a churn wave that takes replica holders down, the batched
/// republication pass catches publishers up once they return, and the
/// aggregated cache counters stay conserved throughout.
#[test]
fn cache_tier_serves_through_churn_and_republication_catches_up() {
    const FILES: u64 = 20;
    let viewer = UserId::new(63);
    let publisher_id = UserId::new(0);
    let plan = FaultPlan::message_loss(0.05, 11).with_churn(
        ChurnSchedule::new(SimDuration::from_mins(10), 0.3)
            .immune(viewer)
            .immune(publisher_id),
    );
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..64 {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 7000 + i);
    }
    let mut tier = EvaluationCacheTier::new(Default::default());
    let key = registry.key_of(publisher_id).expect("registered").clone();
    for f in 0..FILES {
        tier.publish(
            &mut dht,
            &key,
            publisher_id,
            FileId::new(f),
            Evaluation::BEST,
            SimTime::ZERO,
        )
        .expect("store succeeds under 5% loss with retries");
    }

    // Warm the viewer's cache while the overlay is intact.
    let mut warmed = 0u64;
    for f in 0..FILES {
        let got = tier
            .retrieve(&mut dht, &registry, viewer, FileId::new(f), SimTime::ZERO)
            .expect("viewer online");
        if got.source == RetrievalSource::Network && got.unreachable == 0 && !got.records.is_empty()
        {
            warmed += 1;
        }
    }
    assert_eq!(warmed, FILES, "intact overlay warms every file");

    // A churn wave takes ~30% of the overlay down; cached answers keep
    // serving every warmed file with zero network traffic.
    let wave = SimTime::ZERO + SimDuration::from_mins(10);
    let (downs, _) = dht.apply_churn(wave);
    assert!(downs > 0, "the churn schedule actually fired");
    let sent_before = dht.stats().total();
    for f in 0..FILES {
        let got = tier
            .retrieve(&mut dht, &registry, viewer, FileId::new(f), wave)
            .expect("viewer is churn-immune");
        assert!(
            matches!(got.source, RetrievalSource::Cache { age } if age < SimDuration::from_hours(1)),
            "file {f}: cached answer must survive the wave within TTL"
        );
        assert!(!got.records.is_empty());
        assert_eq!(got.unreachable, 0, "cache hits name no unreachable holders");
    }
    assert_eq!(
        dht.stats().total(),
        sent_before,
        "cache hits must not touch the network"
    );

    // Past the TTL the cache is cold again; the republication pass (run
    // after churn brought nodes back) has already restored the replicas.
    let after_ttl = SimTime::ZERO + SimDuration::from_hours(2);
    dht.apply_churn(after_ttl);
    let report = tier.tick(&mut dht, after_ttl);
    assert_eq!(report.due, 1, "the one publisher is due for republication");
    assert_eq!(
        report.refreshed, FILES as usize,
        "every published key gets refreshed in the batch"
    );
    let mut recovered = 0u64;
    for f in 0..FILES {
        let got = tier
            .retrieve(&mut dht, &registry, viewer, FileId::new(f), after_ttl)
            .expect("viewer online");
        assert_eq!(
            got.source,
            RetrievalSource::Network,
            "file {f}: TTL expiry forces a fresh overlay fetch"
        );
        if !got.records.is_empty() {
            recovered += 1;
        }
    }
    assert_eq!(recovered, FILES, "republication restored every file");

    let stats = tier.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(stats.hits, FILES, "exactly the churn-wave round hit");
    assert!(stats.expired_evictions > 0 || stats.expired_misses > 0);
    assert!(
        dht.stats().is_conserved(),
        "message accounting stays closed"
    );
}
