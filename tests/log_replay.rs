//! The event-log path is equivalent to the direct path: an engine fed from
//! a parsed log answers identically to one fed from the original trace.

use mdrep_repro::core::{EngineEvent, Params, ReputationEngine};
use mdrep_repro::types::{SimDuration, SimTime, UserId};
use mdrep_repro::workload::{BehaviorMix, EventLog, TraceBuilder, WorkloadConfig};

#[test]
fn log_replay_is_equivalent_to_direct_feeding() {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(60)
            .titles(80)
            .days(3)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.4)
            .seed(112_358)
            .build()
            .expect("valid config"),
    )
    .generate();
    let end = SimTime::ZERO + SimDuration::from_days(3);

    // Path A: direct.
    let mut direct = ReputationEngine::new(Params::default());
    for event in trace.events() {
        direct.observe_trace_event(event, trace.catalog());
    }
    direct.recompute(end);

    // Path B: through the text format.
    let text = EventLog::from_trace(&trace).to_text();
    let parsed = EventLog::from_text(&text).expect("own output parses");
    let sizes = parsed.size_table();
    let mut replayed = ReputationEngine::new(Params::default());
    for event in parsed.events() {
        if let Some(event) = EngineEvent::from_trace_with(event, |file| sizes.get(&file).copied()) {
            event.apply_to(&mut replayed);
        }
    }
    replayed.recompute(end);

    // Identical reputations over every observed pair, up to float
    // accumulation order (hash-map iteration varies, so pairwise distance
    // sums can differ by an ulp between engine instances).
    let direct_rm = direct.reputation_matrix().expect("computed");
    let replayed_rm = replayed.reputation_matrix().expect("computed");
    assert_eq!(direct_rm.matrix().nnz(), replayed_rm.matrix().nnz());
    for (i, j, v) in direct_rm.matrix().iter() {
        let other = replayed_rm.matrix().get(i, j);
        assert!(
            (other - v).abs() <= 1e-12 * v.abs().max(1.0),
            "({i}, {j}): {other} vs {v}"
        );
    }
    // And identical coverage over the request log.
    let requests = trace.request_pairs();
    assert_eq!(
        direct.request_coverage(&requests),
        replayed.request_coverage(&requests)
    );
    // Published evaluations match too (the DHT-facing surface).
    let someone = UserId::new(5);
    assert_eq!(
        direct.published_evaluations(someone, end),
        replayed.published_evaluations(someone, end)
    );
}
