//! The sharded epoch's layers are phases: `engine.sharded.{epoch_total,
//! drain, apply, publish}` each record a registry timer and a trace span
//! under one name, and the engine recompute an epoch runs traces inside
//! that epoch's span.
//!
//! The only test in its binary: it reads the process-wide registry and
//! tracer, which concurrent tests would write to.

use mdrep_repro::core::{Params, ShardedEngine};
use mdrep_repro::types::{Evaluation, SimTime, UserId};
use std::collections::BTreeSet;

const EPOCH: &str = "engine.sharded.epoch_total";
const LAYERS: [&str; 3] = [
    "engine.sharded.drain",
    "engine.sharded.apply",
    "engine.sharded.publish",
];

#[test]
fn sharded_layers_time_and_trace_under_one_epoch() {
    mdrep_obs::global().set_enabled(true);
    mdrep_obs::tracer().set_enabled(true);
    mdrep_obs::global().clear();
    mdrep_obs::tracer().clear();
    let engine = ShardedEngine::new(Params::default(), 2);
    for user in 0..4 {
        engine.observe_rank(
            UserId::new(user),
            UserId::new((user + 1) % 4),
            Evaluation::BEST,
        );
    }
    assert_eq!(engine.recompute_epoch(SimTime::ZERO), 1);

    let timers: BTreeSet<String> = mdrep_obs::global()
        .snapshot()
        .timers
        .into_keys()
        .filter(|name| name.starts_with("engine.sharded."))
        .collect();
    let events = mdrep_obs::tracer().events();
    let spans: BTreeSet<String> = events
        .iter()
        .map(|e| e.name.to_string())
        .filter(|name| name.starts_with("engine.sharded."))
        .collect();
    for layer in LAYERS.into_iter().chain([EPOCH]) {
        assert!(timers.contains(layer), "{layer} is a registry timer");
        assert!(spans.contains(layer), "{layer} is a trace span");
    }
    assert_eq!(timers, spans, "timers and spans name one phase set");

    let epoch = events
        .iter()
        .find(|e| e.name == EPOCH)
        .expect("the epoch traced");
    for layer in LAYERS {
        let span = events.iter().find(|e| e.name == layer).expect("traced");
        assert_eq!(
            span.parent, epoch.id,
            "{layer} traces as a child of the epoch"
        );
    }
    // A descendant, not necessarily a child: climb parents to the epoch.
    let mut at = events
        .iter()
        .find(|e| e.name == "engine.recompute.total")
        .expect("the recompute traced");
    while at.parent != epoch.id {
        at = events
            .iter()
            .find(|e| e.id == at.parent)
            .expect("engine.recompute.total descends from the epoch span");
    }
}
