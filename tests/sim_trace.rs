//! The simulator's trace shows only work it does. Its owner-evaluation
//! retrievals go through the fault model, not through an overlay, so no
//! `dht.*` span may appear, and each `sim.eq9.query` span's `attempted` and
//! `lost` annotations must add up to the report's fault counters. Every
//! traced layer is a phase: each span name is a registry timer with the
//! same count.
//!
//! The only test in its binary: it reads the process-wide registry and
//! tracer, which concurrent tests would write to.

use mdrep_repro::baselines::MultiDimensional;
use mdrep_repro::core::Params;
use mdrep_repro::dht::{ChurnSchedule, FaultPlan, RetryPolicy};
use mdrep_repro::sim::{SimConfig, Simulation};
use mdrep_repro::types::SimDuration;
use mdrep_repro::workload::{BehaviorMix, TraceBuilder, WorkloadConfig};
use std::collections::BTreeMap;

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

#[test]
fn faulted_replay_traces_no_phantom_rpc() {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(40)
            .titles(40)
            .days(2)
            .downloads_per_user_day(4.0)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.4)
            .seed(21)
            .build()
            .expect("valid config"),
    )
    .generate();
    let config = SimConfig {
        filter_fakes: true,
        fault: Some(
            FaultPlan::message_loss(0.3, 21)
                .with_churn(ChurnSchedule::new(SimDuration::from_hours(2), 0.2)),
        ),
        fault_retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..SimConfig::default()
    };

    let registry = mdrep_obs::global();
    let tracer = mdrep_obs::tracer();
    registry.set_enabled(true);
    tracer.set_enabled(true);
    registry.clear();
    tracer.clear();
    let report = Simulation::new(config, MultiDimensional::new(Params::default())).run(&trace);
    registry.set_enabled(false);
    tracer.set_enabled(false);
    assert_eq!(tracer.stats().dropped, 0, "the trace holds every span");
    let events = tracer.events();

    let phantom: Vec<&str> = events
        .iter()
        .map(|e| e.name)
        .filter(|name| name.starts_with("dht."))
        .collect();
    assert!(
        phantom.is_empty(),
        "no overlay ran, yet the trace shows {} `dht.*` spans ({:?}, …)",
        phantom.len(),
        phantom.first()
    );

    let mut spans: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &events {
        *spans.entry(event.name).or_default() += 1;
    }
    let timers = registry.snapshot();
    for (name, count) in spans {
        assert_eq!(
            timers.timer(name).map(|t| t.count),
            Some(count),
            "span `{name}` has a registry timer with its count"
        );
    }

    let queries: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sim.eq9.query")
        .collect();
    assert!(!queries.is_empty(), "filtering queries the owners");
    let attempted: u64 = queries.iter().map(|e| arg(e, "attempted")).sum();
    let lost: u64 = queries.iter().map(|e| arg(e, "lost")).sum();
    assert_eq!(attempted, report.faults.retrievals);
    assert_eq!(lost, report.faults.lost_retrievals);
    assert!(lost > 0, "the fault plan bites");
}
