//! A full and an incremental recompute run the same phases: both record
//! the same `engine.recompute.*` names, in the registry and in the trace
//! ring alike, and in both the Equation 2 pass runs inside `fm_build`.
//!
//! The only test in its binary: it reads the process-wide registry and
//! tracer, which concurrent tests would write to.

use mdrep_repro::core::{Params, RecomputeMode, ReputationEngine};
use mdrep_repro::types::{Evaluation, FileId, SimTime, UserId};
use std::collections::BTreeSet;

/// The phase names one recompute recorded, from the registry's timers and
/// from the trace ring; asserts along the way that every Equation 2 pass
/// traced as a child of `engine.recompute.fm_build`.
fn recorded_phases(engine: &mut ReputationEngine) -> (BTreeSet<String>, BTreeSet<String>) {
    mdrep_obs::global().clear();
    mdrep_obs::tracer().clear();
    engine.recompute(SimTime::ZERO);
    let timers = mdrep_obs::global()
        .snapshot()
        .timers
        .into_keys()
        .filter(|name| name.starts_with("engine.recompute."))
        .collect();
    let events = mdrep_obs::tracer().events();
    let eq2: Vec<_> = events
        .iter()
        .filter(|e| e.name == "engine.eq2.pairs")
        .collect();
    assert!(!eq2.is_empty(), "the Equation 2 pass ran and traced");
    for pass in eq2 {
        let parent = events
            .iter()
            .find(|e| e.id == pass.parent)
            .expect("the Equation 2 pass has an enclosing span");
        assert_eq!(parent.name, "engine.recompute.fm_build");
    }
    let spans = events
        .iter()
        .map(|e| e.name.to_string())
        .filter(|name| name.starts_with("engine.recompute."))
        .collect();
    (timers, spans)
}

#[test]
fn full_and_incremental_epochs_record_the_same_phases() {
    mdrep_obs::global().set_enabled(true);
    mdrep_obs::tracer().set_enabled(true);
    let params = Params::builder()
        .incremental_threshold(1.0)
        .build()
        .expect("valid");
    let mut engine = ReputationEngine::new(params);
    let (file, other) = (FileId::new(0), FileId::new(1));
    for user in 0..4 {
        engine.observe_vote(SimTime::ZERO, UserId::new(user), file, Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, UserId::new(user), other, Evaluation::BEST);
        engine.observe_rank(
            UserId::new(user),
            UserId::new((user + 1) % 4),
            Evaluation::BEST,
        );
    }

    let (full_timers, full_spans) = recorded_phases(&mut engine);
    assert_eq!(engine.last_recompute_mode(), Some(RecomputeMode::Full));

    // One re-vote dirties every evaluator of the file: the next recompute
    // is incremental and re-runs Equation 2 over them.
    engine.observe_vote(SimTime::ZERO, UserId::new(1), file, Evaluation::WORST);
    let (inc_timers, inc_spans) = recorded_phases(&mut engine);
    assert_eq!(
        engine.last_recompute_mode(),
        Some(RecomputeMode::Incremental)
    );

    assert_eq!(full_timers, inc_timers, "both modes time the same phases");
    assert_eq!(full_spans, inc_spans, "both modes trace the same phases");
    assert_eq!(
        full_timers, full_spans,
        "timers and spans name one phase set"
    );
    for phase in ["fm_build", "integrate", "merge"] {
        assert!(
            full_timers.contains(&format!("engine.recompute.{phase}")),
            "{phase} recorded"
        );
    }
}
