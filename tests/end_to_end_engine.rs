//! End-to-end: synthetic trace → reputation engine → every query the
//! paper defines, checked against the trace's ground truth.

use mdrep_repro::baselines::{MultiDimensional, ReputationSystem};
use mdrep_repro::core::{
    OwnerEvaluation, Params, ReputationEngine, ServiceDecision, ServicePolicy, ShardedEngine,
};
use mdrep_repro::types::{Evaluation, SimDuration, SimTime, UserId};
use mdrep_repro::workload::{Behavior, BehaviorMix, Trace, TraceBuilder, WorkloadConfig};

fn build() -> (Trace, ReputationEngine, SimTime) {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(120)
            .titles(150)
            .days(5)
            .downloads_per_user_day(6.0)
            .behavior_mix(BehaviorMix::new(0.15, 0.10, 0.05, 0.02).expect("valid"))
            .pollution_rate(0.4)
            .seed(2024)
            .build()
            .expect("valid config"),
    )
    .generate();
    let mut engine = ReputationEngine::new(Params::default());
    for event in trace.events() {
        engine.observe_trace_event(event, trace.catalog());
    }
    let end = SimTime::ZERO + SimDuration::from_days(5);
    engine.recompute(end);
    (trace, engine, end)
}

#[test]
fn coverage_is_substantial_with_implicit_evaluations() {
    let (trace, engine, _) = build();
    let coverage = engine.request_coverage(&trace.request_pairs());
    assert!(
        coverage > 0.5,
        "implicit evaluations should cover most requests, got {coverage}"
    );
}

#[test]
fn fake_files_score_below_authentic_files_on_average() {
    let (trace, engine, end) = build();
    let mut fake_scores = Vec::new();
    let mut real_scores = Vec::new();
    // Panel of honest viewers.
    let viewers: Vec<UserId> = trace
        .population()
        .iter()
        .filter(|p| p.behavior() == Behavior::Honest)
        .map(|p| p.id())
        .take(10)
        .collect();

    for title in trace.catalog().titles() {
        for &file in title.files() {
            let evals: Vec<OwnerEvaluation> = engine
                .evaluations()
                .evaluators_of(file)
                .filter_map(|owner| {
                    engine
                        .evaluations()
                        .evaluation(owner, file, end, engine.params())
                        .map(|e| OwnerEvaluation::new(owner, e))
                })
                .take(16)
                .collect();
            if evals.len() < 3 {
                continue; // too little evidence either way
            }
            let mut scores = Vec::new();
            for &viewer in &viewers {
                if let Some(r) = engine.file_reputation(viewer, &evals) {
                    scores.push(r.value());
                }
            }
            if scores.is_empty() {
                continue;
            }
            let mean = scores.iter().sum::<f64>() / scores.len() as f64;
            if trace.catalog().is_authentic(file) {
                real_scores.push(mean);
            } else {
                fake_scores.push(mean);
            }
        }
    }
    assert!(!fake_scores.is_empty() && !real_scores.is_empty());
    let fake_mean = fake_scores.iter().sum::<f64>() / fake_scores.len() as f64;
    let real_mean = real_scores.iter().sum::<f64>() / real_scores.len() as f64;
    assert!(
        fake_mean + 0.15 < real_mean,
        "fakes should score clearly below authentic: {fake_mean:.3} vs {real_mean:.3}"
    );
}

#[test]
fn reputation_matrix_rows_are_substochastic() {
    let (_, engine, _) = build();
    let rm = engine.reputation_matrix().expect("computed");
    for row in rm.matrix().row_ids() {
        let sum = rm.matrix().row_sum(row);
        assert!(sum <= 1.0 + 1e-9, "row {row} sums to {sum}");
    }
}

#[test]
fn strangers_get_throttled_friends_do_not() {
    let (trace, engine, _) = build();
    let policy = ServicePolicy::default();
    // Pick any user with a non-empty reputation row; its best-known peer
    // must get full service.
    let rm = engine.reputation_matrix().expect("computed");
    let someone = *rm.matrix().row_ids().first().expect("non-empty matrix");
    let best = rm
        .matrix()
        .row_entries(someone)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(u, _)| u)
        .expect("non-empty row");
    let friend = engine.service(someone, best, &policy);
    let stranger = engine.service(someone, UserId::new(999_999), &policy);
    assert!(!friend.is_throttled());
    assert!(stranger.is_throttled());
    assert!(friend.queue_offset > stranger.queue_offset);
    let _ = trace;
}

#[test]
fn expiry_shrinks_the_store_and_coverage() {
    let (trace, mut engine, end) = build();
    let before = engine.request_coverage(&trace.request_pairs());
    // Jump far beyond the evaluation interval: everything expires.
    let far = end + SimDuration::from_days(60);
    let dropped = engine.expire(far);
    assert!(dropped > 0);
    engine.recompute(far);
    let after = engine.request_coverage(&trace.request_pairs());
    assert!(
        after < before,
        "coverage must fall after expiry: {after} vs {before}"
    );
}

#[test]
fn honest_observers_rank_polluters_below_honest_peers() {
    // A heavier-pollution, longer trace than the shared fixture: the
    // distinguishing signal against polluters is their fake traffic (votes
    // against them, worthless DM credit for fakes), which needs time and
    // exposure to accumulate. With little pollution a polluter that also
    // shares real files legitimately looks like any other uploader.
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(120)
            .titles(150)
            .days(10)
            .downloads_per_user_day(6.0)
            .behavior_mix(BehaviorMix::new(0.10, 0.15, 0.0, 0.0).expect("valid"))
            .pollution_rate(0.6)
            .fakes_per_polluted_title(3)
            .seed(909)
            .build()
            .expect("valid config"),
    )
    .generate();
    let mut engine = ReputationEngine::new(Params::default());
    for event in trace.events() {
        engine.observe_trace_event(event, trace.catalog());
    }
    engine.recompute(SimTime::ZERO + SimDuration::from_days(10));
    let mut honest_sum = (0.0, 0usize);
    let mut polluter_sum = (0.0, 0usize);
    for viewer in trace
        .population()
        .iter()
        .filter(|p| p.behavior() == Behavior::Honest)
    {
        for target in trace.population().iter() {
            if viewer.id() == target.id() {
                continue;
            }
            let r = engine.reputation(viewer.id(), target.id());
            match target.behavior() {
                Behavior::Honest => {
                    honest_sum.0 += r;
                    honest_sum.1 += 1;
                }
                Behavior::Polluter => {
                    polluter_sum.0 += r;
                    polluter_sum.1 += 1;
                }
                _ => {}
            }
        }
    }
    let honest_mean = honest_sum.0 / honest_sum.1 as f64;
    let polluter_mean = polluter_sum.0 / polluter_sum.1 as f64;
    assert!(
        polluter_mean < honest_mean,
        "honest {honest_mean:.5} should exceed polluter {polluter_mean:.5}"
    );
}

#[test]
fn published_evaluations_are_consistent_with_queries() {
    let (trace, engine, end) = build();
    let user = trace.population().iter().next().expect("non-empty").id();
    let published = engine.published_evaluations(user, end);
    for (&file, &value) in &published {
        let direct = engine
            .evaluations()
            .evaluation(user, file, end, engine.params())
            .expect("published implies recorded");
        assert_eq!(direct, value);
        assert!(value >= Evaluation::WORST && value <= Evaluation::BEST);
    }
}

/// What one read path answers for a pair: `service`, `service_tiered`,
/// `relative_reputation` and the pair's `request_coverage`.
#[derive(Debug, PartialEq)]
struct PairReads {
    service: ServiceDecision,
    tiered: ServiceDecision,
    relative: f64,
    coverage: f64,
}

/// The reads of `(uploader, requester)` on anything with the engine's read
/// API (the engine and its snapshots).
macro_rules! pair_reads {
    ($reader:expr, $uploader:expr, $requester:expr, $policy:expr) => {
        PairReads {
            service: $reader.service($uploader, $requester, $policy),
            tiered: $reader.service_tiered($uploader, $requester, $policy),
            relative: $reader.relative_reputation($uploader, $requester),
            coverage: $reader.request_coverage(&[($uploader, $requester)]),
        }
    };
}

#[test]
fn punishment_reads_the_same_on_every_path() {
    let (_, engine, end) = build();
    let policy = ServicePolicy::default();
    // `a` and the peer it trusts most, `b`: full service until punished.
    let rm = engine.reputation_matrix().expect("computed");
    let a = *rm.matrix().row_ids().first().expect("non-empty matrix");
    let b = rm
        .matrix()
        .row_entries(a)
        .filter(|&(u, _)| u != a)
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .map(|(u, _)| u)
        .expect("a trusts someone");
    let stranger_id = UserId::new(999_999);
    let stranger = pair_reads!(engine, a, stranger_id, &policy);
    assert_eq!(stranger.relative, 0.0);
    let trusted = pair_reads!(engine, a, b, &policy);
    assert_eq!(trusted.relative, 1.0, "b is a's most-trusted peer");
    assert_eq!(trusted.coverage, 1.0);
    assert_ne!(trusted.service, stranger.service);
    assert_ne!(trusted.tiered, stranger.tiered);

    let mut punished = engine.clone();
    punished.mark_punished(b);
    let sharded = ShardedEngine::from_engine(engine, 2);
    sharded.mark_punished(b, end);
    let md = MultiDimensional::from_engine(punished.clone());
    let through_trait = PairReads {
        // The simulator's service path: the trait's relative reputation.
        service: policy.decide_scaled(md.relative_reputation(a, b)),
        tiered: md.engine().service_tiered(a, b, &policy),
        relative: md.relative_reputation(a, b),
        coverage: md.request_coverage(&[(a, b)]),
    };
    let paths = [
        ("engine", pair_reads!(punished, a, b, &policy)),
        (
            "engine snapshot",
            pair_reads!(punished.snapshot_at(1, end), a, b, &policy),
        ),
        (
            "sharded snapshot",
            pair_reads!(sharded.snapshot(), a, b, &policy),
        ),
        ("ReputationSystem", through_trait),
    ];
    for (path, reads) in paths {
        assert_eq!(
            reads, stranger,
            "{path}: a punished peer reads as a stranger"
        );
    }
    assert_eq!(punished.reputation(a, b), 0.0);

    punished.pardon(b);
    assert_eq!(
        pair_reads!(punished, a, b, &policy),
        trusted,
        "pardon restores"
    );
}
