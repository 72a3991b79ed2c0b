//! **WEIGHT** — the Section 5 future-work question: how should the
//! equation weights be chosen? Sweeps the Equation 7 blend `(α, β, γ)`
//! over the simplex and the Equation 1 blend `η`, measuring two responses
//! on the same trace:
//!
//! - request coverage of the resulting `RM` (the trust side), and
//! - fake-identification F1 through Equation 9 (the quality side).
//!
//! Run: `cargo run -p mdrep-bench --bin exp_weight_sensitivity --release`

use mdrep::{OwnerEvaluation, Params, ReputationEngine, Weights};
use mdrep_bench::Table;
use mdrep_types::{Evaluation, SimTime, UserId};
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};

fn experiment() {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(200)
            .titles(300)
            .days(5)
            .downloads_per_user_day(5.0)
            .behavior_mix(BehaviorMix::new(0.15, 0.10, 0.04, 0.02).expect("valid"))
            .pollution_rate(0.4)
            .seed(90)
            .build()
            .expect("valid config"),
    )
    .generate();
    let end = SimTime::from_ticks(5 * 86_400);
    println!(
        "trace: {} downloads, pollution 0.4",
        trace.stats().downloads
    );

    // Sweep (α, β, γ) on a 0.25-step simplex with fixed η, then η with the
    // default weights.
    let mut table = Table::new(
        "Weight sensitivity: coverage and fake-identification F1",
        &["alpha", "beta", "gamma", "eta", "coverage", "fake_f1"],
    );

    let mut simplex = Vec::new();
    let steps = 4;
    for a in 0..=steps {
        for b in 0..=(steps - a) {
            let g = steps - a - b;
            simplex.push((
                a as f64 / steps as f64,
                b as f64 / steps as f64,
                g as f64 / steps as f64,
            ));
        }
    }
    for &(alpha, beta, gamma) in &simplex {
        let (coverage, f1) = evaluate(&trace, end, alpha, beta, gamma, 0.4);
        table.row_f64(&[alpha, beta, gamma, 0.4, coverage, f1]);
    }
    for eta in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (coverage, f1) = evaluate(&trace, end, 0.5, 0.3, 0.2, eta);
        table.row_f64(&[0.5, 0.3, 0.2, eta, coverage, f1]);
    }

    table.finish("exp_weight_sensitivity");
    println!(
        "\nreading: coverage tracks α (the file dimension is densest); fake F1\n\
         drops when α = 0 (opinion similarity unavailable to discount liars),\n\
         while η barely moves it on this trace."
    );
}

/// Runs the engine under one weight setting; returns (coverage, fake F1).
fn evaluate(
    trace: &Trace,
    end: SimTime,
    alpha: f64,
    beta: f64,
    gamma: f64,
    eta: f64,
) -> (f64, f64) {
    let params = Params::builder()
        .weights(Weights::new(alpha, beta, gamma).expect("simplex point"))
        .eta(eta)
        .build()
        .expect("valid params");
    let mut engine = ReputationEngine::new(params);
    for event in trace.events() {
        engine.observe_trace_event(event, trace.catalog());
    }
    engine.recompute(end);

    let coverage = engine.request_coverage(&trace.request_pairs());

    // Fake-identification F1 over the whole catalog, averaged over a panel
    // of honest viewers.
    let viewers: Vec<UserId> = trace
        .population()
        .iter()
        .filter(|p| p.behavior() == mdrep_workload::Behavior::Honest)
        .map(|p| p.id())
        .take(20)
        .collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
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
            let is_fake = !trace.catalog().is_authentic(file);
            // Majority verdict of the viewer panel, scored in one batched
            // Eq. 9 row-gather over the frozen RM.
            let mut votes_fake = 0usize;
            let mut votes_total = 0usize;
            for r in engine
                .file_reputation_batch(&viewers, &evals)
                .into_iter()
                .flatten()
            {
                votes_total += 1;
                if r.is_below(Evaluation::NEUTRAL) {
                    votes_fake += 1;
                }
            }
            if votes_total == 0 {
                if is_fake {
                    fn_ += 1; // undetectable fake
                }
                continue;
            }
            let flagged = votes_fake * 2 > votes_total;
            match (is_fake, flagged) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (coverage, f1)
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
