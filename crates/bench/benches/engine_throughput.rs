//! Benchmarks of the reputation engine: event ingestion throughput and the
//! cost of a full matrix recomputation (the periodic step every peer pays).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mdrep::{Params, ReputationEngine};
use mdrep_types::SimTime;
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};
use std::hint::black_box;

fn trace_of(users: usize, days: u64) -> Trace {
    TraceBuilder::new(
        WorkloadConfig::builder()
            .users(users)
            .titles(users * 2)
            .days(days)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.3)
            .seed(9)
            .build()
            .expect("valid config"),
    )
    .generate()
}

fn bench_ingestion(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/ingest_events");
    for &users in &[100usize, 400] {
        let trace = trace_of(users, 3);
        group.throughput(Throughput::Elements(trace.events().len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(users), &trace, |b, trace| {
            b.iter(|| {
                let mut engine = ReputationEngine::new(Params::default());
                for event in trace.events() {
                    engine.observe_trace_event(event, trace.catalog());
                }
                black_box(engine)
            });
        });
    }
    group.finish();
}

fn bench_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/recompute");
    group.sample_size(10);
    for &users in &[100usize, 400] {
        let trace = trace_of(users, 3);
        let mut engine = ReputationEngine::new(Params::default());
        for event in trace.events() {
            engine.observe_trace_event(event, trace.catalog());
        }
        let end = SimTime::from_ticks(3 * 86_400);
        group.bench_with_input(BenchmarkId::from_parameter(users), &engine, |b, engine| {
            b.iter_batched(
                || engine.clone(),
                |mut e| {
                    e.recompute(end);
                    black_box(e)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Instrumentation overhead: the ingest + recompute loop with the global
/// `mdrep-obs` registry recording normally vs. fully disabled (every record
/// call early-outs on one atomic load). The two means feed
/// `BENCH_throughput.json` and must stay within 2% of each other (see
/// EXPERIMENTS.md).
fn bench_obs_overhead(c: &mut Criterion) {
    let trace = trace_of(200, 3);
    let end = SimTime::from_ticks(3 * 86_400);
    let run = |trace: &mdrep_workload::Trace| {
        let mut engine = ReputationEngine::new(Params::default());
        for event in trace.events() {
            engine.observe_trace_event(event, trace.catalog());
        }
        engine.recompute(end);
        black_box(engine)
    };

    let mut group = c.benchmark_group("engine/obs_overhead");
    group.sample_size(20);
    mdrep_obs::global().set_enabled(true);
    group.bench_with_input(
        BenchmarkId::from_parameter("enabled"),
        &trace,
        |b, trace| {
            b.iter(|| run(trace));
        },
    );
    mdrep_obs::global().set_enabled(false);
    group.bench_with_input(
        BenchmarkId::from_parameter("disabled"),
        &trace,
        |b, trace| {
            b.iter(|| run(trace));
        },
    );
    mdrep_obs::global().set_enabled(true);
    mdrep_obs::global().clear();
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload/generate_trace");
    group.sample_size(10);
    for &users in &[200usize, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, &users| {
            b.iter(|| black_box(trace_of(users, 2)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingestion,
    bench_recompute,
    bench_obs_overhead,
    bench_trace_generation
);
criterion_main!(benches);
