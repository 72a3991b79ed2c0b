//! Sharded epoch-snapshot engine vs the single-threaded path.
//!
//! The CI-gated comparison is *architectural*, not core-count-dependent:
//! `unsharded_full_1t` is what the pre-sharding engine had to pay at every
//! recompute of a steady-state overlay (a full single-threaded rebuild —
//! no published snapshot, so queries block on the mutable engine), while
//! `sharded_epoch_8` is what the sharded engine pays for the same state
//! change (drain + dirty-row epoch + snapshot publication at 8 shards).
//! `BENCH_sharded.json` asserts the epoch path wins by ≥ 2× at 10k users;
//! the ratio holds on any machine because it reflects the dirty-row
//! algorithm plus the publication cost, not thread-level parallelism.
//!
//! The `snapshot` group prices the publication primitives themselves —
//! the epoch clone (`publish`) and the lock-free reader fast path
//! (`read`) — and the `replay` group runs the full concurrent harness
//! (writer + query threads) at bench scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdrep::{Params, RecomputeMode, ReputationEngine, ShardedEngine};
use mdrep_sim::{run_replay, ReplayConfig};
use mdrep_types::{Evaluation, FileId, SimTime, UserId};
use mdrep_workload::{BehaviorMix, TraceBuilder, WorkloadConfig};
use std::hint::black_box;

const USERS: usize = 10_000;
/// Fraction of rows dirtied between steady-state epochs.
const DIRTY_FRACTION: f64 = 0.01;
const SHARDS: usize = 8;

/// A steady-state 10k-user engine with the given recompute worker count,
/// plus the burst of fresh events the next epoch must absorb. The trace is
/// identically seeded for every worker count, so engines built at
/// different `threads` hold bit-identical state.
fn steady_state_with(threads: usize) -> (ReputationEngine, Vec<(UserId, FileId)>, SimTime) {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(USERS)
            .titles(USERS)
            .days(2)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.3)
            .seed(13)
            .build()
            .expect("valid config"),
    )
    .generate();
    let params = Params::builder()
        .threads(threads)
        .incremental_threshold(0.2)
        .build()
        .expect("valid params");
    let mut engine = ReputationEngine::new(params);
    for event in trace.events() {
        engine.observe_trace_event(event, trace.catalog());
    }
    let end = SimTime::from_ticks(2 * 86_400);
    engine.full_rebuild(end);

    let burst = ((USERS as f64 * DIRTY_FRACTION) as usize).max(1);
    let events: Vec<(UserId, FileId)> = (0..burst)
        .map(|i| {
            (
                UserId::new(i as u64 * 97 % USERS as u64),
                FileId::new(5_000_000 + i as u64),
            )
        })
        .collect();
    (engine, events, end)
}

/// The single-threaded steady-state fixture the existing groups use.
fn steady_state() -> (ReputationEngine, Vec<(UserId, FileId)>, SimTime) {
    steady_state_with(1)
}

fn bench_recompute(c: &mut Criterion) {
    let (engine, burst, end) = steady_state();

    // Sanity: the sharded epoch runs the dirty-row path and its published
    // matrix is bit-identical to the engine's own recompute.
    {
        let sharded = ShardedEngine::from_engine(engine.clone(), SHARDS);
        for &(user, file) in &burst {
            sharded.observe_vote(end, user, file, Evaluation::BEST);
        }
        sharded.recompute_epoch(end);
        assert_eq!(
            sharded.last_recompute_mode(),
            Some(RecomputeMode::Incremental),
            "steady-state epoch must take the dirty-row path"
        );
        let mut reference = engine.clone();
        for &(user, file) in &burst {
            reference.observe_vote(end, user, file, Evaluation::BEST);
        }
        reference.recompute(end);
        assert_eq!(
            sharded.snapshot().reputation_matrix().unwrap().matrix(),
            reference.reputation_matrix().unwrap().matrix(),
            "sharded epoch diverged from the single-threaded engine"
        );
    }

    let mut group = c.benchmark_group(format!("engine_sharded/recompute_{USERS}"));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("unsharded_full_1t"),
        &engine,
        |b, engine| {
            b.iter_batched(
                || {
                    let mut e = engine.clone();
                    for &(user, file) in &burst {
                        e.observe_vote(end, user, file, Evaluation::BEST);
                    }
                    e
                },
                |mut e| {
                    e.full_rebuild(end);
                    black_box(e)
                },
                criterion::BatchSize::LargeInput,
            );
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("sharded_epoch_{SHARDS}")),
        &engine,
        |b, engine| {
            b.iter_batched(
                || {
                    let sharded = ShardedEngine::from_engine(engine.clone(), SHARDS);
                    for &(user, file) in &burst {
                        sharded.observe_vote(end, user, file, Evaluation::BEST);
                    }
                    sharded
                },
                |sharded| {
                    sharded.recompute_epoch(end);
                    black_box(sharded)
                },
                criterion::BatchSize::LargeInput,
            );
        },
    );
    group.finish();
}

/// Serial vs parallel dirty-row recompute on identical state: the same 1%
/// rank burst absorbed by one worker and by eight. Rank events dirty the
/// user-trust rows without re-running the Eq. 2 pair
/// accumulation, so the pair isolates the worker-level speedup of the
/// per-shard row rebuild itself; the vote-heavy shape stays covered by
/// the `recompute` group. Bit-identity across worker counts is asserted
/// before either side is timed.
fn bench_dirty_epoch(c: &mut Criterion) {
    let (serial, _, end) = steady_state_with(1);
    let (parallel, _, _) = steady_state_with(8);
    let burst: Vec<(UserId, UserId)> = (0..(USERS as f64 * DIRTY_FRACTION) as u64)
        .map(|i| {
            (
                UserId::new(i * 97 % USERS as u64),
                UserId::new((i * 131 + 7) % USERS as u64),
            )
        })
        .collect();

    // Sanity: worker count changes neither the state nor the result bits.
    {
        let mut a = serial.clone();
        let mut b = parallel.clone();
        for &(rater, target) in &burst {
            a.observe_rank(rater, target, Evaluation::BEST);
            b.observe_rank(rater, target, Evaluation::BEST);
        }
        a.recompute(end);
        b.recompute(end);
        assert_eq!(
            a.last_recompute_mode(),
            Some(RecomputeMode::Incremental),
            "the burst must stay on the dirty-row path"
        );
        assert_eq!(
            a.reputation_matrix().unwrap().matrix(),
            b.reputation_matrix().unwrap().matrix(),
            "parallel dirty recompute diverged from serial (bit-exact contract)"
        );
    }

    let mut group = c.benchmark_group(format!("engine_sharded/dirty_epoch_{USERS}"));
    group.sample_size(10);
    for (name, engine) in [("serial_1t", &serial), ("parallel_8t", &parallel)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), engine, |b, engine| {
            b.iter_batched(
                || {
                    let mut e = engine.clone();
                    for &(rater, target) in &burst {
                        e.observe_rank(rater, target, Evaluation::BEST);
                    }
                    e
                },
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

fn bench_snapshot(c: &mut Criterion) {
    let (engine, _, end) = steady_state();
    let sharded = ShardedEngine::from_engine(engine, SHARDS);

    let mut group = c.benchmark_group(format!("engine_sharded/snapshot_{USERS}"));
    group.sample_size(10);
    // The epoch publication cost: clone the computed state into an
    // immutable snapshot (O(nnz) memcpy) and swap it into the cell.
    group.bench_function(BenchmarkId::from_parameter("publish"), |b| {
        b.iter(|| black_box(sharded.mark_punished(UserId::new(0), end)));
    });
    sharded.pardon(UserId::new(0), end);
    // The steady-state read: one atomic epoch load + a CSR row probe.
    group.bench_function(BenchmarkId::from_parameter("read"), |b| {
        let mut reader = sharded.reader();
        let mut i = 0u64;
        b.iter(|| {
            let snap = reader.current();
            let r = snap.reputation(
                UserId::new(i % USERS as u64),
                UserId::new((i * 31 + 1) % USERS as u64),
            );
            i = i.wrapping_add(1);
            black_box(r)
        });
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let config = ReplayConfig {
        users: USERS as u64,
        files: 2_000,
        events: 40_000,
        epochs: 3,
        shards: SHARDS,
        query_threads: 2,
        query_batch: 16,
        seed: 17,
        incremental_threshold: 1.0,
        threads: 0,
        max_evaluators_per_file: None,
    };
    let mut group = c.benchmark_group(format!("engine_sharded/replay_{USERS}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("concurrent"), |b| {
        b.iter(|| black_box(run_replay(&config)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_recompute,
    bench_dirty_epoch,
    bench_snapshot,
    bench_replay
);
criterion_main!(benches);
