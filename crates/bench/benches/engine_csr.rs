//! CSR-frozen kernels vs the legacy BTreeMap pipeline.
//!
//! Three groups:
//!
//! - `engine_csr/recompute_400`: the full compute portion of a recompute
//!   (normalize Eqs. 3/5/6, blend Eq. 7, power Eq. 8 with `n = 2`) at 400
//!   users, once over `BTreeMap` storage and once over frozen CSR. CI
//!   gates on the CSR path being ≥ 3× faster (`BENCH_csr.json`).
//! - `engine_csr/pipeline_10000`: the frozen pipeline at 10 000 users for
//!   `n = 1` (freeze + blend only) and `n = 2` (one SpGEMM step).
//! - `engine_csr/eq9_10000`: batched Equation 9 — one 16-owner column set
//!   gathered for 1 000 viewers — vs the same queries as per-entry
//!   `BTreeMap` lookups.
//! - `engine_csr/trace_overhead`: the 400-user frozen pipeline wrapped in
//!   the same causal span tree the engine emits per epoch, with the
//!   global tracer disabled vs enabled. CI gates `on / off ≤ 1.03`, the
//!   tracer's "disabled = one atomic load, enabled = bounded ring push"
//!   contract.
//!
//! Both pipelines are asserted equal (within representation) in the setup,
//! so the numbers always compare identical outputs; the 1e-12 equivalence
//! itself is property-tested in `mdrep`'s suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdrep_matrix::{
    blend_frozen, blend_parallel, CsrMatrix, PowerOptions, SparseMatrix, UserIndex,
};
use mdrep_types::UserId;
use std::hint::black_box;
use std::sync::Arc;

/// Blend weights matching `Params::default()`.
const WEIGHTS: (f64, f64, f64) = (0.5, 0.3, 0.2);

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Deterministic random raw trust matrix: `users` rows, ~`deg` entries
/// each, values in (0, 1]. Same LCG family as the matrix crate's tests so
/// runs are reproducible without a rand dependency in the hot loop.
fn synth(users: u64, deg: u64, seed: u64) -> SparseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut m = SparseMatrix::new();
    for r in 0..users {
        for _ in 0..=(next() % (2 * deg)) {
            let c = next() % users;
            if c != r {
                let v = ((next() % 1000) + 1) as f64 / 1000.0;
                m.set(UserId::new(r), UserId::new(c), v).expect("valid");
            }
        }
    }
    m
}

/// The pre-CSR compute portion of a full recompute: parallel row
/// normalization, BTreeMap blend, BTreeMap multiply chain.
fn btreemap_pipeline(
    raw: &(SparseMatrix, SparseMatrix, SparseMatrix),
    n: u32,
    threads: usize,
) -> SparseMatrix {
    let (a, b, g) = WEIGHTS;
    let fm = raw.0.normalized_rows_parallel(threads);
    let dm = raw.1.normalized_rows_parallel(threads);
    let um = raw.2.normalized_rows_parallel(threads);
    let tm = blend_parallel(&[(a, &fm), (b, &dm), (g, &um)], threads).expect("valid weights");
    tm.power(n, PowerOptions::exact())
}

/// The frozen path: shared-index normalize-on-freeze, fused CSR blend,
/// row-chunked SpGEMM.
fn csr_pipeline(
    raw: &(SparseMatrix, SparseMatrix, SparseMatrix),
    n: u32,
    threads: usize,
) -> CsrMatrix {
    let (a, b, g) = WEIGHTS;
    let index = Arc::new(UserIndex::from_matrices(&[&raw.0, &raw.1, &raw.2]));
    let fm = CsrMatrix::freeze_normalized_with(&index, &raw.0);
    let dm = CsrMatrix::freeze_normalized_with(&index, &raw.1);
    let um = CsrMatrix::freeze_normalized_with(&index, &raw.2);
    let tm = blend_frozen(&[(a, &fm), (b, &dm), (g, &um)], threads).expect("valid weights");
    tm.power(n, PowerOptions::exact(), threads)
}

/// The frozen pipeline wrapped in the per-epoch span tree the engine
/// records, under the engine's span names: an epoch root, one child per
/// phase, and Eq. 2's pair pass inside the FM build. Matches the real
/// instrumentation density so the overhead gate measures what production
/// runs pay. The spans go to the global tracer directly, not through
/// phases, so the gate times the tracer alone.
fn traced_csr_pipeline(
    raw: &(SparseMatrix, SparseMatrix, SparseMatrix),
    n: u32,
    threads: usize,
) -> CsrMatrix {
    let (a, b, g) = WEIGHTS;
    let tracer = mdrep_obs::tracer();
    let mut epoch = tracer.span("engine.recompute.total");
    epoch.annotate("mode", "full");
    let index = {
        let _s = tracer.span("engine.recompute.dirty_expand");
        Arc::new(UserIndex::from_matrices(&[&raw.0, &raw.1, &raw.2]))
    };
    let fm = {
        let _s = tracer.span("engine.recompute.fm_build");
        let _pairs = tracer.span("engine.eq2.pairs");
        CsrMatrix::freeze_normalized_with(&index, &raw.0)
    };
    let (dm, um) = {
        let _s = tracer.span("engine.recompute.integrate");
        (
            CsrMatrix::freeze_normalized_with(&index, &raw.1),
            CsrMatrix::freeze_normalized_with(&index, &raw.2),
        )
    };
    let tm = {
        let _s = tracer.span("engine.recompute.merge");
        blend_frozen(&[(a, &fm), (b, &dm), (g, &um)], threads).expect("valid weights")
    };
    let _s = tracer.span("engine.recompute.matrix_power");
    tm.power(n, PowerOptions::exact(), threads)
}

fn bench_trace_overhead(c: &mut Criterion) {
    let raw = (synth(400, 16, 31), synth(400, 12, 32), synth(400, 8, 33));
    let t = threads();
    let tracer = mdrep_obs::tracer();
    let was_enabled = tracer.is_enabled();
    let mut group = c.benchmark_group("engine_csr/trace_overhead");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("off"), &raw, |b, raw| {
        tracer.set_enabled(false);
        b.iter(|| black_box(traced_csr_pipeline(raw, 2, t)));
    });
    group.bench_with_input(BenchmarkId::from_parameter("on"), &raw, |b, raw| {
        tracer.set_enabled(true);
        b.iter(|| black_box(traced_csr_pipeline(raw, 2, t)));
        // The ring is bounded (drop-oldest), so long runs stay flat; clear
        // anyway to leave global state clean for whatever runs next.
        tracer.clear();
    });
    group.finish();
    tracer.set_enabled(was_enabled);
    tracer.clear();
}

fn bench_recompute_400(c: &mut Criterion) {
    let raw = (synth(400, 16, 1), synth(400, 12, 2), synth(400, 8, 3));
    let t = threads();
    assert_eq!(
        csr_pipeline(&raw, 2, t),
        btreemap_pipeline(&raw, 2, t),
        "the two pipelines must compute the same RM"
    );
    let mut group = c.benchmark_group("engine_csr/recompute_400");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("btreemap"), &raw, |b, raw| {
        b.iter(|| black_box(btreemap_pipeline(raw, 2, t)));
    });
    group.bench_with_input(BenchmarkId::from_parameter("csr"), &raw, |b, raw| {
        b.iter(|| black_box(csr_pipeline(raw, 2, t)));
    });
    group.finish();
}

fn bench_pipeline_10k(c: &mut Criterion) {
    let raw = (
        synth(10_000, 16, 11),
        synth(10_000, 12, 12),
        synth(10_000, 8, 13),
    );
    let t = threads();
    let mut group = c.benchmark_group("engine_csr/pipeline_10000");
    group.sample_size(10);
    for n in [1u32, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}")),
            &raw,
            |b, raw| {
                b.iter(|| black_box(csr_pipeline(raw, n, t)));
            },
        );
    }
    group.finish();
}

fn bench_eq9_10k(c: &mut Criterion) {
    const VIEWERS: u64 = 1000;
    const OWNERS: u64 = 16;
    let raw = (
        synth(10_000, 16, 21),
        synth(10_000, 12, 22),
        synth(10_000, 8, 23),
    );
    let t = threads();
    let rm = csr_pipeline(&raw, 1, t);
    let rm_btree = rm.thaw();
    let owners: Vec<UserId> = (0..OWNERS).map(|i| UserId::new(i * 617 % 10_000)).collect();
    let viewers: Vec<UserId> = (0..VIEWERS).map(|i| UserId::new(i * 97 % 10_000)).collect();

    let mut group = c.benchmark_group("engine_csr/eq9_10000");
    group.sample_size(10);
    group.bench_function("btreemap", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &viewer in &viewers {
                for &owner in &owners {
                    acc += rm_btree.get(viewer, owner);
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("csr_gather", |b| {
        let set = rm.column_set(&owners);
        let mut out = Vec::with_capacity(owners.len());
        b.iter(|| {
            let mut acc = 0.0;
            for &viewer in &viewers {
                rm.gather_row(viewer, &set, &mut out);
                acc += out.iter().sum::<f64>();
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_recompute_400,
    bench_pipeline_10k,
    bench_eq9_10k,
    bench_trace_overhead
);
criterion_main!(benches);
