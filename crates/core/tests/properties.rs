//! Property-based tests on the reputation system's invariants.

use mdrep::{
    file_reputation, EvaluationStore, FileTrust, OwnerEvaluation, Params, ReputationEngine,
    ReputationMatrix, ServicePolicy, UserTrust, Weights,
};
use mdrep_matrix::{blend, normalized_entries, CsrMatrix, PowerOptions, SparseMatrix};
use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use proptest::prelude::*;

fn eval_strategy() -> impl Strategy<Value = Evaluation> {
    (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range"))
}

/// A small random vote table: (user, file, value).
fn votes_strategy() -> impl Strategy<Value = Vec<(u64, u64, Evaluation)>> {
    proptest::collection::vec((0u64..8, 0u64..10, eval_strategy()), 1..60)
}

proptest! {
    #[test]
    fn file_trust_is_symmetric_and_bounded(votes in votes_strategy()) {
        let params = Params::builder().eta(0.0).build().expect("valid");
        let mut store = EvaluationStore::new();
        for &(u, f, v) in &votes {
            store.record_vote(SimTime::ZERO, UserId::new(u), FileId::new(f), v);
        }
        let ft = FileTrust::compute(&store, SimTime::ZERO, &params);
        for (i, j, v) in ft.raw().iter() {
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!((ft.raw().get(j, i) - v).abs() < 1e-12, "symmetry");
            prop_assert_ne!(i, j, "no self trust");
        }
        prop_assert!(ft.matrix().is_row_stochastic(1e-9));
    }

    #[test]
    fn equation_nine_is_bounded_by_evaluations(
        entries in proptest::collection::vec((1u64..10, 0.001f64..1.0), 1..8),
        evals in proptest::collection::vec((1u64..10, 0.0f64..=1.0), 1..8),
    ) {
        let mut tm = SparseMatrix::new();
        for &(j, v) in &entries {
            tm.set(UserId::new(0), UserId::new(j), v).expect("valid");
        }
        let rm = ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &Params::default());
        let owner_evals: Vec<OwnerEvaluation> = evals
            .iter()
            .map(|&(j, v)| OwnerEvaluation::new(UserId::new(j), Evaluation::new(v).expect("ok")))
            .collect();
        if let Some(r) = file_reputation(&rm, UserId::new(0), &owner_evals) {
            let lo = owner_evals.iter().map(|o| o.evaluation.value()).fold(f64::INFINITY, f64::min);
            let hi = owner_evals.iter().map(|o| o.evaluation.value()).fold(0.0, f64::max);
            prop_assert!(r.value() >= lo - 1e-9);
            prop_assert!(r.value() <= hi + 1e-9);
        }
    }

    #[test]
    fn service_is_monotone_in_reputation(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let policy = ServicePolicy::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dlo = policy.decide_scaled(lo);
        let dhi = policy.decide_scaled(hi);
        prop_assert!(dhi.queue_offset >= dlo.queue_offset);
        prop_assert!(dhi.bandwidth_fraction >= dlo.bandwidth_fraction - 1e-12);
        prop_assert!(dlo.bandwidth_fraction > 0.0, "nobody is starved outright");
        prop_assert!(dhi.bandwidth_fraction <= 1.0);
    }

    #[test]
    fn user_trust_rows_normalize(ratings in proptest::collection::vec(
        (0u64..6, 0u64..6, eval_strategy()), 0..40)) {
        let mut ut = UserTrust::new();
        for &(r, t, v) in &ratings {
            ut.rate(UserId::new(r), UserId::new(t), v);
        }
        for rater in ut.rows() {
            let row = normalized_entries(ut.ut_row(rater));
            let sum: f64 = row.iter().map(|&(_, v)| v).sum();
            prop_assert!(row.is_empty() || (sum - 1.0).abs() <= 1e-9);
        }
    }

    #[test]
    fn engine_reputation_nonnegative_and_rows_bounded(
        downloads in proptest::collection::vec((0u64..6, 0u64..6, 0u64..8, 1u64..500), 1..40),
        votes in proptest::collection::vec((0u64..6, 0u64..8, eval_strategy()), 0..30),
    ) {
        let mut engine = ReputationEngine::new(Params::default());
        for &(d, u, f, mib) in &downloads {
            if d != u {
                engine.observe_download(
                    SimTime::ZERO,
                    UserId::new(d),
                    UserId::new(u),
                    FileId::new(f),
                    FileSize::from_mib(mib),
                );
            }
        }
        for &(u, f, v) in &votes {
            engine.observe_vote(SimTime::ZERO, UserId::new(u), FileId::new(f), v);
        }
        engine.recompute(SimTime::ZERO);
        let rm = engine.reputation_matrix().expect("computed");
        for (i, _, v) in rm.matrix().iter() {
            prop_assert!(v >= 0.0);
            prop_assert!(rm.matrix().row_sum(i) <= 1.0 + 1e-9);
        }
    }

    /// The CSR tentpole contract: on an arbitrary interleaved event stream,
    /// the frozen path — normalize-on-freeze, `blend_frozen`, the SpGEMM
    /// power, and the batched Eq. 9 row-gather — agrees with the legacy
    /// `SparseMatrix` kernels within 1e-12, and the frozen one-step
    /// matrices thaw back to exactly what was frozen.
    #[test]
    fn csr_kernels_match_btreemap_path(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..8, 0u64..8, 0u64..10, eval_strategy()), 1..80),
        steps in 1u32..4,
        raw_top_k in 0usize..6,
        viewer_ids in proptest::collection::vec(0u64..10, 1..6),
        owner_votes in proptest::collection::vec((0u64..10, eval_strategy()), 0..6),
    ) {
        // 0 encodes "no cap" (the vendored proptest has no option strategy).
        let top_k = (raw_top_k > 0).then_some(raw_top_k);
        let params = Params::builder()
            .incremental_threshold(1.0)
            .steps(steps)
            .top_k(top_k)
            .build()
            .expect("valid");
        let mut engine = ReputationEngine::new(params.clone());
        let mut now = SimTime::ZERO;
        for &(kind, a, b, f, v) in &ops {
            let (user, other, file) = (UserId::new(a), UserId::new(b), FileId::new(f));
            match kind {
                0 if a != b => engine.observe_download(
                    now, user, other, file, FileSize::from_mib(1 + a * 40),
                ),
                1 => engine.observe_vote(now, user, file, v),
                2 => engine.observe_delete(now, user, file),
                3 => engine.observe_rank(user, other, v),
                4 => engine.observe_whitewash(user),
                5 => engine.recompute(now),
                6 => {
                    now += SimDuration::from_hours(6);
                    engine.recompute(now);
                }
                _ => {}
            }
        }
        engine.recompute(now);
        let comps = engine.components().expect("computed");

        // Freeze/thaw round-trips exactly: thawing recovers every entry.
        let fm = comps.fm.thaw();
        let dm = comps.dm.thaw();
        let um = comps.um.thaw();
        prop_assert_eq!(&comps.fm, &fm, "FM freeze/thaw round-trip");
        prop_assert_eq!(&comps.dm, &dm, "DM freeze/thaw round-trip");
        prop_assert_eq!(&comps.um, &um, "UM freeze/thaw round-trip");

        // Eq. 7 blend: fused CSR kernel vs the BTreeMap kernel.
        let w = params.weights();
        let tm_ref = blend(&[(w.alpha(), &fm), (w.beta(), &dm), (w.gamma(), &um)])
            .expect("validated weights");
        prop_assert_eq!(comps.tm.nnz(), tm_ref.nnz(), "blend support");
        for (i, j, v) in comps.tm.iter() {
            prop_assert!((tm_ref.get(i, j) - v).abs() <= 1e-12,
                "TM[{i}, {j}]: csr {v} vs btreemap {}", tm_ref.get(i, j));
        }

        // Eq. 8 power: row-chunked SpGEMM vs the BTreeMap multiply chain.
        let options = if params.prune_threshold() > 0.0 || params.top_k().is_some() {
            PowerOptions::pruned(params.prune_threshold()).with_top_k(params.top_k())
        } else {
            PowerOptions::exact()
        };
        let rm_ref = tm_ref.power(steps, options);
        let rm = engine.reputation_matrix().expect("computed");
        prop_assert_eq!(rm.matrix().nnz(), rm_ref.nnz(), "power support");
        for (i, j, v) in rm.matrix().iter() {
            prop_assert!((rm_ref.get(i, j) - v).abs() <= 1e-12,
                "RM[{i}, {j}]: csr {v} vs btreemap {}", rm_ref.get(i, j));
        }

        // Eq. 9 queries: the batched row-gather vs a scalar BTreeMap walk.
        let viewers: Vec<UserId> = viewer_ids.iter().copied().map(UserId::new).collect();
        let evals: Vec<OwnerEvaluation> = owner_votes
            .iter()
            .map(|&(o, v)| OwnerEvaluation::new(UserId::new(o), v))
            .collect();
        let batch = engine.file_reputation_batch(&viewers, &evals);
        prop_assert_eq!(batch.len(), viewers.len());
        for (k, &viewer) in viewers.iter().enumerate() {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for oe in &evals {
                let r = rm_ref.get(viewer, oe.owner);
                if r > 0.0 {
                    weighted += r * oe.evaluation.value();
                    weight += r;
                }
            }
            match batch[k] {
                None => prop_assert!(weight == 0.0, "viewer {viewer} should score"),
                Some(e) => {
                    prop_assert!(weight > 0.0);
                    prop_assert!((e.value() - (weighted / weight).clamp(0.0, 1.0)).abs() <= 1e-12,
                        "Eq. 9 for {viewer}: batch {} vs scalar {}", e.value(), weighted / weight);
                }
            }
        }
    }

    #[test]
    fn weights_validity_is_exact(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let c = 1.0 - a - b;
        let result = Weights::new(a, b, c);
        if c >= 0.0 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }
}

/// Empty edge case: a recompute with no observations freezes empty CSR
/// matrices that round-trip and answer every query conservatively.
#[test]
fn csr_empty_engine_edge_cases() {
    let mut engine = ReputationEngine::new(Params::default());
    engine.recompute(SimTime::ZERO);
    let comps = engine.components().expect("computed");
    assert_eq!(comps.tm.nnz(), 0);
    assert!(comps.tm.is_empty());
    assert_eq!(&comps.tm, &comps.tm.thaw(), "empty freeze/thaw round-trip");
    let rm = engine.reputation_matrix().expect("computed");
    assert_eq!(rm.row_max(UserId::new(0)), 0.0);
    let evals = [OwnerEvaluation::new(UserId::new(1), Evaluation::BEST)];
    assert_eq!(
        engine.file_reputation_batch(&[UserId::new(0)], &evals),
        vec![None]
    );
}

/// Zero-row edge case: viewers without a reputation row gather all-zero
/// and score `None`, exactly like the scalar path.
#[test]
fn csr_zero_row_viewers_score_none() {
    let mut engine = ReputationEngine::new(Params::default());
    let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
    engine.observe_download(SimTime::ZERO, a, b, f, FileSize::from_mib(50));
    engine.observe_vote(SimTime::ZERO, a, f, Evaluation::BEST);
    engine.recompute(SimTime::ZERO);
    let evals = [OwnerEvaluation::new(b, Evaluation::BEST)];
    let stranger = UserId::new(77);
    let batch = engine.file_reputation_batch(&[a, stranger], &evals);
    assert_eq!(batch[0], engine.file_reputation(a, &evals));
    assert!(batch[0].is_some());
    assert_eq!(batch[1], None, "stranger has no RM row");
}
