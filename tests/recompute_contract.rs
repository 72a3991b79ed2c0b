//! The recompute contract: whichever rows a recompute rebuilds — the dirty
//! union, every row, or every row split across shards — the engine ends up
//! with bit-identical `FM`, `DM`, `UM`, `TM` and `RM`.
//!
//! Both properties drive the engine with one op alphabet. Kinds 0–4 are
//! events (download, vote, delete, rank, whitewash), 5 recomputes at the
//! current time, 6 advances the clock six hours and recomputes, and 7
//! expires the evaluations untouched for longer than the 12-hour
//! evaluation interval — so retention drift, expiring saturation windows,
//! user removal, expired records and files downloaded again after their
//! record expired all land mid-stream. The incremental threshold is drawn
//! from {0.0, 0.25, 1.0}, so `Full`, `FallbackFull` and `Incremental`
//! epochs interleave.
//!
//! A third property holds a rebuild of every row against the reference
//! `SparseMatrix` path in the corners where its index interns ids no entry
//! references: `α = 0`, blacklist-only ratings, zero-size downloads,
//! whitewashed users and `steps = 2`. Its `VD` (Equation 4) is summed from
//! the test's own list of downloads, not from the engine's download log.

use mdrep_repro::core::{
    EngineEvent, FileTrust, FileTrustOptions, Params, ParamsBuilder, ReputationEngine,
    ReputationMatrix, ShardedEngine, TrustComponents, UserTrust, Weights,
};
use mdrep_repro::matrix::{blend, CsrMatrix, PowerOptions, SparseMatrix};
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Op = (u8, u64, u64, u64, Evaluation);

fn eval_strategy() -> impl Strategy<Value = Evaluation> {
    (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range"))
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..8, 0u64..8, 0u64..8, 0u64..10, eval_strategy()),
        1..max_len,
    )
}

fn threshold_strategy() -> impl Strategy<Value = f64> {
    (0usize..3).prop_map(|i| [0.0, 0.25, 1.0][i])
}

/// A builder whose records expire 12 hours after their last activity, so
/// kind 7 drops some within the clock's reach.
fn builder() -> ParamsBuilder {
    let mut builder = Params::builder();
    builder.evaluation_interval(SimDuration::from_hours(12));
    builder
}

fn params(threshold: f64) -> Params {
    builder()
        .incremental_threshold(threshold)
        .build()
        .expect("valid")
}

/// What one op does at the current time.
enum Step {
    Event(EngineEvent),
    Recompute,
    Expire,
    Skip,
}

/// Decodes one op, advancing the clock for kind 6.
fn step(op: Op, now: &mut SimTime) -> Step {
    let (kind, a, b, f, value) = op;
    let (user, other, file, time) = (UserId::new(a), UserId::new(b), FileId::new(f), *now);
    Step::Event(match kind {
        0 if a != b => EngineEvent::Download {
            time,
            downloader: user,
            uploader: other,
            file,
            size: FileSize::from_mib(1 + a * 40),
        },
        1 => EngineEvent::Vote {
            time,
            user,
            file,
            value,
        },
        2 => EngineEvent::Delete { time, user, file },
        3 => EngineEvent::Rank {
            rater: user,
            target: other,
            value,
        },
        4 => EngineEvent::Whitewash { user },
        5 => return Step::Recompute,
        6 => {
            *now += SimDuration::from_hours(6);
            return Step::Recompute;
        }
        7 => return Step::Expire,
        _ => return Step::Skip,
    })
}

/// Every stored entry of `m`, values as bit patterns.
fn bits(m: &CsrMatrix) -> Vec<(UserId, UserId, u64)> {
    m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

/// Compares all five matrices entry by entry, bit for bit.
fn same_bits(
    got: (&TrustComponents, &ReputationMatrix),
    want: (&TrustComponents, &ReputationMatrix),
) -> Result<(), String> {
    let (gc, grm) = got;
    let (wc, wrm) = want;
    for (name, g, w) in [
        ("FM", &gc.fm, &wc.fm),
        ("DM", &gc.dm, &wc.dm),
        ("UM", &gc.um, &wc.um),
        ("TM", &gc.tm, &wc.tm),
        ("RM", grm.matrix(), wrm.matrix()),
    ] {
        if bits(g) != bits(w) {
            return Err(format!("{name} diverged"));
        }
    }
    Ok(())
}

fn matrices(engine: &ReputationEngine) -> (&TrustComponents, &ReputationMatrix) {
    (
        engine.components().expect("computed"),
        engine.reputation_matrix().expect("computed"),
    )
}

proptest! {
    // A threshold of 0.0 makes every epoch a full rebuild, so a third of
    // the cases compare two full rebuilds; 96 cases leave about 64 that run
    // dirty-row epochs, the default case count.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An arbitrary interleaving of events and recomputes leaves the engine
    /// in exactly the state a rebuild of every row produces.
    #[test]
    fn incremental_recompute_equals_full_rebuild(
        ops in ops_strategy(80),
        threshold in threshold_strategy(),
    ) {
        let mut engine = ReputationEngine::new(params(threshold));
        let mut now = SimTime::ZERO;
        for &op in &ops {
            match step(op, &mut now) {
                Step::Event(event) => event.apply_to(&mut engine),
                Step::Recompute => engine.recompute(now),
                Step::Expire => {
                    engine.expire(now);
                }
                Step::Skip => {}
            }
        }
        engine.recompute(now);

        let mut reference = engine.clone();
        reference.full_rebuild(now);
        if let Err(diverged) = same_bits(matrices(&engine), matrices(&reference)) {
            prop_assert!(false, "{} at threshold {}", diverged, threshold);
        }
    }
}

proptest! {
    /// Shard-count equivalence: the published matrices are bit-identical to
    /// the unsharded engine for every tested shard count, and every epoch
    /// runs in the same mode. The reference applies each event at once;
    /// the sharded engine queues it until the next epoch or expiry.
    #[test]
    fn any_shard_count_matches_unsharded(
        ops in ops_strategy(60),
        threshold in threshold_strategy(),
    ) {
        for shards in [1usize, 2, 4, 7] {
            let mut reference = ReputationEngine::new(params(threshold));
            let sharded = ShardedEngine::new(params(threshold), shards);
            let mut now = SimTime::ZERO;
            for &op in &ops {
                match step(op, &mut now) {
                    Step::Event(event) => {
                        event.apply_to(&mut reference);
                        sharded.ingest(event);
                    }
                    Step::Recompute => {
                        reference.recompute(now);
                        sharded.recompute_epoch(now);
                        prop_assert_eq!(
                            sharded.last_recompute_mode(),
                            reference.last_recompute_mode(),
                            "recompute mode diverged at shard count {}", shards
                        );
                    }
                    Step::Expire => {
                        prop_assert_eq!(sharded.expire(now), reference.expire(now));
                    }
                    Step::Skip => {}
                }
            }
            reference.recompute(now);
            sharded.recompute_epoch(now);

            let snap = sharded.snapshot();
            let got = (
                snap.components().expect("computed"),
                snap.reputation_matrix().expect("computed"),
            );
            if let Err(diverged) = same_bits(got, matrices(&reference)) {
                prop_assert!(
                    false,
                    "{} at shard count {}, threshold {}", diverged, shards, threshold
                );
            }
        }
    }
}

/// The corners where a rebuild of every row interns ids that no entry
/// references, so its index is a strict superset of the ids its matrices
/// use.
#[derive(Debug, Clone, Copy)]
enum Corner {
    /// `α = 0`: FM is built, but no FM entry reaches TM.
    AlphaZero,
    /// Every rating is a blacklist entry: raters and targets are interned,
    /// `UM` is empty.
    BlacklistOnly,
    /// Every download is zero-sized: uploaders are interned, `DM` is
    /// empty.
    ZeroSize,
    /// Users leave mid-stream and come back under the same id.
    Whitewash,
    /// `RM = TM²`: the power runs over the superset index.
    TwoSteps,
}

const CORNERS: [Corner; 5] = [
    Corner::AlphaZero,
    Corner::BlacklistOnly,
    Corner::ZeroSize,
    Corner::Whitewash,
    Corner::TwoSteps,
];

fn corner_params(corner: Corner) -> Params {
    let mut builder = builder();
    builder.incremental_threshold(0.0);
    match corner {
        Corner::AlphaZero => {
            builder.weights(Weights::new(0.0, 0.5, 0.5).expect("convex"));
        }
        Corner::TwoSteps => {
            builder.steps(2);
        }
        _ => {}
    }
    builder.build().expect("valid")
}

/// Rewrites one event for `corner`.
fn corner_event(corner: Corner, event: EngineEvent) -> EngineEvent {
    match (corner, event) {
        (Corner::BlacklistOnly, EngineEvent::Rank { rater, target, .. }) => EngineEvent::Rank {
            rater,
            target,
            value: Evaluation::WORST,
        },
        (
            Corner::ZeroSize,
            EngineEvent::Download {
                time,
                downloader,
                uploader,
                file,
                ..
            },
        ) => EngineEvent::Download {
            time,
            downloader,
            uploader,
            file,
            size: FileSize::ZERO,
        },
        (_, event) => event,
    }
}

/// One download as the reference keeps it: downloader, uploader, file,
/// size.
type Download = (UserId, UserId, FileId, FileSize);

/// The reference path: Equations 3–8 on `SparseMatrix`, from the engine's
/// evaluations, the downloads in the order they happened, and a second
/// copy of the ratings.
fn reference_path(
    engine: &ReputationEngine,
    downloads: &[Download],
    ratings: &UserTrust,
    now: SimTime,
) -> [SparseMatrix; 5] {
    let params = engine.params();
    let evals = engine.evaluations();
    let ft = FileTrust::compute_with(evals, now, params, FileTrustOptions::default());
    let fm = ft.raw().thaw().normalized_rows();
    // Equation 4: `VD_ij` adds `E_ik·S_k` over every download `i` made
    // from `j`, in the order they happened, for each file `k` that `i`
    // still holds a record of — a download made before the record expired
    // counts again once the file is downloaded anew.
    let mut volumes: BTreeMap<(UserId, UserId), f64> = BTreeMap::new();
    for &(d, up, file, size) in downloads {
        let volume = volumes.entry((d, up)).or_insert(0.0);
        if let Some(e) = evals.evaluation(d, file, now, params) {
            *volume += e.value() * size.as_mib_f64();
        }
    }
    let mut vd = SparseMatrix::new();
    for ((d, up), volume) in volumes {
        vd.set(d, up, volume).expect("volumes are finite");
    }
    let mut ut = SparseMatrix::new();
    for r in ratings.rows() {
        ut.set_row(r, ratings.ut_row(r).into_iter().collect())
            .expect("ratings are finite");
    }
    let (dm, um) = (vd.normalized_rows(), ut.normalized_rows());
    let w = params.weights();
    let tm = blend(&[(w.alpha(), &fm), (w.beta(), &dm), (w.gamma(), &um)]).expect("convex");
    let rm = tm.power(params.steps(), PowerOptions::exact());
    [fm, dm, um, tm, rm]
}

/// [`EngineSnapshot::digest`](mdrep_repro::core::EngineSnapshot::digest)
/// as documented: FNV-1a over the epoch and every `RM` entry's bits.
fn reference_digest(epoch: u64, rm: &SparseMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(epoch);
    for (r, c, v) in rm.iter() {
        mix(r.as_u64());
        mix(c.as_u64());
        mix(v.to_bits());
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In every corner, a rebuild of every row equals the reference
    /// `SparseMatrix` path entry for entry, bit for bit, and the snapshot
    /// digest is the one the reference `RM` gives: ids the index holds but
    /// no entry references change nothing a reader sees.
    #[test]
    fn full_rebuild_matches_the_reference_path(ops in ops_strategy(60)) {
        for corner in CORNERS {
            let mut engine = ReputationEngine::new(corner_params(corner));
            let (mut downloads, mut ratings) = (Vec::<Download>::new(), UserTrust::new());
            let mut now = SimTime::ZERO;
            let mut events = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                match step(op, &mut now) {
                    Step::Event(event) => events.push(corner_event(corner, event)),
                    Step::Recompute => engine.recompute(now),
                    Step::Expire => {
                        engine.expire(now);
                    }
                    Step::Skip => {}
                }
                if matches!(corner, Corner::Whitewash) && i % 5 == 4 {
                    events.push(EngineEvent::Whitewash { user: UserId::new(op.1) });
                }
                for event in events.drain(..) {
                    match event {
                        EngineEvent::Download { downloader, uploader, file, size, .. } => {
                            downloads.push((downloader, uploader, file, size));
                        }
                        EngineEvent::Rank { rater, target, value } => {
                            ratings.rate(rater, target, value);
                        }
                        EngineEvent::Whitewash { user } => {
                            downloads.retain(|&(d, up, ..)| d != user && up != user);
                            ratings.remove_user(user);
                        }
                        _ => {}
                    }
                    event.apply_to(&mut engine);
                }
            }
            engine.full_rebuild(now);

            let want = reference_path(&engine, &downloads, &ratings, now);
            let (comps, rm) = matrices(&engine);
            let got = [&comps.fm, &comps.dm, &comps.um, &comps.tm, rm.matrix()];
            for (name, g, w) in ["FM", "DM", "UM", "TM", "RM"].into_iter().zip(got).zip(&want)
                .map(|((n, g), w)| (n, g, w))
            {
                let reference: Vec<(UserId, UserId, u64)> =
                    w.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
                prop_assert!(bits(g) == reference, "{} diverged in {:?}", name, corner);
            }
            prop_assert_eq!(
                engine.snapshot_at(1, now).digest(),
                reference_digest(1, &want[4]),
                "digest diverged in {:?}", corner
            );
        }
    }
}
