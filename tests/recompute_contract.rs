//! The recompute contract: whichever rows a recompute rebuilds — the dirty
//! union, every row, or every row split across shards — the engine ends up
//! with bit-identical `FM`, `DM`, `UM`, `TM` and `RM`.
//!
//! Both properties drive the engine with one op alphabet. Kinds 0–4 are
//! events (download, vote, delete, rank, whitewash), 5 recomputes at the
//! current time, 6 advances the clock six hours and recomputes — so
//! retention drift, expiring saturation windows and user removal all land
//! mid-stream. The incremental threshold is drawn from {0.0, 0.25, 1.0}, so
//! `Full`, `FallbackFull` and `Incremental` epochs interleave.

use mdrep_repro::core::{
    EngineEvent, Params, ReputationEngine, ReputationMatrix, ShardedEngine, TrustComponents,
};
use mdrep_repro::matrix::CsrMatrix;
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use proptest::prelude::*;

type Op = (u8, u64, u64, u64, Evaluation);

fn eval_strategy() -> impl Strategy<Value = Evaluation> {
    (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range"))
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..7, 0u64..8, 0u64..8, 0u64..10, eval_strategy()),
        1..max_len,
    )
}

fn threshold_strategy() -> impl Strategy<Value = f64> {
    (0usize..3).prop_map(|i| [0.0, 0.25, 1.0][i])
}

fn params(threshold: f64) -> Params {
    Params::builder()
        .incremental_threshold(threshold)
        .build()
        .expect("valid")
}

/// What one op does at the current time.
enum Step {
    Event(EngineEvent),
    Recompute,
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
    /// runs in the same mode.
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
