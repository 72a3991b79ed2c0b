//! Concurrency contracts of the sharded epoch-snapshot engine.
//!
//! **No torn epochs** — readers racing the epoch publisher always observe a
//! snapshot whose digest equals what the writer published for that epoch,
//! and per-reader epochs are monotone. A torn read (part epoch N, part
//! N+1) would break the digest match. Shard-count equivalence (any shard
//! count publishes the unsharded engine's matrices bit for bit) lives in
//! the workspace root's `tests/recompute_contract.rs`.
//!
//! The stress tests size their reader pool from `MDREP_TEST_THREADS`
//! (default 2) so the CI concurrency job can sweep a 1/2/8 thread matrix
//! over the same binary.

use mdrep::{EngineSnapshot, Params, RecomputeMode, ReputationEngine, ShardedEngine};
use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn u(i: u64) -> UserId {
    UserId::new(i)
}
fn f(i: u64) -> FileId {
    FileId::new(i)
}

/// Reader-pool size for the stress tests, from `MDREP_TEST_THREADS`.
fn test_threads() -> usize {
    std::env::var("MDREP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(2)
}

fn eval_strategy() -> impl Strategy<Value = Evaluation> {
    (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range"))
}

/// Applies one scripted op to both engines. Kinds 0–4 are events
/// (download, vote, delete, rank, whitewash), 5 recomputes, 6 advances the
/// clock six hours and recomputes — the recompute contract's alphabet, so
/// retention drift and whitewash land mid-stream.
fn apply_op(
    reference: &mut ReputationEngine,
    sharded: &ShardedEngine,
    now: &mut SimTime,
    op: (u8, u64, u64, u64, Evaluation),
) {
    let (kind, a, b, file, v) = op;
    let (user, other, file) = (u(a), u(b), f(file));
    match kind {
        0 if a != b => {
            let size = FileSize::from_mib(1 + a * 40);
            reference.observe_download(*now, user, other, file, size);
            sharded.observe_download(*now, user, other, file, size);
        }
        1 => {
            reference.observe_vote(*now, user, file, v);
            sharded.observe_vote(*now, user, file, v);
        }
        2 => {
            reference.observe_delete(*now, user, file);
            sharded.observe_delete(*now, user, file);
        }
        3 => {
            reference.observe_rank(user, other, v);
            sharded.observe_rank(user, other, v);
        }
        4 => {
            reference.observe_whitewash(user);
            sharded.observe_whitewash(user);
        }
        5 => {
            reference.recompute(*now);
            sharded.recompute_epoch(*now);
        }
        6 => {
            *now += SimDuration::from_hours(6);
            reference.recompute(*now);
            sharded.recompute_epoch(*now);
        }
        _ => {}
    }
}

proptest! {
    /// Epoch numbering: every recompute bumps the published epoch by one,
    /// and the snapshot's stamp agrees with the cell's counter.
    #[test]
    fn epochs_count_recomputes(rounds in 1usize..8, events_per_round in 1usize..5) {
        let sharded = ShardedEngine::new(Params::default(), 3);
        for r in 0..rounds {
            for e in 0..events_per_round {
                sharded.observe_rank(u((r * 7 + e) as u64 % 9), u((e + 1) as u64 % 9), {
                    Evaluation::BEST
                });
            }
            let epoch = sharded.recompute_epoch(SimTime::ZERO);
            prop_assert_eq!(epoch, (r + 1) as u64);
            prop_assert_eq!(sharded.snapshot().epoch(), epoch);
            prop_assert_eq!(sharded.epoch(), epoch);
        }
    }
}

/// FNV-1a digest recomputed from a *deep* clone of the snapshot's `RM`:
/// the matrix is compacted into fresh contiguous storage (folding every
/// copy-on-write overlay row back into `indptr`/`cols`/`vals`) and then
/// hashed with byte-for-byte the same mixing as [`EngineSnapshot::digest`].
/// Equality proves the COW overlay view enumerates exactly the entries a
/// full clone would.
fn full_clone_digest(snap: &EngineSnapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(snap.epoch());
    if let Some(rm) = snap.reputation_matrix() {
        let deep = rm.matrix().compact();
        assert!(deep.is_compact(), "compaction folds the whole overlay");
        assert_eq!(&deep, rm.matrix(), "deep clone is semantically identical");
        for (r, c, v) in deep.iter() {
            mix(r.as_u64());
            mix(c.as_u64());
            mix(v.to_bits());
        }
    }
    h
}

proptest! {
    /// COW publication equivalence: at every epoch boundary of a random
    /// interleaved event stream, the published snapshot's digest equals the
    /// digest recomputed from a deep compacted clone of its `RM` *and* the
    /// digest of an unsharded reference engine stamped with the same epoch.
    /// Consecutive incremental epochs must also share their frozen row
    /// slabs — the structural-sharing half of the COW contract.
    #[test]
    fn cow_snapshot_digest_matches_full_clone(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..8, 0u64..8, 0u64..10, eval_strategy()), 1..50),
    ) {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .expect("valid");
        let mut reference = ReputationEngine::new(params.clone());
        let sharded = ShardedEngine::new(params, 4);
        let mut now = SimTime::ZERO;
        let mut prev = sharded.snapshot();
        for &op in &ops {
            let is_epoch = matches!(op.0, 5 | 6);
            apply_op(&mut reference, &sharded, &mut now, op);
            if !is_epoch {
                continue;
            }
            let snap = sharded.snapshot();
            let cow = snap.digest();
            prop_assert_eq!(
                cow,
                full_clone_digest(&snap),
                "COW snapshot digest diverged from its deep compacted clone"
            );
            prop_assert_eq!(
                cow,
                reference.snapshot_at(snap.epoch(), now).digest(),
                "COW snapshot digest diverged from the unsharded reference"
            );
            if sharded.last_recompute_mode() == Some(RecomputeMode::Incremental) {
                if let (Some(a), Some(b)) = (snap.reputation_matrix(), prev.reputation_matrix()) {
                    prop_assert!(
                        a.matrix().shares_storage_with(b.matrix()),
                        "incremental epoch republished the frozen slab instead of patching rows"
                    );
                }
            }
            prev = snap;
        }
    }
}

/// Steady-state incremental epochs republish only the dirty row slabs: the
/// publish gauges stay far below a full clone and the new snapshot shares
/// its frozen storage with the previous epoch's.
#[test]
fn incremental_epochs_share_storage_and_republish_few_rows() {
    let params = Params::builder()
        .incremental_threshold(0.25)
        .build()
        .expect("valid");
    let sharded = ShardedEngine::new(params, 4);
    for i in 0..400u64 {
        sharded.observe_rank(u(i), u((i + 1) % 400), Evaluation::BEST);
    }
    sharded.full_rebuild_epoch(SimTime::ZERO);
    let (full_rows, full_bytes) =
        sharded.with_master(|e| (e.last_publish_rows(), e.last_publish_bytes()));
    assert_eq!(full_rows, 400, "a full rebuild publishes every row");
    let base = sharded.snapshot();

    // Dirty a handful of raters: well under the 25% threshold.
    for i in 0..4u64 {
        sharded.observe_rank(u(i), u(100 + i), Evaluation::new(0.5).unwrap());
    }
    sharded.recompute_epoch(SimTime::ZERO);
    assert_eq!(
        sharded.last_recompute_mode(),
        Some(RecomputeMode::Incremental)
    );
    let (rows, bytes) = sharded.with_master(|e| (e.last_publish_rows(), e.last_publish_bytes()));
    assert!(
        (4..=8).contains(&rows),
        "dirty union should cover only the touched raters/targets, got {rows}"
    );
    assert!(
        bytes * 10 < full_bytes,
        "incremental publish cost {bytes}B should be well under the full clone {full_bytes}B"
    );
    let next = sharded.snapshot();
    assert!(
        next.reputation_matrix()
            .unwrap()
            .matrix()
            .shares_storage_with(base.reputation_matrix().unwrap().matrix()),
        "consecutive epochs must share the frozen CSR slab"
    );
    assert_eq!(
        next.digest(),
        full_clone_digest(&next),
        "patched snapshot still digests identically to a deep clone"
    );
}

/// The torn-epoch stress test: one writer ingests and publishes epochs
/// while reader threads continuously query through `SnapshotReader`s.
/// The writer logs each epoch's digest at publication; every reader-side
/// observation must match the writer's log exactly, and each reader's
/// epoch sequence must be monotone non-decreasing.
#[test]
fn concurrent_readers_never_observe_torn_epochs() {
    let params = Params::builder()
        .incremental_threshold(1.0)
        .build()
        .expect("valid");
    let sharded = Arc::new(ShardedEngine::new(params, 4));
    let published: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let done = Arc::new(AtomicBool::new(false));
    let readers = test_threads();
    let epochs = 40u64;

    // Seed epoch 0's digest (the empty snapshot readers may still see).
    published
        .lock()
        .unwrap()
        .insert(0, sharded.snapshot().digest());

    std::thread::scope(|scope| {
        // Writer: ingest a batch, publish an epoch, log its digest. The
        // digest is recorded *before* readers can observe the epoch only
        // for epoch 0; for later epochs publication races the log insert,
        // so readers retry the lookup until the writer catches up.
        {
            let sharded = Arc::clone(&sharded);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for round in 0..epochs {
                    for e in 0..6u64 {
                        let a = (round * 6 + e) % 23;
                        sharded.observe_rank(u(a), u((a + 1 + e) % 23), Evaluation::BEST);
                        if e % 3 == 0 {
                            sharded.observe_vote(
                                SimTime::ZERO,
                                u(a),
                                f(e % 5),
                                Evaluation::new(0.75).unwrap(),
                            );
                        }
                    }
                    let epoch = sharded.recompute_epoch(SimTime::ZERO);
                    let digest = sharded.snapshot().digest();
                    published.lock().unwrap().insert(epoch, digest);
                }
                done.store(true, Ordering::Release);
            });
        }

        for _ in 0..readers {
            let sharded = Arc::clone(&sharded);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut reader = sharded.reader();
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !done.load(Ordering::Acquire) || observed < 10 {
                    let snap = Arc::clone(reader.current());
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let digest = snap.digest();
                    // The writer may not have logged this epoch yet (the
                    // publish happens before the log insert); spin briefly.
                    let want = loop {
                        if let Some(&d) = published.lock().unwrap().get(&epoch) {
                            break d;
                        }
                        std::thread::yield_now();
                    };
                    assert_eq!(
                        digest, want,
                        "torn epoch {epoch}: snapshot digest disagrees with publication log"
                    );
                    // Exercise the read API against the pinned snapshot:
                    // every answer comes from one consistent epoch.
                    let _ = snap.reputation(u(0), u(1));
                    let _ = snap.request_coverage(&[(u(0), u(1)), (u(1), u(2))]);
                    observed += 1;
                }
                assert!(observed >= 10, "reader made too few observations");
            });
        }
    });

    assert_eq!(sharded.epoch(), epochs, "all epochs published");
}

/// Concurrent producers on all shards: every event lands exactly once and
/// the final matrix covers every rater, regardless of interleaving.
#[test]
fn concurrent_ingest_is_lossless() {
    let producers = test_threads().max(2);
    let per_producer = 120u64;
    let sharded = Arc::new(ShardedEngine::new(Params::default(), 7));
    std::thread::scope(|scope| {
        for t in 0..producers as u64 {
            let sharded = Arc::clone(&sharded);
            scope.spawn(move || {
                for i in 0..per_producer {
                    let rater = t * per_producer + i;
                    sharded.observe_rank(
                        u(rater),
                        u((rater + 1) % (producers as u64 * per_producer)),
                        Evaluation::BEST,
                    );
                }
            });
        }
    });
    assert_eq!(
        sharded.pending_events(),
        producers * per_producer as usize,
        "no event lost at ingest"
    );
    sharded.recompute_epoch(SimTime::ZERO);
    assert_eq!(sharded.pending_events(), 0, "drain empties every shard");
    let snap = sharded.snapshot();
    let rm = snap.reputation_matrix().expect("computed").matrix();
    assert_eq!(
        rm.row_count(),
        producers * per_producer as usize,
        "every rater got a row"
    );
}

/// The incremental path survives sharding: steady-state epochs with a
/// small dirty fraction run incrementally and still match a full rebuild.
#[test]
fn steady_state_epochs_run_incrementally() {
    let params = Params::builder()
        .incremental_threshold(0.25)
        .build()
        .expect("valid");
    let sharded = ShardedEngine::new(params, 4);
    for i in 0..200u64 {
        sharded.observe_rank(u(i), u((i + 1) % 200), Evaluation::BEST);
    }
    sharded.full_rebuild_epoch(SimTime::ZERO);
    assert_eq!(sharded.last_recompute_mode(), Some(RecomputeMode::Full));

    // A handful of fresh events: well under the 25% dirty threshold.
    for i in 0..5u64 {
        sharded.observe_rank(u(i), u(50 + i), Evaluation::new(0.6).unwrap());
    }
    let epoch = sharded.recompute_epoch(SimTime::ZERO);
    assert_eq!(epoch, 2);
    assert_eq!(
        sharded.last_recompute_mode(),
        Some(RecomputeMode::Incremental),
        "steady-state epoch should run the dirty-row path"
    );

    let incremental = sharded.snapshot();
    let full_epoch = sharded.full_rebuild_epoch(SimTime::ZERO);
    assert_eq!(full_epoch, 3);
    let full = sharded.snapshot();
    assert_eq!(
        incremental.reputation_matrix().unwrap().matrix(),
        full.reputation_matrix().unwrap().matrix(),
        "incremental epoch diverged from full rebuild"
    );
}

/// The COW variant of the torn-epoch stress: the writer seeds a full
/// rebuild, then publishes steady-state *incremental* epochs whose
/// snapshots share frozen row slabs with their predecessors and with the
/// live engine the writer keeps patching. Readers pin a snapshot, digest
/// it, let more overlay churn land, and digest it again — both digests
/// must agree (published state is immutable) and match the writer's log.
#[test]
fn cow_snapshots_stay_immutable_under_overlay_churn() {
    let params = Params::builder()
        .incremental_threshold(0.5)
        .build()
        .expect("valid");
    let sharded = Arc::new(ShardedEngine::new(params, 4));
    // A broad base keeps every later batch under the dirty threshold.
    for i in 0..300u64 {
        sharded.observe_rank(u(i), u((i + 1) % 300), Evaluation::BEST);
    }
    sharded.full_rebuild_epoch(SimTime::ZERO);
    let published: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    published
        .lock()
        .unwrap()
        .insert(1, sharded.snapshot().digest());
    let done = Arc::new(AtomicBool::new(false));
    let readers = test_threads();
    let epochs = 30u64;

    std::thread::scope(|scope| {
        {
            let sharded = Arc::clone(&sharded);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for round in 0..epochs {
                    for e in 0..4u64 {
                        let a = (round * 4 + e) % 300;
                        sharded.observe_rank(u(a), u((a + 7) % 300), {
                            Evaluation::new(0.6).unwrap()
                        });
                    }
                    let epoch = sharded.recompute_epoch(SimTime::ZERO);
                    assert_eq!(
                        sharded.last_recompute_mode(),
                        Some(RecomputeMode::Incremental),
                        "steady-state round {round} must take the COW dirty-row path"
                    );
                    let digest = sharded.snapshot().digest();
                    published.lock().unwrap().insert(epoch, digest);
                }
                done.store(true, Ordering::Release);
            });
        }

        for _ in 0..readers {
            let sharded = Arc::clone(&sharded);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut reader = sharded.reader();
                let mut observed = 0usize;
                while !done.load(Ordering::Acquire) || observed < 8 {
                    let snap = Arc::clone(reader.current());
                    let epoch = snap.epoch();
                    let first = snap.digest();
                    // Give the writer a chance to patch shared slabs.
                    std::thread::yield_now();
                    let second = snap.digest();
                    assert_eq!(
                        first, second,
                        "pinned snapshot mutated under overlay churn at epoch {epoch}"
                    );
                    let want = loop {
                        if let Some(&d) = published.lock().unwrap().get(&epoch) {
                            break d;
                        }
                        std::thread::yield_now();
                    };
                    assert_eq!(
                        first, want,
                        "epoch {epoch}: COW snapshot diverged from publication log"
                    );
                    observed += 1;
                }
                assert!(observed >= 8, "reader made too few observations");
            });
        }
    });

    assert_eq!(
        sharded.epoch(),
        epochs + 1,
        "seed rebuild plus every incremental epoch published"
    );
}

/// Racing publishers: concurrent punish/pardon/recompute calls must hand
/// out unique epoch stamps, the cell must never step backwards, and the
/// newest stamp must win regardless of which publisher finishes its
/// snapshot last. Snapshots are built *outside* the master lock, so this
/// is exactly the interleaving the monotonic `SnapshotCell::publish`
/// guards; the CI thread-sanitizer job runs it across the thread matrix.
#[test]
fn racing_publishers_keep_epochs_strictly_increasing() {
    let publishers = test_threads().max(3);
    let rounds = 25u64;
    let sharded = Arc::new(ShardedEngine::new(Params::default(), 4));
    for i in 0..64u64 {
        sharded.observe_rank(u(i), u((i + 1) % 64), Evaluation::BEST);
    }
    sharded.recompute_epoch(SimTime::ZERO);
    let done = Arc::new(AtomicBool::new(false));
    let mut all_epochs: Vec<u64> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..publishers as u64 {
            let sharded = Arc::clone(&sharded);
            handles.push(scope.spawn(move || {
                let mut mine = Vec::with_capacity(rounds as usize);
                for r in 0..rounds {
                    let epoch = match (t + r) % 3 {
                        0 => sharded.mark_punished(u(r % 64), SimTime::ZERO),
                        1 => sharded.pardon(u(r % 64), SimTime::ZERO),
                        _ => {
                            sharded.observe_rank(u((t * rounds + r) % 64), u(r % 64), {
                                Evaluation::new(0.4).unwrap()
                            });
                            sharded.recompute_epoch(SimTime::ZERO)
                        }
                    };
                    mine.push(epoch);
                }
                mine
            }));
        }
        {
            let sharded = Arc::clone(&sharded);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let seen = sharded.epoch();
                    assert!(
                        seen >= last,
                        "published epoch went backwards: {last} -> {seen}"
                    );
                    last = seen;
                    std::thread::yield_now();
                }
            });
        }
        for handle in handles {
            let mine = handle.join().expect("publisher thread");
            // Per-thread stamps are handed out under the master lock in
            // call order, so each publisher's own sequence must ascend.
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "a publisher's own epoch stamps were not strictly increasing"
            );
            all_epochs.extend(mine);
        }
        done.store(true, Ordering::Release);
    });

    let total = all_epochs.len();
    all_epochs.sort_unstable();
    all_epochs.dedup();
    assert_eq!(
        all_epochs.len(),
        total,
        "duplicate epoch stamps handed out under contention"
    );
    assert_eq!(
        sharded.epoch(),
        1 + total as u64,
        "the newest stamp wins the publication race"
    );
    assert_eq!(sharded.snapshot().epoch(), sharded.epoch());
}
