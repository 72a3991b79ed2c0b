//! The [`ShardedEngine`]: concurrent sharded ingest + epoch-snapshot
//! publication over one [`ReputationEngine`].
//!
//! # Architecture
//!
//! The single-threaded engine serializes ingest, recompute, and queries
//! behind `&mut self`. At Maze scale (~170k users, tens of millions of
//! download records) that is the bottleneck: Eq. 9 queries and incentive
//! decisions arrive continuously while events stream in and epochs
//! recompute. The sharded engine splits the three roles:
//!
//! - **Ingest** (`observe_*` on `&self`): events are stamped with a global
//!   sequence number and appended to one of N shard queues chosen by the
//!   acting user's id (`actor % N`). Concurrent producers only contend on a
//!   shard mutex (short critical section: one `Vec::push`) and one
//!   `fetch_add` — never on the engine.
//! - **Recompute** ([`recompute_epoch`](ShardedEngine::recompute_epoch)):
//!   drains every queue, restores the exact ingestion order (per-shard
//!   stamp sort + k-way merge), applies the events to the master engine,
//!   runs the (incremental-capable, shard-parallel) recompute, and
//!   publishes the result as an immutable [`EngineSnapshot`] stamped with
//!   the next epoch. Publication is copy-on-write: the snapshot shares the
//!   frozen CSR arrays with the engine (and with earlier snapshots), so an
//!   epoch that dirtied 1% of rows republishes only those row slabs.
//! - **Reads**: any number of [`SnapshotReader`]s answer Eq. 9, incentive,
//!   and coverage queries lock-free against the last published epoch while
//!   the next one recomputes.
//!
//! # Equivalence guarantee
//!
//! The shard count only affects *queueing*; the seq-merge hands the master
//! engine the exact event order the callers produced, and the recompute
//! itself is the ordinary engine recompute (whose kernels are bit-identical
//! at any thread count). Hence the published `RM` is **bit-identical** to
//! the unsharded engine fed the same event sequence — for any shard count —
//! by construction, not within a tolerance. The proptests in
//! `crates/core/tests/sharded.rs` pin this down for shard counts
//! {1, 2, 4, 7}.

use crate::engine::{RecomputeMode, ReputationEngine};
use crate::file_trust::FileTrustOptions;
use crate::params::Params;
use crate::snapshot::{EngineSnapshot, SnapshotCell, SnapshotReader};
use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
use mdrep_workload::{Catalog, EventKind, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One reputation-relevant observation, in queueable form.
///
/// This is the ingestion currency of the [`ShardedEngine`]: each variant
/// mirrors one `observe_*` entry point of the single-threaded engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// A completed download (`observe_download`).
    Download {
        /// When the download completed.
        time: SimTime,
        /// The downloading user (the routing actor).
        downloader: UserId,
        /// The serving user.
        uploader: UserId,
        /// The downloaded file.
        file: FileId,
        /// Its size (drives volume trust).
        size: FileSize,
    },
    /// A publication (`observe_publish`).
    Publish {
        /// When the file was published.
        time: SimTime,
        /// The publishing user (the routing actor).
        user: UserId,
        /// The published file.
        file: FileId,
    },
    /// An explicit vote (`observe_vote`).
    Vote {
        /// When the vote was cast.
        time: SimTime,
        /// The voting user (the routing actor).
        user: UserId,
        /// The voted file.
        file: FileId,
        /// The evaluation value.
        value: Evaluation,
    },
    /// A deletion (`observe_delete`).
    Delete {
        /// When the file was deleted.
        time: SimTime,
        /// The deleting user (the routing actor).
        user: UserId,
        /// The deleted file.
        file: FileId,
    },
    /// A user-to-user rating (`observe_rank`).
    Rank {
        /// The rating user (the routing actor).
        rater: UserId,
        /// The rated user.
        target: UserId,
        /// The rating value.
        value: Evaluation,
    },
    /// An identity reset (`observe_whitewash`).
    Whitewash {
        /// The whitewashing user (the routing actor).
        user: UserId,
    },
}

impl EngineEvent {
    /// The acting user — the shard-routing key. Events by the same actor
    /// always land on the same shard.
    #[must_use]
    pub fn actor(&self) -> UserId {
        match *self {
            Self::Download { downloader, .. } => downloader,
            Self::Publish { user, .. }
            | Self::Vote { user, .. }
            | Self::Delete { user, .. }
            | Self::Whitewash { user } => user,
            Self::Rank { rater, .. } => rater,
        }
    }

    /// Converts a workload trace event, file sizes resolved through the
    /// catalog (see [`from_trace_with`](Self::from_trace_with)).
    #[must_use]
    pub fn from_trace(event: &TraceEvent, catalog: &Catalog) -> Option<Self> {
        Self::from_trace_with(event, |file| catalog.file_meta(file).map(|m| m.size))
    }

    /// Converts a trace event, resolving file sizes through `size_of` (a
    /// catalog, or a saved event log's size table). Unknown files fall
    /// back to zero size, contributing no volume trust; `Join` events
    /// carry no reputation signal and map to `None`.
    #[must_use]
    pub fn from_trace_with(
        event: &TraceEvent,
        size_of: impl Fn(FileId) -> Option<FileSize>,
    ) -> Option<Self> {
        match event.kind {
            EventKind::Join { .. } => None,
            EventKind::Publish { user, file } => Some(Self::Publish {
                time: event.time,
                user,
                file,
            }),
            EventKind::Download {
                downloader,
                uploader,
                file,
            } => Some(Self::Download {
                time: event.time,
                downloader,
                uploader,
                file,
                size: size_of(file).unwrap_or(FileSize::ZERO),
            }),
            EventKind::Vote { user, file, value } => Some(Self::Vote {
                time: event.time,
                user,
                file,
                value,
            }),
            EventKind::Delete { user, file } => Some(Self::Delete {
                time: event.time,
                user,
                file,
            }),
            EventKind::RankUser {
                rater,
                target,
                value,
            } => Some(Self::Rank {
                rater,
                target,
                value,
            }),
            EventKind::Whitewash { user } => Some(Self::Whitewash { user }),
        }
    }

    /// Applies the event to a plain engine — the same `observe_*` call the
    /// caller would have made directly.
    pub fn apply_to(&self, engine: &mut ReputationEngine) {
        match *self {
            Self::Download {
                time,
                downloader,
                uploader,
                file,
                size,
            } => engine.observe_download(time, downloader, uploader, file, size),
            Self::Publish { time, user, file } => engine.observe_publish(time, user, file),
            Self::Vote {
                time,
                user,
                file,
                value,
            } => engine.observe_vote(time, user, file, value),
            Self::Delete { time, user, file } => engine.observe_delete(time, user, file),
            Self::Rank {
                rater,
                target,
                value,
            } => engine.observe_rank(rater, target, value),
            Self::Whitewash { user } => engine.observe_whitewash(user),
        }
    }
}

/// One ingest shard: a sequence-stamped event queue.
#[derive(Debug, Default)]
struct Shard {
    queue: Vec<(u64, EngineEvent)>,
}

/// Sharded, epoch-snapshot front end over a [`ReputationEngine`].
///
/// All methods take `&self`; the engine is safe to share across threads
/// (`Arc<ShardedEngine>`) with producers calling `observe_*`, one driver
/// calling [`recompute_epoch`](Self::recompute_epoch), and readers holding
/// [`SnapshotReader`]s.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ShardedEngine};
/// use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
///
/// let engine = ShardedEngine::new(Params::default(), 4);
/// let (a, b) = (UserId::new(0), UserId::new(1));
/// engine.observe_download(SimTime::ZERO, a, b, FileId::new(0), FileSize::from_mib(100));
/// engine.observe_vote(SimTime::ZERO, a, FileId::new(0), Evaluation::BEST);
/// let epoch = engine.recompute_epoch(SimTime::ZERO);
/// assert_eq!(epoch, 1);
///
/// let mut reader = engine.reader();
/// assert!(reader.current().reputation(a, b) > 0.0);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Mutex<Shard>>,
    seq: AtomicU64,
    master: Mutex<ReputationEngine>,
    /// Epoch assignment counter, bumped only while the master lock is
    /// held — so epoch order equals engine-state order even though the
    /// publish itself happens after the lock is dropped (the cell's
    /// monotonic install handles out-of-order arrivals).
    epoch_seq: AtomicU64,
    cell: SnapshotCell,
}

impl ShardedEngine {
    /// Creates an engine with `shards` ingest shards (≥ 1) and default
    /// file-trust options.
    #[must_use]
    pub fn new(params: Params, shards: usize) -> Self {
        Self::with_options(params, FileTrustOptions::default(), shards)
    }

    /// Creates an engine with explicit file-trust options.
    #[must_use]
    pub fn with_options(params: Params, options: FileTrustOptions, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        let cell = SnapshotCell::new(params.clone());
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            seq: AtomicU64::new(0),
            master: Mutex::new(ReputationEngine::with_options(params, options)),
            epoch_seq: AtomicU64::new(0),
            cell,
        }
    }

    /// Wraps an existing engine (its computed state becomes epoch 1 if it
    /// has recomputed already, epoch 0 otherwise).
    #[must_use]
    pub fn from_engine(engine: ReputationEngine, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        let epoch = u64::from(engine.reputation_matrix().is_some());
        let snapshot = engine.snapshot_at(epoch, SimTime::ZERO);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            seq: AtomicU64::new(0),
            master: Mutex::new(engine),
            epoch_seq: AtomicU64::new(epoch),
            cell: SnapshotCell::with_snapshot(Arc::new(snapshot)),
        }
    }

    /// The number of ingest shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Enqueues one event on its actor's shard. Events are stamped with a
    /// global sequence number at enqueue time; the recompute drain restores
    /// exactly this order across shards.
    pub fn ingest(&self, event: EngineEvent) {
        let stamp = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = (event.actor().as_u64() % self.shards.len() as u64) as usize;
        self.shards[shard]
            .lock()
            .expect("shard lock poisoned")
            .queue
            .push((stamp, event));
    }

    /// Records a completed download (see `ReputationEngine::observe_download`).
    pub fn observe_download(
        &self,
        time: SimTime,
        downloader: UserId,
        uploader: UserId,
        file: FileId,
        size: FileSize,
    ) {
        self.ingest(EngineEvent::Download {
            time,
            downloader,
            uploader,
            file,
            size,
        });
    }

    /// Records a publication.
    pub fn observe_publish(&self, time: SimTime, user: UserId, file: FileId) {
        self.ingest(EngineEvent::Publish { time, user, file });
    }

    /// Records an explicit vote.
    pub fn observe_vote(&self, time: SimTime, user: UserId, file: FileId, value: Evaluation) {
        self.ingest(EngineEvent::Vote {
            time,
            user,
            file,
            value,
        });
    }

    /// Records a file deletion.
    pub fn observe_delete(&self, time: SimTime, user: UserId, file: FileId) {
        self.ingest(EngineEvent::Delete { time, user, file });
    }

    /// Records a user-to-user rating.
    pub fn observe_rank(&self, rater: UserId, target: UserId, value: Evaluation) {
        self.ingest(EngineEvent::Rank {
            rater,
            target,
            value,
        });
    }

    /// Records an identity reset.
    pub fn observe_whitewash(&self, user: UserId) {
        self.ingest(EngineEvent::Whitewash { user });
    }

    /// Feeds one workload trace event (`Join` events are ignored).
    pub fn observe_trace_event(&self, event: &TraceEvent, catalog: &Catalog) {
        if let Some(ev) = EngineEvent::from_trace(event, catalog) {
            self.ingest(ev);
        }
    }

    /// Events currently queued across all shards, awaiting the next epoch.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").queue.len())
            .sum()
    }

    /// Per-shard queue depths (ingest-balance diagnostics).
    #[must_use]
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").queue.len())
            .collect()
    }

    /// Drains every shard queue into one sequence-ordered event list.
    ///
    /// A shard queue is *not* guaranteed to be stamp-ascending: the stamp
    /// is taken before the shard lock, so two producers racing to the same
    /// shard can stamp A < B yet push B first. Each queue is still *nearly*
    /// sorted (inversions only among in-flight producers), so the per-shard
    /// `sort_unstable` below is close to linear; the shards are then
    /// combined by a k-way heap merge on the stamps. Total cost
    /// `O(E + E log S)` for `E` events over `S` shards, versus the
    /// `O(E log E)` global sort this replaces — and the result is the exact
    /// global ingestion order either way (stamps are unique).
    fn drain(&self) -> Vec<(u64, EngineEvent)> {
        let mut queues: Vec<Vec<(u64, EngineEvent)>> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let queue = {
                let mut guard = shard.lock().expect("shard lock poisoned");
                std::mem::take(&mut guard.queue)
            };
            queues.push(queue);
        }
        for queue in &mut queues {
            queue.sort_unstable_by_key(|&(stamp, _)| stamp);
        }
        if queues.len() == 1 {
            return queues.pop().expect("one queue");
        }
        // K-way merge: a min-heap of (next stamp, shard) cursors. Stamps
        // are unique, so the shard index never tie-breaks the order.
        let total: usize = queues.iter().map(Vec::len).sum();
        let mut merged = Vec::with_capacity(total);
        let mut cursors = vec![0usize; queues.len()];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, q)| std::cmp::Reverse((q[0].0, i)))
            .collect();
        while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
            merged.push(queues[i][cursors[i]]);
            cursors[i] += 1;
            if let Some(&(stamp, _)) = queues[i].get(cursors[i]) {
                heap.push(std::cmp::Reverse((stamp, i)));
            }
        }
        debug_assert_eq!(merged.len(), total);
        merged
    }

    /// Runs one epoch: drain → seq-merge → apply → recompute → publish.
    /// Returns the new epoch number. Readers keep answering against the
    /// previous snapshot until the publish at the very end.
    pub fn recompute_epoch(&self, now: SimTime) -> u64 {
        self.epoch_inner(now, false)
    }

    /// Like [`recompute_epoch`](Self::recompute_epoch) but forces a
    /// rebuild of every row.
    pub fn full_rebuild_epoch(&self, now: SimTime) -> u64 {
        self.epoch_inner(now, true)
    }

    fn epoch_inner(&self, now: SimTime, force_full: bool) -> u64 {
        let obs = mdrep_obs::global();
        let _epoch = mdrep_obs::phase("engine.sharded.epoch_total");
        let events = {
            let _drain = mdrep_obs::phase("engine.sharded.drain");
            self.drain()
        };
        let mut engine = self.master.lock().expect("master lock poisoned");
        {
            let _apply = mdrep_obs::phase("engine.sharded.apply");
            for (_, event) in &events {
                event.apply_to(&mut engine);
            }
        }
        obs.counter_add("engine.sharded.events_applied", events.len() as u64);
        if force_full {
            engine.full_rebuild(now);
        } else {
            engine.recompute(now);
        }
        obs.gauge_set(
            "engine.sharded.rows_republished",
            engine.last_publish_rows() as f64,
        );
        obs.gauge_set(
            "engine.sharded.snapshot_bytes",
            engine.last_publish_bytes() as f64,
        );
        let _publish = mdrep_obs::phase("engine.sharded.publish");
        self.republish(engine, now)
    }

    /// Publishes the master engine's computed state under the next epoch.
    /// The epoch is assigned and the copy-on-write snapshot taken under the
    /// master lock, so epoch order equals engine-state order — `O(dirty
    /// rows)` under the lock, not `O(nnz)`; the lock is dropped before the
    /// cell install. Skipped (raced-and-lost) publications are counted.
    fn republish(&self, engine: MutexGuard<'_, ReputationEngine>, now: SimTime) -> u64 {
        let epoch = self.epoch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let snapshot = Arc::new(engine.snapshot_at(epoch, now));
        drop(engine);
        let obs = mdrep_obs::global();
        if self.cell.publish(snapshot) {
            obs.counter_inc("engine.sharded.epochs");
        } else {
            // A newer epoch won the race to the cell; its snapshot already
            // reflects this one's state (epochs are assigned under the
            // master lock), so dropping the stale one is lossless.
            obs.counter_inc("engine.sharded.publish_skipped");
        }
        epoch
    }

    /// Applies the queued events to the master engine, in ingestion order
    /// and under the same locks as an epoch, then expires old evaluations
    /// on it (takes effect in the next published epoch), so an `expire`
    /// follows every event ingested before it, as on a
    /// [`ReputationEngine`]. Returns how many records were dropped.
    pub fn expire(&self, now: SimTime) -> usize {
        let events = self.drain();
        let mut engine = self.master.lock().expect("master lock poisoned");
        for (_, event) in &events {
            event.apply_to(&mut engine);
        }
        mdrep_obs::global().counter_add("engine.sharded.events_applied", events.len() as u64);
        engine.expire(now)
    }

    /// Punishes `user` and republishes the current matrices under a new
    /// epoch, so readers see the punishment without waiting for the next
    /// recompute.
    pub fn mark_punished(&self, user: UserId, now: SimTime) -> u64 {
        let mut engine = self.master.lock().expect("master lock poisoned");
        engine.mark_punished(user);
        self.republish(engine, now)
    }

    /// Lifts a punishment and republishes (see
    /// [`mark_punished`](Self::mark_punished)).
    pub fn pardon(&self, user: UserId, now: SimTime) -> u64 {
        let mut engine = self.master.lock().expect("master lock poisoned");
        engine.pardon(user);
        self.republish(engine, now)
    }

    /// The currently published snapshot (brief read lock; prefer a
    /// [`reader`](Self::reader) for repeated queries).
    #[must_use]
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.cell.load()
    }

    /// A lock-free reading handle against this engine's snapshot cell.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader<'_> {
        self.cell.reader()
    }

    /// How the master engine's last recompute ran.
    #[must_use]
    pub fn last_recompute_mode(&self) -> Option<RecomputeMode> {
        self.master
            .lock()
            .expect("master lock poisoned")
            .last_recompute_mode()
    }

    /// Runs `f` against the master engine (test/experiment escape hatch —
    /// blocks ingestion of nothing, but excludes concurrent epochs).
    pub fn with_master<R>(&self, f: impl FnOnce(&ReputationEngine) -> R) -> R {
        f(&self.master.lock().expect("master lock poisoned"))
    }

    /// Locks the master engine mutably (experiment escape hatch: audits,
    /// option twiddling). Published snapshots are unaffected until the next
    /// epoch.
    pub fn master_mut(&self) -> MutexGuard<'_, ReputationEngine> {
        self.master.lock().expect("master lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn sharded_matches_unsharded_small() {
        let mut reference = ReputationEngine::new(Params::default());
        let sharded = ShardedEngine::new(Params::default(), 4);
        for i in 0..12 {
            let (a, b) = (u(i % 5), u((i + 1) % 5));
            reference.observe_download(SimTime::ZERO, a, b, f(i % 3), FileSize::from_mib(10));
            sharded.observe_download(SimTime::ZERO, a, b, f(i % 3), FileSize::from_mib(10));
            reference.observe_vote(SimTime::ZERO, a, f(i % 3), Evaluation::BEST);
            sharded.observe_vote(SimTime::ZERO, a, f(i % 3), Evaluation::BEST);
        }
        reference.recompute(SimTime::ZERO);
        assert_eq!(sharded.recompute_epoch(SimTime::ZERO), 1);
        let snap = sharded.snapshot();
        assert_eq!(
            snap.reputation_matrix().unwrap().matrix(),
            reference.reputation_matrix().unwrap().matrix(),
            "sharded RM must be bit-identical"
        );
    }

    #[test]
    fn queue_is_drained_per_epoch() {
        let sharded = ShardedEngine::new(Params::default(), 3);
        sharded.observe_rank(u(0), u(1), Evaluation::BEST);
        sharded.observe_rank(u(1), u(2), Evaluation::BEST);
        sharded.observe_rank(u(2), u(0), Evaluation::BEST);
        assert_eq!(sharded.pending_events(), 3);
        assert_eq!(sharded.shard_depths(), vec![1, 1, 1], "actor % 3 routing");
        sharded.recompute_epoch(SimTime::ZERO);
        assert_eq!(sharded.pending_events(), 0);
    }

    #[test]
    fn expire_applies_queued_events_first() {
        // A queued vote refreshes the record an expiry at `now` would drop
        // on its own: applied first, it keeps the record, as the same call
        // sequence does on a `ReputationEngine`.
        let params = Params::builder()
            .evaluation_interval(mdrep_types::SimDuration::from_days(1))
            .build()
            .unwrap();
        let later = SimTime::ZERO + mdrep_types::SimDuration::from_days(2);
        let mut reference = ReputationEngine::new(params.clone());
        let sharded = ShardedEngine::new(params, 2);
        let size = FileSize::from_mib(10);
        reference.observe_download(SimTime::ZERO, u(0), u(1), f(0), size);
        sharded.observe_download(SimTime::ZERO, u(0), u(1), f(0), size);
        sharded.recompute_epoch(SimTime::ZERO);
        reference.observe_vote(later, u(0), f(0), Evaluation::BEST);
        sharded.observe_vote(later, u(0), f(0), Evaluation::BEST);
        assert_eq!(reference.expire(later), 0);
        assert_eq!(sharded.expire(later), 0, "the vote is applied first");
        assert_eq!(sharded.pending_events(), 0);
    }

    #[test]
    fn punish_republishes_without_recompute() {
        let sharded = ShardedEngine::new(Params::default(), 2);
        sharded.observe_rank(u(0), u(1), Evaluation::BEST);
        assert_eq!(sharded.recompute_epoch(SimTime::ZERO), 1);
        let mut reader = sharded.reader();
        assert!(reader.current().reputation(u(0), u(1)) > 0.0);

        assert_eq!(sharded.mark_punished(u(1), SimTime::ZERO), 2);
        assert_eq!(reader.current().epoch(), 2);
        assert_eq!(reader.current().reputation(u(0), u(1)), 0.0);

        assert_eq!(sharded.pardon(u(1), SimTime::ZERO), 3);
        assert!(reader.current().reputation(u(0), u(1)) > 0.0);
    }

    #[test]
    fn concurrent_ingest_lands_every_event() {
        let sharded = Arc::new(ShardedEngine::new(Params::default(), 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let engine = Arc::clone(&sharded);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        engine.observe_rank(u(t * 50 + i), u((t * 50 + i + 1) % 200), {
                            Evaluation::BEST
                        });
                    }
                });
            }
        });
        assert_eq!(sharded.pending_events(), 200);
        sharded.recompute_epoch(SimTime::ZERO);
        let snap = sharded.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.reputation_matrix().unwrap().matrix().row_count(), 200);
    }

    #[test]
    fn from_engine_seeds_the_first_snapshot() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let sharded = ShardedEngine::from_engine(engine, 2);
        assert_eq!(sharded.epoch(), 1);
        assert!(sharded.snapshot().reputation(u(0), u(1)) > 0.0);
    }
}
