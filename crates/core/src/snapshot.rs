//! Immutable epoch snapshots of the engine's computed state, and the
//! lock-free publication cell readers subscribe to.
//!
//! [`EngineSnapshot`] is the one read path: every reputation read — `RM`,
//! the Equation 9 verdict and its batch, the punished-owner filter, the
//! row-max-scaled relative reputation, service differentiation and
//! request coverage — is written once, here. A
//! [`ReputationEngine`](crate::ReputationEngine) keeps its computed state
//! as a snapshot and delegates its reads to it; publishing an epoch is a
//! restamped clone of that state.
//!
//! The sharded engine separates *ingest* (per-shard event queues), *compute*
//! (one recompute at a time over the master state), and *reads* (Equation 9
//! queries, incentive decisions, DHT serving). Reads never touch mutable
//! state: each recompute epoch publishes one [`EngineSnapshot`] — the frozen
//! `FM`/`DM`/`UM`/`TM` components and `RM` under one interner, plus the
//! punished set — into a [`SnapshotCell`]. A snapshot is immutable for its
//! whole lifetime, so a reader holding its `Arc` can answer any number of
//! queries against a *consistent* epoch while the next epoch recomputes
//! concurrently; a torn read (part epoch N, part epoch N+1) is structurally
//! impossible.
//!
//! [`SnapshotReader`] adds the lock-free fast path: it caches the last
//! `Arc<EngineSnapshot>` and revalidates with a single atomic epoch load,
//! taking the cell's read lock only when an epoch actually flipped — in
//! steady state (many reads per epoch) reads cost one `Acquire` load.

use crate::engine::TrustComponents;
use crate::file_reputation::{
    download_decision, file_reputation, DownloadDecision, OwnerEvaluation,
};
use crate::incentive::{ServiceDecision, ServicePolicy};
use crate::params::Params;
use crate::reputation::ReputationMatrix;
use mdrep_types::{Evaluation, SimTime, UserId};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The engine's computed state: `RM`, the one-step components and the
/// punished set, stamped with an epoch.
///
/// Every read query is `&self` over immutable data — safe to call from
/// any number of threads concurrently. A published snapshot is never
/// mutated; only the engine's own working copy is, by its recompute and
/// its punish/pardon calls.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    epoch: u64,
    as_of: SimTime,
    params: Params,
    components: Option<TrustComponents>,
    rm: Option<ReputationMatrix>,
    punished: HashSet<UserId>,
}

impl EngineSnapshot {
    /// An empty epoch-0 snapshot: every query answers conservatively, like
    /// a fresh engine before its first recompute.
    #[must_use]
    pub fn empty(params: Params) -> Self {
        Self {
            epoch: 0,
            as_of: SimTime::ZERO,
            params,
            components: None,
            rm: None,
            punished: HashSet::new(),
        }
    }

    /// A copy of this state stamped with `epoch` and `as_of`. Cheap: the
    /// frozen CSR arrays are `Arc`-shared, so the clone costs the overlay
    /// pointer maps and the punished set — `O(dirty rows)`, not `O(nnz)`.
    pub(crate) fn restamped(&self, epoch: u64, as_of: SimTime) -> Self {
        Self {
            epoch,
            as_of,
            ..self.clone()
        }
    }

    /// Moves the matrices out for a dirty-row rebuild to patch; `None`
    /// before the first recompute.
    pub(crate) fn take_matrices(&mut self) -> Option<(TrustComponents, ReputationMatrix)> {
        self.components.take().zip(self.rm.take())
    }

    /// Installs a recompute's matrices.
    pub(crate) fn set_matrices(&mut self, components: TrustComponents, rm: ReputationMatrix) {
        self.components = Some(components);
        self.rm = Some(rm);
    }

    /// Punishes (`true`) or pardons (`false`) `user`.
    pub(crate) fn set_punished(&mut self, user: UserId, punished: bool) {
        if punished {
            self.punished.insert(user);
        } else {
            self.punished.remove(&user);
        }
    }

    /// The epoch counter this snapshot was published under (0 = empty).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The simulation time the epoch was computed at.
    #[must_use]
    pub fn as_of(&self) -> SimTime {
        self.as_of
    }

    /// The engine parameters the epoch was computed with.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The epoch's one-step matrices (`None` before the first recompute).
    #[must_use]
    pub fn components(&self) -> Option<&TrustComponents> {
        self.components.as_ref()
    }

    /// The epoch's reputation matrix (`None` before the first recompute).
    #[must_use]
    pub fn reputation_matrix(&self) -> Option<&ReputationMatrix> {
        self.rm.as_ref()
    }

    /// Whether `user` was punished as of this epoch.
    #[must_use]
    pub fn is_punished(&self, user: UserId) -> bool {
        self.punished.contains(&user)
    }

    /// `RM_ij`; 0 before the first recompute, for unknown pairs, and for
    /// punished targets — a punished forger's reputation reads as zero
    /// everywhere (Section 4.2, attack 3).
    #[must_use]
    pub fn reputation(&self, i: UserId, j: UserId) -> f64 {
        if self.punished.contains(&j) {
            return 0.0;
        }
        self.rm.as_ref().map_or(0.0, |rm| rm.reputation(i, j))
    }

    /// [`reputation`](Self::reputation) rescaled so `i`'s most-trusted peer
    /// maps to 1 — the service-differentiation input. `RM` rows are
    /// (sub)stochastic, so a well-connected viewer's raw entries are
    /// individually small.
    #[must_use]
    pub fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        let raw = self.reputation(i, j);
        if raw <= 0.0 {
            return 0.0;
        }
        let max = self.rm.as_ref().map_or(0.0, |rm| rm.row_max(i));
        if max > 0.0 {
            raw / max
        } else {
            0.0
        }
    }

    /// Equation 9 for `viewer` over the supplied owner evaluations,
    /// punished owners discarded. `None` before the first recompute or
    /// when no remaining owner is reputable.
    #[must_use]
    pub fn file_reputation(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> Option<Evaluation> {
        let trusted = self.trusted_evaluations(evaluations);
        self.rm
            .as_ref()
            .and_then(|rm| file_reputation(rm, viewer, &trusted))
    }

    /// Batched Equation 9: one file's owner set scored by a viewer panel.
    /// Punished owners are discarded once for the whole batch; each entry
    /// matches [`file_reputation`](Self::file_reputation) for that viewer.
    #[must_use]
    pub fn file_reputation_batch(
        &self,
        viewers: &[UserId],
        evaluations: &[OwnerEvaluation],
    ) -> Vec<Option<Evaluation>> {
        let trusted = self.trusted_evaluations(evaluations);
        match &self.rm {
            None => vec![None; viewers.len()],
            Some(rm) => crate::file_reputation::file_reputation_batch(rm, viewers, &trusted),
        }
    }

    /// The download decision for `viewer` (punished owners discarded).
    #[must_use]
    pub fn decide_download(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> DownloadDecision {
        let trusted = self.trusted_evaluations(evaluations);
        match &self.rm {
            None => DownloadDecision::Unknown,
            Some(rm) => download_decision(rm, viewer, &trusted, &self.params),
        }
    }

    /// The service `uploader` grants `requester` under `policy`, from the
    /// [relative reputation](Self::relative_reputation): the uploader's
    /// most-trusted peer gets the full queue offset, strangers and
    /// punished requesters stranger-level service.
    #[must_use]
    pub fn service(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        policy.decide_scaled(self.relative_reputation(uploader, requester))
    }

    /// Tier-based service (the multi-tier incentive scheme): which trust
    /// tier `requester` falls into for `uploader` decides the band, the
    /// in-tier value the position inside it. Punished requesters are
    /// strangers.
    #[must_use]
    pub fn service_tiered(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        match &self.rm {
            Some(rm) if !self.punished.contains(&requester) => {
                policy.decide_tiered(rm.tier_of(uploader, requester), rm.steps().max(1))
            }
            _ => policy.decide_scaled(0.0),
        }
    }

    /// Figure 1 metric: the fraction of `(from, to)` request pairs with
    /// positive [`reputation`](Self::reputation) (punished targets are
    /// uncovered). 0.0 for no pairs and before the first recompute.
    #[must_use]
    pub fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let covered = requests
            .iter()
            .filter(|&&(i, j)| self.reputation(i, j) > 0.0)
            .count();
        covered as f64 / requests.len() as f64
    }

    /// FNV-1a digest over the epoch stamp and every `RM` entry's exact bit
    /// pattern — two snapshots with the same digest carry the same epoch
    /// and bit-identical reputation state. The torn-epoch stress tests
    /// recompute this from a reader thread and compare against the
    /// writer's publication log.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.epoch);
        if let Some(rm) = &self.rm {
            for (r, c, v) in rm.matrix().iter() {
                mix(r.as_u64());
                mix(c.as_u64());
                mix(v.to_bits());
            }
        }
        h
    }

    /// `evaluations` without punished owners: borrowed when no owner is
    /// punished, copied only when one must be dropped.
    fn trusted_evaluations<'a>(
        &self,
        evaluations: &'a [OwnerEvaluation],
    ) -> Cow<'a, [OwnerEvaluation]> {
        let punished = |oe: &OwnerEvaluation| self.punished.contains(&oe.owner);
        if self.punished.is_empty() || !evaluations.iter().any(punished) {
            return Cow::Borrowed(evaluations);
        }
        evaluations
            .iter()
            .filter(|oe| !punished(oe))
            .copied()
            .collect()
    }
}

/// The publication point: holds the current epoch's `Arc<EngineSnapshot>`
/// and an atomic epoch counter readers revalidate against.
///
/// Publishing stores the new `Arc` first, then bumps the epoch with
/// `Release`; a reader that observes the bumped epoch (`Acquire`) therefore
/// sees a slot at least as new. Readers that race a publication get either
/// the old or the new snapshot — both complete, never a mix.
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self::with_snapshot(Arc::new(EngineSnapshot::empty(params)))
    }

    /// A cell pre-seeded with an existing snapshot.
    #[must_use]
    pub fn with_snapshot(snapshot: Arc<EngineSnapshot>) -> Self {
        Self {
            epoch: AtomicU64::new(snapshot.epoch()),
            slot: RwLock::new(snapshot),
        }
    }

    /// The epoch of the currently published snapshot (one atomic load).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (brief read lock).
    #[must_use]
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot lock poisoned"))
    }

    /// Publishes a new epoch: swap the slot, then advertise the epoch.
    ///
    /// Installation is **strictly monotonic**: a snapshot whose epoch is
    /// not newer than the installed one is skipped (returning `false`).
    /// Epoch numbers are assigned under the master lock, in engine-state
    /// order, but the publish itself happens after that lock is dropped —
    /// so a slow publisher can arrive after a faster one that observed a
    /// *later* engine state. Skipping the stale snapshot is correct (the
    /// installed one already reflects every change the stale one does) and
    /// keeps readers' epochs strictly increasing.
    pub fn publish(&self, snapshot: Arc<EngineSnapshot>) -> bool {
        let epoch = snapshot.epoch();
        let mut slot = self.slot.write().expect("snapshot lock poisoned");
        if epoch <= slot.epoch() {
            return false;
        }
        *slot = snapshot;
        self.epoch.store(epoch, Ordering::Release);
        true
    }

    /// A reader with its own cached handle against this cell.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            cell: self,
            cached: self.load(),
        }
    }
}

/// A per-thread reading handle: revalidates its cached snapshot with one
/// atomic load and only touches the cell's lock on an epoch flip.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ShardedEngine};
/// use mdrep_types::{Evaluation, SimTime, UserId};
///
/// let engine = ShardedEngine::new(Params::default(), 4);
/// engine.observe_rank(UserId::new(0), UserId::new(1), Evaluation::BEST);
/// engine.recompute_epoch(SimTime::ZERO);
///
/// let mut reader = engine.reader();
/// let snap = reader.current();
/// assert_eq!(snap.epoch(), 1);
/// assert!(snap.reputation(UserId::new(0), UserId::new(1)) > 0.0);
/// ```
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    cell: &'a SnapshotCell,
    cached: Arc<EngineSnapshot>,
}

impl SnapshotReader<'_> {
    /// The current snapshot: cached `Arc` when the epoch is unchanged
    /// (lock-free — a single `Acquire` load), refreshed through the cell
    /// otherwise.
    pub fn current(&mut self) -> &Arc<EngineSnapshot> {
        let published = self.cell.epoch();
        if published != self.cached.epoch() {
            self.cached = self.cell.load();
        }
        &self.cached
    }

    /// The epoch of the cached snapshot (no revalidation).
    #[must_use]
    pub fn cached_epoch(&self) -> u64 {
        self.cached.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{CsrMatrix, SparseMatrix};
    use mdrep_types::SimDuration;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// A snapshot whose `RM` is the one-step matrix with these entries.
    fn serving(entries: &[(u64, u64, f64)]) -> EngineSnapshot {
        let mut tm = SparseMatrix::new();
        for &(i, j, v) in entries {
            tm.set(u(i), u(j), v).unwrap();
        }
        let mut snap = EngineSnapshot::empty(Params::default());
        snap.rm = Some(ReputationMatrix::compute_csr(
            CsrMatrix::freeze(&tm),
            &Params::default(),
        ));
        snap
    }

    #[test]
    fn empty_snapshot_answers_conservatively() {
        let snap = EngineSnapshot::empty(Params::default());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.reputation(u(0), u(1)), 0.0);
        assert_eq!(snap.relative_reputation(u(0), u(1)), 0.0);
        assert!(snap.components().is_none());
        assert!(snap.reputation_matrix().is_none());
        assert_eq!(snap.decide_download(u(0), &[]), DownloadDecision::Unknown);
        assert!(snap
            .service(u(0), u(1), &ServicePolicy::default())
            .is_throttled());
        assert_eq!(snap.request_coverage(&[(u(0), u(1))]), 0.0);
        assert_eq!(snap.file_reputation_batch(&[u(0)], &[]), vec![None]);
    }

    #[test]
    fn service_scales_by_row_maximum() {
        let snap = serving(&[(0, 1, 0.6), (0, 2, 0.3)]);
        let policy = ServicePolicy::default();

        let best = snap.service(u(0), u(1), &policy);
        let half = snap.service(u(0), u(2), &policy);
        let stranger = snap.service(u(0), u(9), &policy);

        assert_eq!(
            best.queue_offset,
            policy.max_offset(),
            "row max maps to r = 1"
        );
        assert_eq!(
            half.queue_offset,
            SimDuration::from_ticks(policy.max_offset().as_ticks() / 2)
        );
        assert_eq!(stranger.queue_offset, SimDuration::ZERO);
        assert!(stranger.is_throttled());
        assert_eq!(snap.request_coverage(&[(u(0), u(1)), (u(0), u(9))]), 0.5);
    }

    #[test]
    fn uploader_with_no_trust_throttles_everyone() {
        let d = serving(&[]).service(u(0), u(1), &ServicePolicy::default());
        assert!(d.is_throttled());
        assert_eq!(d.queue_offset, SimDuration::ZERO);
    }

    #[test]
    fn cell_publish_flips_epoch_and_slot() {
        let cell = SnapshotCell::new(Params::default());
        assert_eq!(cell.epoch(), 0);
        let mut reader = cell.reader();
        assert_eq!(reader.current().epoch(), 0);

        let next = Arc::new(EngineSnapshot::empty(Params::default()).restamped(7, SimTime::ZERO));
        cell.publish(Arc::clone(&next));
        assert_eq!(cell.epoch(), 7);
        assert_eq!(reader.cached_epoch(), 0, "not yet revalidated");
        assert_eq!(reader.current().epoch(), 7, "refresh on flip");
        assert!(Arc::ptr_eq(reader.current(), &next));
    }

    #[test]
    fn digest_distinguishes_epochs() {
        let a = EngineSnapshot::empty(Params::default());
        let b = a.restamped(1, SimTime::ZERO);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }
}
