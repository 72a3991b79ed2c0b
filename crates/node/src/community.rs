//! The community: shared overlay + per-peer nodes + the request pipeline.

use crate::config::NodeConfig;
use crate::outcome::DownloadOutcome;
use crate::peer::PeerNode;
use mdrep::{Auditor, DownloadDecision, OwnerEvaluation, ReputationEngine};
use mdrep_crypto::KeyRegistry;
use mdrep_dht::{Dht, DhtError, EvaluationPublisher};
use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors surfaced by community operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityError {
    /// The acting user never joined.
    UnknownUser(UserId),
    /// The acting user is offline.
    Offline(UserId),
    /// The user does not hold the file it tried to act on.
    NotInLibrary(UserId, FileId),
    /// The overlay failed the operation.
    Dht(DhtError),
}

impl fmt::Display for CommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownUser(u) => write!(f, "user {u} never joined the community"),
            Self::Offline(u) => write!(f, "user {u} is offline"),
            Self::NotInLibrary(u, file) => write!(f, "user {u} does not hold {file}"),
            Self::Dht(e) => write!(f, "overlay failure: {e}"),
        }
    }
}

impl Error for CommunityError {}

impl From<DhtError> for CommunityError {
    fn from(e: DhtError) -> Self {
        Self::Dht(e)
    }
}

/// The whole simulated community: overlay, registry, peers, auditor.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Community {
    config: NodeConfig,
    dht: Dht,
    registry: KeyRegistry,
    publisher: EvaluationPublisher,
    peers: HashMap<UserId, PeerNode>,
    auditor: Auditor,
    audit_cursor: u64,
    file_sizes: HashMap<FileId, FileSize>,
    /// Replica holders named by retrievals that never answered — degraded
    /// (partial) evaluation arrays, previously dropped silently.
    unreachable_holders: u64,
    /// Retrieved values that failed to decode (tampered/garbage).
    undecodable_records: u64,
}

impl Community {
    /// Creates an empty community.
    #[must_use]
    pub fn new(config: NodeConfig) -> Self {
        let dht = Dht::new(config.dht.clone());
        let auditor = Auditor::new(config.audit_threshold);
        Self {
            config,
            dht,
            registry: KeyRegistry::new(),
            publisher: EvaluationPublisher::new(),
            peers: HashMap::new(),
            auditor,
            audit_cursor: 0,
            file_sizes: HashMap::new(),
            unreachable_holders: 0,
            undecodable_records: 0,
        }
    }

    /// Replica holders that never answered a retrieval (the requests were
    /// served from a *partial* evaluation array).
    #[must_use]
    pub fn unreachable_holders(&self) -> u64 {
        self.unreachable_holders
    }

    /// Retrieved values that failed to decode (e.g. byzantine tampering).
    #[must_use]
    pub fn undecodable_records(&self) -> u64 {
        self.undecodable_records
    }

    /// Number of peers that ever joined.
    #[must_use]
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the community has no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Joins `user` (or brings it back online), registering its key and
    /// bootstrapping its DHT node.
    pub fn join(&mut self, user: UserId, now: SimTime) {
        self.dht.join(user, now);
        if !self.peers.contains_key(&user) {
            let key = self.registry.register(user, user.as_u64() ^ 0x5eed);
            let engine = ReputationEngine::new(self.config.params.clone());
            self.peers.insert(user, PeerNode::new(user, key, engine));
        }
    }

    /// Takes `user` offline (its node stops answering; its state persists).
    pub fn leave(&mut self, user: UserId) {
        self.dht.leave(user);
    }

    /// Applies the DHT fault plan's churn schedule at `now`, returning
    /// `(went_down, came_back)`. A no-op without a churn schedule; peers
    /// taken offline here resume automatically at a later wave, unlike
    /// explicit [`leave`](Self::leave).
    pub fn apply_churn(&mut self, now: SimTime) -> (usize, usize) {
        self.dht.apply_churn(now)
    }

    /// Whether `user` is online.
    #[must_use]
    pub fn is_online(&self, user: UserId) -> bool {
        self.dht.is_online(user)
    }

    /// Read access to a peer's local state.
    #[must_use]
    pub fn peer(&self, user: UserId) -> Option<&PeerNode> {
        self.peers.get(&user)
    }

    /// Read access to the overlay (for message accounting in experiments).
    #[must_use]
    pub fn dht(&self) -> &Dht {
        &self.dht
    }

    /// Publishes `file` from `user`'s shared folder: the file enters the
    /// library and a signed self-evaluation is co-published to the index
    /// peers (Fig. 2 step 1 — publication implies endorsement).
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError`] when the user is unknown/offline or the
    /// overlay rejects the store.
    pub fn publish(
        &mut self,
        user: UserId,
        file: FileId,
        size: FileSize,
        now: SimTime,
    ) -> Result<(), CommunityError> {
        let peer = self
            .peers
            .get_mut(&user)
            .ok_or(CommunityError::UnknownUser(user))?;
        peer.engine_mut().observe_publish(now, user, file);
        peer.add_to_library(file, size);
        self.file_sizes.insert(file, size);
        self.republish_evaluation(user, file, now)?;
        Ok(())
    }

    /// Casts a vote and republishes the updated evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError`] when the user is unknown/offline or the
    /// overlay rejects the store.
    pub fn vote(
        &mut self,
        user: UserId,
        file: FileId,
        value: Evaluation,
        now: SimTime,
    ) -> Result<(), CommunityError> {
        let peer = self
            .peers
            .get_mut(&user)
            .ok_or(CommunityError::UnknownUser(user))?;
        peer.engine_mut().observe_vote(now, user, file, value);
        peer.ledger_mut().record_vote(user);
        self.republish_evaluation(user, file, now)
    }

    /// Rates another user (friend list / blacklist / explicit value).
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::UnknownUser`] when the rater never joined.
    pub fn rank(
        &mut self,
        rater: UserId,
        target: UserId,
        value: Evaluation,
    ) -> Result<(), CommunityError> {
        let peer = self
            .peers
            .get_mut(&rater)
            .ok_or(CommunityError::UnknownUser(rater))?;
        peer.engine_mut().observe_rank(rater, target, value);
        peer.ledger_mut().record_rank(rater);
        Ok(())
    }

    /// Deletes `file` from `user`'s shared folder (freezing its retention
    /// clock) and republishes the resulting low evaluation — the fast
    /// fake-removal the incentive mechanism rewards.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError`] when the user is unknown or does not hold
    /// the file.
    pub fn delete(
        &mut self,
        user: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<(), CommunityError> {
        let peer = self
            .peers
            .get_mut(&user)
            .ok_or(CommunityError::UnknownUser(user))?;
        if !peer.remove_from_library(file) {
            return Err(CommunityError::NotInLibrary(user, file));
        }
        peer.engine_mut().observe_delete(now, user, file);
        peer.ledger_mut().record_quick_delete(user);
        // Best effort: the updated (low) evaluation replaces the published
        // one; an offline overlay store is not fatal for a local delete.
        let _ = self.republish_evaluation(user, file, now);
        Ok(())
    }

    /// The full download pipeline (Fig. 2 steps 3–6). See the crate docs.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError`] when the downloader is unknown or offline;
    /// "no source" and "rejected as fake" are *outcomes*, not errors.
    pub fn request(
        &mut self,
        downloader: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<DownloadOutcome, CommunityError> {
        if !self.peers.contains_key(&downloader) {
            return Err(CommunityError::UnknownUser(downloader));
        }
        if !self.dht.is_online(downloader) {
            return Err(CommunityError::Offline(downloader));
        }

        // Step 3: fetch the signed evaluation array; drop forgeries. Offline
        // holders degrade the array — count them, don't hide them.
        let outcome = self.publisher.retrieve_detailed(
            &mut self.dht,
            &self.registry,
            downloader,
            file,
            now,
        )?;
        if !outcome.is_complete() {
            self.unreachable_holders += outcome.unreachable.len() as u64;
            mdrep_obs::global().counter_add(
                "node.request.unreachable_holders",
                outcome.unreachable.len() as u64,
            );
        }
        if outcome.undecodable > 0 {
            self.undecodable_records += outcome.undecodable as u64;
            mdrep_obs::global().counter_add(
                "node.request.undecodable_records",
                outcome.undecodable as u64,
            );
        }
        let evaluations: Vec<OwnerEvaluation> = outcome
            .valid_records()
            .map(|r| OwnerEvaluation::new(r.info.owner, r.info.evaluation))
            .collect();

        // Steps 4–5: decide from the downloader's own reputation state.
        let peer = self.peers.get(&downloader).expect("checked above");
        let decision = peer.engine().decide_download(downloader, &evaluations);
        let prior = match decision {
            DownloadDecision::Reject { reputation } => {
                return Ok(DownloadOutcome::RejectedAsFake { reputation });
            }
            DownloadDecision::Accept { reputation } => Some(reputation),
            DownloadDecision::Unknown => None,
        };

        // Pick the uploader among online holders the way the reputable-
        // servent literature the paper cites does: prefer the source the
        // downloader trusts most (ties and strangers break by lowest id,
        // keeping the choice deterministic).
        let viewer_engine = self.peers.get(&downloader).expect("checked above").engine();
        let uploader = evaluations
            .iter()
            .map(|oe| oe.owner)
            .filter(|&owner| {
                owner != downloader
                    && self.dht.is_online(owner)
                    && self.peers.get(&owner).is_some_and(|p| p.holds(file))
            })
            .max_by(|&a, &b| {
                viewer_engine
                    .reputation(downloader, a)
                    .partial_cmp(&viewer_engine.reputation(downloader, b))
                    .expect("reputations are finite")
                    .then(b.cmp(&a)) // lower id wins ties
            });
        let Some(uploader) = uploader else {
            return Ok(DownloadOutcome::NoSource);
        };

        // Step 6: the uploader grants service.
        let size = self
            .file_sizes
            .get(&file)
            .copied()
            .unwrap_or(FileSize::ZERO);
        let uploader_peer = self.peers.get(&uploader).expect("holder is a peer");
        let engine = uploader_peer.engine();
        let service = if self.config.contribution_weight > 0.0 {
            self.config.policy.decide_with_contribution(
                engine.relative_reputation(uploader, downloader),
                uploader_peer.ledger().score(downloader),
                self.config.contribution_weight,
            )
        } else {
            engine.service(uploader, downloader, &self.config.policy)
        };

        // The transfer happens: both sides record it.
        {
            let peer = self.peers.get_mut(&downloader).expect("checked above");
            peer.engine_mut()
                .observe_download(now, downloader, uploader, file, size);
            peer.add_to_library(file, size);
        }
        {
            let up = self.peers.get_mut(&uploader).expect("holder is a peer");
            up.ledger_mut().record_upload(uploader);
        }
        // The downloader co-publishes its own (initially implicit)
        // evaluation of the file.
        let _ = self.republish_evaluation(downloader, file, now);

        Ok(DownloadOutcome::Completed {
            uploader,
            service,
            prior_reputation: prior,
        })
    }

    /// Whitewashes `user`: the old identity leaves for good and a *fresh*
    /// identity joins in its place (returned). This is what whitewashing
    /// actually is — and why it is unprofitable here: the fresh identity
    /// holds no library, no contribution, and no reputation anywhere.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::UnknownUser`] when `user` never joined.
    pub fn whitewash(&mut self, user: UserId, now: SimTime) -> Result<UserId, CommunityError> {
        if !self.peers.contains_key(&user) {
            return Err(CommunityError::UnknownUser(user));
        }
        self.dht.leave(user);
        let fresh = UserId::new(
            self.peers
                .keys()
                .map(|u| u.as_u64())
                .max()
                .expect("non-empty")
                + 1,
        );
        self.join(fresh, now);
        Ok(fresh)
    }

    /// Periodic maintenance for every online peer: expiry, recomputation,
    /// republication, and a round-robin slice of proactive audits (which
    /// punish detected forgers *in every peer's engine*). Returns the
    /// number of forgeries detected this tick.
    pub fn tick(&mut self, now: SimTime) -> usize {
        // Ascending ids, so republication reaches the overlay in the same
        // order on every run.
        let mut users: Vec<UserId> = self.peers.keys().copied().collect();
        users.sort_unstable();
        let mut republish: Vec<UserId> = Vec::new();
        for &user in &users {
            if !self.dht.is_online(user) {
                continue;
            }
            let recompute_interval = self.config.recompute_interval;
            let republish_interval = self.config.republish_interval;
            let peer = self.peers.get_mut(&user).expect("listed");
            peer.engine_mut().expire(now);
            if peer.recompute_due(now, recompute_interval) {
                peer.engine_mut().recompute(now);
            }
            if peer.republish_due(now, republish_interval) {
                republish.push(user);
            }
        }
        for user in republish {
            let _ = self.dht.republish(user, now);
        }

        // Proactive audits, round-robin.
        let mut forgeries = 0;
        if users.is_empty() {
            return 0;
        }
        for _ in 0..self.config.audits_per_tick {
            self.audit_cursor = (self.audit_cursor + 1) % users.len() as u64;
            let subject = users[self.audit_cursor as usize];
            let published = self
                .peers
                .get(&subject)
                .map(|p| p.engine().published_evaluations(subject, now))
                .unwrap_or_default();
            let outcome = self.auditor.audit(now, subject, &published);
            if outcome.is_forged() {
                forgeries += 1;
                for peer in self.peers.values_mut() {
                    peer.engine_mut().mark_punished(subject);
                }
            }
        }
        forgeries
    }

    /// (Re)publishes `user`'s current evaluation of `file` to the index
    /// peers, signed.
    fn republish_evaluation(
        &mut self,
        user: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<(), CommunityError> {
        let peer = self
            .peers
            .get(&user)
            .ok_or(CommunityError::UnknownUser(user))?;
        let evaluation = peer
            .engine()
            .evaluations()
            .evaluation(user, file, now, peer.engine().params())
            .unwrap_or(Evaluation::NEUTRAL);
        let key = peer.key().clone();
        self.publisher
            .publish(&mut self.dht, &key, user, file, evaluation, now)
            .map(|_| ())
            .map_err(CommunityError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::SimDuration;

    fn community(n: u64) -> Community {
        let mut c = Community::new(NodeConfig::default());
        for i in 0..n {
            c.join(UserId::new(i), SimTime::ZERO);
        }
        c
    }

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn publish_then_request_completes() {
        let mut c = community(16);
        c.publish(u(1), f(7), FileSize::from_mib(50), SimTime::ZERO)
            .unwrap();
        let outcome = c.request(u(5), f(7), SimTime::ZERO).unwrap();
        match outcome {
            DownloadOutcome::Completed { uploader, .. } => assert_eq!(uploader, u(1)),
            other => panic!("expected completion, got {other}"),
        }
        assert!(
            c.peer(u(5)).unwrap().holds(f(7)),
            "downloader now holds the file"
        );
        assert_eq!(c.peer(u(1)).unwrap().ledger().contribution(u(1)).uploads, 1);
    }

    #[test]
    fn request_unknown_file_has_no_source() {
        let mut c = community(8);
        assert_eq!(
            c.request(u(2), f(9), SimTime::ZERO).unwrap(),
            DownloadOutcome::NoSource
        );
    }

    #[test]
    fn downloads_spread_through_new_holders() {
        let mut c = community(16);
        c.publish(u(1), f(7), FileSize::from_mib(10), SimTime::ZERO)
            .unwrap();
        assert!(c.request(u(5), f(7), SimTime::ZERO).unwrap().is_completed());
        // The original publisher goes dark; the new holder can serve.
        c.leave(u(1));
        let outcome = c.request(u(9), f(7), SimTime::ZERO).unwrap();
        match outcome {
            DownloadOutcome::Completed { uploader, .. } => assert_eq!(uploader, u(5)),
            other => panic!("expected completion from the new holder, got {other}"),
        }
    }

    #[test]
    fn community_pipeline_survives_fault_plan() {
        use mdrep_dht::{ChurnSchedule, DhtConfig, FaultPlan};

        let publisher = u(1);
        let downloader = u(5);
        let plan = FaultPlan::message_loss(0.2, 11).with_churn(
            ChurnSchedule::new(SimDuration::from_hours(1), 0.2)
                .immune(publisher)
                .immune(downloader),
        );
        let mut c = Community::new(NodeConfig {
            dht: DhtConfig {
                fault: plan,
                ..DhtConfig::default()
            },
            ..NodeConfig::default()
        });
        for i in 0..24 {
            c.join(u(i), SimTime::ZERO);
        }
        c.publish(publisher, f(7), FileSize::from_mib(10), SimTime::ZERO)
            .expect("retries absorb 20% loss");

        let later = SimTime::ZERO + SimDuration::from_hours(1);
        let (downs, _) = c.apply_churn(later);
        assert!(downs > 0, "the churn wave took someone down");
        let outcome = c.request(downloader, f(7), later).unwrap();
        match outcome {
            DownloadOutcome::Completed { uploader, .. } => assert_eq!(uploader, publisher),
            other => panic!("faults must degrade, not break: {other}"),
        }
        assert!(c.dht().fault_trace().drops > 0, "loss actually happened");
        assert!(c.dht().stats().retried > 0, "retries were exercised");
        assert!(c.dht().stats().is_conserved(), "accounting stays closed");
    }

    #[test]
    fn offline_replica_holders_are_counted_not_dropped() {
        let mut c = community(8);
        c.publish(u(1), f(2), FileSize::from_mib(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(c.unreachable_holders(), 0);
        // Take every peer but the requester offline: the replica holders the
        // lookup names can no longer answer.
        for i in 0..8 {
            if i != 3 {
                c.leave(u(i));
            }
        }
        let _ = c.request(u(3), f(2), SimTime::ZERO).unwrap();
        assert!(
            c.unreachable_holders() > 0,
            "offline holders must surface in the stats"
        );
        assert_eq!(c.undecodable_records(), 0);
    }

    #[test]
    fn poorly_rated_file_is_rejected() {
        let mut c = community(16);
        let polluter = u(1);
        let victim = u(5);
        let judge = u(9);
        c.publish(polluter, f(7), FileSize::from_mib(10), SimTime::ZERO)
            .unwrap();

        // The victim downloads it, discovers the fake, votes it down, and
        // deletes it; the judge trusts the victim (friend list).
        assert!(c
            .request(victim, f(7), SimTime::ZERO)
            .unwrap()
            .is_completed());
        c.vote(victim, f(7), Evaluation::WORST, SimTime::ZERO)
            .unwrap();
        c.delete(victim, f(7), SimTime::ZERO).unwrap();
        c.rank(judge, victim, Evaluation::BEST).unwrap();
        // The judge recomputes so the friendship takes effect.
        c.tick(SimTime::ZERO);

        let outcome = c.request(judge, f(7), SimTime::ZERO).unwrap();
        match outcome {
            DownloadOutcome::RejectedAsFake { reputation } => {
                assert!(reputation.is_below(Evaluation::NEUTRAL));
            }
            other => panic!("expected rejection, got {other}"),
        }
    }

    #[test]
    fn offline_and_unknown_users_error() {
        let mut c = community(4);
        assert_eq!(
            c.request(u(99), f(1), SimTime::ZERO),
            Err(CommunityError::UnknownUser(u(99)))
        );
        c.leave(u(2));
        assert!(!c.is_online(u(2)));
        assert_eq!(
            c.request(u(2), f(1), SimTime::ZERO),
            Err(CommunityError::Offline(u(2)))
        );
        assert_eq!(
            c.delete(u(3), f(1), SimTime::ZERO),
            Err(CommunityError::NotInLibrary(u(3), f(1)))
        );
        // Errors render.
        assert!(CommunityError::Offline(u(2))
            .to_string()
            .contains("offline"));
    }

    #[test]
    fn tick_republishes_and_keeps_evaluations_alive() {
        let mut c = community(12);
        c.publish(u(1), f(3), FileSize::from_mib(5), SimTime::ZERO)
            .unwrap();
        // Run maintenance past the TTL: the evaluation must survive thanks
        // to republication at each tick interval.
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            now += SimDuration::from_hours(12);
            c.tick(now);
        }
        let outcome = c.request(u(7), f(3), now).unwrap();
        assert!(outcome.is_completed(), "got {outcome}");
    }

    #[test]
    fn audit_catches_and_punishes_forger_community_wide() {
        let mut c = community(6);
        let cheat = u(1);
        // Build an evaluation history.
        for i in 0..4u64 {
            c.publish(cheat, f(10 + i), FileSize::from_mib(1), SimTime::ZERO)
                .unwrap();
            c.vote(cheat, f(10 + i), Evaluation::BEST, SimTime::ZERO)
                .unwrap();
        }
        // Several ticks take baselines of everyone.
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            now += SimDuration::from_hours(1);
            c.tick(now);
        }
        // The cheater flips its whole list.
        for i in 0..4u64 {
            c.vote(cheat, f(10 + i), Evaluation::WORST, now).unwrap();
        }
        let mut caught = 0;
        for _ in 0..6 {
            now += SimDuration::from_hours(1);
            caught += c.tick(now);
        }
        assert!(caught >= 1, "the audit rotation must catch the flip");
        assert!(c.peer(u(0)).unwrap().engine().is_punished(cheat));
        assert!(c.peer(u(5)).unwrap().engine().is_punished(cheat));
    }

    #[test]
    fn downloader_prefers_its_most_reputable_source() {
        let mut c = community(12);
        let viewer = u(0);
        let trusted = u(3);
        let stranger = u(7);
        // Both hold the file; the viewer has good history with `trusted`.
        c.publish(trusted, f(5), FileSize::from_mib(10), SimTime::ZERO)
            .unwrap();
        c.publish(stranger, f(5), FileSize::from_mib(10), SimTime::ZERO)
            .unwrap();
        for i in 0..3u64 {
            let earlier = f(100 + i);
            c.publish(trusted, earlier, FileSize::from_mib(5), SimTime::ZERO)
                .unwrap();
            assert!(c
                .request(viewer, earlier, SimTime::ZERO)
                .unwrap()
                .is_completed());
            c.vote(viewer, earlier, Evaluation::BEST, SimTime::ZERO)
                .unwrap();
        }
        c.tick(SimTime::ZERO);
        match c.request(viewer, f(5), SimTime::ZERO).unwrap() {
            DownloadOutcome::Completed { uploader, .. } => {
                assert_eq!(uploader, trusted, "reputable source preferred");
            }
            other => panic!("expected completion, got {other}"),
        }
    }

    #[test]
    fn rejoin_restores_service() {
        let mut c = community(8);
        c.publish(u(1), f(2), FileSize::from_mib(1), SimTime::ZERO)
            .unwrap();
        c.leave(u(1));
        assert_eq!(
            c.request(u(3), f(2), SimTime::ZERO).unwrap(),
            DownloadOutcome::NoSource
        );
        c.join(u(1), SimTime::ZERO);
        assert!(c.request(u(3), f(2), SimTime::ZERO).unwrap().is_completed());
        assert_eq!(c.len(), 8, "rejoin does not duplicate the peer");
    }
}
