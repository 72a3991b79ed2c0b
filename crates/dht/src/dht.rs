//! The simulated overlay: joins, iterative lookups, stores, retrievals,
//! republication, churn, fault injection, and message accounting.

use crate::fault::{FaultInjector, FaultPlan, FaultTrace, RetryPolicy, RpcKind, RpcOutcome};
use crate::id::{DistanceKey, Key, NodeId};
use crate::node::{Node, StoredValue};
use mdrep_types::{SimDuration, SimTime, UserId};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// Configuration of the simulated DHT.
#[derive(Debug, Clone, PartialEq)]
pub struct DhtConfig {
    /// How many closest nodes store each value (Kademlia's replication).
    pub replication: usize,
    /// Lookup fan-out per round (Kademlia's α).
    pub lookup_parallelism: usize,
    /// Value TTL; republication refreshes it.
    pub ttl: SimDuration,
    /// The full fault model: loss, delays, duplication, churn schedules,
    /// partitions, byzantine nodes. Defaults to quiet.
    pub fault: FaultPlan,
    /// Bounded retry with exponential backoff, applied to every RPC.
    pub retry: RetryPolicy,
    /// Routing-table entries not observed alive within this window are
    /// evicted by [`Dht::expire_routing`].
    pub route_entry_ttl: SimDuration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        Self {
            replication: 3,
            lookup_parallelism: 3,
            ttl: SimDuration::from_hours(24),
            fault: FaultPlan::none(),
            retry: RetryPolicy::default(),
            route_entry_ttl: SimDuration::from_hours(48),
        }
    }
}

/// Errors returned by DHT operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtError {
    /// The acting user has no node in the overlay.
    UnknownUser(UserId),
    /// The acting user's node is offline.
    Offline(UserId),
    /// No reachable node could store or serve the request.
    NoReachableNodes,
}

impl fmt::Display for DhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownUser(u) => write!(f, "user {u} has not joined the overlay"),
            Self::Offline(u) => write!(f, "user {u} is offline"),
            Self::NoReachableNodes => f.write_str("no reachable nodes for the request"),
        }
    }
}

impl Error for DhtError {}

/// Message counters (requests sent; responses are implied).
///
/// Conservation invariant: every sent request ends in exactly one of the
/// outcome buckets, so
/// `total() == delivered + dropped + refused + blocked + timed_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// `FIND_NODE` requests.
    pub find_node: u64,
    /// `STORE` requests.
    pub store: u64,
    /// `FIND_VALUE` requests.
    pub find_value: u64,
    /// `GOSSIP` pushes (fire-and-forget cache dissemination).
    pub gossip: u64,
    /// Requests delivered and answered.
    pub delivered: u64,
    /// Requests lost in transit.
    pub dropped: u64,
    /// Requests addressed to offline nodes.
    pub refused: u64,
    /// Requests blocked by an active partition.
    pub blocked: u64,
    /// Requests delayed beyond the per-RPC timeout.
    pub timed_out: u64,
    /// Retry attempts beyond each RPC's first try (already included in
    /// the per-kind sent counters).
    pub retried: u64,
    /// Deliveries processed twice by the receiver (duplicated requests).
    pub duplicated: u64,
}

impl MessageStats {
    /// Total requests sent (including retries).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.find_node + self.store + self.find_value + self.gossip
    }

    /// Whether the outcome buckets account for every sent request.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.total() == self.delivered + self.dropped + self.refused + self.blocked + self.timed_out
    }

    /// The messages counted since `earlier`, a snapshot of the same
    /// counters taken before.
    fn since(&self, earlier: &MessageStats) -> MessageStats {
        MessageStats {
            find_node: self.find_node - earlier.find_node,
            store: self.store - earlier.store,
            find_value: self.find_value - earlier.find_value,
            gossip: self.gossip - earlier.gossip,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            refused: self.refused - earlier.refused,
            blocked: self.blocked - earlier.blocked,
            timed_out: self.timed_out - earlier.timed_out,
            retried: self.retried - earlier.retried,
            duplicated: self.duplicated - earlier.duplicated,
        }
    }
}

/// Annotates an overlay operation's phase with the fate of the RPCs it
/// sent: the messages it sent (retries included), how many were lost,
/// blocked, timed out or refused, and how many were retries.
fn annotate_rpcs(phase: &mut mdrep_obs::Phase, rpcs: &MessageStats) {
    phase.annotate("sent", rpcs.total());
    phase.annotate("lost", rpcs.dropped);
    phase.annotate("blocked", rpcs.blocked);
    phase.annotate("timed_out", rpcs.timed_out);
    phase.annotate("refused", rpcs.refused);
    phase.annotate("retries", rpcs.retried);
}

/// The result of a [`Dht::get`]: the retrieved values plus an explicit
/// account of which replica holders could not be reached, so callers can
/// distinguish "the value does not exist" from "the owners were
/// unreachable" and degrade gracefully on partial owner lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GetOutcome {
    /// The live values retrieved, deduplicated, in discovery order.
    pub values: Vec<Vec<u8>>,
    /// Users owning replica nodes that never answered after retries.
    pub unreachable: Vec<UserId>,
    /// Replica nodes the retrieval contacted (reachable or not).
    pub contacted: usize,
    /// Retry attempts spent on this retrieval.
    pub retries: u64,
}

impl GetOutcome {
    /// Whether every contacted replica answered.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }

    /// Consumes the outcome, keeping only the values (the pre-fault-layer
    /// return shape).
    #[must_use]
    pub fn into_values(self) -> Vec<Vec<u8>> {
        self.values
    }
}

/// Appends `value` to `values` unless an equal value is already there,
/// keeping first-seen order. `by_bytes` holds `values`' positions sorted
/// by the bytes they name, so the check is a binary search against the
/// borrowed bytes and a value is copied only when it is new.
fn push_new(values: &mut Vec<Vec<u8>>, by_bytes: &mut Vec<usize>, value: Cow<'_, [u8]>) {
    if let Err(at) = by_bytes.binary_search_by(|&i| values[i].as_slice().cmp(&value)) {
        by_bytes.insert(at, values.len());
        values.push(value.into_owned());
    }
}

/// The fate of one fire-and-forget gossip push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipDelivery<'a> {
    /// The push reached an online receiver. `payloads` holds the record
    /// bytes as received: the sender's own bytes, or a tampered copy when
    /// the *sender* is byzantine. `duplicated` means the network delivered
    /// it twice and the receiver processes it twice (gossip handlers must
    /// deduplicate).
    Delivered {
        /// Delivered twice by the duplication fault.
        duplicated: bool,
        /// Record bytes as they arrived.
        payloads: Cow<'a, [Vec<u8>]>,
    },
    /// Lost, blocked, delayed past the timeout, or the receiver was
    /// offline or unknown. Fire-and-forget: nothing is retried.
    Failed,
}

/// What one [`Dht::republish_batch`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepublishReport {
    /// Publishers whose republication interval had elapsed.
    pub due: usize,
    /// Publications refreshed (key re-stored with ≥1 acknowledged replica).
    pub refreshed: usize,
    /// Due publishers skipped because their node was offline — they stay
    /// due and catch up on the first pass after churn brings them back.
    pub skipped_offline: usize,
}

/// One RPC attempt's fate, after fault injection and the online check.
enum Attempt {
    /// Delivered and answered (duplication is counted in the stats).
    Ok,
    /// Failed; `late_store` marks a timed-out `STORE` whose side effect
    /// still landed (the ack was what got lost).
    Fail { late_store: bool },
}

/// Aggregate result of an RPC after bounded retries.
struct RpcResult {
    delivered: bool,
    /// A timed-out `STORE` side effect landed on some attempt.
    late_store: bool,
}

/// What an iterative lookup discovered: the closest responsive nodes and
/// the queried nodes that never answered (both nearest-first, each with
/// its distance to the key).
struct LookupResult {
    alive: Vec<(DistanceKey, NodeId)>,
    failed: Vec<(DistanceKey, NodeId)>,
}

/// The whole simulated overlay.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Dht {
    config: DhtConfig,
    injector: FaultInjector,
    nodes: HashMap<NodeId, Node>,
    by_user: HashMap<UserId, NodeId>,
    /// The online users, ascending: the one record of who is online, and
    /// the gossip fan-out pool, read without scanning `nodes`.
    online_users: Vec<UserId>,
    /// The online nodes' ids, ascending (the join bootstrap is the first).
    online_ids: BTreeSet<NodeId>,
    /// What each user has published, for republication (at most one entry
    /// per key; re-stores replace).
    publications: HashMap<UserId, Vec<(Key, Vec<u8>)>>,
    /// Users currently offline *because of the churn schedule* (as opposed
    /// to an explicit [`leave`](Self::leave)) — only these are brought
    /// back by [`apply_churn`](Self::apply_churn).
    churned: BTreeSet<UserId>,
    /// When each publisher last completed a batched republication; absent
    /// means never (so the first [`republish_batch`](Self::republish_batch)
    /// pass refreshes everyone).
    last_republished: HashMap<UserId, SimTime>,
    stats: MessageStats,
}

impl Dht {
    /// Creates an empty overlay.
    #[must_use]
    pub fn new(config: DhtConfig) -> Self {
        Self {
            injector: FaultInjector::new(config.fault.clone()),
            config,
            nodes: HashMap::new(),
            by_user: HashMap::new(),
            online_users: Vec::new(),
            online_ids: BTreeSet::new(),
            publications: HashMap::new(),
            churned: BTreeSet::new(),
            last_republished: HashMap::new(),
            stats: MessageStats::default(),
        }
    }

    /// Message counters so far.
    #[must_use]
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// Resets the message counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = MessageStats::default();
    }

    /// The fault plan in effect.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// The trace of every fault decision so far. Same plan, same workload
    /// → bit-identical trace; compare [`FaultTrace::digest`] to replay CI
    /// failures exactly.
    #[must_use]
    pub fn fault_trace(&self) -> &FaultTrace {
        self.injector.trace()
    }

    /// Exports the fault trace counters as `dht.fault.*` gauges on the
    /// global [`mdrep_obs`] registry (call before a metrics snapshot).
    pub fn publish_fault_metrics(&self) {
        let obs = mdrep_obs::global();
        let t = self.injector.trace();
        obs.gauge_set("dht.fault.decisions", t.decisions as f64);
        obs.gauge_set("dht.fault.drops", t.drops as f64);
        obs.gauge_set("dht.fault.timeouts", t.timeouts as f64);
        obs.gauge_set("dht.fault.duplicates", t.duplicates as f64);
        obs.gauge_set("dht.fault.partition_blocks", t.partition_blocks as f64);
        obs.gauge_set("dht.fault.tampered", t.tampered as f64);
        obs.gauge_set("dht.fault.churn_downs", t.churn_downs as f64);
        obs.gauge_set("dht.fault.churn_ups", t.churn_ups as f64);
        obs.gauge_set("dht.rpc.retried", self.stats.retried as f64);
    }

    /// Number of nodes that ever joined.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of currently-online nodes.
    #[must_use]
    pub fn online_count(&self) -> usize {
        self.online_users.len()
    }

    /// Joins `user` to the overlay (or brings its node back online),
    /// bootstrapping its routing table through an iterative self-lookup.
    pub fn join(&mut self, user: UserId, now: SimTime) {
        if let Some(&id) = self.by_user.get(&user) {
            self.set_online(user, id, true);
            self.churned.remove(&user);
            return;
        }
        let node = Node::new(user);
        let id = node.id();
        // Bootstrap through an arbitrary online node (deterministic order).
        let bootstrap = self.online_ids.first().copied();
        self.by_user.insert(user, id);
        self.nodes.insert(id, node);
        self.set_online(user, id, true);
        if let Some(boot) = bootstrap {
            self.nodes
                .get_mut(&id)
                .expect("just inserted")
                .routing_mut()
                .observe(boot, now);
            self.nodes
                .get_mut(&boot)
                .expect("exists")
                .routing_mut()
                .observe(id, now);
            let found = self.iterative_find(id, id, now).alive;
            let me = self.nodes.get_mut(&id).expect("exists");
            for (_, peer) in found {
                me.routing_mut().observe(peer, now);
            }
            // Bucket refresh (Kademlia §2.3): look up a few well-spread
            // keys so the distant buckets get populated too — without this,
            // store and get lookups on large overlays can converge to
            // disjoint neighbourhoods and lose values.
            for salt in 0..3u64 {
                let target = Key::for_content(
                    &[&user.as_u64().to_be_bytes()[..], &salt.to_be_bytes()[..]].concat(),
                );
                let found = self.iterative_find(id, target, now).alive;
                let me = self.nodes.get_mut(&id).expect("exists");
                for (_, peer) in found {
                    me.routing_mut().observe(peer, now);
                }
            }
        }
    }

    /// Marks `user`'s node offline (session end). Stored values stay on
    /// disk and reappear when the node rejoins — Kademlia semantics.
    pub fn leave(&mut self, user: UserId) {
        if let Some(&id) = self.by_user.get(&user) {
            self.set_online(user, id, false);
            self.churned.remove(&user);
        }
    }

    /// Whether `user` is currently online in the overlay.
    #[must_use]
    pub fn is_online(&self, user: UserId) -> bool {
        self.online_users.binary_search(&user).is_ok()
    }

    /// Sets `user`'s node (with id `id`) online or offline.
    fn set_online(&mut self, user: UserId, id: NodeId, online: bool) {
        match (self.online_users.binary_search(&user), online) {
            (Err(pos), true) => {
                self.online_users.insert(pos, user);
                self.online_ids.insert(id);
            }
            (Ok(pos), false) => {
                self.online_users.remove(pos);
                self.online_ids.remove(&id);
            }
            _ => {}
        }
    }

    /// Applies the fault plan's churn schedule at `now`: nodes the
    /// schedule has down go offline, nodes it previously took down and no
    /// longer wants down come back (explicit [`leave`](Self::leave)s are
    /// respected and never resurrected). Returns `(downs, ups)` applied
    /// this call. A no-op without a churn schedule.
    pub fn apply_churn(&mut self, now: SimTime) -> (usize, usize) {
        if self.injector.plan().churn.is_none() {
            return (0, 0);
        }
        let mut users: Vec<UserId> = self.by_user.keys().copied().collect();
        users.sort_unstable();
        let (mut downs, mut ups) = (0, 0);
        for user in users {
            let down = self.injector.plan().node_down(user, now);
            let id = self.by_user[&user];
            if down && self.is_online(user) {
                self.set_online(user, id, false);
                self.churned.insert(user);
                self.injector.trace_mut().note_churn(user, true);
                downs += 1;
            } else if !down && self.churned.remove(&user) {
                self.set_online(user, id, true);
                self.injector.trace_mut().note_churn(user, false);
                ups += 1;
            }
        }
        (downs, ups)
    }

    /// Evicts routing-table entries not observed alive within
    /// [`DhtConfig::route_entry_ttl`] from every node; returns how many
    /// entries were evicted. Departed nodes are never re-observed, so one
    /// pass at `departure + ttl` guarantees they are gone everywhere.
    pub fn expire_routing(&mut self, now: SimTime) -> usize {
        let ttl = self.config.route_entry_ttl;
        self.nodes
            .values_mut()
            .map(|n| n.routing_mut().expire_stale(now, ttl))
            .sum()
    }

    /// Stores `data` under `key` at the `replication` closest online
    /// nodes, retrying each replica per the [`RetryPolicy`].
    ///
    /// The publication intent is recorded (replacing any earlier intent
    /// for the same key) even when every replica fails, so a later
    /// [`republish`](Self::republish) can repair a store that a partition
    /// or loss burst defeated.
    ///
    /// # Errors
    ///
    /// Returns [`DhtError`] if `publisher` is unknown/offline or no node
    /// acknowledged the value.
    pub fn store(
        &mut self,
        publisher: UserId,
        key: Key,
        data: Vec<u8>,
        now: SimTime,
    ) -> Result<usize, DhtError> {
        let mut phase = mdrep_obs::phase("dht.store.op");
        let origin = self.require_online(publisher)?;
        let before = self.stats;
        let targets = self.iterative_find(origin, key, now).alive;
        let mut stored = 0;
        for (_, target) in targets.iter().take(self.config.replication) {
            let result = self.rpc_with_retry(RpcKind::Store, publisher, *target, now);
            if result.delivered || result.late_store {
                if let Some(node) = self.nodes.get_mut(target) {
                    node.store(
                        key,
                        StoredValue {
                            data: data.clone(),
                            publisher,
                            expires_at: now + self.config.ttl,
                        },
                    );
                }
                // Only acknowledged stores count toward replication; a
                // late store landed but the publisher cannot know.
                if result.delivered {
                    stored += 1;
                }
            }
        }
        let publications = self.publications.entry(publisher).or_default();
        publications.retain(|(k, _)| *k != key);
        publications.push((key, data));
        phase.annotate("replicas", stored);
        annotate_rpcs(&mut phase, &self.stats.since(&before));
        if stored == 0 {
            return Err(DhtError::NoReachableNodes);
        }
        Ok(stored)
    }

    /// Retrieves the live values stored under `key`, deduplicated, and
    /// reports which replica owners could not be reached — a shorter
    /// value list is never silent. Each replica is retried per the
    /// [`RetryPolicy`]. Values served by byzantine nodes arrive tampered;
    /// callers must verify signatures.
    ///
    /// # Errors
    ///
    /// Returns [`DhtError`] if `requester` is unknown or offline.
    pub fn get(
        &mut self,
        requester: UserId,
        key: Key,
        now: SimTime,
    ) -> Result<GetOutcome, DhtError> {
        let mut phase = mdrep_obs::phase("dht.get.op");
        let origin = self.require_online(requester)?;
        let before = self.stats;
        // Contact the closest *discovered* nodes, responsive or not: an
        // unresponsive replica holder must surface as `unreachable`, not
        // silently vanish from the owner list.
        let lookup = self.iterative_find(origin, key, now);
        let mut targets = lookup.alive;
        targets.extend(lookup.failed);
        targets.sort_unstable_by_key(|&(d, _)| d);
        targets.dedup_by_key(|&mut (d, _)| d);
        // `GetOutcome::retries` counts the replica RPCs' retries; the
        // phase's annotations count the lookup's too.
        let retries_before = self.stats.retried;
        let mut outcome = GetOutcome::default();
        // `outcome.values`' positions, ordered by their bytes: the set that
        // deduplicates the replicas' answers without a second copy.
        let mut by_bytes = Vec::new();
        for (_, target) in targets.iter().take(self.config.replication) {
            outcome.contacted += 1;
            let result = self.rpc_with_retry(RpcKind::FindValue, requester, *target, now);
            let Some(node) = self.nodes.get(target) else {
                continue;
            };
            if !result.delivered {
                outcome.unreachable.push(node.user());
                continue;
            }
            let byzantine = self.injector.plan().is_byzantine(node.user());
            for stored in node.get(&key, now) {
                let value = if byzantine {
                    let mut copy = stored.data.clone();
                    self.injector.tamper(&mut copy);
                    Cow::Owned(copy)
                } else {
                    Cow::Borrowed(stored.data.as_slice())
                };
                push_new(&mut outcome.values, &mut by_bytes, value);
            }
        }
        outcome.retries = self.stats.retried - retries_before;
        phase.annotate("values", outcome.values.len());
        phase.annotate("unreachable", outcome.unreachable.len());
        annotate_rpcs(&mut phase, &self.stats.since(&before));
        if !outcome.unreachable.is_empty() {
            mdrep_obs::global().counter_add(
                "dht.get.unreachable_owners",
                outcome.unreachable.len() as u64,
            );
        }
        Ok(outcome)
    }

    /// Republishes everything `user` ever stored, refreshing replicas and
    /// TTLs (Fig. 2 step 2: "update […] with the regular republication").
    ///
    /// # Errors
    ///
    /// Returns [`DhtError`] when the user is unknown or offline.
    pub fn republish(&mut self, user: UserId, now: SimTime) -> Result<usize, DhtError> {
        self.require_online(user)?;
        let publications = self.publications.get(&user).cloned().unwrap_or_default();
        let mut refreshed = 0;
        for (key, data) in publications {
            if self.store(user, key, data, now).is_ok() {
                refreshed += 1;
            }
        }
        Ok(refreshed)
    }

    /// Runs one batched republication pass at `now`: every publisher whose
    /// last completed pass is at least `interval` old (or who never
    /// completed one) is refreshed via [`republish`](Self::republish).
    ///
    /// Offline publishers are *not* stamped, so a node taken down by a
    /// churn wave stays due and its publications are repaired on the first
    /// pass after it comes back — republication survives churn rather than
    /// silently skipping a cycle.
    pub fn republish_batch(&mut self, now: SimTime, interval: SimDuration) -> RepublishReport {
        let mut phase = mdrep_obs::phase("dht.republish.batch");
        let mut publishers: Vec<UserId> = self.publications.keys().copied().collect();
        publishers.sort_unstable();
        let mut report = RepublishReport::default();
        for user in publishers {
            let due = self
                .last_republished
                .get(&user)
                .is_none_or(|&last| now - last >= interval);
            if !due {
                continue;
            }
            report.due += 1;
            if !self.is_online(user) {
                report.skipped_offline += 1;
                continue;
            }
            // Err here means no key found a reachable replica set; the
            // publisher still completed its pass (and tries again next
            // interval) rather than hammering the overlay every tick.
            let refreshed = self.republish(user, now).unwrap_or(0);
            report.refreshed += refreshed;
            self.last_republished.insert(user, now);
        }
        phase.annotate("due", report.due);
        phase.annotate("refreshed", report.refreshed);
        phase.annotate("skipped_offline", report.skipped_offline);
        report
    }

    /// Pushes `payloads` from `from` to `to` as one fire-and-forget gossip
    /// message through the fault injector — loss, partitions, delay, and
    /// duplication apply to cache traffic exactly as to lookups. Payloads
    /// from a byzantine *sender* arrive as a tampered copy; any other
    /// delivery lends the sender's bytes, so one push's payloads serve its
    /// whole fan-out. Receivers must verify signatures. No retries: gossip
    /// redundancy is the repair mechanism.
    pub fn send_gossip<'a>(
        &mut self,
        from: UserId,
        to: UserId,
        payloads: &'a [Vec<u8>],
        now: SimTime,
    ) -> GossipDelivery<'a> {
        let mut phase = mdrep_obs::phase("dht.gossip.push");
        phase.annotate("records", payloads.len());
        self.stats.gossip += 1;
        let online = self.is_online(to);
        match self.injector.next_outcome(
            RpcKind::Gossip,
            from,
            to,
            now,
            self.config.retry.timeout_ticks,
        ) {
            RpcOutcome::Blocked => {
                phase.annotate("outcome", "blocked");
                self.stats.blocked += 1;
                GossipDelivery::Failed
            }
            RpcOutcome::Lost => {
                phase.annotate("outcome", "lost");
                self.stats.dropped += 1;
                GossipDelivery::Failed
            }
            RpcOutcome::TimedOut => {
                // A push delayed past the timeout window carries records
                // whose freshness window it has outlived: dropped.
                phase.annotate("outcome", "timed_out");
                self.stats.timed_out += 1;
                GossipDelivery::Failed
            }
            RpcOutcome::Delivered { duplicated } => {
                if !online {
                    phase.annotate("outcome", "refused");
                    self.stats.refused += 1;
                    return GossipDelivery::Failed;
                }
                phase.annotate("outcome", "delivered");
                self.stats.delivered += 1;
                if duplicated {
                    self.stats.duplicated += 1;
                }
                let payloads = if self.injector.plan().is_byzantine(from) {
                    let mut copy = payloads.to_vec();
                    for payload in &mut copy {
                        self.injector.tamper(payload);
                    }
                    Cow::Owned(copy)
                } else {
                    Cow::Borrowed(payloads)
                };
                GossipDelivery::Delivered {
                    duplicated,
                    payloads,
                }
            }
        }
    }

    /// The currently-online users, ascending — the deterministic candidate
    /// pool for gossip fan-out selection.
    #[must_use]
    pub fn online_users(&self) -> Vec<UserId> {
        self.online_users.clone()
    }

    /// Expires stale values on every node; returns how many were dropped.
    pub fn expire_all(&mut self, now: SimTime) -> usize {
        self.nodes.values_mut().map(|n| n.expire(now)).sum()
    }

    /// Read access to a user's node (for assertions and experiments).
    #[must_use]
    pub fn node_of(&self, user: UserId) -> Option<&Node> {
        self.by_user.get(&user).and_then(|id| self.nodes.get(id))
    }

    fn require_online(&self, user: UserId) -> Result<NodeId, DhtError> {
        let id = *self.by_user.get(&user).ok_or(DhtError::UnknownUser(user))?;
        if self.is_online(user) {
            Ok(id)
        } else {
            Err(DhtError::Offline(user))
        }
    }

    /// Sends one RPC attempt from `from` to `target`, through the fault
    /// injector and the receiver's online check, updating the per-kind
    /// and per-outcome message counters.
    fn attempt_rpc(
        &mut self,
        kind: RpcKind,
        from: UserId,
        target: NodeId,
        now: SimTime,
    ) -> Attempt {
        match kind {
            RpcKind::FindNode => self.stats.find_node += 1,
            RpcKind::Store => self.stats.store += 1,
            RpcKind::FindValue => self.stats.find_value += 1,
            RpcKind::Gossip => self.stats.gossip += 1,
        }
        let (to_user, online) = self
            .nodes
            .get(&target)
            .map(|n| (n.user(), self.is_online(n.user())))
            .unwrap_or((from, false));
        match self
            .injector
            .next_outcome(kind, from, to_user, now, self.config.retry.timeout_ticks)
        {
            RpcOutcome::Blocked => {
                self.stats.blocked += 1;
                Attempt::Fail { late_store: false }
            }
            RpcOutcome::Lost => {
                self.stats.dropped += 1;
                Attempt::Fail { late_store: false }
            }
            RpcOutcome::TimedOut => {
                self.stats.timed_out += 1;
                // The request reached an online receiver late: a STORE's
                // side effect lands, only the acknowledgement is missing.
                Attempt::Fail {
                    late_store: online && kind == RpcKind::Store,
                }
            }
            RpcOutcome::Delivered { duplicated } => {
                if !online {
                    self.stats.refused += 1;
                    return Attempt::Fail { late_store: false };
                }
                self.stats.delivered += 1;
                if duplicated {
                    self.stats.duplicated += 1;
                }
                Attempt::Ok
            }
        }
    }

    /// Runs one RPC with bounded retry and exponential backoff. Backoff
    /// is virtual (the overlay is simulated-synchronous): it is counted
    /// into `dht.rpc.backoff_ticks` rather than advancing the clock.
    fn rpc_with_retry(
        &mut self,
        kind: RpcKind,
        from: UserId,
        target: NodeId,
        now: SimTime,
    ) -> RpcResult {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut late_store = false;
        let mut delivered = false;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.stats.retried += 1;
                let obs = mdrep_obs::global();
                obs.counter_inc("dht.rpc.retries");
                obs.counter_add(
                    "dht.rpc.backoff_ticks",
                    self.config.retry.backoff_ticks(attempt - 1),
                );
            }
            match self.attempt_rpc(kind, from, target, now) {
                Attempt::Ok => {
                    delivered = true;
                    break;
                }
                Attempt::Fail { late_store: late } => late_store |= late,
            }
        }
        RpcResult {
            delivered,
            late_store,
        }
    }

    /// Iterative Kademlia lookup from `origin` toward `key`; returns the
    /// closest online nodes discovered, nearest first. Queries that fail
    /// after retries evict the target from the origin's routing table.
    ///
    /// Runs as the `dht.lookup.time` phase, and reports per-round
    /// `dht.lookup.hops` and `dht.lookup.timeouts` (lost, blocked, or
    /// refused queries) to the global [`mdrep_obs`] registry.
    fn iterative_find(&mut self, origin: NodeId, key: Key, now: SimTime) -> LookupResult {
        let obs = mdrep_obs::global();
        let mut phase = mdrep_obs::phase("dht.lookup.time");
        let mut hops = 0u64;
        let mut timeouts = 0u64;
        let origin_user = self
            .nodes
            .get(&origin)
            .map(Node::user)
            .unwrap_or(UserId::new(0));
        let k = self.config.replication.max(crate::routing::BUCKET_SIZE);
        // Candidates carry their distance to the key, computed once, so a
        // round sorts integers. Distinct ids have distinct distances, so
        // sorting and deduplicating by distance is sorting and
        // deduplicating by id.
        let mut candidates = self
            .nodes
            .get(&origin)
            .map(|n| n.routing().closest_keyed(&key, k))
            .unwrap_or_default();
        // The origin itself is a candidate server for the key.
        candidates.push((origin.distance_key(&key), origin));
        let mut queried: BTreeSet<NodeId> = BTreeSet::new();
        queried.insert(origin);
        let mut alive: Vec<(DistanceKey, NodeId)> = vec![(origin.distance_key(&key), origin)];
        let mut failed: Vec<(DistanceKey, NodeId)> = Vec::new();

        loop {
            candidates.sort_unstable_by_key(|&(d, _)| d);
            candidates.dedup_by_key(|&mut (d, _)| d);
            // Kademlia termination: only the k closest known nodes are
            // worth querying; when they have all answered, the lookup has
            // converged (this is what bounds the lookup at O(log n) hops
            // instead of crawling the whole overlay). Candidates are never
            // withdrawn, so one pushed past the k closest never returns.
            candidates.truncate(k);
            let round: Vec<(DistanceKey, NodeId)> = candidates
                .iter()
                .filter(|(_, n)| !queried.contains(n))
                .take(self.config.lookup_parallelism)
                .copied()
                .collect();
            if round.is_empty() {
                break;
            }
            hops += 1;
            let mut learned = Vec::new();
            for (distance, target) in round {
                queried.insert(target);
                let result = self.rpc_with_retry(RpcKind::FindNode, origin_user, target, now);
                if !result.delivered {
                    timeouts += 1;
                    failed.push((distance, target));
                    // Forget unreachable peers on the origin's table.
                    if let Some(o) = self.nodes.get_mut(&origin) {
                        o.routing_mut().remove(&target);
                    }
                    continue;
                }
                alive.push((distance, target));
                let Some(node) = self.nodes.get(&target) else {
                    continue;
                };
                learned.extend(node.routing().closest_keyed(&key, k));
                // Both sides refresh their tables from the traffic
                // (Kademlia tables are refreshed by incoming traffic; the
                // origin's fresh timestamp is what keeps the responsive
                // peer from aging out of `expire_routing`).
                if let Some(n) = self.nodes.get_mut(&target) {
                    n.routing_mut().observe(origin, now);
                }
                if let Some(o) = self.nodes.get_mut(&origin) {
                    o.routing_mut().observe(target, now);
                }
            }
            if learned.is_empty() {
                break;
            }
            candidates.extend(learned);
        }

        obs.counter_add("dht.lookup.hops", hops);
        obs.counter_add("dht.lookup.timeouts", timeouts);
        obs.histogram_record("dht.lookup.hops_per_lookup", hops as f64);
        phase.annotate("hops", hops);
        phase.annotate("timeouts", timeouts);

        // A node is queried at most once, so neither list repeats an id.
        alive.sort_unstable_by_key(|&(d, _)| d);
        alive.truncate(k);
        failed.sort_unstable_by_key(|&(d, _)| d);
        failed.truncate(k);
        LookupResult { alive, failed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChurnSchedule;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    fn overlay(n: u64) -> Dht {
        let mut dht = Dht::new(DhtConfig::default());
        for i in 0..n {
            dht.join(u(i), SimTime::ZERO);
        }
        dht
    }

    #[test]
    fn join_builds_routing_tables() {
        let dht = overlay(20);
        assert_eq!(dht.len(), 20);
        assert_eq!(dht.online_count(), 20);
        // Every late joiner knows at least one peer.
        for i in 1..20 {
            assert!(!dht.node_of(u(i)).unwrap().routing().is_empty(), "node {i}");
        }
    }

    #[test]
    fn store_then_get_round_trip() {
        let mut dht = overlay(30);
        let key = Key::for_content(b"file-index");
        let stored = dht
            .store(u(0), key, b"record".to_vec(), SimTime::ZERO)
            .unwrap();
        assert!(stored >= 1);
        let got = dht.get(u(17), key, SimTime::ZERO).unwrap();
        assert_eq!(got.values, vec![b"record".to_vec()]);
        assert!(got.is_complete(), "healthy overlay reaches every replica");
        assert_eq!(got.retries, 0);
    }

    #[test]
    fn get_unknown_key_is_empty() {
        let mut dht = overlay(10);
        let got = dht
            .get(u(3), Key::for_content(b"nothing"), SimTime::ZERO)
            .unwrap();
        assert!(got.values.is_empty());
        assert!(got.is_complete());
    }

    #[test]
    fn unknown_and_offline_users_error() {
        let mut dht = overlay(5);
        let key = Key::for_content(b"k");
        assert_eq!(
            dht.store(u(99), key, vec![], SimTime::ZERO),
            Err(DhtError::UnknownUser(u(99)))
        );
        dht.leave(u(2));
        assert!(!dht.is_online(u(2)));
        assert_eq!(
            dht.get(u(2), key, SimTime::ZERO),
            Err(DhtError::Offline(u(2)))
        );
    }

    #[test]
    fn values_expire_without_republication() {
        let mut dht = overlay(10);
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        let later = SimTime::ZERO + SimDuration::from_hours(25);
        let got = dht.get(u(1), key, later).unwrap();
        assert!(got.values.is_empty(), "TTL passed");
        assert!(dht.expire_all(later) >= 1);
    }

    #[test]
    fn republication_refreshes_ttl() {
        let mut dht = overlay(10);
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        let mid = SimTime::ZERO + SimDuration::from_hours(20);
        assert_eq!(dht.republish(u(0), mid).unwrap(), 1);
        let later = SimTime::ZERO + SimDuration::from_hours(30);
        let got = dht.get(u(1), key, later).unwrap();
        assert_eq!(got.values.len(), 1, "refreshed replica still alive");
    }

    #[test]
    fn repeated_stores_do_not_grow_the_republication_set() {
        let mut dht = overlay(10);
        let key = Key::for_content(b"k");
        for round in 0..5u8 {
            dht.store(u(0), key, vec![round], SimTime::ZERO).unwrap();
        }
        // One publication intent per key: republish refreshes exactly one.
        assert_eq!(dht.republish(u(0), SimTime::ZERO).unwrap(), 1);
        let got = dht.get(u(1), key, SimTime::ZERO).unwrap();
        assert_eq!(got.values, vec![vec![4u8]], "latest store wins");
    }

    #[test]
    fn messages_are_counted_and_conserved() {
        let mut dht = overlay(20);
        dht.reset_stats();
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        let stats = dht.stats();
        assert!(stats.find_node > 0, "lookup traffic");
        assert!(stats.store >= 1);
        assert_eq!(stats.find_value, 0);
        assert!(stats.is_conserved(), "{stats:?}");
        let _ = dht.get(u(1), key, SimTime::ZERO).unwrap();
        assert!(dht.stats().find_value >= 1);
        assert!(dht.stats().total() > stats.total());
        assert!(dht.stats().is_conserved());
    }

    #[test]
    fn churn_survivable_with_replication() {
        let mut dht = overlay(40);
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        // Knock a third of the overlay offline.
        for i in 0..13 {
            dht.leave(u(i * 3 + 1));
        }
        let got = dht.get(u(0), key, SimTime::ZERO).unwrap();
        // With replication 3 the value usually survives; at minimum the
        // call must not error and the overlay stays operational.
        assert!(got.values.len() <= 1);
        assert!(dht.online_count() >= 27);
    }

    #[test]
    fn offline_replica_holders_are_reported_unreachable() {
        let mut dht = overlay(12);
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        // Take every storing node offline.
        let holders: Vec<UserId> = (0..12)
            .map(u)
            .filter(|&user| dht.node_of(user).unwrap().stored_len() > 0)
            .collect();
        assert!(!holders.is_empty());
        for &holder in &holders {
            if holder != u(0) {
                dht.leave(holder);
            }
        }
        let got = dht.get(u(0), key, SimTime::ZERO).unwrap();
        for &holder in &holders {
            if holder != u(0) {
                assert!(
                    got.unreachable.contains(&holder),
                    "offline holder {holder} must be reported, got {:?}",
                    got.unreachable
                );
            }
        }
    }

    #[test]
    fn rejoin_brings_stored_values_back() {
        let mut dht = overlay(10);
        let key = Key::for_content(b"k");
        dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).unwrap();
        // Find a storing node and bounce it.
        let holder = (0..10)
            .map(u)
            .find(|&user| dht.node_of(user).unwrap().stored_len() > 0)
            .expect("someone stores it");
        dht.leave(holder);
        dht.join(holder, SimTime::ZERO);
        assert!(dht.is_online(holder));
        assert!(
            dht.node_of(holder).unwrap().stored_len() > 0,
            "storage survives churn"
        );
    }

    #[test]
    fn message_loss_degrades_but_does_not_crash() {
        let config = DhtConfig {
            fault: FaultPlan::message_loss(0.5, 42),
            ..DhtConfig::default()
        };
        let mut dht = Dht::new(config);
        for i in 0..30 {
            dht.join(u(i), SimTime::ZERO);
        }
        let key = Key::for_content(b"k");
        // Store may or may not fully replicate; repeated attempts succeed
        // eventually.
        let mut stored_any = false;
        for _ in 0..10 {
            if dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO).is_ok() {
                stored_any = true;
                break;
            }
        }
        assert!(stored_any);
        assert!(dht.stats().dropped > 0);
        assert!(dht.stats().retried > 0, "loss triggers the retry layer");
        assert!(dht.stats().is_conserved(), "{:?}", dht.stats());
    }

    #[test]
    fn scheduled_churn_applies_and_reverts_deterministically() {
        let churn = ChurnSchedule::new(SimDuration::from_hours(1), 0.4).immune(u(0));
        let config = DhtConfig {
            fault: FaultPlan::none().with_seed(9).with_churn(churn),
            ..DhtConfig::default()
        };
        let mut dht = Dht::new(config);
        for i in 0..40 {
            dht.join(u(i), SimTime::ZERO);
        }
        let t1 = SimTime::from_ticks(3600 * 5);
        let (downs, _) = dht.apply_churn(t1);
        assert!(downs > 0, "some nodes churn down");
        assert!(dht.is_online(u(0)), "immune node stays up");
        let offline_now = 40 - dht.online_count();
        assert_eq!(downs, offline_now);
        // Re-applying the same instant is idempotent.
        assert_eq!(dht.apply_churn(t1), (0, 0));
        // A later interval brings (most) nodes back, takes others down.
        let t2 = SimTime::from_ticks(3600 * 6);
        let (_, ups) = dht.apply_churn(t2);
        assert!(ups > 0, "churned nodes come back");
        // Explicit leave is never resurrected by churn.
        dht.leave(u(5));
        let t3 = SimTime::from_ticks(3600 * 7);
        dht.apply_churn(t3);
        assert!(!dht.is_online(u(5)), "voluntary leave respected");
    }

    #[test]
    fn routing_expiry_evicts_silent_peers() {
        let mut dht = overlay(10);
        dht.leave(u(3));
        let departed = dht.node_of(u(3)).unwrap().id();
        // Long after the entry TTL, nobody has observed node 3 alive.
        let later = SimTime::ZERO + SimDuration::from_hours(72);
        let evicted = dht.expire_routing(later);
        assert!(evicted > 0);
        for i in 0..10 {
            if i == 3 {
                continue;
            }
            assert!(
                !dht.node_of(u(i)).unwrap().routing().contains(&departed),
                "node {i} still routes to the departed node"
            );
        }
    }

    #[test]
    fn partition_blocks_cross_side_stores() {
        let config = DhtConfig {
            fault: FaultPlan::none()
                .with_seed(4)
                .with_partition(crate::fault::Partition {
                    start: SimTime::ZERO,
                    end: SimTime::from_ticks(1_000_000),
                    minority_fraction: 0.5,
                }),
            ..DhtConfig::default()
        };
        let mut dht = Dht::new(config);
        for i in 0..30 {
            dht.join(u(i), SimTime::ZERO);
        }
        let key = Key::for_content(b"k");
        let _ = dht.store(u(0), key, b"v".to_vec(), SimTime::ZERO);
        assert!(dht.stats().blocked > 0, "cross-side traffic was blocked");
        assert!(dht.stats().is_conserved(), "{:?}", dht.stats());
    }

    #[test]
    fn same_fault_seed_replays_bit_identically() {
        let run = |seed: u64| {
            let config = DhtConfig {
                fault: FaultPlan::message_loss(0.2, seed).with_delay(0.1, 4),
                ..DhtConfig::default()
            };
            let mut dht = Dht::new(config);
            for i in 0..25 {
                dht.join(u(i), SimTime::ZERO);
            }
            for f in 0..10u64 {
                let key = Key::for_content(&f.to_be_bytes());
                let _ = dht.store(u(f % 25), key, vec![f as u8], SimTime::ZERO);
                let _ = dht.get(u((f + 7) % 25), key, SimTime::ZERO);
            }
            (dht.stats(), *dht.fault_trace())
        };
        let (stats_a, trace_a) = run(77);
        let (stats_b, trace_b) = run(77);
        assert_eq!(stats_a, stats_b, "same seed, same message accounting");
        assert_eq!(trace_a, trace_b, "same seed, same fault trace");
        assert_eq!(trace_a.digest(), trace_b.digest());
        let (_, trace_c) = run(78);
        assert_ne!(trace_a.digest(), trace_c.digest(), "seed changes the trace");
    }

    #[test]
    fn error_display() {
        assert!(DhtError::UnknownUser(u(1)).to_string().contains("U1"));
        assert!(DhtError::Offline(u(2)).to_string().contains("offline"));
        assert!(DhtError::NoReachableNodes.to_string().contains("reachable"));
    }
}
