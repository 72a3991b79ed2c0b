//! Deterministic fault injection for the simulated overlay.
//!
//! A [`FaultPlan`] describes *what can go wrong* — per-RPC message loss,
//! delivery delays, duplicated requests, scheduled node churn, network
//! partitions, and byzantine index peers that tamper with stored values.
//! A [`FaultInjector`] turns the plan into per-RPC decisions drawn from a
//! seeded generator, so the entire fault schedule is reproducible from a
//! single `u64` seed: two runs with the same plan produce bit-identical
//! [`FaultTrace`]s, and a CI failure replays exactly.
//!
//! The [`RetryPolicy`] is the resilience half: bounded retry with
//! exponential backoff and a per-RPC timeout, applied by [`Dht`] to every
//! store, lookup, and retrieval.
//!
//! [`Dht`]: crate::Dht

use mdrep_types::{SimDuration, SimTime, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// The RPC kinds of the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// Iterative-lookup query.
    FindNode,
    /// Value publication.
    Store,
    /// Value retrieval.
    FindValue,
    /// Fire-and-forget cache push (evaluation-record gossip).
    Gossip,
}

impl RpcKind {
    fn code(self) -> u8 {
        match self {
            Self::FindNode => 1,
            Self::Store => 2,
            Self::FindValue => 3,
            Self::Gossip => 4,
        }
    }
}

/// Bounded retry with exponential backoff, applied per RPC target.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per RPC (1 = no retry).
    pub max_attempts: u32,
    /// Per-RPC timeout in ticks; a delivery delayed beyond this counts as
    /// a timeout (the side effect of a `STORE` may still land — the ack is
    /// what was lost).
    pub timeout_ticks: u64,
    /// Backoff before retry `k` (0-based) is `base · factorᵏ` ticks.
    pub backoff_base_ticks: u64,
    /// Multiplier of the exponential backoff.
    pub backoff_factor: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            timeout_ticks: 2,
            backoff_base_ticks: 1,
            backoff_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-fault-layer behaviour).
    #[must_use]
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Virtual backoff ticks before the `retry`-th retry (0-based),
    /// saturating.
    #[must_use]
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        let mut ticks = self.backoff_base_ticks;
        for _ in 0..retry {
            ticks = ticks.saturating_mul(self.backoff_factor);
        }
        ticks
    }
}

/// A deterministic churn schedule: in every interval of `period`, a
/// `down_fraction` of the population is offline. Which nodes are down in
/// which interval is a pure function of the plan seed, the user id, and
/// the interval index — no state, no ordering sensitivity.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// Interval granularity of the schedule.
    pub period: SimDuration,
    /// Fraction of (non-immune) nodes offline in any interval.
    pub down_fraction: f64,
    /// Users never taken down by the schedule (e.g. the publisher whose
    /// republication an experiment measures).
    pub immune: BTreeSet<UserId>,
}

impl ChurnSchedule {
    /// A schedule with the given period and down fraction and no immunity.
    #[must_use]
    pub fn new(period: SimDuration, down_fraction: f64) -> Self {
        Self {
            period,
            down_fraction,
            immune: BTreeSet::new(),
        }
    }

    /// Marks `user` as never churned down.
    #[must_use]
    pub fn immune(mut self, user: UserId) -> Self {
        self.immune.insert(user);
        self
    }

    fn is_down(&self, seed: u64, user: UserId, now: SimTime) -> bool {
        if self.down_fraction <= 0.0 || self.immune.contains(&user) {
            return false;
        }
        let interval = now.as_ticks() / self.period.as_ticks().max(1);
        unit(mix3(seed ^ CHURN_SALT, user.as_u64(), interval)) < self.down_fraction
    }
}

/// A two-sided network partition active during `[start, end)`. Side
/// membership is a pure function of the plan seed and the user id;
/// `minority_fraction` of the population lands on the minority side.
/// While active, every RPC crossing sides is blocked.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// When the partition opens.
    pub start: SimTime,
    /// When it heals (exclusive).
    pub end: SimTime,
    /// Fraction of nodes on the minority side.
    pub minority_fraction: f64,
}

impl Partition {
    /// Whether the partition is active at `now`.
    #[must_use]
    pub fn active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// Whether `user` is on the minority side.
    #[must_use]
    pub fn minority_side(&self, seed: u64, user: UserId) -> bool {
        unit(mix3(seed ^ PARTITION_SALT, user.as_u64(), 0)) < self.minority_fraction
    }

    fn blocks(&self, seed: u64, from: UserId, to: UserId, now: SimTime) -> bool {
        self.active(now) && self.minority_side(seed, from) != self.minority_side(seed, to)
    }
}

/// Everything that can go wrong, in one seeded, reproducible description.
///
/// The default plan is quiet (no faults); builder methods switch on the
/// individual fault classes. See the crate docs for the full model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule. Every random decision — loss, delay,
    /// duplication, churn membership, partition sides — derives from it.
    pub seed: u64,
    /// Probability that any RPC is lost in transit.
    pub drop_rate: f64,
    /// Probability that a delivered RPC is delayed.
    pub delay_rate: f64,
    /// Delayed RPCs take `1..=max_delay_ticks` extra ticks (uniform);
    /// beyond the retry policy's timeout this reads as a timeout.
    pub max_delay_ticks: u64,
    /// Probability that a delivered RPC is processed twice (exercises
    /// handler idempotency and message accounting).
    pub duplicate_rate: f64,
    /// Scheduled node churn, applied by [`Dht::apply_churn`](crate::Dht::apply_churn).
    pub churn: Option<ChurnSchedule>,
    /// A timed network partition.
    pub partition: Option<Partition>,
    /// Users whose nodes tamper with every value they serve. Tampered
    /// bytes either fail to decode or fail signature verification — the
    /// retrieval layer must reject them, never silently accept them.
    pub byzantine: BTreeSet<UserId>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The quiet plan: nothing ever goes wrong.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay_ticks: 0,
            duplicate_rate: 0.0,
            churn: None,
            partition: None,
            byzantine: BTreeSet::new(),
        }
    }

    /// A plan that only loses messages at `rate`, seeded by `seed`.
    #[must_use]
    pub fn message_loss(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            drop_rate: rate,
            ..Self::none()
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-RPC loss rate.
    #[must_use]
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the delay process.
    #[must_use]
    pub fn with_delay(mut self, rate: f64, max_delay_ticks: u64) -> Self {
        self.delay_rate = rate;
        self.max_delay_ticks = max_delay_ticks;
        self
    }

    /// Sets the duplication rate.
    #[must_use]
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Installs a churn schedule.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Installs a partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Marks `user` as byzantine.
    #[must_use]
    pub fn with_byzantine(mut self, user: UserId) -> Self {
        self.byzantine.insert(user);
        self
    }

    /// Whether the plan injects no faults at all (fast path).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.drop_rate <= 0.0
            && self.delay_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.churn.is_none()
            && self.partition.is_none()
            && self.byzantine.is_empty()
    }

    /// Whether the churn schedule has `user` down at `now`.
    #[must_use]
    pub fn node_down(&self, user: UserId, now: SimTime) -> bool {
        self.churn
            .as_ref()
            .is_some_and(|c| c.is_down(self.seed, user, now))
    }

    /// Whether the partition blocks traffic between `from` and `to` at
    /// `now`.
    #[must_use]
    pub fn partition_blocks(&self, from: UserId, to: UserId, now: SimTime) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|p| p.blocks(self.seed, from, to, now))
    }

    /// Whether `user`'s node tampers with values it serves.
    #[must_use]
    pub fn is_byzantine(&self, user: UserId) -> bool {
        self.byzantine.contains(&user)
    }

    /// The probability that an RPC still fails after `attempts` tries
    /// under the plan's loss rate alone (`drop_rateᵃᵗᵗᵉᵐᵖᵗˢ`).
    #[must_use]
    pub fn effective_loss(&self, attempts: u32) -> f64 {
        self.drop_rate.powi(attempts.max(1) as i32)
    }
}

/// The fate of one RPC attempt, decided by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcOutcome {
    /// The request (and its reply) made it through.
    Delivered {
        /// Whether the request was processed twice.
        duplicated: bool,
    },
    /// Lost in transit; no side effect, no reply.
    Lost,
    /// Blocked by an active partition.
    Blocked,
    /// Delayed beyond the caller's timeout. The side effect of a `STORE`
    /// still lands (late delivery); replies to reads are discarded.
    TimedOut,
}

impl RpcOutcome {
    fn code(self) -> u8 {
        match self {
            Self::Delivered { duplicated: false } => 0,
            Self::Delivered { duplicated: true } => 1,
            Self::Lost => 2,
            Self::Blocked => 3,
            Self::TimedOut => 4,
        }
    }
}

/// Counters and a rolling digest of every fault decision the injector
/// made. Two runs with the same [`FaultPlan`] produce identical traces;
/// the digest is what determinism tests and CI replay checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTrace {
    /// RPC decisions taken.
    pub decisions: u64,
    /// Messages lost in transit.
    pub drops: u64,
    /// Deliveries delayed (within the timeout).
    pub delays: u64,
    /// Deliveries delayed beyond the timeout.
    pub timeouts: u64,
    /// Requests processed twice.
    pub duplicates: u64,
    /// RPCs blocked by a partition.
    pub partition_blocks: u64,
    /// Values tampered by byzantine nodes.
    pub tampered: u64,
    /// Nodes taken down by the churn schedule.
    pub churn_downs: u64,
    /// Nodes brought back by the churn schedule.
    pub churn_ups: u64,
    digest: u64,
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const CHURN_SALT: u64 = 0x6368_7572_6e21_7361;
const PARTITION_SALT: u64 = 0x7061_7274_6974_696f;

pub(crate) fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// SplitMix64-style stateless mix of three words.
pub(crate) fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultTrace {
    fn new() -> Self {
        Self {
            digest: FNV_OFFSET,
            ..Self::default()
        }
    }

    /// The rolling digest of every decision so far. Equal plans replayed
    /// on equal workloads yield equal digests, bit for bit.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn record(&mut self, index: u64, kind: RpcKind, outcome: RpcOutcome, delay_ticks: u64) {
        self.decisions += 1;
        match outcome {
            RpcOutcome::Delivered { duplicated } => {
                if duplicated {
                    self.duplicates += 1;
                }
                if delay_ticks > 0 {
                    self.delays += 1;
                }
            }
            RpcOutcome::Lost => self.drops += 1,
            RpcOutcome::Blocked => self.partition_blocks += 1,
            RpcOutcome::TimedOut => self.timeouts += 1,
        }
        let mut bytes = [0u8; 18];
        bytes[..8].copy_from_slice(&index.to_le_bytes());
        bytes[8] = kind.code();
        bytes[9] = outcome.code();
        bytes[10..18].copy_from_slice(&delay_ticks.to_le_bytes());
        self.digest = fnv1a(self.digest, &bytes);
    }

    /// Folds a value-tampering event into the trace.
    pub fn note_tamper(&mut self, count: u64) {
        self.tampered = self.tampered.saturating_add(count);
        self.digest = fnv1a(self.digest, &count.to_le_bytes());
    }

    /// Folds a churn transition into the trace.
    pub fn note_churn(&mut self, user: UserId, down: bool) {
        if down {
            self.churn_downs += 1;
        } else {
            self.churn_ups += 1;
        }
        let mut bytes = [0u8; 9];
        bytes[..8].copy_from_slice(&user.as_u64().to_le_bytes());
        bytes[8] = u8::from(down);
        self.digest = fnv1a(self.digest, &bytes);
    }
}

/// Runtime state of a [`FaultPlan`]: a seeded generator plus the
/// [`FaultTrace`] of every decision made so far.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    rpc_index: u64,
    trace: FaultTrace,
}

impl FaultInjector {
    /// Builds the injector for `plan`. The generator is seeded from the
    /// plan seed alone, so equal plans replay identically.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0x6661_756c_7421_6c79);
        Self {
            plan,
            rng,
            rpc_index: 0,
            trace: FaultTrace::new(),
        }
    }

    /// The plan driving this injector.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The trace of decisions so far.
    #[must_use]
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Mutable access to the trace (for tamper/churn notes recorded by the
    /// overlay).
    pub fn trace_mut(&mut self) -> &mut FaultTrace {
        &mut self.trace
    }

    /// Decides the fate of one RPC from `from` to `to` at `now`.
    /// `timeout_ticks` is the caller's per-RPC timeout.
    pub fn next_outcome(
        &mut self,
        kind: RpcKind,
        from: UserId,
        to: UserId,
        now: SimTime,
        timeout_ticks: u64,
    ) -> RpcOutcome {
        let index = self.rpc_index;
        self.rpc_index += 1;
        if self.plan.is_quiet() {
            let outcome = RpcOutcome::Delivered { duplicated: false };
            self.trace.record(index, kind, outcome, 0);
            return outcome;
        }
        if self.plan.partition_blocks(from, to, now) {
            let outcome = RpcOutcome::Blocked;
            self.trace.record(index, kind, outcome, 0);
            return outcome;
        }
        if self.plan.drop_rate > 0.0 && self.rng.random::<f64>() < self.plan.drop_rate {
            let outcome = RpcOutcome::Lost;
            self.trace.record(index, kind, outcome, 0);
            return outcome;
        }
        let mut delay_ticks = 0;
        if self.plan.delay_rate > 0.0
            && self.plan.max_delay_ticks > 0
            && self.rng.random::<f64>() < self.plan.delay_rate
        {
            delay_ticks = self.rng.random_range(1..=self.plan.max_delay_ticks);
        }
        if delay_ticks > timeout_ticks {
            let outcome = RpcOutcome::TimedOut;
            self.trace.record(index, kind, outcome, delay_ticks);
            return outcome;
        }
        let duplicated =
            self.plan.duplicate_rate > 0.0 && self.rng.random::<f64>() < self.plan.duplicate_rate;
        let outcome = RpcOutcome::Delivered { duplicated };
        self.trace.record(index, kind, outcome, delay_ticks);
        outcome
    }

    /// Sim-level shortcut: whether one owner-evaluation retrieval is lost
    /// end to end — the owner is churned down, partitioned away from the
    /// viewer, or every one of `retry.max_attempts` attempts is dropped.
    /// Folded into the trace so sim runs are digest-comparable too.
    pub fn retrieval_lost(
        &mut self,
        viewer: UserId,
        owner: UserId,
        now: SimTime,
        retry: &RetryPolicy,
    ) -> bool {
        let index = self.rpc_index;
        self.rpc_index += 1;
        let lost =
            if self.plan.node_down(owner, now) || self.plan.partition_blocks(viewer, owner, now) {
                true
            } else {
                let p = self.plan.effective_loss(retry.max_attempts);
                p > 0.0 && self.rng.random::<f64>() < p
            };
        let outcome = if lost {
            RpcOutcome::Lost
        } else {
            RpcOutcome::Delivered { duplicated: false }
        };
        self.trace.record(index, RpcKind::FindValue, outcome, 0);
        lost
    }

    /// Deterministically corrupts value bytes served by a byzantine node
    /// (flips the trailing byte) and notes the tampering in the trace.
    pub fn tamper(&mut self, bytes: &mut [u8]) {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xff;
        }
        self.trace.note_tamper(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn quiet_plan_always_delivers() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for i in 0..100 {
            let out = inj.next_outcome(RpcKind::Store, u(0), u(i), SimTime::ZERO, 2);
            assert_eq!(out, RpcOutcome::Delivered { duplicated: false });
        }
        assert_eq!(inj.trace().drops, 0);
        assert_eq!(inj.trace().decisions, 100);
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let plan = FaultPlan::message_loss(0.3, 7).with_delay(0.2, 5);
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            for i in 0..500 {
                let _ = inj.next_outcome(RpcKind::FindNode, u(0), u(i), SimTime::ZERO, 2);
            }
            *inj.trace()
        };
        let a = run(plan.clone());
        let b = run(plan.clone());
        assert_eq!(a, b, "same plan replays bit-identically");
        let c = run(plan.with_seed(8));
        assert_ne!(a.digest(), c.digest(), "different seed, different trace");
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut inj = FaultInjector::new(FaultPlan::message_loss(0.25, 1));
        let n = 4000;
        for i in 0..n {
            let _ = inj.next_outcome(RpcKind::FindValue, u(0), u(i), SimTime::ZERO, 2);
        }
        let rate = inj.trace().drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed loss {rate}");
    }

    #[test]
    fn churn_schedule_is_deterministic_and_fractional() {
        let churn = ChurnSchedule::new(SimDuration::from_hours(1), 0.3).immune(u(0));
        let plan = FaultPlan::none().with_seed(42).with_churn(churn);
        let now = SimTime::from_ticks(10_000);
        let down: Vec<bool> = (0..1000).map(|i| plan.node_down(u(i), now)).collect();
        let again: Vec<bool> = (0..1000).map(|i| plan.node_down(u(i), now)).collect();
        assert_eq!(down, again, "membership is stateless");
        assert!(!down[0], "immune user never down");
        let frac = down.iter().filter(|&&d| d).count() as f64 / 1000.0;
        assert!((frac - 0.3).abs() < 0.06, "down fraction {frac}");
        // A different interval churns a different subset.
        let later = SimTime::from_ticks(10_000 + 3600);
        let moved = (0..1000)
            .filter(|&i| plan.node_down(u(i), later) != down[i as usize])
            .count();
        assert!(moved > 0, "churn membership rotates across intervals");
    }

    #[test]
    fn partition_blocks_cross_side_traffic_only_while_active() {
        let partition = Partition {
            start: SimTime::from_ticks(100),
            end: SimTime::from_ticks(200),
            minority_fraction: 0.5,
        };
        let plan = FaultPlan::none().with_seed(3).with_partition(partition);
        // Find one user on each side.
        let minority = (0..100)
            .map(u)
            .find(|&x| plan.partition.as_ref().unwrap().minority_side(3, x))
            .expect("someone lands on the minority side");
        let majority = (0..100)
            .map(u)
            .find(|&x| !plan.partition.as_ref().unwrap().minority_side(3, x))
            .expect("someone lands on the majority side");
        let active = SimTime::from_ticks(150);
        assert!(plan.partition_blocks(minority, majority, active));
        assert!(!plan.partition_blocks(minority, minority, active));
        assert!(!plan.partition_blocks(minority, majority, SimTime::from_ticks(50)));
        assert!(!plan.partition_blocks(minority, majority, SimTime::from_ticks(200)));
    }

    #[test]
    fn delays_beyond_timeout_become_timeouts() {
        let plan = FaultPlan::none().with_seed(5).with_delay(1.0, 10);
        let mut inj = FaultInjector::new(plan);
        let mut timeouts = 0;
        let mut delivered = 0;
        for i in 0..1000 {
            match inj.next_outcome(RpcKind::Store, u(0), u(i), SimTime::ZERO, 4) {
                RpcOutcome::TimedOut => timeouts += 1,
                RpcOutcome::Delivered { .. } => delivered += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(timeouts > 0 && delivered > 0);
        assert_eq!(inj.trace().timeouts, timeouts);
        // Delays 1..=4 delivered, 5..=10 timed out: roughly 60% timeouts.
        let rate = timeouts as f64 / 1000.0;
        assert!((rate - 0.6).abs() < 0.08, "timeout rate {rate}");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff_ticks(0), 1);
        assert_eq!(retry.backoff_ticks(1), 2);
        assert_eq!(retry.backoff_ticks(2), 4);
        assert!(RetryPolicy::no_retry().max_attempts == 1);
    }

    #[test]
    fn tamper_flips_bytes_and_counts() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_byzantine(u(1)));
        assert!(inj.plan().is_byzantine(u(1)));
        assert!(!inj.plan().is_byzantine(u(2)));
        let mut bytes = vec![1u8, 2, 3];
        inj.tamper(&mut bytes);
        assert_eq!(bytes, vec![1, 2, 0x03 ^ 0xff]);
        assert_eq!(inj.trace().tampered, 1);
    }

    #[test]
    fn effective_loss_compounds_over_attempts() {
        let plan = FaultPlan::message_loss(0.1, 0);
        assert!((plan.effective_loss(1) - 0.1).abs() < 1e-12);
        assert!((plan.effective_loss(3) - 0.001).abs() < 1e-12);
        assert_eq!(FaultPlan::none().effective_loss(3), 0.0);
    }
}
