//! Trust-based incentive mechanism: service differentiation (Section 3.4).
//!
//! > *"These users add to their request time a negative offset whose
//! > magnitude grows with their reputation. In contrast, a bandwidth quota
//! > is applied to downloads of users with lower reputations."*
//!
//! [`ServicePolicy`] maps a requester's reputation (as seen by the
//! uploader) to a [`ServiceDecision`]: how far the request jumps ahead in
//! the upload queue and what fraction of the uploader's bandwidth it may
//! consume. Uploading real files, voting, ranking honestly, and deleting
//! fakes quickly all raise reputation and therefore buy better service —
//! that feedback loop is the whole point of combining trust with incentive.

use crate::reputation::ReputationMatrix;
use mdrep_types::{SimDuration, UserId};
use std::fmt;

/// The service an uploader grants one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceDecision {
    /// How much earlier than its arrival time the request is treated in the
    /// waiting queue (the paper's "negative offset"). Zero for strangers.
    pub queue_offset: SimDuration,
    /// Fraction of the per-slot bandwidth this downloader may use, in
    /// `(0, 1]`. Below 1 is the paper's "bandwidth quota".
    pub bandwidth_fraction: f64,
}

impl ServiceDecision {
    /// Whether the request is throttled (quota below full bandwidth).
    #[must_use]
    pub fn is_throttled(&self) -> bool {
        self.bandwidth_fraction < 1.0
    }
}

impl fmt::Display for ServiceDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offset −{}, bandwidth {:.0}%",
            self.queue_offset,
            self.bandwidth_fraction * 100.0
        )
    }
}

/// Policy parameters of the service-differentiation mechanism.
///
/// The mapping from reputation `r ∈ [0, 1]` (relative to the uploader's
/// best-known peer) is:
///
/// - queue offset: `r · max_offset` — grows with reputation;
/// - bandwidth: full above `quota_threshold`, otherwise scaled linearly
///   down to `min_bandwidth_fraction` at `r = 0`.
///
/// # Examples
///
/// ```
/// use mdrep::ServicePolicy;
/// use mdrep_types::SimDuration;
///
/// let policy = ServicePolicy::default();
/// let vip = policy.decide_scaled(1.0);
/// let stranger = policy.decide_scaled(0.0);
/// assert!(vip.queue_offset > stranger.queue_offset);
/// assert!(stranger.is_throttled());
/// assert!(!vip.is_throttled());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePolicy {
    max_offset: SimDuration,
    quota_threshold: f64,
    min_bandwidth_fraction: f64,
}

impl Default for ServicePolicy {
    /// One hour of maximum queue jump; full bandwidth above relative
    /// reputation 0.3; strangers floor at 20% bandwidth.
    fn default() -> Self {
        Self {
            max_offset: SimDuration::from_hours(1),
            quota_threshold: 0.3,
            min_bandwidth_fraction: 0.2,
        }
    }
}

impl ServicePolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics when `quota_threshold ∉ [0, 1]` or
    /// `min_bandwidth_fraction ∉ (0, 1]`.
    #[must_use]
    pub fn new(max_offset: SimDuration, quota_threshold: f64, min_bandwidth_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&quota_threshold),
            "quota threshold must lie in [0, 1]"
        );
        assert!(
            min_bandwidth_fraction > 0.0 && min_bandwidth_fraction <= 1.0,
            "minimum bandwidth fraction must lie in (0, 1]"
        );
        Self {
            max_offset,
            quota_threshold,
            min_bandwidth_fraction,
        }
    }

    /// The maximum queue jump.
    #[must_use]
    pub fn max_offset(&self) -> SimDuration {
        self.max_offset
    }

    /// Decides service from an already-scaled relative reputation
    /// `r ∈ [0, 1]` (1 = the uploader's most-trusted peer).
    #[must_use]
    pub fn decide_scaled(&self, r: f64) -> ServiceDecision {
        let r = if r.is_finite() {
            r.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let queue_offset = SimDuration::from_ticks((self.max_offset.as_ticks() as f64 * r) as u64);
        let bandwidth_fraction = if r >= self.quota_threshold {
            1.0
        } else {
            let span = 1.0 - self.min_bandwidth_fraction;
            self.min_bandwidth_fraction + span * (r / self.quota_threshold.max(f64::MIN_POSITIVE))
        };
        ServiceDecision {
            queue_offset,
            bandwidth_fraction,
        }
    }

    /// Blends the relative reputation with a [contribution
    /// score](crate::ContributionLedger) before deciding — the direct
    /// reading of Section 3.4's "uploading real files, voting on files and
    /// ranking other users honestly and even deleting fake files quicker
    /// can increase a user's reputation and give him better service".
    /// `contribution_weight ∈ [0, 1]` sets how much of the effective
    /// reputation the contribution score can supply.
    ///
    /// # Panics
    ///
    /// Panics when `contribution_weight` is outside `[0, 1]`.
    #[must_use]
    pub fn decide_with_contribution(
        &self,
        relative_reputation: f64,
        contribution_score: f64,
        contribution_weight: f64,
    ) -> ServiceDecision {
        assert!(
            (0.0..=1.0).contains(&contribution_weight),
            "contribution weight must lie in [0, 1]"
        );
        let r = relative_reputation.clamp(0.0, 1.0);
        let c = contribution_score.clamp(0.0, 1.0);
        let effective = ((1.0 - contribution_weight) * r + contribution_weight * c)
            .max(r * (1.0 - contribution_weight));
        self.decide_scaled(effective)
    }

    /// The multi-tier incentive scheme of Lian et al. that the paper builds
    /// on: "the smaller level the user belongs to, the higher priority they
    /// are given. Within the same tier, two peers will be ranked according
    /// to their values in the matrix of that tier."
    ///
    /// Tier `1` of `max_tiers` maps near `r = 1`; each deeper tier drops by
    /// one band of width `1 / max_tiers`; the in-tier matrix value orders
    /// requesters inside the band. `None` (unreachable) is a stranger.
    ///
    /// # Panics
    ///
    /// Panics when `max_tiers == 0`.
    #[must_use]
    pub fn decide_tiered(
        &self,
        tier: Option<crate::reputation::TrustTier>,
        max_tiers: u32,
    ) -> ServiceDecision {
        assert!(max_tiers >= 1, "at least one tier is required");
        match tier {
            None => self.decide_scaled(0.0),
            Some(t) => {
                let band = 1.0 / f64::from(max_tiers);
                let level = t.level.clamp(1, max_tiers);
                let base = f64::from(max_tiers - level) * band;
                let within = t.value.clamp(0.0, 1.0) * band;
                self.decide_scaled(base + within)
            }
        }
    }

    /// Decides service for `requester` as seen by `uploader`, scaling the
    /// raw `RM` entry by the uploader's largest outgoing reputation so that
    /// "my most trusted peer" always maps to `r = 1`.
    #[must_use]
    pub fn decide(
        &self,
        rm: &ReputationMatrix,
        uploader: UserId,
        requester: UserId,
    ) -> ServiceDecision {
        let raw = rm.reputation(uploader, requester);
        let row_max = rm.row_max(uploader);
        let r = if row_max > 0.0 { raw / row_max } else { 0.0 };
        self.decide_scaled(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use mdrep_matrix::SparseMatrix;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn offset_grows_with_reputation() {
        let policy = ServicePolicy::default();
        let low = policy.decide_scaled(0.2);
        let high = policy.decide_scaled(0.9);
        assert!(high.queue_offset > low.queue_offset);
        assert_eq!(policy.decide_scaled(1.0).queue_offset, policy.max_offset());
        assert_eq!(policy.decide_scaled(0.0).queue_offset, SimDuration::ZERO);
    }

    #[test]
    fn quota_kicks_in_below_threshold() {
        let policy = ServicePolicy::default(); // threshold 0.3, floor 0.2
        assert_eq!(policy.decide_scaled(0.5).bandwidth_fraction, 1.0);
        assert_eq!(policy.decide_scaled(0.3).bandwidth_fraction, 1.0);
        let throttled = policy.decide_scaled(0.15);
        assert!(throttled.is_throttled());
        assert!((throttled.bandwidth_fraction - 0.6).abs() < 1e-12);
        assert!((policy.decide_scaled(0.0).bandwidth_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn non_finite_reputation_is_stranger() {
        let policy = ServicePolicy::default();
        let d = policy.decide_scaled(f64::NAN);
        assert_eq!(d.queue_offset, SimDuration::ZERO);
        assert!((d.bandwidth_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn decide_scales_by_row_maximum() {
        let mut tm = SparseMatrix::new();
        tm.set(u(0), u(1), 0.6).unwrap();
        tm.set(u(0), u(2), 0.3).unwrap();
        let rm = crate::reputation::ReputationMatrix::compute_csr(
            mdrep_matrix::CsrMatrix::freeze(&tm),
            &Params::default(),
        );
        let policy = ServicePolicy::default();

        let best = policy.decide(&rm, u(0), u(1));
        let half = policy.decide(&rm, u(0), u(2));
        let stranger = policy.decide(&rm, u(0), u(9));

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
    }

    #[test]
    fn uploader_with_no_trust_throttles_everyone() {
        let tm = SparseMatrix::new();
        let rm = crate::reputation::ReputationMatrix::compute_csr(
            mdrep_matrix::CsrMatrix::freeze(&tm),
            &Params::default(),
        );
        let policy = ServicePolicy::default();
        let d = policy.decide(&rm, u(0), u(1));
        assert!(d.is_throttled());
        assert_eq!(d.queue_offset, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "quota threshold")]
    fn bad_threshold_panics() {
        let _ = ServicePolicy::new(SimDuration::from_hours(1), 1.5, 0.2);
    }

    #[test]
    #[should_panic(expected = "bandwidth fraction")]
    fn bad_floor_panics() {
        let _ = ServicePolicy::new(SimDuration::from_hours(1), 0.3, 0.0);
    }

    #[test]
    fn zero_threshold_means_no_quota() {
        let policy = ServicePolicy::new(SimDuration::from_hours(1), 0.0, 0.5);
        assert_eq!(policy.decide_scaled(0.0).bandwidth_fraction, 1.0);
        assert_eq!(policy.decide_scaled(0.7).bandwidth_fraction, 1.0);
    }

    #[test]
    fn tiered_decision_orders_by_level_then_value() {
        use crate::reputation::TrustTier;
        let policy = ServicePolicy::default();
        let t1_low = policy.decide_tiered(
            Some(TrustTier {
                level: 1,
                value: 0.1,
            }),
            3,
        );
        let t1_high = policy.decide_tiered(
            Some(TrustTier {
                level: 1,
                value: 0.9,
            }),
            3,
        );
        let t2_high = policy.decide_tiered(
            Some(TrustTier {
                level: 2,
                value: 0.9,
            }),
            3,
        );
        let t3 = policy.decide_tiered(
            Some(TrustTier {
                level: 3,
                value: 0.9,
            }),
            3,
        );
        let none = policy.decide_tiered(None, 3);
        // Any tier-1 beats any tier-2 beats any tier-3 beats strangers.
        assert!(t1_low.queue_offset > t2_high.queue_offset);
        assert!(t2_high.queue_offset > t3.queue_offset);
        assert!(t3.queue_offset >= none.queue_offset);
        // Within a tier, value orders.
        assert!(t1_high.queue_offset > t1_low.queue_offset);
        assert_eq!(none.queue_offset, SimDuration::ZERO);
    }

    #[test]
    fn tiered_decision_clamps_deep_levels() {
        use crate::reputation::TrustTier;
        let policy = ServicePolicy::default();
        // A tier deeper than max_tiers is treated as the deepest band.
        let deep = policy.decide_tiered(
            Some(TrustTier {
                level: 9,
                value: 0.5,
            }),
            3,
        );
        let deepest = policy.decide_tiered(
            Some(TrustTier {
                level: 3,
                value: 0.5,
            }),
            3,
        );
        assert_eq!(deep, deepest);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn zero_tiers_panics() {
        let _ = ServicePolicy::default().decide_tiered(None, 0);
    }

    #[test]
    fn decision_display() {
        let d = ServicePolicy::default().decide_scaled(0.0);
        assert!(d.to_string().contains("bandwidth 20%"));
    }
}
