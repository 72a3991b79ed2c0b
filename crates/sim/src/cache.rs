//! [`run_cache_sweep`] — a seeded, replayable sweep of the Eq. 9
//! evaluation cache tier at 10k–30k simulated nodes. It measures cache-hit
//! ratio, staleness, message volume and divergence under a
//! [`FaultPlan`].
//!
//! The sweep drives the tier that ships: every lookup is an
//! [`EvaluationCacheTier::retrieve`] over a real [`Dht`], owners sign and
//! publish through [`EvaluationCacheTier::publish`], churn and
//! republication go through [`Dht::apply_churn`] and
//! [`EvaluationCacheTier::tick`], and every fault comes from the overlay's
//! own plan and retry policy. The sweep adds no cache, fault or gossip
//! logic of its own; it only picks who asks about what, and checks the
//! answers.
//!
//! # Staleness and divergence
//!
//! Every owner publishes one signed record per file at tick zero and never
//! re-votes, so the right answer for a file never changes. That makes two
//! checks exact rather than statistical:
//!
//! - **divergence**: every served record of every cache hit must be a
//!   valid record byte-equal to one its owner published for that file.
//!   Any other record counts the hit into
//!   [`CacheSweepReport::divergent_hits`] (expected zero).
//! - **staleness**: a hit whose age reaches the TTL counts into
//!   [`CacheSweepReport::stale_hits`] (expected zero — the cache evicts
//!   exactly at the expiry tick).
//!
//! A query whose viewer is offline (churned down) is skipped and counted,
//! so `cache.lookups + offline_viewers == queries`.
//!
//! # Examples
//!
//! ```
//! use mdrep_sim::{run_cache_sweep, CacheSweepConfig};
//!
//! let config = CacheSweepConfig {
//!     nodes: 50,
//!     files: 10,
//!     queries: 200,
//!     ..CacheSweepConfig::default()
//! };
//! let report = run_cache_sweep(&config);
//! assert_eq!(report.cache.lookups + report.offline_viewers, 200);
//! assert_eq!(report.divergent_hits, 0);
//! ```

use mdrep_crypto::KeyRegistry;
use mdrep_dht::{
    CacheConfig, CacheStats, CacheTierConfig, Dht, DhtConfig, EvaluationCacheTier, EvaluationInfo,
    FaultPlan, GossipConfig, GossipStats, RetrievalSource,
};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use mdrep_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Configuration of one cache sweep run. Everything is derived from
/// `seed` and the fault plan's own seed — two runs with equal configs
/// produce equal reports, including the fault digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepConfig {
    /// Simulated population (viewers and owners share the id space).
    pub nodes: usize,
    /// Distinct files queried.
    pub files: usize,
    /// Owners publishing an evaluation per file (before dedup).
    pub owners_per_file: usize,
    /// Eq. 9 queries issued.
    pub queries: usize,
    /// Sim-time advance per query, in ticks.
    pub ticks_per_query: u64,
    /// Zipf exponent of viewer popularity (who asks).
    pub viewer_zipf: f64,
    /// Zipf exponent of file popularity (what they ask about).
    pub file_zipf: f64,
    /// Per-node cache capacity and TTL of the tier.
    pub cache: CacheConfig,
    /// The overlay's fault plan (the overlay's default retry policy
    /// applies).
    pub fault: FaultPlan,
    /// Workload seed (owners, their evaluations, viewer/file sampling).
    pub seed: u64,
}

impl Default for CacheSweepConfig {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            files: 512,
            owners_per_file: 8,
            queries: 20_000,
            ticks_per_query: 1,
            viewer_zipf: 1.2,
            file_zipf: 1.2,
            cache: CacheConfig {
                capacity: 256,
                ttl: SimDuration::from_hours(1),
            },
            fault: FaultPlan::none(),
            seed: 42,
        }
    }
}

/// What one cache sweep measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSweepReport {
    /// Population size the sweep ran with.
    pub nodes: usize,
    /// Queries issued.
    pub queries: usize,
    /// Queries skipped because their viewer was offline.
    pub offline_viewers: u64,
    /// The tier's cache counters, summed over every node's cache.
    pub cache: CacheStats,
    /// The TTL in force, in ticks (0 = bypass).
    pub ttl_ticks: u64,
    /// Hits whose age reached the TTL (expected 0).
    pub stale_hits: u64,
    /// Hits checked against the records their owners published.
    pub verified_hits: u64,
    /// Checked hits serving a record no owner published for that file
    /// (expected 0).
    pub divergent_hits: u64,
    /// Lookups in the steady-state window (second half of the run).
    pub steady_lookups: u64,
    /// Cache hits in the steady-state window.
    pub steady_hits: u64,
    /// Overlay messages sent while queries ran: lookups, retrievals,
    /// republication and gossip.
    pub messages: u64,
    /// The tier's gossip counters.
    pub gossip: GossipStats,
    /// Replica holders that network retrievals could not reach.
    pub unreachable_holders: u64,
    /// Network retrievals served but not cached because a holder was
    /// unreachable.
    pub uncacheable_partial: u64,
    /// Digest of the overlay's fault trace. Equal configs must produce
    /// equal digests — the replay-identity check.
    pub fault_digest: u64,
}

impl CacheSweepReport {
    /// Hit ratio over the steady-state window (`0.0` when empty).
    #[must_use]
    pub fn steady_hit_ratio(&self) -> f64 {
        if self.steady_lookups == 0 {
            0.0
        } else {
            self.steady_hits as f64 / self.steady_lookups as f64
        }
    }
}

const OWNER_SALT: u64 = 0x6f77_6e65_7273_616c; // "ownersal"
const WORKLOAD_SALT: u64 = 0x776f_726b_6c6f_6164; // "workload"
/// Sim-time between two maintenance passes (`apply_churn` + `tick`).
const MAINTENANCE_TICKS: u64 = 60;
/// The tier's hot-file gossip in every sweep.
const GOSSIP: GossipConfig = GossipConfig {
    fanout: 8,
    hot_threshold: 3,
    seed: 0,
};

/// Runs one seeded cache sweep and returns its report. Deterministic:
/// equal configs give equal reports, including
/// [`CacheSweepReport::fault_digest`].
///
/// # Panics
///
/// Panics on an empty population, a negative or non-finite Zipf exponent,
/// or if the overlay fails a retrieval by an online viewer.
#[must_use]
pub fn run_cache_sweep(config: &CacheSweepConfig) -> CacheSweepReport {
    let viewers = ZipfSampler::new(config.nodes, config.viewer_zipf).expect("viewer population");
    let files = ZipfSampler::new(config.files, config.file_zipf).expect("file population");
    let mut dht = Dht::new(DhtConfig {
        fault: config.fault.clone(),
        ..DhtConfig::default()
    });
    for i in 0..config.nodes {
        dht.join(UserId::new(i as u64), SimTime::ZERO);
    }

    // One signed record per (owner, file), published once at tick zero:
    // the right answer for a file never changes, so every hit is checked
    // exactly.
    let mut tier = EvaluationCacheTier::new(CacheTierConfig {
        cache: config.cache,
        gossip: Some(GOSSIP),
        ..CacheTierConfig::default()
    });
    let mut registry = KeyRegistry::new();
    let mut published: Vec<Vec<EvaluationInfo>> = Vec::with_capacity(config.files);
    let mut owner_rng = StdRng::seed_from_u64(config.seed ^ OWNER_SALT);
    for f in 0..config.files {
        let file = FileId::new(f as u64);
        let owners: BTreeSet<u64> = (0..config.owners_per_file)
            .map(|_| owner_rng.random_range(0..config.nodes as u64))
            .collect();
        let mut records = Vec::with_capacity(owners.len());
        for owner in owners.into_iter().map(UserId::new) {
            let key = registry.register(owner, config.seed);
            let evaluation = Evaluation::clamped(owner_rng.random::<f64>());
            // A store no replica acknowledged is still recorded for
            // republication, which repairs it once the overlay answers.
            let _ = tier.publish(&mut dht, &key, owner, file, evaluation, SimTime::ZERO);
            records.push(EvaluationInfo::signed(file, owner, evaluation, &key));
        }
        published.push(records);
    }
    dht.reset_stats();

    let ttl_ticks = config.cache.ttl.as_ticks();
    let mut workload = StdRng::seed_from_u64(config.seed ^ WORKLOAD_SALT);
    let mut report = CacheSweepReport {
        nodes: config.nodes,
        queries: config.queries,
        ttl_ticks,
        ..CacheSweepReport::default()
    };
    let mut next_maintenance = SimTime::ZERO;
    for q in 0..config.queries {
        let now = SimTime::from_ticks(q as u64 * config.ticks_per_query);
        if now >= next_maintenance {
            dht.apply_churn(now);
            tier.tick(&mut dht, now);
            next_maintenance = now + SimDuration::from_ticks(MAINTENANCE_TICKS);
        }
        let viewer = UserId::new(viewers.sample(&mut workload) as u64);
        let fidx = files.sample(&mut workload);
        if !dht.is_online(viewer) {
            report.offline_viewers += 1;
            continue;
        }
        let steady = q >= config.queries / 2;
        if steady {
            report.steady_lookups += 1;
        }
        let got = tier
            .retrieve(&mut dht, &registry, viewer, FileId::new(fidx as u64), now)
            .expect("an online viewer's retrieval answers");
        let RetrievalSource::Cache { age } = got.source else {
            continue;
        };
        if steady {
            report.steady_hits += 1;
        }
        report.verified_hits += 1;
        if age.as_ticks() >= ttl_ticks {
            report.stale_hits += 1;
        }
        let expected = &published[fidx];
        if !got
            .records
            .iter()
            .all(|r| r.valid && expected.contains(&r.info))
        {
            report.divergent_hits += 1;
        }
    }

    report.cache = tier.cache_stats();
    report.messages = dht.stats().total();
    report.gossip = tier.gossip_stats();
    report.unreachable_holders = tier.unreachable_holders();
    report.uncacheable_partial = tier.uncacheable_partial();
    report.fault_digest = dht.fault_trace().digest();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_dht::ChurnSchedule;

    fn small(seed: u64, fault: FaultPlan) -> CacheSweepConfig {
        CacheSweepConfig {
            nodes: 200,
            files: 40,
            owners_per_file: 4,
            queries: 2_000,
            fault,
            seed,
            ..CacheSweepConfig::default()
        }
    }

    fn churn(seed: u64) -> FaultPlan {
        FaultPlan::message_loss(0.1, seed)
            .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.1))
    }

    #[test]
    fn steady_hit_ratio_is_zero_not_nan_when_empty() {
        assert_eq!(CacheSweepReport::default().steady_hit_ratio(), 0.0);
        let report = CacheSweepReport {
            steady_lookups: 100,
            steady_hits: 85,
            ..CacheSweepReport::default()
        };
        assert!((report.steady_hit_ratio() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_deterministic_including_fault_digest() {
        let config = small(9, churn(7));
        let a = run_cache_sweep(&config);
        let b = run_cache_sweep(&config);
        assert_eq!(a, b, "equal configs must replay bit-identically");
        let c = run_cache_sweep(&small(10, churn(8)));
        assert_ne!(
            a.fault_digest, c.fault_digest,
            "different seed, different trace"
        );
    }

    #[test]
    fn hits_never_stale_and_never_divergent() {
        let report = run_cache_sweep(&small(11, churn(11)));
        assert_eq!(report.cache.lookups + report.offline_viewers, 2_000);
        assert!(report.offline_viewers > 0, "churn takes viewers down");
        assert_eq!(
            report.cache.hits + report.cache.misses,
            report.cache.lookups
        );
        assert_eq!(report.stale_hits, 0, "evicted exactly at expiry");
        assert_eq!(report.verified_hits, report.cache.hits);
        assert_eq!(report.divergent_hits, 0, "hits match the published records");
        assert!(report.cache.max_hit_age_ticks < report.ttl_ticks);
        assert!(report.cache.hits > 0, "skewed workload must produce hits");
        assert!(report.unreachable_holders > 0, "faults must bite");
        assert!(report.gossip.pushes > 0 && report.messages > 0);
    }

    #[test]
    fn ttl_sweep_trades_staleness_for_hits() {
        let with_ttl = |mins| {
            let mut config = small(13, FaultPlan::none());
            config.cache.ttl = SimDuration::from_mins(mins);
            run_cache_sweep(&config)
        };
        let short = with_ttl(1);
        let long = with_ttl(240);
        assert!(long.cache.hits > short.cache.hits);
        assert!(long.cache.max_hit_age_ticks > short.cache.max_hit_age_ticks);
        assert_eq!(long.unreachable_holders, 0, "a quiet plan loses nothing");
    }
}
