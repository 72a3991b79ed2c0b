//! [`run_cache_sweep`] — a seeded, replayable model of the Eq. 9
//! reputation-cache tier that measures cache-hit ratio, staleness, message
//! volume, and divergence at 10k–100k simulated nodes under a
//! [`FaultPlan`].
//!
//! It models `mdrep_dht::EvaluationCacheTier` rather than driving it: the
//! owner records come from an [`EvaluationStore`] instead of a real
//! overlay, a fill caches whatever *partial* owner list survived the fault
//! plan (the tier refuses to cache partial lists), and gossip pushes go to
//! Zipf-sampled viewers (the tier pushes to uniformly drawn online nodes).
//!
//! # Staleness and divergence model
//!
//! The harness populates an [`EvaluationStore`] with **one-time** votes at
//! tick zero and never re-votes, so every owner's evaluation is a pure
//! function of the query time (implicit-evaluation decay only). That makes
//! two checks exact rather than statistical:
//!
//! - **divergence (gated)**: every cache hit is re-derived record by record
//!   against the authoritative store *at the entry's fill time*. Any
//!   mismatch is a caching bug — the sweep expects `divergent_hits == 0`.
//! - **drift (measured)**: the same hit compared against the authoritative
//!   answer *at the current tick*. Differences here are honest TTL-bounded
//!   staleness, reported as [`CacheSweepReport::drift_hits`].
//!
//! A hit whose age reaches the TTL would violate the cache contract; the
//! sweep counts those into `cache.stale_beyond_ttl` (expected zero — the
//! cache evicts exactly at the expiry tick).
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
//! assert_eq!(report.cache.lookups, 200);
//! assert_eq!(report.cache.divergent_hits, 0);
//! ```

use mdrep::{EvaluationStore, OwnerEvaluation, Params};
use mdrep_dht::{CacheConfig, FaultInjector, FaultPlan, Key, ReputationCache, RetryPolicy};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Cache outcomes of one sweep, aggregated over every viewer's cache.
///
/// The divergence-bounding contract this report carries: every hit's
/// staleness is bounded by the TTL (`stale_beyond_ttl` must stay 0), and
/// every hit is compared against the authoritative evaluation store's
/// answer at its fill time (`verified_hits` vs `divergent_hits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// The TTL in force, in ticks (0 = bypass).
    pub ttl_ticks: u64,
    /// Cache lookups on the Eq. 9 owner-evaluation path.
    pub lookups: u64,
    /// Lookups served from a viewer's cache.
    pub hits: u64,
    /// Lookups that went to the network.
    pub misses: u64,
    /// Entries filled from network retrievals.
    pub inserts: u64,
    /// Entries evicted at or past their expiry tick.
    pub expired_evictions: u64,
    /// Entries evicted by capacity pressure.
    pub lru_evictions: u64,
    /// Hits whose entry age reached the TTL — always 0 by construction;
    /// reported (and SLO-gated) rather than assumed.
    pub stale_beyond_ttl: u64,
    /// Worst hit age observed, in ticks (strictly < `ttl_ticks`).
    pub max_staleness_ticks: u64,
    /// Sum of hit ages in ticks.
    pub sum_staleness_ticks: u64,
    /// Hits cross-checked against the authoritative store.
    pub verified_hits: u64,
    /// Cross-checked hits whose records diverged from the authoritative
    /// answer at fill time.
    pub divergent_hits: u64,
}

impl CacheReport {
    /// Fraction of lookups served from cache (`0.0` when no lookups — the
    /// same zero-not-NaN contract as the other rate helpers).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Mean staleness of served hits in ticks (`0.0` with no hits).
    #[must_use]
    pub fn mean_staleness_ticks(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.sum_staleness_ticks as f64 / self.hits as f64
        }
    }
}

/// Gossip modelling knobs of the sweep: after `hot_threshold` misses of the
/// same file, its freshly fetched evaluations are pushed to `fanout`
/// popularity-sampled viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepGossip {
    /// Targets per push.
    pub fanout: usize,
    /// Misses of one file before it counts as hot.
    pub hot_threshold: u64,
}

impl Default for SweepGossip {
    fn default() -> Self {
        Self {
            fanout: 8,
            hot_threshold: 3,
        }
    }
}

/// Configuration of one cache sweep run. Everything is derived from
/// `seed` — two runs with equal configs produce equal reports, including
/// the fault digest.
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
    /// Per-viewer cache capacity and TTL.
    pub cache: CacheConfig,
    /// Gossip push modelling; `None` disables the dissemination tier.
    pub gossip: Option<SweepGossip>,
    /// Fault plan applied to every owner fetch and gossip push.
    pub fault: Option<FaultPlan>,
    /// Retry budget per owner fetch under the fault plan.
    pub retry: RetryPolicy,
    /// Workload seed (viewer/file sampling and gossip targets).
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
            gossip: Some(SweepGossip::default()),
            fault: None,
            retry: RetryPolicy::default(),
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
    /// Aggregated cache counters plus staleness/divergence accounting.
    pub cache: CacheReport,
    /// Lookups in the steady-state window (second half of the run).
    pub steady_lookups: u64,
    /// Cache hits in the steady-state window.
    pub steady_hits: u64,
    /// Hits whose records differ from the authoritative answer at the
    /// *current* tick — honest TTL-bounded staleness, not a bug.
    pub drift_hits: u64,
    /// Modelled network messages: one per delivered owner fetch,
    /// `retry.max_attempts` per lost fetch, one per gossip push leg.
    pub messages: u64,
    /// Hot-file gossip pushes issued.
    pub gossip_pushes: u64,
    /// Gossip legs that landed a fresh entry in a target's cache.
    pub gossip_prefills: u64,
    /// Owner fetches lost to churn, partition, or exhausted retries.
    pub unreachable_owners: u64,
    /// Digest of the fault trace (0 without a plan). Equal configs must
    /// produce equal digests — the replay-identity check.
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
const VALUE_SALT: u64 = 0x7661_6c75_6573_616c; // "valuesal"
const WORKLOAD_SALT: u64 = 0x776f_726b_6c6f_6164; // "workload"

/// SplitMix64-style avalanche of three words. It resembles the fault
/// layer's private schedule hash but is not the same function (`c` enters
/// rotated here, multiplied there); every sweep number depends on this
/// exact construction.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(43));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform fraction in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Cumulative (unnormalised) Zipf weights `w_i = 1/(i+1)^s`.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    assert!(n > 0, "zipf population must be non-empty");
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    cdf
}

/// One Zipf sample via binary search over the cumulative weights.
fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    let u = rng.random::<f64>() * total;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Runs one seeded cache sweep and returns its report. Deterministic:
/// equal configs give equal reports, including [`CacheSweepReport::fault_digest`].
#[must_use]
pub fn run_cache_sweep(config: &CacheSweepConfig) -> CacheSweepReport {
    assert!(config.nodes > 0 && config.files > 0, "empty population");
    let params = Params::default();

    // One-time votes at tick zero: evaluations drift only by implicit
    // decay, so authoritative answers are reproducible at any past tick.
    let mut evals = EvaluationStore::new();
    let mut owners_of: Vec<Vec<UserId>> = Vec::with_capacity(config.files);
    for f in 0..config.files {
        let f64id = f as u64;
        let mut owners = BTreeSet::new();
        for i in 0..config.owners_per_file {
            owners.insert(UserId::new(
                mix3(config.seed ^ OWNER_SALT, f64id, i as u64) % config.nodes as u64,
            ));
        }
        for (j, &owner) in owners.iter().enumerate() {
            let value = Evaluation::clamped(unit(mix3(config.seed ^ VALUE_SALT, f64id, j as u64)));
            evals.record_vote(SimTime::ZERO, owner, FileId::new(f64id), value);
        }
        owners_of.push(owners.into_iter().collect());
    }

    let mut injector = config.fault.clone().map(FaultInjector::new);
    let mut workload = StdRng::seed_from_u64(config.seed ^ WORKLOAD_SALT);
    let viewer_cdf = zipf_cdf(config.nodes, config.viewer_zipf);
    let file_cdf = zipf_cdf(config.files, config.file_zipf);
    let mut caches: HashMap<UserId, ReputationCache<Vec<OwnerEvaluation>>> = HashMap::new();
    let mut hot: HashMap<FileId, u64> = HashMap::new();

    let ttl_ticks = config.cache.ttl.as_ticks();
    let gossip_retry = RetryPolicy::no_retry();
    let mut report = CacheSweepReport {
        nodes: config.nodes,
        queries: config.queries,
        ..CacheSweepReport::default()
    };
    let mut stale_beyond_ttl = 0u64;
    let mut verified = 0u64;
    let mut divergent = 0u64;

    for q in 0..config.queries {
        let now = SimTime::from_ticks(q as u64 * config.ticks_per_query);
        let steady = q >= config.queries / 2;
        let viewer = UserId::new(sample_zipf(&viewer_cdf, &mut workload) as u64);
        let fidx = sample_zipf(&file_cdf, &mut workload);
        let file = FileId::new(fidx as u64);
        let key = Key::for_file(file);

        if steady {
            report.steady_lookups += 1;
        }
        let cache = caches
            .entry(viewer)
            .or_insert_with(|| ReputationCache::new(config.cache));
        let hit = cache
            .get(&key, now)
            .map(|h| (h.value.clone(), h.cached_at, h.age));
        if let Some((records, cached_at, age)) = hit {
            if steady {
                report.steady_hits += 1;
            }
            if ttl_ticks > 0 && age.as_ticks() >= ttl_ticks {
                stale_beyond_ttl += 1;
            }
            verified += 1;
            // Gated: each record must equal the store's answer at the
            // entry's fill time — anything else is a caching bug.
            let at_fill_ok = records
                .iter()
                .all(|r| evals.evaluation(r.owner, file, cached_at, &params) == Some(r.evaluation));
            if !at_fill_ok {
                divergent += 1;
            }
            // Measured: drift against the answer at the current tick.
            let drifted = records
                .iter()
                .any(|r| evals.evaluation(r.owner, file, now, &params) != Some(r.evaluation));
            if drifted {
                report.drift_hits += 1;
            }
            continue;
        }

        // Miss: fetch each owner's record through the fault layer. Lost
        // owners degrade the fill (partial list), they never error it.
        let mut fetched = Vec::with_capacity(owners_of[fidx].len());
        for &owner in &owners_of[fidx] {
            let lost = injector
                .as_mut()
                .is_some_and(|inj| inj.retrieval_lost(viewer, owner, now, &config.retry));
            if lost {
                report.unreachable_owners += 1;
                report.messages += u64::from(config.retry.max_attempts);
            } else {
                report.messages += 1;
                if let Some(e) = evals.evaluation(owner, file, now, &params) {
                    fetched.push(OwnerEvaluation::new(owner, e));
                }
            }
        }
        caches
            .get_mut(&viewer)
            .expect("created on lookup")
            .insert(key, fetched.clone(), now);

        // Hot files are pushed to popularity-sampled viewers: the heavy
        // hitters most likely to ask next get the entry for free.
        if let Some(gossip) = config.gossip {
            let count = hot.entry(file).or_insert(0);
            *count += 1;
            if *count >= gossip.hot_threshold && !fetched.is_empty() {
                *count = 0;
                report.gossip_pushes += 1;
                for _ in 0..gossip.fanout {
                    let target = UserId::new(sample_zipf(&viewer_cdf, &mut workload) as u64);
                    if target == viewer {
                        continue;
                    }
                    report.messages += 1;
                    let lost = injector
                        .as_mut()
                        .is_some_and(|inj| inj.retrieval_lost(viewer, target, now, &gossip_retry));
                    if lost {
                        continue;
                    }
                    let target_cache = caches
                        .entry(target)
                        .or_insert_with(|| ReputationCache::new(config.cache));
                    if !target_cache.contains_fresh(&key, now) {
                        target_cache.insert(key, fetched.clone(), now);
                        report.gossip_prefills += 1;
                    }
                }
            }
        }
    }

    let mut stats = mdrep_dht::CacheStats::default();
    for cache in caches.values() {
        stats.absorb(&cache.stats());
    }
    report.cache = CacheReport {
        ttl_ticks,
        lookups: stats.lookups,
        hits: stats.hits,
        misses: stats.misses,
        inserts: stats.inserts,
        expired_evictions: stats.expired_evictions,
        lru_evictions: stats.lru_evictions,
        stale_beyond_ttl,
        max_staleness_ticks: stats.max_hit_age_ticks,
        sum_staleness_ticks: stats.sum_hit_age_ticks,
        verified_hits: verified,
        divergent_hits: divergent,
    };
    report.fault_digest = injector.map_or(0, |inj| inj.trace().digest());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_dht::ChurnSchedule;

    fn small(seed: u64) -> CacheSweepConfig {
        CacheSweepConfig {
            nodes: 200,
            files: 40,
            owners_per_file: 4,
            queries: 2_000,
            seed,
            ..CacheSweepConfig::default()
        }
    }

    #[test]
    fn cache_report_rates() {
        let cache = CacheReport {
            lookups: 100,
            hits: 85,
            sum_staleness_ticks: 850,
            ..CacheReport::default()
        };
        assert!((cache.hit_ratio() - 0.85).abs() < 1e-12);
        assert_eq!(cache.mean_staleness_ticks(), 10.0);
        assert_eq!(CacheReport::default().hit_ratio(), 0.0);
        assert_eq!(CacheReport::default().mean_staleness_ticks(), 0.0);
    }

    #[test]
    fn sweep_is_deterministic_including_fault_digest() {
        let config = CacheSweepConfig {
            fault: Some(
                FaultPlan::message_loss(0.1, 7)
                    .with_churn(ChurnSchedule::new(SimDuration::from_mins(5), 0.2)),
            ),
            ..small(9)
        };
        let a = run_cache_sweep(&config);
        let b = run_cache_sweep(&config);
        assert_eq!(a, b, "equal configs must replay bit-identically");
        assert_ne!(a.fault_digest, 0, "fault plan leaves a trace digest");
        let c = run_cache_sweep(&CacheSweepConfig { seed: 10, ..config });
        assert_ne!(
            a.fault_digest, c.fault_digest,
            "different seed, different trace"
        );
    }

    #[test]
    fn hits_never_stale_and_never_divergent() {
        let report = run_cache_sweep(&CacheSweepConfig {
            fault: Some(
                FaultPlan::message_loss(0.1, 11)
                    .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.1)),
            ),
            ..small(11)
        });
        assert_eq!(report.cache.lookups, 2_000);
        assert_eq!(
            report.cache.hits + report.cache.misses,
            report.cache.lookups
        );
        assert_eq!(
            report.cache.stale_beyond_ttl, 0,
            "evicted exactly at expiry"
        );
        assert_eq!(report.cache.verified_hits, report.cache.hits);
        assert_eq!(
            report.cache.divergent_hits, 0,
            "hits match the store at fill time"
        );
        assert!(report.cache.max_staleness_ticks < report.cache.ttl_ticks);
        assert!(report.cache.hits > 0, "skewed workload must produce hits");
        assert!(report.unreachable_owners > 0, "faults must bite");
    }

    #[test]
    fn gossip_prefills_and_lifts_hit_ratio() {
        let without = run_cache_sweep(&CacheSweepConfig {
            gossip: None,
            ..small(5)
        });
        let with = run_cache_sweep(&small(5));
        assert!(with.gossip_pushes > 0);
        assert!(with.gossip_prefills > 0);
        assert!(
            with.cache.hit_ratio() >= without.cache.hit_ratio(),
            "gossip must not hurt the hit ratio: {} < {}",
            with.cache.hit_ratio(),
            without.cache.hit_ratio()
        );
        assert!(with.messages > 0 && without.messages > 0);
    }

    #[test]
    fn ttl_sweep_trades_staleness_for_hits() {
        let short = run_cache_sweep(&CacheSweepConfig {
            cache: CacheConfig {
                ttl: SimDuration::from_mins(1),
                ..small(13).cache
            },
            ..small(13)
        });
        let long = run_cache_sweep(&CacheSweepConfig {
            cache: CacheConfig {
                ttl: SimDuration::from_hours(4),
                ..small(13).cache
            },
            ..small(13)
        });
        assert!(long.cache.hits >= short.cache.hits);
        assert!(long.cache.max_staleness_ticks >= short.cache.max_staleness_ticks);
        assert!(
            long.drift_hits >= short.drift_hits,
            "longer TTL, more drift"
        );
    }
}
