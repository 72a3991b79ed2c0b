//! Seed-matrixed staleness/churn harness for the reputation-cache tier
//! (the CI `cache-gate` companion): for each seed, a cache sweep under
//! 10% message loss plus churn waves (and, in a second scenario, a timed
//! partition) must
//!
//! - keep the steady-state cache-hit ratio at or above the gate floor,
//! - never serve a hit at or beyond its TTL,
//! - never serve a hit diverging from the authoritative store at fill
//!   time, and
//! - replay bit-identically from its seed (report and fault digest).

use mdrep_repro::dht::{CacheConfig, ChurnSchedule, FaultPlan, Partition};
use mdrep_repro::sim::{run_cache_sweep, CacheSweepConfig, CacheSweepReport};
use mdrep_repro::types::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [101, 202, 303];
/// Steady-state hit-ratio floor (the release-mode gate in
/// `exp_cache_sweep` holds 0.8 at 10k nodes; this smaller debug-mode
/// matrix keeps the same floor).
const HIT_RATIO_FLOOR: f64 = 0.8;

fn matrix_config(seed: u64, plan: FaultPlan) -> CacheSweepConfig {
    CacheSweepConfig {
        nodes: 4_000,
        queries: 16_000,
        viewer_zipf: 1.8,
        file_zipf: 1.5,
        cache: CacheConfig {
            capacity: 1024,
            ttl: SimDuration::from_hours(1),
        },
        fault: Some(plan),
        seed,
        ..CacheSweepConfig::default()
    }
}

fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::message_loss(0.1, seed)
        .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.1))
}

fn partition_plan(seed: u64) -> FaultPlan {
    churn_plan(seed).with_partition(Partition {
        start: SimTime::ZERO + SimDuration::from_hours(1),
        end: SimTime::ZERO + SimDuration::from_hours(3),
        minority_fraction: 0.2,
    })
}

fn assert_bounds(scenario: &str, seed: u64, report: &CacheSweepReport) {
    assert!(
        report.steady_hit_ratio() >= HIT_RATIO_FLOOR,
        "{scenario} seed {seed}: steady hit ratio {:.3} < {HIT_RATIO_FLOOR}",
        report.steady_hit_ratio()
    );
    assert_eq!(
        report.cache.stale_beyond_ttl, 0,
        "{scenario} seed {seed}: hits served at/beyond TTL"
    );
    assert_eq!(
        report.cache.verified_hits, report.cache.hits,
        "{scenario} seed {seed}: every hit must be cross-checked"
    );
    assert_eq!(
        report.cache.divergent_hits, 0,
        "{scenario} seed {seed}: hit diverged from the store at fill time"
    );
    assert!(
        report.cache.max_staleness_ticks < report.cache.ttl_ticks,
        "{scenario} seed {seed}: staleness {} reached ttl {}",
        report.cache.max_staleness_ticks,
        report.cache.ttl_ticks
    );
    assert_eq!(
        report.cache.hits + report.cache.misses,
        report.cache.lookups,
        "{scenario} seed {seed}: lookup accounting must balance"
    );
    assert!(
        report.unreachable_owners > 0,
        "{scenario} seed {seed}: the fault plan must actually bite"
    );
}

#[test]
fn churn_matrix_holds_hit_ratio_and_staleness_bounds() {
    for seed in SEEDS {
        let config = matrix_config(seed, churn_plan(seed));
        let report = run_cache_sweep(&config);
        assert_bounds("churn", seed, &report);
        let replay = run_cache_sweep(&config);
        assert_eq!(
            report, replay,
            "churn seed {seed}: same seed must replay bit-identically"
        );
        assert_eq!(report.fault_digest, replay.fault_digest);
    }
}

#[test]
fn partition_matrix_degrades_but_stays_fresh() {
    for seed in SEEDS {
        let config = matrix_config(seed, partition_plan(seed));
        let report = run_cache_sweep(&config);
        assert_bounds("partition", seed, &report);
        // The partition must cost strictly more owner fetches than churn
        // alone — and still never a stale or divergent serve.
        let churn_only = run_cache_sweep(&matrix_config(seed, churn_plan(seed)));
        assert!(
            report.unreachable_owners > churn_only.unreachable_owners,
            "partition seed {seed}: expected extra unreachable owners"
        );
    }
}

#[test]
fn distinct_seeds_leave_distinct_fault_traces() {
    let a = run_cache_sweep(&matrix_config(SEEDS[0], churn_plan(SEEDS[0])));
    let b = run_cache_sweep(&matrix_config(SEEDS[1], churn_plan(SEEDS[1])));
    assert_ne!(a.fault_digest, b.fault_digest);
    assert_ne!(a.fault_digest, 0);
}
