//! Set-up: everything a workload needs before its measured loops start.
//!
//! The timed set-up is trace generation, history ingest, the initial full
//! rebuild, the overlay join of every user and the signed publication of
//! every owner's evaluation of the served files.

use crate::spec::Spec;
use mdrep::{EngineEvent, FileTrustOptions, Params, ReputationEngine, ShardedEngine};
use mdrep_crypto::KeyRegistry;
use mdrep_dht::{
    CacheConfig, CacheTierConfig, ChurnSchedule, Dht, DhtConfig, EvaluationCacheTier, FaultPlan,
    GossipConfig,
};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};
use std::collections::BTreeMap;

/// Ingest shards of the engine under test.
pub const SHARDS: usize = 4;

/// A workload, set up and ready to run.
pub struct World {
    pub spec: Spec,
    pub seed: u64,
    pub trace: Trace,
    /// Index of the first trace event after the history.
    pub live_start: usize,
    /// End of the history: the engine clock of the set-up epoch.
    pub t0: SimTime,
    pub engine: ShardedEngine,
    pub dht: Dht,
    pub registry: KeyRegistry,
    pub tier: EvaluationCacheTier,
    /// Every user, ascending (viewer popularity follows this order).
    pub users: Vec<UserId>,
    /// Files with at least one published evaluation, most-owned first.
    pub files: Vec<FileId>,
    /// Every signed publication, in publication order.
    pub publications: Vec<(UserId, FileId, Evaluation)>,
    /// Publications that no replica acknowledged during set-up.
    pub failed_publications: usize,
}

/// How long the engine keeps evaluations: shorter than a trace, so the
/// trace-replay writer's store reaches a steady size.
pub const EVALUATION_WINDOW: SimDuration = SimDuration::from_days(2);

/// The engine parameters: defaults but for the evaluation window, with
/// `threads` recompute workers. The loops take turns, so the workers of
/// the engine under test may have every core.
pub fn params(threads: usize) -> Params {
    Params::builder()
        .evaluation_interval(EVALUATION_WINDOW)
        .threads(threads)
        .build()
        .expect("engine parameters are valid")
}

/// Eq. 2 pairs at most this many evaluators per file, the replay presets'
/// setting at scale. Pairing is quadratic in a file's evaluators, so
/// without the cap an epoch's cost would hang on how popular the few
/// hottest files of a seed's trace happen to be.
pub const EVALUATOR_CAP: usize = 64;

pub fn options() -> FileTrustOptions {
    FileTrustOptions {
        max_evaluators_per_file: Some(EVALUATOR_CAP),
        ..FileTrustOptions::default()
    }
}

/// The serial, single-shard reference the correctness gate compares with.
pub fn reference_engine() -> ReputationEngine {
    ReputationEngine::with_options(params(1), options())
}

/// The generated trace's configuration: a realistic, polluted population.
/// Titles outlive the trace: with the generator's exponential lifetimes,
/// whether the most popular titles are still alive — and so how many
/// owners the hottest files have, which drives both Eq. 2 and Eq. 9 costs
/// — would otherwise change from seed to seed.
fn trace_config(spec: &Spec, seed: u64) -> WorkloadConfig {
    WorkloadConfig::builder()
        .users(spec.users)
        .titles(spec.titles)
        .days(spec.history_days + spec.live_days)
        .title_lifetime_days(10_000.0)
        .behavior_mix(BehaviorMix::realistic())
        .pollution_rate(0.3)
        .seed(seed)
        .build()
        .expect("workload configuration is valid")
}

fn fault_plan(spec: &Spec, seed: u64) -> FaultPlan {
    match spec.client.faults {
        None => FaultPlan::none(),
        Some(f) => FaultPlan::message_loss(f.loss, seed)
            .with_churn(ChurnSchedule::new(f.churn_period, f.churn_down)),
    }
}

impl World {
    /// Builds the workload from `seed`.
    pub fn setup(spec: Spec, seed: u64, nproc: usize) -> Self {
        let trace = TraceBuilder::new(trace_config(&spec, seed)).generate();
        let t0 = SimTime::ZERO + SimDuration::from_days(spec.history_days);
        let live_start = trace.events().partition_point(|e| e.time < t0);

        let engine = ShardedEngine::with_options(params(nproc), options(), SHARDS);
        for event in &trace.events()[..live_start] {
            engine.observe_trace_event(event, trace.catalog());
        }
        engine.recompute_epoch(t0);

        let mut users: Vec<UserId> = trace.population().iter().map(|p| p.id()).collect();
        users.sort_unstable();
        let mut dht = Dht::new(DhtConfig {
            // Values outlive any run, so republication is never needed to
            // keep them; the tier's batched republication still runs under
            // churn.
            ttl: SimDuration::from_days(365),
            fault: fault_plan(&spec, seed),
            ..DhtConfig::default()
        });
        let mut registry = KeyRegistry::new();
        for &user in &users {
            dht.join(user, t0);
            registry.register(
                user,
                seed ^ user.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
        }

        let publications: Vec<(UserId, FileId, Evaluation)> = engine.with_master(|m| {
            users
                .iter()
                .flat_map(|&u| {
                    m.published_evaluations(u, t0)
                        .into_iter()
                        .map(move |(f, e)| (u, f, e))
                })
                .collect()
        });
        let mut owners: BTreeMap<FileId, usize> = BTreeMap::new();
        for &(_, file, _) in &publications {
            *owners.entry(file).or_default() += 1;
        }
        let mut files: Vec<FileId> = owners.keys().copied().collect();
        files.sort_by_key(|f| std::cmp::Reverse(owners[f]));

        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            cache: CacheConfig {
                capacity: spec.client.cache_capacity,
                ttl: spec.client.cache_ttl,
            },
            gossip: Some(GossipConfig {
                seed,
                ..GossipConfig::default()
            }),
            republish_interval: SimDuration::from_days(30),
        });
        let mut failed_publications = 0;
        for &(owner, file, evaluation) in &publications {
            let key = registry.key_of(owner).expect("every user is registered");
            if tier
                .publish(&mut dht, key, owner, file, evaluation, t0)
                .is_err()
            {
                failed_publications += 1;
            }
        }
        if spec.client.faults.is_some() {
            // Stamps every publisher's republication, so the churn ticks
            // of the measured loop only repair publishers churn skipped.
            tier.tick(&mut dht, t0);
        }

        Self {
            spec,
            seed,
            trace,
            live_start,
            t0,
            engine,
            dht,
            registry,
            tier,
            users,
            files,
            publications,
            failed_publications,
        }
    }

    /// The history as engine events, in ingest order.
    pub fn history(&self) -> impl Iterator<Item = EngineEvent> + '_ {
        self.trace.events()[..self.live_start]
            .iter()
            .filter_map(|e| EngineEvent::from_trace(e, self.trace.catalog()))
    }
}
