//! The measured loops: a closed-loop writer (ingest a batch, then one
//! epoch) and a closed-loop client (one decision at a time), taking turns
//! on one thread. Turns keep the client's timings free of the writer's
//! interference on a shared core, and let the writer's recompute use every
//! core while it runs.
//!
//! Every layer is timed from outside, around calls into its public API.
//! The untraced pass takes one clock reading around each decision and each
//! epoch; the traced pass adds one around every layer call.
//!
//! What the loops log stays the same size however far a run gets: timings
//! go into one-second windows of bounded samples, the writer keeps one
//! small record per epoch (the gate regenerates the batches from the
//! seed), and the decisions kept for the gate are thinned as epochs pass.

use crate::report::{self, Reservoir};
use crate::spec::{ClientSpec, Requests, WriterKind};
use crate::world::World;
use mdrep::{DownloadDecision, EngineEvent, OwnerEvaluation, RecomputeMode, ServicePolicy};
use mdrep::{ShardedEngine, SnapshotReader};
use mdrep_crypto::KeyRegistry;
use mdrep_dht::{Dht, EvaluationCacheTier, RetrievalSource};
use mdrep_types::{Evaluation, FileId, SimTime, UserId};
use mdrep_workload::{Catalog, Trace, TraceEvent, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// How long a pass runs. A pass alternates the client's decisions with one
/// writer epoch on one thread, so a seed fixes the sequence of operations
/// and the budget only decides how much of it runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the wall-clock budget is spent (the cycle in progress ends).
    Wall(Duration),
    /// Exactly this many cycles (the benchmark's own tests).
    #[cfg(test)]
    Epochs(usize),
}

/// Length of one timing window.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// The window `at_ns` (from the start of the pass) falls in.
fn window<T: Default>(windows: &mut Vec<T>, at_ns: u64) -> &mut T {
    let i = usize::try_from(at_ns / WINDOW_NS).unwrap_or(usize::MAX);
    if windows.len() <= i {
        windows.resize_with(i + 1, T::default);
    }
    &mut windows[i]
}

/// One published epoch of a pass.
pub struct EpochLog {
    pub epoch: u64,
    pub now: SimTime,
    /// Events the epoch folded in.
    pub events: usize,
    /// Wall time of the expiry.
    pub expire_ns: u64,
    /// Wall time of `recompute_epoch`.
    pub epoch_ns: u64,
    /// Traced pass only: what the engine reports about the recompute.
    pub detail: Option<EpochDetail>,
}

/// The engine's own account of one recompute, read after it returned.
pub struct EpochDetail {
    pub mode: RecomputeMode,
    pub dirty_rows: usize,
    pub rows: usize,
    pub publish_rows: usize,
    pub publish_bytes: usize,
    /// max/mean of the shard queue depths just before the epoch.
    pub shard_skew: f64,
}

/// The writer's figures for the epochs published in one window.
#[derive(Default)]
pub struct WriterWindow {
    pub events: u64,
    /// Expiry, ingest and recompute of those epochs.
    pub busy_ns: u64,
    /// Per event: `observe_*` call to the publish.
    pub lag_ns: Reservoir,
}

/// Everything the writer measured.
#[derive(Default)]
pub struct WriterLog {
    pub epochs: Vec<EpochLog>,
    pub windows: Vec<WriterWindow>,
    /// Traced pass only: each `observe_*` call.
    pub ingest_call_ns: Reservoir,
    /// The process's peak RSS in MB once `Spec::rss_epochs` epochs were
    /// published.
    pub peak_rss_mb: Option<f64>,
}

impl WriterLog {
    pub fn events(&self) -> u64 {
        self.epochs.iter().map(|e| e.events as u64).sum()
    }

    pub fn busy_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.busy_ns).sum()
    }
}

/// A decision kept for the correctness gate.
pub struct Sampled {
    pub epoch: u64,
    pub viewer: UserId,
    pub owners: Vec<OwnerEvaluation>,
    pub verdict: DownloadDecision,
}

/// Everything the client measured.
#[derive(Default)]
pub struct ClientLog {
    pub decisions: u64,
    /// Retrievals that returned `Err`.
    pub failed: u64,
    /// Decisions that reached Accept or Reject.
    pub verdicts: u64,
    /// Accept on a fake file or Reject on an authentic one.
    pub verdict_errors: u64,
    pub unknown: u64,
    pub throttled: u64,
    pub services: u64,
    pub owners: u64,
    pub hits: u64,
    /// Cache hits whose age reached the TTL (must stay 0).
    pub stale_hits: u64,
    pub network: u64,
    /// Network retrievals with at least one unreachable replica holder.
    pub partial: u64,
    /// Per window, by when the decision started: decision latencies.
    pub windows: Vec<Reservoir>,
    pub sampled: Vec<Sampled>,
    /// Decisions are kept only on epochs that are a multiple of this.
    sample_stride: u64,
    /// Traced pass only: each layer call of each decision.
    pub retrieve_ns: Reservoir,
    pub read_ns: Reservoir,
    pub eq9_ns: Reservoir,
    pub incentive_ns: Reservoir,
    /// Traced pass only: overlay messages and retries of retrievals.
    pub messages: u64,
    pub retries: u64,
    pub publish_ns: Reservoir,
    pub gossip_pushes: u64,
}

impl ClientLog {
    pub fn busy_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.sum).sum()
    }

    /// Keeps `s` if its epoch is on the stride; once more than
    /// `SAMPLED_EPOCHS` epochs are kept, drops every other one and doubles
    /// the stride.
    fn keep(&mut self, s: Sampled) {
        let stride = self.sample_stride.max(1);
        if !s.epoch.is_multiple_of(stride) {
            return;
        }
        let new_epoch = self.sampled.last().is_none_or(|last| last.epoch != s.epoch);
        self.sampled.push(s);
        if !new_epoch {
            return;
        }
        let mut epochs: Vec<u64> = self.sampled.iter().map(|s| s.epoch).collect();
        epochs.dedup();
        if epochs.len() > SAMPLED_EPOCHS {
            self.sample_stride = stride * 2;
            let stride = self.sample_stride;
            self.sampled.retain(|s| s.epoch.is_multiple_of(stride));
        }
    }
}

/// Every `SAMPLE_EVERY`-th decision is a candidate for the correctness
/// gate.
const SAMPLE_EVERY: u64 = 64;
/// Epochs with kept decisions, at most.
const SAMPLED_EPOCHS: usize = 64;

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The writer's input: the same batches, in the same order, for every
/// source built from the same world. The correctness gate relies on that
/// to feed its reference engine.
pub enum Source<'a> {
    Trace {
        events: &'a [TraceEvent],
        catalog: &'a Catalog,
        next: usize,
        hour_end: SimTime,
    },
    Cold {
        rng: StdRng,
        now: SimTime,
        /// New files with their fixed evaluators (the publisher first).
        files: Vec<(FileId, Vec<UserId>)>,
        /// Fixed rater/target pairs.
        ranks: Vec<(UserId, UserId)>,
        files_per_epoch: usize,
        ranks_per_epoch: usize,
        next_file: usize,
        next_rank: usize,
    },
}

/// New files get ids far above the catalog's.
const FIRST_NEW_FILE: u64 = 1 << 40;
/// Size of the cold-content pools. The writer cycles through fixed files
/// and rating pairs with fresh values, so after one cycle the trust graph
/// stops growing and every epoch costs the same whenever it runs — a run's
/// figures do not depend on how many epochs it got through.
const POOL: usize = 256;

impl<'a> Source<'a> {
    pub fn new(
        writer: WriterKind,
        trace: &'a Trace,
        live_start: usize,
        t0: SimTime,
        seed: u64,
        users: &[UserId],
    ) -> Self {
        match writer {
            WriterKind::TraceReplay => Source::Trace {
                events: &trace.events()[live_start..],
                catalog: trace.catalog(),
                next: 0,
                hour_end: t0,
            },
            WriterKind::ColdContent {
                files,
                voters,
                ranks,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_6c64_636f_6e74);
                let user = |rng: &mut StdRng| users[rng.random_range(0..users.len())];
                let pool_files = (0..POOL as u64)
                    .map(|i| {
                        let evaluators = (0..=voters).map(|_| user(&mut rng)).collect();
                        (FileId::new(FIRST_NEW_FILE + i), evaluators)
                    })
                    .collect();
                let pool_ranks = (0..POOL)
                    .map(|_| (user(&mut rng), user(&mut rng)))
                    .collect();
                Source::Cold {
                    rng,
                    now: t0,
                    files: pool_files,
                    ranks: pool_ranks,
                    files_per_epoch: files,
                    ranks_per_epoch: ranks,
                    next_file: 0,
                    next_rank: 0,
                }
            }
        }
    }
}

impl Source<'_> {
    /// The next epoch's events and engine clock; `None` once the trace is
    /// exhausted.
    pub fn next_batch(&mut self) -> Option<(Vec<EngineEvent>, SimTime)> {
        match self {
            Source::Trace {
                events,
                catalog,
                next,
                hour_end,
            } => {
                if *next >= events.len() {
                    return None;
                }
                *hour_end += mdrep_types::SimDuration::from_hours(1);
                let end = *next + events[*next..].partition_point(|e| e.time < *hour_end);
                let batch = events[*next..end]
                    .iter()
                    .filter_map(|e| EngineEvent::from_trace(e, catalog))
                    .collect();
                *next = end;
                Some((batch, *hour_end))
            }
            Source::Cold {
                rng,
                now,
                files,
                ranks,
                files_per_epoch,
                ranks_per_epoch,
                next_file,
                next_rank,
            } => {
                let time = *now;
                let mut batch = Vec::new();
                for _ in 0..*files_per_epoch {
                    let (file, evaluators) = &files[*next_file % files.len()];
                    *next_file += 1;
                    batch.push(EngineEvent::Publish {
                        time,
                        user: evaluators[0],
                        file: *file,
                    });
                    for &user in &evaluators[1..] {
                        batch.push(EngineEvent::Vote {
                            time,
                            user,
                            file: *file,
                            value: Evaluation::clamped(f64::from(rng.random_range(0..5u32)) / 4.0),
                        });
                    }
                }
                for _ in 0..*ranks_per_epoch {
                    let (rater, target) = ranks[*next_rank % ranks.len()];
                    *next_rank += 1;
                    batch.push(EngineEvent::Rank {
                        rater,
                        target,
                        value: Evaluation::clamped(f64::from(rng.random_range(1..5u32)) / 4.0),
                    });
                }
                Some((batch, time))
            }
        }
    }

    /// Whether the engine expires evaluations before each batch: a live
    /// engine keeps only its evaluation window (Section 4.3), which keeps
    /// the replayed store, and so each epoch's cost, from growing with the
    /// run's length.
    pub fn expires(&self) -> bool {
        matches!(self, Source::Trace { .. })
    }
}

struct Writer<'a> {
    engine: &'a ShardedEngine,
    expires: bool,
    traced: bool,
    started: Instant,
    log: WriterLog,
}

impl Writer<'_> {
    /// Ingests one batch and publishes it as one epoch at clock `now`.
    fn fold(&mut self, batch: &[EngineEvent], now: SimTime) {
        let expire_start = Instant::now();
        if self.expires {
            self.engine.expire(now);
        }
        let expire_ns = ns(expire_start.elapsed());
        let mut observed = Vec::with_capacity(batch.len());
        let ingest_start = Instant::now();
        for &event in batch {
            let at = Instant::now();
            self.engine.ingest(event);
            if self.traced {
                self.log.ingest_call_ns.push(ns(at.elapsed()));
            }
            observed.push(at);
        }
        let ingest_ns = ns(ingest_start.elapsed());
        let shard_skew = self.traced.then(|| {
            let depths = self.engine.shard_depths();
            let max = depths.iter().copied().max().unwrap_or(0) as f64;
            let mean = depths.iter().sum::<usize>() as f64 / depths.len() as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        });
        let epoch_start = Instant::now();
        let epoch = self.engine.recompute_epoch(now);
        let published = Instant::now();
        let detail = shard_skew.map(|shard_skew| {
            let (mode, dirty_rows, publish_rows, publish_bytes) = self.engine.with_master(|m| {
                (
                    m.last_recompute_mode().expect("an epoch just ran"),
                    m.last_dirty_rows(),
                    m.last_publish_rows(),
                    m.last_publish_bytes(),
                )
            });
            let rows = self
                .engine
                .snapshot()
                .reputation_matrix()
                .map_or(0, |rm| rm.matrix().row_count());
            EpochDetail {
                mode,
                dirty_rows,
                rows,
                publish_rows,
                publish_bytes,
                shard_skew,
            }
        });
        let epoch_ns = ns(published - epoch_start);
        let w = window(&mut self.log.windows, ns(published - self.started));
        w.events += batch.len() as u64;
        w.busy_ns += expire_ns + ingest_ns + epoch_ns;
        for &at in &observed {
            w.lag_ns.push(ns(published - at));
        }
        self.log.epochs.push(EpochLog {
            epoch,
            now,
            events: batch.len(),
            expire_ns,
            epoch_ns,
            detail,
        });
    }
}

struct Client<'a> {
    spec: ClientSpec,
    traced: bool,
    reader: SnapshotReader<'a>,
    dht: &'a mut Dht,
    registry: &'a KeyRegistry,
    tier: &'a mut EvaluationCacheTier,
    catalog: &'a Catalog,
    users: &'a [UserId],
    files: &'a [FileId],
    publications: &'a [(UserId, FileId, Evaluation)],
    /// Viewer and file samplers of Zipf requests.
    zipf: Option<(ZipfSampler, ZipfSampler)>,
    rng: StdRng,
    started: Instant,
    now: SimTime,
    next_publication: usize,
    policy: ServicePolicy,
    log: ClientLog,
}

impl Client<'_> {
    /// Overlay maintenance due at the current tick, outside any decision:
    /// churn waves with the tier's maintenance tick, and the trickle of
    /// signed republications.
    fn maintain(&mut self) {
        if let Some(faults) = self.spec.faults {
            if self
                .now
                .as_ticks()
                .is_multiple_of(faults.churn_period.as_ticks())
            {
                self.dht.apply_churn(self.now);
                self.tier.tick(self.dht, self.now);
            }
        }
        let Some(every) = self.spec.publish_every else {
            return;
        };
        if self.log.decisions.is_multiple_of(every) {
            let (owner, file, evaluation) =
                self.publications[self.next_publication % self.publications.len()];
            self.next_publication += 1;
            let key = self.registry.key_of(owner).expect("registered");
            if self.dht.is_online(owner) {
                let at = Instant::now();
                // A failed store is recorded for republication by the
                // overlay; the records it carries are unchanged.
                let _ = self
                    .tier
                    .publish(self.dht, key, owner, file, evaluation, self.now);
                if self.traced {
                    self.log.publish_ns.push(ns(at.elapsed()));
                }
            }
        }
    }

    /// A Zipf request: an online viewer and a file.
    fn draw(&mut self) -> (UserId, FileId) {
        let (viewers, files) = self.zipf.as_ref().expect("the workload has Zipf requests");
        let viewer = loop {
            let v = self.users[viewers.sample(&mut self.rng)];
            if self.dht.is_online(v) {
                break v;
            }
        };
        (viewer, self.files[files.sample(&mut self.rng)])
    }

    /// One decision about `request` (viewer, file), or about a Zipf draw:
    /// retrieve the file's evaluations through the tier, Eq. 9 on the
    /// pinned snapshot, then the incentive decision of the top owner for
    /// the viewer.
    fn step(&mut self, request: Option<(UserId, FileId)>) {
        self.now += mdrep_types::SimDuration::from_ticks(1);
        self.maintain();
        let (viewer, file) = request.unwrap_or_else(|| self.draw());
        let candidate = self.log.decisions.is_multiple_of(SAMPLE_EVERY);
        let before = self.traced.then(|| self.dht.stats());

        let start = Instant::now();
        let got = self
            .tier
            .retrieve(self.dht, self.registry, viewer, file, self.now);
        let t_retrieve = self.traced.then(Instant::now);
        let snapshot = self.reader.current();
        let t_read = self.traced.then(Instant::now);
        let owners: Vec<OwnerEvaluation> = match &got {
            Ok(r) => r
                .records
                .iter()
                .filter(|v| v.valid)
                .map(|v| OwnerEvaluation::new(v.info.owner, v.info.evaluation))
                .collect(),
            Err(_) => Vec::new(),
        };
        let t_eq9 = self.traced.then(Instant::now);
        let verdict = snapshot.decide_download(viewer, &owners);
        let t_incentive = self.traced.then(Instant::now);
        let top = owners.iter().map(|o| o.owner).max_by(|&a, &b| {
            snapshot
                .reputation(viewer, a)
                .total_cmp(&snapshot.reputation(viewer, b))
        });
        let service = top.map(|owner| snapshot.service(owner, viewer, &self.policy));
        let end = Instant::now();

        let log = &mut self.log;
        log.decisions += 1;
        window(&mut log.windows, ns(start - self.started)).push(ns(end - start));
        if let (Some(t1), Some(t2), Some(t3), Some(t4)) = (t_retrieve, t_read, t_eq9, t_incentive) {
            log.retrieve_ns.push(ns(t1 - start));
            log.read_ns.push(ns(t2 - t1));
            log.eq9_ns.push(ns(t4 - t3));
            if service.is_some() {
                log.incentive_ns.push(ns(end - t4));
            }
        }
        match &got {
            Err(_) => log.failed += 1,
            Ok(r) => match r.source {
                RetrievalSource::Cache { age } => {
                    log.hits += 1;
                    if age >= self.spec.cache_ttl {
                        log.stale_hits += 1;
                    }
                }
                RetrievalSource::Network => {
                    log.network += 1;
                    if r.unreachable > 0 {
                        log.partial += 1;
                    }
                }
            },
        }
        if let Some(before) = before {
            let after = self.dht.stats();
            log.messages += after.total() - before.total();
            log.retries += after.retried - before.retried;
        }
        log.owners += owners.len() as u64;
        let authentic = self.catalog.is_authentic(file);
        match verdict {
            DownloadDecision::Accept { .. } | DownloadDecision::Reject { .. } => {
                log.verdicts += 1;
                if verdict.is_accept() != authentic {
                    log.verdict_errors += 1;
                }
            }
            DownloadDecision::Unknown => log.unknown += 1,
        }
        if let Some(service) = service {
            log.services += 1;
            if service.is_throttled() {
                log.throttled += 1;
            }
        }
        if candidate {
            log.keep(Sampled {
                epoch: snapshot.epoch(),
                viewer,
                owners,
                verdict,
            });
        }
    }
}

/// Runs one pass of both loops over `world` and returns what they measured.
pub fn run(world: &mut World, budget: Budget, traced: bool) -> (WriterLog, ClientLog) {
    let spec = world.spec;
    let seed = world.seed;
    let mut source = Source::new(
        spec.writer,
        &world.trace,
        world.live_start,
        world.t0,
        seed,
        &world.users,
    );
    let started = Instant::now();
    let mut writer = Writer {
        engine: &world.engine,
        expires: source.expires(),
        traced,
        started,
        log: WriterLog::default(),
    };
    let zipf = match spec.client.requests {
        Requests::TraceDownloads { .. } => None,
        Requests::Zipf {
            viewer_zipf,
            hot_viewers,
            file_zipf,
            hot_files,
            ..
        } => Some((
            ZipfSampler::new(world.users.len().min(hot_viewers), viewer_zipf)
                .expect("users and a valid exponent"),
            ZipfSampler::new(world.files.len().min(hot_files), file_zipf)
                .expect("files and a valid exponent"),
        )),
    };
    let gossip_before = world.tier.gossip_stats().pushes;
    let mut client = Client {
        spec: spec.client,
        traced,
        reader: world.engine.reader(),
        dht: &mut world.dht,
        registry: &world.registry,
        tier: &mut world.tier,
        catalog: world.trace.catalog(),
        users: &world.users,
        files: &world.files,
        publications: &world.publications,
        zipf,
        rng: StdRng::seed_from_u64(seed ^ 0x636c_6965_6e74_0000),
        started,
        now: world.t0,
        next_publication: 0,
        policy: ServicePolicy::default(),
        log: ClientLog::default(),
    };

    loop {
        let spent = match budget {
            Budget::Wall(limit) => started.elapsed() >= limit,
            #[cfg(test)]
            Budget::Epochs(limit) => writer.log.epochs.len() == limit,
        };
        if spent {
            break;
        }
        let Some((batch, now)) = source.next_batch() else {
            break;
        };
        match spec.client.requests {
            Requests::TraceDownloads { every } => {
                let downloads = batch.iter().filter_map(|e| match *e {
                    EngineEvent::Download {
                        downloader, file, ..
                    } => Some((downloader, file)),
                    _ => None,
                });
                for request in downloads.step_by(every) {
                    client.step(Some(request));
                }
            }
            Requests::Zipf { per_epoch, .. } => {
                for _ in 0..per_epoch {
                    client.step(None);
                }
            }
        }
        writer.fold(&batch, now);
        if writer.log.epochs.len() == spec.rss_epochs {
            writer.log.peak_rss_mb = Some(report::peak_rss_mb());
        }
    }
    client.log.gossip_pushes = client.tier.gossip_stats().pushes - gossip_before;
    (writer.log, client.log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_decisions_thin_to_a_bounded_spread_of_epochs() {
        let mut log = ClientLog::default();
        for epoch in 1..=1000u64 {
            for _ in 0..3 {
                log.keep(Sampled {
                    epoch,
                    viewer: UserId::new(1),
                    owners: Vec::new(),
                    verdict: DownloadDecision::Unknown,
                });
            }
        }
        let mut epochs: Vec<u64> = log.sampled.iter().map(|s| s.epoch).collect();
        epochs.dedup();
        assert!((SAMPLED_EPOCHS / 2..=SAMPLED_EPOCHS).contains(&epochs.len()));
        assert_eq!(log.sampled.len(), 3 * epochs.len());
        assert!(epochs.iter().all(|e| e.is_multiple_of(log.sample_stride)));
        assert!(epochs[epochs.len() - 1] > 1000 - log.sample_stride);
    }
}
