//! Maze-scale concurrent replay harness for the sharded epoch-snapshot
//! engine.
//!
//! The paper validates against the real Maze workload (~170k users, 24.6M
//! download records). This module synthesizes a deterministic stand-in at
//! arbitrary scale and drives the full concurrent dataflow: one writer
//! ingests events and publishes epochs through a
//! `mdrep::ShardedEngine` while a pool of query threads
//! answers Eq. 9 / coverage reads lock-free against the last published
//! snapshot. The run reports ingest/recompute/query throughput plus a
//! deterministic digest of the final epoch, so CI can gate both wall time
//! and bit-stability.
//!
//! Determinism: the event stream comes from a seeded xorshift generator on
//! the single writer thread, so the published matrices (and the final
//! [`ReplayReport::rm_digest`]) depend only on the configuration — query
//! threads race the writer but never influence it.

use mdrep::{FileTrustOptions, OwnerEvaluation, Params, ShardedEngine};
use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one synthetic replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Population size (the paper's Maze trace has ~170k).
    pub users: u64,
    /// Distinct files in circulation.
    pub files: u64,
    /// Total events to ingest across the run.
    pub events: u64,
    /// Recompute epochs to publish (events are spread evenly across them).
    pub epochs: u64,
    /// Ingest shards of the engine.
    pub shards: usize,
    /// Concurrent Eq. 9 query threads racing the writer (0 = none).
    pub query_threads: usize,
    /// Viewers per batched Eq. 9 query.
    pub query_batch: usize,
    /// Seed of the synthetic event stream.
    pub seed: u64,
    /// `Params::incremental_threshold` for the engine (1.0 keeps every
    /// steady-state epoch on the dirty-row path).
    pub incremental_threshold: f64,
    /// Recompute worker threads (`Params::threads`; 0 = auto-detect).
    pub threads: usize,
    /// Cap on evaluators paired per file in Eq. 2 (popular files can have
    /// thousands of evaluators and pairing is quadratic — at Maze scale
    /// and beyond an unbounded cap is infeasible). `None` = unbounded.
    pub max_evaluators_per_file: Option<usize>,
}

impl ReplayConfig {
    /// A small smoke-scale config (CI-friendly: finishes in well under a
    /// second).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            users: 2_000,
            files: 500,
            events: 20_000,
            epochs: 5,
            shards: 4,
            query_threads: 2,
            query_batch: 16,
            seed: 7,
            incremental_threshold: 1.0,
            threads: 0,
            max_evaluators_per_file: None,
        }
    }

    /// The Maze-scale config from the ISSUE: 170k users. Event count is
    /// kept far below the real trace's 24.6M so the replay fits CI
    /// quick-mode bounds while still exercising a 170k-row matrix.
    #[must_use]
    pub fn maze_scale() -> Self {
        Self {
            users: 170_000,
            files: 40_000,
            events: 600_000,
            epochs: 4,
            shards: 8,
            query_threads: 4,
            query_batch: 32,
            seed: 42,
            incremental_threshold: 1.0,
            threads: 0,
            max_evaluators_per_file: Some(64),
        }
    }

    /// One million users and the Maze trace's 24.6M download records,
    /// replayed on one machine — an extrapolation past the paper's
    /// 1.7×10⁵-user trace. The evaluator cap is mandatory here — Eq. 2
    /// pairs evaluators quadratically per file, and the popularity head of
    /// a 24.6M-event stream would otherwise accumulate millions of pairs
    /// on the hottest files.
    #[must_use]
    pub fn million_users() -> Self {
        Self {
            users: 1_000_000,
            files: 200_000,
            events: 24_600_000,
            epochs: 12,
            shards: 8,
            query_threads: 2,
            query_batch: 32,
            seed: 42,
            incremental_threshold: 1.0,
            threads: 0,
            max_evaluators_per_file: Some(32),
        }
    }
}

/// What one replay run measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Population size replayed.
    pub users: u64,
    /// Events actually ingested.
    pub events: u64,
    /// Epochs published.
    pub epochs: u64,
    /// Wall time spent enqueueing events (writer side).
    pub ingest_ns: u64,
    /// Wall time spent inside epoch recomputes (drain + apply + rebuild +
    /// publish).
    pub recompute_ns: u64,
    /// Batched Eq. 9 queries answered by the reader pool during the run.
    pub queries: u64,
    /// Total wall time of the run.
    pub wall_ns: u64,
    /// Non-zeros of the final epoch's reputation matrix.
    pub rm_nnz: usize,
    /// Deterministic FNV-1a digest of the final snapshot (epoch + every RM
    /// entry's bit pattern) — replays with the same config match exactly.
    pub rm_digest: u64,
    /// The final published epoch.
    pub final_epoch: u64,
    /// Rows the *last* epoch republished (the dirty union on the
    /// copy-on-write path; every indexed row on a full rebuild).
    pub last_publish_rows: usize,
    /// Approximate bytes the last epoch's publication copied (patched row
    /// slabs on the COW path; all frozen storage on a full rebuild).
    pub last_publish_bytes: usize,
}

impl ReplayReport {
    /// Ingest throughput in events per second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.ingest_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.ingest_ns as f64 / 1e9)
    }

    /// Mean epoch recompute time in milliseconds.
    #[must_use]
    pub fn epoch_ms(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        self.recompute_ns as f64 / self.epochs as f64 / 1e6
    }
}

/// Deterministic xorshift64* stream (no external RNG dependency; the
/// writer owns the only instance, so the event stream is reproducible).
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Popularity-skewed draw in `[0, n)` (min of two uniforms biases low
    /// ids — a cheap heavy-head stand-in for the Maze popularity curve).
    fn skewed(&mut self, n: u64) -> u64 {
        self.below(n).min(self.below(n))
    }
}

/// Runs one synthetic concurrent replay. The writer runs on the calling
/// thread; `config.query_threads` readers race it until the last epoch is
/// published.
#[must_use]
pub fn run_replay(config: &ReplayConfig) -> ReplayReport {
    let params = Params::builder()
        .incremental_threshold(config.incremental_threshold)
        .threads(config.threads)
        .build()
        .expect("replay params are valid");
    let options = FileTrustOptions {
        max_evaluators_per_file: config.max_evaluators_per_file,
        ..FileTrustOptions::default()
    };
    let engine = Arc::new(ShardedEngine::with_options(
        params,
        options,
        config.shards.max(1),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let epochs = config.epochs.max(1);
    let per_epoch = (config.events / epochs).max(1);
    let mut ingest_ns = 0u64;
    let mut recompute_ns = 0u64;
    let mut ingested = 0u64;

    std::thread::scope(|scope| {
        for t in 0..config.query_threads {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let queries = Arc::clone(&queries);
            let batch = config.query_batch.max(1);
            let users = config.users;
            let seed = config.seed ^ (t as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
            scope.spawn(move || {
                let mut reader = engine.reader();
                let mut rng = Stream::new(seed);
                let mut answered = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = Arc::clone(reader.current());
                    let viewers: Vec<UserId> =
                        (0..batch).map(|_| UserId::new(rng.skewed(users))).collect();
                    let owners = [
                        OwnerEvaluation::new(UserId::new(rng.skewed(users)), Evaluation::BEST),
                        OwnerEvaluation::new(
                            UserId::new(rng.skewed(users)),
                            Evaluation::new(0.25).expect("in range"),
                        ),
                    ];
                    let scores = snap.file_reputation_batch(&viewers, &owners);
                    answered += scores.len() as u64;
                    // A service decision and a point read from the *same*
                    // pinned snapshot — the consistency the epoch design
                    // guarantees.
                    let _ = snap.reputation(viewers[0], owners[0].owner);
                }
                queries.fetch_add(answered, Ordering::Relaxed);
            });
        }

        // Writer: epochs of ingest + recompute on this thread.
        let mut rng = Stream::new(config.seed);
        let mut now = SimTime::ZERO;
        for _ in 0..epochs {
            let t0 = Instant::now();
            for _ in 0..per_epoch {
                let a = rng.skewed(config.users);
                let mut b = rng.skewed(config.users);
                if b == a {
                    b = (b + 1) % config.users.max(2);
                }
                let file = FileId::new(rng.skewed(config.files));
                match rng.below(100) {
                    0..=59 => engine.observe_download(
                        now,
                        UserId::new(a),
                        UserId::new(b),
                        file,
                        FileSize::from_mib(1 + rng.below(64)),
                    ),
                    60..=84 => engine.observe_vote(
                        now,
                        UserId::new(a),
                        file,
                        Evaluation::new(rng.below(5) as f64 / 4.0).expect("in range"),
                    ),
                    85..=94 => engine.observe_rank(
                        UserId::new(a),
                        UserId::new(b),
                        Evaluation::new(0.25 + rng.below(4) as f64 / 4.0).expect("in range"),
                    ),
                    _ => engine.observe_publish(now, UserId::new(a), file),
                }
                ingested += 1;
            }
            ingest_ns += t0.elapsed().as_nanos() as u64;

            let t1 = Instant::now();
            engine.recompute_epoch(now);
            recompute_ns += t1.elapsed().as_nanos() as u64;
            now += SimDuration::from_hours(1);
        }
        done.store(true, Ordering::Release);
    });

    let snap = engine.snapshot();
    let (last_publish_rows, last_publish_bytes) =
        engine.with_master(|e| (e.last_publish_rows(), e.last_publish_bytes()));
    ReplayReport {
        users: config.users,
        events: ingested,
        epochs,
        ingest_ns,
        recompute_ns,
        queries: queries.load(Ordering::Relaxed),
        wall_ns: started.elapsed().as_nanos() as u64,
        rm_nnz: snap.reputation_matrix().map_or(0, |rm| rm.matrix().nnz()),
        rm_digest: snap.digest(),
        final_epoch: snap.epoch(),
        last_publish_rows,
        last_publish_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_for_the_writer() {
        let mut config = ReplayConfig::smoke();
        config.users = 300;
        config.files = 80;
        config.events = 3_000;
        config.epochs = 3;
        config.query_threads = 2;
        let a = run_replay(&config);
        let b = run_replay(&config);
        assert_eq!(a.rm_digest, b.rm_digest, "same seed, same final matrix");
        assert_eq!(a.events, b.events);
        assert_eq!(a.final_epoch, 3);
        assert!(a.rm_nnz > 0);
        assert!(a.queries > 0, "readers answered during the run");
    }

    #[test]
    fn worker_thread_count_does_not_change_the_digest() {
        let mut config = ReplayConfig::smoke();
        config.users = 250;
        config.files = 60;
        config.events = 2_500;
        config.epochs = 3;
        config.query_threads = 0;
        config.threads = 1;
        let serial = run_replay(&config);
        config.threads = 4;
        let parallel = run_replay(&config);
        assert_eq!(
            serial.rm_digest, parallel.rm_digest,
            "recompute worker count must not affect numerics"
        );
        assert!(serial.last_publish_rows > 0, "publish gauges populated");
        assert!(
            serial.last_publish_rows as u64 <= config.users,
            "republished rows bounded by the population"
        );
        assert_eq!(serial.last_publish_rows, parallel.last_publish_rows);
    }

    #[test]
    fn evaluator_cap_keeps_the_stream_deterministic() {
        let mut config = ReplayConfig::smoke();
        config.users = 250;
        config.files = 20; // few files -> deep evaluator lists per file
        config.events = 2_500;
        config.epochs = 2;
        config.query_threads = 0;
        config.max_evaluators_per_file = Some(8);
        let a = run_replay(&config);
        let b = run_replay(&config);
        assert_eq!(a.rm_digest, b.rm_digest, "capped replay stays reproducible");
        assert!(a.rm_nnz > 0);
    }

    #[test]
    fn shard_count_does_not_change_the_digest() {
        let mut config = ReplayConfig::smoke();
        config.users = 200;
        config.files = 50;
        config.events = 2_000;
        config.epochs = 2;
        config.query_threads = 0;
        config.shards = 1;
        let one = run_replay(&config);
        config.shards = 7;
        let seven = run_replay(&config);
        assert_eq!(
            one.rm_digest, seven.rm_digest,
            "shard count must not affect numerics"
        );
    }
}
