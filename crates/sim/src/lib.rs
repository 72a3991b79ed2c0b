//! Discrete-event overlay simulator: replays a workload trace through a
//! pluggable reputation system and measures what the paper's incentive and
//! trust mechanisms actually buy.
//!
//! Each uploader is modelled as a small multi-server queue (its upload
//! slots). Service differentiation enters in two places, exactly as in
//! Section 3.4 of the paper:
//!
//! - **queue position**: a request's priority is its arrival time minus the
//!   reputation-dependent *negative offset*, so reputable requesters jump
//!   ahead of waiting strangers;
//! - **bandwidth quota**: low-reputation requesters transfer at a fraction
//!   of the slot bandwidth, stretching their service time.
//!
//! Optionally the downloader first consults the reputation system's file
//! score (Equation 9) and skips likely-fake downloads — the fake-file
//! identification loop.
//!
//! The simulator produces [`SimReport`]: per-behaviour-class queueing and
//! completion statistics, fake-download counts, coverage over time (the
//! Figure 1 series), and the final reputation state.
//!
//! Runs can execute under a seeded
//! [`FaultPlan`](mdrep_dht::FaultPlan) ([`SimConfig::fault`]): owner-
//! evaluation retrievals are then independently lost to message loss,
//! churn, and partitions, the retry budget ([`SimConfig::fault_retry`])
//! bounds the effective loss, and [`SimReport::faults`] plus
//! [`SimReport::digest`] make the whole run replayable bit for bit.
//!
//! # Examples
//!
//! ```
//! use mdrep::Params;
//! use mdrep_baselines::MultiDimensional;
//! use mdrep_sim::{SimConfig, Simulation};
//! use mdrep_workload::{TraceBuilder, WorkloadConfig};
//!
//! let trace = TraceBuilder::new(
//!     WorkloadConfig::builder().users(30).titles(40).days(2).seed(1).build()?,
//! )
//! .generate();
//! let system = MultiDimensional::new(Params::default());
//! let report = Simulation::new(SimConfig::default(), system).run(&trace);
//! assert!(report.requests > 0);
//! # Ok::<(), mdrep_workload::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
mod metrics;
mod queue;
pub mod replay;
mod sim;

pub use cache::{run_cache_sweep, CacheSweepConfig, CacheSweepReport};
pub use config::SimConfig;
pub use metrics::{ClassStats, CoveragePoint, FakeStats, FaultReport, SimReport};
pub use queue::{Request, UploaderQueue};
pub use replay::{run_replay, ReplayConfig, ReplayReport};
pub use sim::Simulation;
