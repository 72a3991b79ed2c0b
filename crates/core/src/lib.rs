//! `mdrep` — the multi-dimensional reputation system of *"A
//! Multi-dimensional Reputation System Combined with Trust and Incentive
//! Mechanisms in P2P File Sharing Systems"* (Yang, Feng, Dai, Zhang;
//! ICDCS 2007), implemented as a reusable library.
//!
//! # What it does
//!
//! P2P file-sharing systems suffer from **free-riders** (nobody shares) and
//! **fake files** (polluters flood popular titles). The paper's system
//! attacks both at once by combining a *trust* mechanism with an *incentive*
//! mechanism:
//!
//! 1. **Multi-dimensional direct trust.** Three observable signals are each
//!    turned into a row-stochastic one-step trust matrix:
//!    file-opinion similarity ([`file_trust`], Equations 1–3), valid
//!    download volume ([`volume_trust`], Equations 4–5), and explicit user
//!    ratings ([`user_trust`], Equation 6). They are blended into a single
//!    one-step matrix `TM = α·FM + β·DM + γ·UM` ([`Weights`], Equation 7).
//! 2. **Multi-trust reputation.** `RM = TM^n` ([`reputation`], Equation 8)
//!    extends trust along n-hop paths when the one-step matrix is sparse.
//! 3. **Fake-file identification.** A file's reputation is the
//!    reputation-weighted mean of its owners' evaluations
//!    (the [`file_reputation`](crate::file_reputation()) function, Equation 9).
//! 4. **Service differentiation.** High-reputation requesters jump the
//!    upload queue (negative time offset); low-reputation requesters get a
//!    bandwidth quota ([`incentive`]). That feedback loop is what makes
//!    users vote, share, and delete fakes.
//! 5. **Proactive audits.** Evaluation-list copying is caught by random
//!    re-examination ([`audit`]).
//!
//! The [`ReputationEngine`] ties it all together: feed it trace events
//! (downloads, votes, deletions, ratings) and query reputations, file
//! verdicts, and service decisions.
//!
//! # Quick start
//!
//! ```
//! use mdrep::{Params, ReputationEngine};
//! use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
//!
//! let mut engine = ReputationEngine::new(Params::default());
//! let (alice, bob) = (UserId::new(0), UserId::new(1));
//! let file = FileId::new(0);
//!
//! // Alice downloads from Bob and votes the file authentic.
//! engine.observe_download(SimTime::ZERO, alice, bob, file, FileSize::from_mib(100));
//! engine.observe_vote(SimTime::ZERO, alice, file, Evaluation::BEST);
//! engine.recompute(SimTime::ZERO);
//!
//! // Download volume gives Alice direct trust in Bob.
//! assert!(engine.reputation(alice, bob) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod columns;
pub mod contribution;
pub mod engine;
pub mod eval;
pub mod file_reputation;
pub mod file_trust;
pub mod incentive;
pub mod params;
pub mod reputation;
pub mod sharded;
pub mod snapshot;
pub mod user_trust;
pub mod volume_trust;

pub use audit::{AuditOutcome, Auditor};
pub use contribution::{Contribution, ContributionLedger};
pub use engine::{RecomputeMode, ReputationEngine, TrustComponents};
pub use eval::{EvaluationRecord, EvaluationStore};
pub use file_reputation::{
    download_decision, file_reputation, file_reputation_batch, DownloadDecision, OwnerEvaluation,
};
pub use file_trust::{DistanceMetric, FileTrust, FileTrustOptions, FileTrustState};
pub use incentive::{ServiceDecision, ServicePolicy};
pub use params::{Params, ParamsBuilder, ParamsError, Weights};
pub use reputation::{ReputationMatrix, TrustTier};
pub use sharded::{EngineEvent, ShardedEngine};
pub use snapshot::{EngineSnapshot, SnapshotCell, SnapshotReader};
pub use user_trust::UserTrust;
pub use volume_trust::VolumeTrust;
