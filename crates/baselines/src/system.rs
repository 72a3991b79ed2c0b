//! The common interface every reputation system implements.

use mdrep::OwnerEvaluation;
use mdrep_types::{SimTime, UserId};
use mdrep_workload::{Catalog, TraceEvent};

/// A pluggable reputation system: the overlay simulator and the experiment
/// harness drive every implementation — the paper's system and all
/// baselines — through this interface.
///
/// The lifecycle is: feed events with [`observe`](Self::observe), then
/// [`recompute`](Self::recompute), then query. Implementations are free to
/// ignore event kinds they have no use for (Tit-for-Tat ignores votes;
/// LIP ignores user ratings).
pub trait ReputationSystem {
    /// A short, stable name for reports ("tit-for-tat", "eigentrust", …).
    fn name(&self) -> &'static str;

    /// Ingests one trace event.
    fn observe(&mut self, event: &TraceEvent, catalog: &Catalog);

    /// Rebuilds internal state from the observations so far.
    fn recompute(&mut self, now: SimTime);

    /// How much `i` trusts `j`, in `[0, 1]`-comparable units; 0 for
    /// strangers. For global systems (EigenTrust) the value is independent
    /// of `i`.
    fn reputation(&self, i: UserId, j: UserId) -> f64;

    /// [`reputation`](Self::reputation) rescaled so that `i`'s most-trusted
    /// peer maps to 1 — the input the service-differentiation policy
    /// expects. Row-stochastic systems (where a well-connected user's
    /// entries are individually tiny) must override this; systems whose
    /// reputation is already max-scaled keep the default.
    fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        self.reputation(i, j)
    }

    /// A file-authenticity score in `[0, 1]` as seen by `viewer` (higher =
    /// more likely authentic), or `None` when the system has no opinion.
    ///
    /// User-centric systems derive it from the owners' published
    /// evaluations weighted by reputation; LIP derives it from file
    /// statistics and ignores `evaluations`.
    fn file_score(
        &self,
        viewer: UserId,
        file: mdrep_types::FileId,
        evaluations: &[OwnerEvaluation],
        now: SimTime,
    ) -> Option<f64>;

    /// Fraction of `(downloader, uploader)` request pairs this system can
    /// differentiate (reputation > 0) — the request-coverage metric of
    /// Figure 1 generalized to every baseline.
    fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let covered = requests
            .iter()
            .filter(|(i, j)| self.reputation(*i, *j) > 0.0)
            .count();
        covered as f64 / requests.len() as f64
    }
}

/// Boxed systems are systems too, so callers can select an implementation
/// at runtime (e.g. from a CLI flag) and still drive the simulator.
impl ReputationSystem for Box<dyn ReputationSystem> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, event: &TraceEvent, catalog: &Catalog) {
        (**self).observe(event, catalog);
    }

    fn recompute(&mut self, now: SimTime) {
        (**self).recompute(now);
    }

    fn reputation(&self, i: UserId, j: UserId) -> f64 {
        (**self).reputation(i, j)
    }

    fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        (**self).relative_reputation(i, j)
    }

    fn file_score(
        &self,
        viewer: UserId,
        file: mdrep_types::FileId,
        evaluations: &[OwnerEvaluation],
        now: SimTime,
    ) -> Option<f64> {
        (**self).file_score(viewer, file, evaluations, now)
    }

    fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        (**self).request_coverage(requests)
    }
}
