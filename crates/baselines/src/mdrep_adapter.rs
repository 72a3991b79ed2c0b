//! Adapter exposing the paper's system through the common
//! [`ReputationSystem`] interface, so experiments can compare it with the
//! baselines symmetrically.

use crate::system::ReputationSystem;
use mdrep::{OwnerEvaluation, Params, ReputationEngine};
use mdrep_types::{FileId, SimTime, UserId};
use mdrep_workload::{Catalog, TraceEvent};

/// The multi-dimensional reputation system behind the common trait.
///
/// # Examples
///
/// ```
/// use mdrep::Params;
/// use mdrep_baselines::{MultiDimensional, ReputationSystem};
///
/// let md = MultiDimensional::new(Params::default());
/// assert_eq!(md.name(), "multi-dimensional");
/// ```
#[derive(Debug, Clone)]
pub struct MultiDimensional {
    engine: ReputationEngine,
}

impl MultiDimensional {
    /// Wraps a fresh engine with the given parameters.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self {
            engine: ReputationEngine::new(params),
        }
    }

    /// Wraps an existing engine (e.g. one pre-configured with file-trust
    /// options).
    #[must_use]
    pub fn from_engine(engine: ReputationEngine) -> Self {
        Self { engine }
    }

    /// Access to the wrapped engine for queries the trait does not cover
    /// (service decisions, published evaluations, components).
    #[must_use]
    pub fn engine(&self) -> &ReputationEngine {
        &self.engine
    }
}

impl ReputationSystem for MultiDimensional {
    fn name(&self) -> &'static str {
        "multi-dimensional"
    }

    fn observe(&mut self, event: &TraceEvent, catalog: &Catalog) {
        self.engine.observe_trace_event(event, catalog);
    }

    fn recompute(&mut self, now: SimTime) {
        self.engine.recompute(now);
    }

    fn reputation(&self, i: UserId, j: UserId) -> f64 {
        self.engine.reputation(i, j)
    }

    fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        self.engine.relative_reputation(i, j)
    }

    fn file_score(
        &self,
        viewer: UserId,
        _file: FileId,
        evaluations: &[OwnerEvaluation],
        _now: SimTime,
    ) -> Option<f64> {
        self.engine
            .file_reputation(viewer, evaluations)
            .map(|e| e.value())
    }

    fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        self.engine.request_coverage(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::{Evaluation, FileSize};
    use mdrep_workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

    #[test]
    fn adapter_mirrors_engine_behaviour() {
        let mut md = MultiDimensional::new(Params::default());
        let mut engine = ReputationEngine::new(Params::default());
        let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));

        engine.observe_download(SimTime::ZERO, a, b, f, FileSize::from_mib(50));
        engine.observe_vote(SimTime::ZERO, a, f, Evaluation::BEST);
        engine.recompute(SimTime::ZERO);

        // Drive the adapter with equivalent trace events.
        let config = WorkloadConfig::builder()
            .users(2)
            .titles(1)
            .seed(1)
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        let catalog = trace.catalog();
        md.observe(
            &TraceEvent {
                time: SimTime::ZERO,
                kind: mdrep_workload::EventKind::Download {
                    downloader: a,
                    uploader: b,
                    file: f,
                },
            },
            catalog,
        );
        md.observe(
            &TraceEvent {
                time: SimTime::ZERO,
                kind: mdrep_workload::EventKind::Vote {
                    user: a,
                    file: f,
                    value: Evaluation::BEST,
                },
            },
            catalog,
        );
        md.recompute(SimTime::ZERO);

        assert!(md.reputation(a, b) > 0.0);
        // Both paths agree that b has earned trust from a.
        assert!(engine.reputation(a, b) > 0.0);
    }

    #[test]
    fn file_score_passes_through_equation_nine() {
        let mut md = MultiDimensional::new(Params::default());
        let (a, b) = (UserId::new(0), UserId::new(1));
        // Give a → b user trust through a rating event.
        let config = WorkloadConfig::builder()
            .users(2)
            .titles(1)
            .behavior_mix(BehaviorMix::all_honest())
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        md.observe(
            &TraceEvent {
                time: SimTime::ZERO,
                kind: mdrep_workload::EventKind::RankUser {
                    rater: a,
                    target: b,
                    value: Evaluation::BEST,
                },
            },
            trace.catalog(),
        );
        md.recompute(SimTime::ZERO);
        let evals = [OwnerEvaluation::new(b, Evaluation::WORST)];
        let score = md
            .file_score(a, FileId::new(0), &evals, SimTime::ZERO)
            .unwrap();
        assert_eq!(score, 0.0);
        assert_eq!(md.file_score(b, FileId::new(0), &[], SimTime::ZERO), None);
        assert!(md.engine().components().is_some());
    }
}
