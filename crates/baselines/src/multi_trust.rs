//! Lian et al.'s multi-trust hybrid (MSR-TR-2006-14).
//!
//! A balance between Tit-for-Tat and EigenTrust: the one-step matrix is the
//! private download-volume history, and trust extends through powers of it
//! — immediate friends are tier 1, friends-of-friends tier 2, and so on.
//! Its remaining weakness, which the paper under reproduction fixes, is
//! that the *one-step matrix itself* is sparse: with only download volume
//! feeding it, many steps are needed for coverage.

use crate::system::ReputationSystem;
use mdrep::{OwnerEvaluation, Params, ReputationMatrix, TrustTier};
use mdrep_matrix::{normalized_entries, CsrMatrix, PositionRun, UserIndex};
use mdrep_types::{FileId, FileSize, SimTime, UserId};
use mdrep_workload::{Catalog, EventKind, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

/// The multi-trust hybrid over download-volume one-step trust.
///
/// # Examples
///
/// ```
/// use mdrep_baselines::{MultiTrustHybrid, ReputationSystem};
/// use mdrep_types::{FileSize, SimTime, UserId};
///
/// let mut mt = MultiTrustHybrid::new(2);
/// // 0 downloaded from 1, 1 downloaded from 2: tier-2 path 0 → 2.
/// mt.record_download(UserId::new(0), UserId::new(1), FileSize::from_mib(10));
/// mt.record_download(UserId::new(1), UserId::new(2), FileSize::from_mib(10));
/// mt.recompute(SimTime::ZERO);
/// assert!(mt.reputation(UserId::new(0), UserId::new(2)) > 0.0);
/// assert_eq!(mt.tier_of(UserId::new(0), UserId::new(2)).unwrap().level, 2);
/// ```
#[derive(Debug, Clone)]
pub struct MultiTrustHybrid {
    steps: u32,
    volumes: HashMap<(UserId, UserId), f64>,
    rm: Option<ReputationMatrix>,
}

impl MultiTrustHybrid {
    /// Creates the hybrid with `steps` trust tiers.
    ///
    /// # Panics
    ///
    /// Panics when `steps == 0`.
    #[must_use]
    pub fn new(steps: u32) -> Self {
        assert!(steps >= 1, "at least one trust tier is required");
        Self {
            steps,
            volumes: HashMap::new(),
            rm: None,
        }
    }

    /// Records a completed download.
    pub fn record_download(&mut self, downloader: UserId, uploader: UserId, size: FileSize) {
        if downloader != uploader {
            *self.volumes.entry((downloader, uploader)).or_insert(0.0) += size.as_mib_f64();
        }
    }

    /// The one-step (tier 1) matrix: row-normalized download volume.
    #[must_use]
    pub fn one_step(&self) -> CsrMatrix {
        let mut entries: Vec<(UserId, UserId, f64)> = self
            .volumes
            .iter()
            .filter(|&(_, &v)| v > 0.0)
            .map(|(&(d, u), &v)| (d, u, v))
            .collect();
        entries.sort_unstable_by_key(|&(d, u, _)| (d, u));
        let index = Arc::new(UserIndex::from_ids(
            entries.iter().flat_map(|&(d, u, _)| [d, u]),
        ));
        let position = |id| index.position(id).expect("interned above");
        let mut run = PositionRun::with_capacity(entries.len());
        for row in entries.chunk_by(|a, b| a.0 == b.0) {
            let normalized: Vec<(u32, f64)> =
                normalized_entries(row.iter().map(|&(_, u, v)| (u, v)))
                    .into_iter()
                    .map(|(u, v)| (position(u), v))
                    .collect();
            run.push_row(position(row[0].0), &normalized);
        }
        CsrMatrix::from_position_runs(&index, vec![run])
    }

    /// The first tier at which `i` reaches `j`, if any.
    #[must_use]
    pub fn tier_of(&self, i: UserId, j: UserId) -> Option<TrustTier> {
        self.rm.as_ref().and_then(|rm| rm.tier_of(i, j))
    }
}

impl ReputationSystem for MultiTrustHybrid {
    fn name(&self) -> &'static str {
        "multi-trust"
    }

    fn observe(&mut self, event: &TraceEvent, catalog: &Catalog) {
        match event.kind {
            EventKind::Download {
                downloader,
                uploader,
                file,
            } => {
                let size = catalog.file_meta(file).map_or(FileSize::ZERO, |m| m.size);
                self.record_download(downloader, uploader, size);
            }
            EventKind::Whitewash { user } => {
                self.volumes.retain(|&(d, u), _| d != user && u != user);
            }
            _ => {}
        }
    }

    fn recompute(&mut self, _now: SimTime) {
        let params = Params::builder()
            .steps(self.steps)
            .build()
            .expect("steps >= 1");
        self.rm = Some(ReputationMatrix::compute_csr(self.one_step(), &params));
    }

    /// Tier-aware reputation: a tier-`k` relationship of value `v` maps to
    /// `v / k`, so closer tiers always dominate (the multi-tier service
    /// ordering of the incentive scheme).
    fn reputation(&self, i: UserId, j: UserId) -> f64 {
        match self.tier_of(i, j) {
            Some(tier) => tier.value / f64::from(tier.level),
            None => 0.0,
        }
    }

    fn file_score(
        &self,
        viewer: UserId,
        _file: FileId,
        evaluations: &[OwnerEvaluation],
        _now: SimTime,
    ) -> Option<f64> {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for oe in evaluations {
            let r = self.reputation(viewer, oe.owner);
            if r > 0.0 {
                weighted += r * oe.evaluation.value();
                weight += r;
            }
        }
        (weight > 0.0).then(|| weighted / weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::Evaluation;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn tier_one_beats_tier_two() {
        let mut mt = MultiTrustHybrid::new(3);
        // Direct: 0 → 1. Indirect: 0 → 1 → 2.
        mt.record_download(u(0), u(1), FileSize::from_mib(10));
        mt.record_download(u(1), u(2), FileSize::from_mib(10));
        mt.recompute(SimTime::ZERO);
        let direct = mt.reputation(u(0), u(1));
        let indirect = mt.reputation(u(0), u(2));
        assert!(direct > indirect, "{direct} vs {indirect}");
        assert_eq!(mt.tier_of(u(0), u(1)).unwrap().level, 1);
        assert_eq!(mt.tier_of(u(0), u(2)).unwrap().level, 2);
    }

    #[test]
    fn coverage_grows_with_steps() {
        // Chain 0→1→2→3: with 1 step only 3 pairs are covered; with 3
        // steps all chain-reachable pairs are.
        let build = |steps: u32| {
            let mut mt = MultiTrustHybrid::new(steps);
            mt.record_download(u(0), u(1), FileSize::from_mib(1));
            mt.record_download(u(1), u(2), FileSize::from_mib(1));
            mt.record_download(u(2), u(3), FileSize::from_mib(1));
            mt.recompute(SimTime::ZERO);
            mt
        };
        let requests = [
            (u(0), u(1)),
            (u(0), u(2)),
            (u(0), u(3)),
            (u(1), u(3)),
            (u(3), u(0)),
        ];
        let c1 = build(1).request_coverage(&requests);
        let c3 = build(3).request_coverage(&requests);
        assert!(c3 > c1, "{c3} vs {c1}");
        assert!((c3 - 0.8).abs() < 1e-12, "all but the reverse edge");
    }

    #[test]
    fn self_downloads_ignored() {
        let mut mt = MultiTrustHybrid::new(1);
        mt.record_download(u(0), u(0), FileSize::from_mib(1));
        mt.recompute(SimTime::ZERO);
        assert!(mt.one_step().is_empty());
    }

    #[test]
    fn file_score_uses_tiered_reputation() {
        let mut mt = MultiTrustHybrid::new(2);
        mt.record_download(u(0), u(1), FileSize::from_mib(10));
        mt.recompute(SimTime::ZERO);
        let evals = [
            OwnerEvaluation::new(u(1), Evaluation::WORST),
            OwnerEvaluation::new(u(7), Evaluation::BEST), // stranger: ignored
        ];
        let score = mt
            .file_score(u(0), FileId::new(0), &evals, SimTime::ZERO)
            .unwrap();
        assert_eq!(score, 0.0);
        assert_eq!(
            mt.file_score(u(9), FileId::new(0), &evals, SimTime::ZERO),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_steps_panics() {
        let _ = MultiTrustHybrid::new(0);
    }
}
