//! File reputation and the download decision: Equation 9.
//!
//! Before downloading, a user collects the owners' evaluations of the file
//! (from the DHT index, Fig. 2 step 3) and weighs them by its own
//! reputation in each owner:
//! `R_f = Σ_{j∈U} RM_ij·E_jf / Σ_{j∈U} RM_ij` (Equation 9).
//! Because only users who both perform well *and* give honest feedback earn
//! reputation, a clique of liars praising a fake carries little weight.

use crate::params::Params;
use crate::reputation::ReputationMatrix;
use mdrep_types::{Evaluation, UserId};
use std::fmt;

/// One owner's published evaluation of a file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwnerEvaluation {
    /// The evaluating owner.
    pub owner: UserId,
    /// The owner's published evaluation.
    pub evaluation: Evaluation,
}

impl OwnerEvaluation {
    /// Convenience constructor.
    #[must_use]
    pub fn new(owner: UserId, evaluation: Evaluation) -> Self {
        Self { owner, evaluation }
    }
}

/// The verdict a user reaches about a file before downloading it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownloadDecision {
    /// The file's reputation clears the user's threshold.
    Accept {
        /// The computed file reputation.
        reputation: Evaluation,
    },
    /// The file's reputation falls below the threshold — likely fake.
    Reject {
        /// The computed file reputation.
        reputation: Evaluation,
    },
    /// No evaluator carries any reputation with this user; the file is
    /// unknown and the caller must fall back to its own policy.
    Unknown,
}

impl DownloadDecision {
    /// Whether the decision is to download.
    #[must_use]
    pub fn is_accept(&self) -> bool {
        matches!(self, Self::Accept { .. })
    }
}

impl fmt::Display for DownloadDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Accept { reputation } => write!(f, "accept (R_f = {reputation})"),
            Self::Reject { reputation } => write!(f, "reject (R_f = {reputation})"),
            Self::Unknown => f.write_str("unknown (no reputable evaluators)"),
        }
    }
}

/// Equation 9: the reputation of a file in the eyes of `viewer`, given the
/// owners' published evaluations. Returns `None` when no owner carries
/// positive reputation with the viewer (the denominator would be zero).
///
/// # Examples
///
/// ```
/// use mdrep::{file_reputation, OwnerEvaluation, Params, ReputationMatrix};
/// use mdrep_matrix::{CsrMatrix, SparseMatrix};
/// use mdrep_types::{Evaluation, UserId};
///
/// let (me, friend, stranger) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// let mut tm = SparseMatrix::new();
/// tm.set(me, friend, 1.0)?;
/// let rm = ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &Params::default());
///
/// // My friend says the file is fake; a stranger praises it.
/// let evals = [
///     OwnerEvaluation::new(friend, Evaluation::WORST),
///     OwnerEvaluation::new(stranger, Evaluation::BEST),
/// ];
/// let r = file_reputation(&rm, me, &evals).unwrap();
/// // Only the friend counts: R_f = 0.
/// assert_eq!(r, Evaluation::WORST);
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[must_use]
pub fn file_reputation(
    rm: &ReputationMatrix,
    viewer: UserId,
    evaluations: &[OwnerEvaluation],
) -> Option<Evaluation> {
    mdrep_obs::global().counter_inc("engine.file_reputation.count");
    let row = rm.matrix().row_view(viewer);
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for oe in evaluations {
        let r = row.get(oe.owner);
        if r > 0.0 {
            weighted += r * oe.evaluation.value();
            weight += r;
        }
    }
    if weight > 0.0 {
        Some(Evaluation::clamped(weighted / weight))
    } else {
        None
    }
}

/// Batched Equation 9: one file's owner evaluations scored by many viewers
/// at once. The owner columns are resolved against the frozen `RM` once,
/// each viewer's row is looked up once, and each owner costs one search
/// within that row. Each result is exactly what [`file_reputation`]
/// returns for that viewer.
///
/// # Examples
///
/// ```
/// use mdrep::{file_reputation_batch, OwnerEvaluation, Params, ReputationMatrix};
/// use mdrep_matrix::{CsrMatrix, SparseMatrix};
/// use mdrep_types::{Evaluation, UserId};
///
/// let (a, b, owner) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// let mut tm = SparseMatrix::new();
/// tm.set(a, owner, 1.0)?;
/// let rm = ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &Params::default());
///
/// let evals = [OwnerEvaluation::new(owner, Evaluation::BEST)];
/// let scores = file_reputation_batch(&rm, &[a, b], &evals);
/// assert_eq!(scores[0], Some(Evaluation::BEST)); // a trusts the owner
/// assert_eq!(scores[1], None); // b knows no evaluator
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[must_use]
pub fn file_reputation_batch(
    rm: &ReputationMatrix,
    viewers: &[UserId],
    evaluations: &[OwnerEvaluation],
) -> Vec<Option<Evaluation>> {
    mdrep_obs::global().counter_add("engine.file_reputation.count", viewers.len() as u64);
    let mut phase = mdrep_obs::phase("engine.eq9.gather");
    phase.annotate("viewers", viewers.len());
    phase.annotate("owners", evaluations.len());
    let matrix = rm.matrix();
    let owners: Vec<UserId> = evaluations.iter().map(|oe| oe.owner).collect();
    let set = matrix.column_set(&owners);
    let mut gathered = Vec::with_capacity(owners.len());
    viewers
        .iter()
        .map(|&viewer| {
            matrix.gather_row(viewer, &set, &mut gathered);
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for (&r, oe) in gathered.iter().zip(evaluations) {
                if r > 0.0 {
                    weighted += r * oe.evaluation.value();
                    weight += r;
                }
            }
            (weight > 0.0).then(|| Evaluation::clamped(weighted / weight))
        })
        .collect()
}

/// Applies the viewer's threshold to Equation 9, producing a
/// [`DownloadDecision`].
#[must_use]
pub fn download_decision(
    rm: &ReputationMatrix,
    viewer: UserId,
    evaluations: &[OwnerEvaluation],
    params: &Params,
) -> DownloadDecision {
    let decision = match file_reputation(rm, viewer, evaluations) {
        None => DownloadDecision::Unknown,
        Some(reputation) => {
            if reputation.is_below(params.fake_threshold()) {
                DownloadDecision::Reject { reputation }
            } else {
                DownloadDecision::Accept { reputation }
            }
        }
    };
    let outcome = match decision {
        DownloadDecision::Accept { .. } => "engine.decide.accept",
        DownloadDecision::Reject { .. } => "engine.decide.reject",
        DownloadDecision::Unknown => "engine.decide.unknown",
    };
    mdrep_obs::global().counter_inc(outcome);
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{CsrMatrix, SparseMatrix};

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    fn e(v: f64) -> Evaluation {
        Evaluation::new(v).unwrap()
    }

    fn rm_with(entries: &[(u64, u64, f64)]) -> ReputationMatrix {
        let mut tm = SparseMatrix::new();
        for &(i, j, v) in entries {
            tm.set(u(i), u(j), v).unwrap();
        }
        ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &Params::default())
    }

    #[test]
    fn equation_nine_hand_computed() {
        // RM_01 = 0.75, RM_02 = 0.25; E_1f = 0.8, E_2f = 0.4.
        // R_f = (0.75·0.8 + 0.25·0.4) / 1.0 = 0.7.
        let rm = rm_with(&[(0, 1, 0.75), (0, 2, 0.25)]);
        let evals = [
            OwnerEvaluation::new(u(1), e(0.8)),
            OwnerEvaluation::new(u(2), e(0.4)),
        ];
        let r = file_reputation(&rm, u(0), &evals).unwrap();
        assert!((r.value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn unreputable_evaluators_are_ignored() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        let evals = [
            OwnerEvaluation::new(u(1), e(0.9)),
            OwnerEvaluation::new(u(9), e(0.0)),
        ];
        let r = file_reputation(&rm, u(0), &evals).unwrap();
        assert!((r.value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn no_reputable_evaluators_gives_none() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        let evals = [OwnerEvaluation::new(u(9), e(1.0))];
        assert_eq!(file_reputation(&rm, u(0), &evals), None);
        assert_eq!(file_reputation(&rm, u(0), &[]), None);
    }

    #[test]
    fn decision_threshold() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        let params = Params::default(); // threshold 0.5
        let good = [OwnerEvaluation::new(u(1), e(0.9))];
        let bad = [OwnerEvaluation::new(u(1), e(0.1))];
        let none = [OwnerEvaluation::new(u(7), e(0.9))];
        assert!(download_decision(&rm, u(0), &good, &params).is_accept());
        assert!(matches!(
            download_decision(&rm, u(0), &bad, &params),
            DownloadDecision::Reject { .. }
        ));
        assert_eq!(
            download_decision(&rm, u(0), &none, &params),
            DownloadDecision::Unknown
        );
    }

    #[test]
    fn exactly_at_threshold_accepts() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        let params = Params::default();
        let evals = [OwnerEvaluation::new(u(1), Evaluation::NEUTRAL)];
        assert!(download_decision(&rm, u(0), &evals, &params).is_accept());
    }

    #[test]
    fn liar_clique_outweighed_by_reputable_friend() {
        // Viewer trusts user 1 (0.9) and barely knows the clique (0.05 each).
        let rm = rm_with(&[(0, 1, 0.9), (0, 2, 0.05), (0, 3, 0.05)]);
        let evals = [
            OwnerEvaluation::new(u(1), Evaluation::WORST), // honest: it's fake
            OwnerEvaluation::new(u(2), Evaluation::BEST),  // liars
            OwnerEvaluation::new(u(3), Evaluation::BEST),
        ];
        let r = file_reputation(&rm, u(0), &evals).unwrap();
        assert!(r.value() < 0.2, "got {r}");
    }

    #[test]
    fn batch_matches_scalar_per_viewer() {
        let rm = rm_with(&[(0, 1, 0.75), (0, 2, 0.25), (3, 1, 1.0)]);
        let evals = [
            OwnerEvaluation::new(u(1), e(0.8)),
            OwnerEvaluation::new(u(2), e(0.4)),
            OwnerEvaluation::new(u(9), e(1.0)), // unknown to everyone
        ];
        let viewers = [u(0), u(3), u(7)];
        let batch = file_reputation_batch(&rm, &viewers, &evals);
        for (i, &viewer) in viewers.iter().enumerate() {
            assert_eq!(batch[i], file_reputation(&rm, viewer, &evals));
        }
        assert!(batch[2].is_none(), "viewer 7 has no row");
    }

    #[test]
    fn batch_handles_empty_inputs() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        assert!(file_reputation_batch(&rm, &[], &[]).is_empty());
        assert_eq!(
            file_reputation_batch(&rm, &[u(0)], &[]),
            vec![None],
            "no owners means no denominator"
        );
    }

    #[test]
    fn decision_display() {
        let rm = rm_with(&[(0, 1, 1.0)]);
        let params = Params::default();
        let evals = [OwnerEvaluation::new(u(1), e(0.9))];
        let d = download_decision(&rm, u(0), &evals, &params);
        assert!(d.to_string().contains("accept"));
        assert!(DownloadDecision::Unknown.to_string().contains("unknown"));
    }
}
