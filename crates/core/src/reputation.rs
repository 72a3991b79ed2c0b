//! Multi-trust reputation: Equation 8 and the tier view.
//!
//! `RM = TM^n` extends direct trust along paths: friends form tier 1,
//! friends-of-friends tier 2, and so on (Lian et al.'s multi-trust). The
//! paper finds `n = 1` sufficient for Maze because the multi-dimensional
//! one-step matrix is already dense, but keeps the n-step form for sparser
//! overlays — so does this module.

use crate::params::Params;
use mdrep_matrix::{CsrMatrix, PowerOptions};
use mdrep_types::UserId;
use std::fmt;
use std::sync::Arc;

/// Which trust tier a peer falls into from a requester's point of view.
///
/// Tier 1 = direct trust (an entry in `TM`), tier 2 = trust through one
/// intermediary (`TM²`), etc. Lower tiers get better service; within a
/// tier, peers rank by the matrix value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustTier {
    /// The tier level (1-based).
    pub level: u32,
    /// The trust value inside that tier's matrix.
    pub value: f64,
}

impl fmt::Display for TrustTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier {} ({:.4})", self.level, self.value)
    }
}

/// The computed reputation matrix `RM = TM^n` plus every intermediate tier.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ReputationMatrix};
/// use mdrep_matrix::{CsrMatrix, SparseMatrix};
/// use mdrep_types::UserId;
///
/// // A trust chain 0 → 1 → 2 with two multi-trust steps.
/// let mut tm = SparseMatrix::new();
/// tm.set(UserId::new(0), UserId::new(1), 1.0)?;
/// tm.set(UserId::new(1), UserId::new(2), 1.0)?;
/// let params = Params::builder().steps(2).build().expect("valid");
///
/// let rm = ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &params);
/// // User 2 is reachable from 0 only at tier 2.
/// assert_eq!(rm.tier_of(UserId::new(0), UserId::new(2)).unwrap().level, 2);
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReputationMatrix {
    tiers: Vec<CsrMatrix>,
}

impl ReputationMatrix {
    /// Computes `TM^1 … TM^n` (Equation 8 keeps the final power; the
    /// intermediate powers provide the tier view).
    ///
    /// The base matrix is compacted first (folding any dirty-row overlay
    /// into contiguous storage) so every SpGEMM step runs on pure
    /// `indptr`/`cols`/`vals` slices.
    #[must_use]
    pub fn compute_csr(tm: CsrMatrix, params: &Params) -> Self {
        let base = if tm.is_compact() { tm } else { tm.compact() };
        let n = params.steps();
        let options = if params.prune_threshold() > 0.0 || params.top_k().is_some() {
            PowerOptions::pruned(params.prune_threshold()).with_top_k(params.top_k())
        } else {
            PowerOptions::exact()
        };
        let mut tiers = Vec::with_capacity(n as usize);
        tiers.push(base.clone());
        let threads = params.effective_threads();
        for _ in 1..n {
            let prev = tiers.last().expect("non-empty");
            // Large products fan out across cores; small ones stay serial.
            let next = {
                let _phase = mdrep_obs::phase("engine.recompute.matrix_power");
                let t = if prev.nnz() > 20_000 { threads } else { 1 };
                prev.multiply_step(&base, options, t)
            };
            tiers.push(next);
        }
        Self { tiers }
    }

    /// The final `RM = TM^n`.
    #[must_use]
    pub fn matrix(&self) -> &CsrMatrix {
        self.tiers.last().expect("at least one tier")
    }

    /// Patches one row of a single-step (`n = 1`) matrix in place — the
    /// dirty-row recompute path, where `RM` *is* `TM` and only changed rows
    /// need rewriting. Takes the worker-prebuilt row so `TM` and `RM`
    /// share one `Arc` per patched row. An empty row removes the row.
    ///
    /// # Panics
    ///
    /// Panics (debug) when more than one tier exists; multi-step matrices
    /// must be recomputed from the patched `TM` instead. Panics on rows
    /// [`CsrMatrix::set_row`] rejects.
    pub(crate) fn set_one_step_row(&mut self, row: UserId, values: Arc<[(UserId, f64)]>) {
        debug_assert_eq!(self.tiers.len(), 1, "row patching requires n = 1");
        let tier = self.tiers.first_mut().expect("at least one tier");
        tier.set_row(row, values);
    }

    /// Approximate heap bytes across all tiers (frozen storage plus
    /// overlay row slabs) — the full-clone denominator of the engine's
    /// copy-on-write publish gauges.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.tiers
            .iter()
            .map(|t| t.storage_bytes() + t.overlay_bytes())
            .sum()
    }

    /// Number of computed tiers (`n`).
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.tiers.len() as u32
    }

    /// `RM_ij`: the reputation `i` assigns to `j` (0 when unreachable).
    #[must_use]
    pub fn reputation(&self, i: UserId, j: UserId) -> f64 {
        self.matrix().get(i, j)
    }

    /// The largest reputation value `i` assigns to anyone (0 when `i` has
    /// no row) — the normalization base for relative-reputation queries.
    #[must_use]
    pub fn row_max(&self, i: UserId) -> f64 {
        self.matrix().row_max(i)
    }

    /// The lowest tier at which `i` reaches `j`, per the multi-tier
    /// incentive scheme ("the smaller level the user belongs to, the higher
    /// priority"). `None` when `j` is unreachable within `n` steps.
    #[must_use]
    pub fn tier_of(&self, i: UserId, j: UserId) -> Option<TrustTier> {
        for (idx, tier) in self.tiers.iter().enumerate() {
            let v = tier.get(i, j);
            if v > 0.0 {
                return Some(TrustTier {
                    level: idx as u32 + 1,
                    value: v,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::SparseMatrix;

    /// Equation 8 over a reference `TM`.
    fn compute(tm: &SparseMatrix, params: &Params) -> ReputationMatrix {
        ReputationMatrix::compute_csr(CsrMatrix::freeze(tm), params)
    }

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// 0 → 1 → 2 → 3 chain, row-stochastic.
    fn chain() -> SparseMatrix {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        m.set(u(1), u(2), 1.0).unwrap();
        m.set(u(2), u(3), 1.0).unwrap();
        m
    }

    fn params(n: u32) -> Params {
        Params::builder().steps(n).build().unwrap()
    }

    #[test]
    fn one_step_is_tm_itself() {
        let tm = chain();
        let rm = compute(&tm, &params(1));
        assert_eq!(rm.steps(), 1);
        assert_eq!(rm.matrix(), &tm);
        assert_eq!(rm.reputation(u(0), u(1)), 1.0);
        assert_eq!(rm.reputation(u(0), u(2)), 0.0);
    }

    #[test]
    fn deeper_steps_extend_reach() {
        let tm = chain();
        let rm = compute(&tm, &params(3));
        // TM³ maps 0 → 3.
        assert_eq!(rm.reputation(u(0), u(3)), 1.0);
        assert_eq!(rm.reputation(u(0), u(1)), 0.0, "mass moved past tier 1");
    }

    #[test]
    fn tiers_report_the_first_hop_count() {
        let tm = chain();
        let rm = compute(&tm, &params(3));
        assert_eq!(rm.tier_of(u(0), u(1)).unwrap().level, 1);
        assert_eq!(rm.tier_of(u(0), u(2)).unwrap().level, 2);
        assert_eq!(rm.tier_of(u(0), u(3)).unwrap().level, 3);
        assert!(rm.tier_of(u(3), u(0)).is_none(), "chain is directed");
        assert!(rm.tier_of(u(0), u(9)).is_none());
    }

    #[test]
    fn tier_display() {
        let t = TrustTier {
            level: 2,
            value: 0.25,
        };
        assert_eq!(t.to_string(), "tier 2 (0.2500)");
    }

    #[test]
    fn branching_distributes_reputation() {
        // 0 trusts 1 (0.75) and 2 (0.25); both trust 3.
        let mut tm = SparseMatrix::new();
        tm.set(u(0), u(1), 0.75).unwrap();
        tm.set(u(0), u(2), 0.25).unwrap();
        tm.set(u(1), u(3), 1.0).unwrap();
        tm.set(u(2), u(3), 1.0).unwrap();
        let rm = compute(&tm, &params(2));
        assert!((rm.reputation(u(0), u(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_drops_small_paths() {
        let mut tm = SparseMatrix::new();
        tm.set(u(0), u(1), 0.99).unwrap();
        tm.set(u(0), u(2), 0.01).unwrap();
        tm.set(u(1), u(3), 1.0).unwrap();
        tm.set(u(2), u(4), 1.0).unwrap();
        let p = Params::builder()
            .steps(2)
            .prune_threshold(0.05)
            .build()
            .unwrap();
        let rm = compute(&tm, &p);
        assert_eq!(rm.reputation(u(0), u(4)), 0.0, "weak path pruned");
        assert!(rm.reputation(u(0), u(3)) > 0.9);
    }

    #[test]
    fn row_max_reads_the_largest_entry() {
        let tm = chain();
        let rm = compute(&tm, &params(1));
        assert_eq!(rm.row_max(u(0)), 1.0);
        assert_eq!(rm.row_max(u(3)), 0.0, "no row means no mass");
    }
}
