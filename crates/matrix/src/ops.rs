//! Matrix-level operations: blending (Equation 7) and powers (Equation 8).

use crate::csr::map_chunks;
use crate::sparse::{SparseMatrix, SparseVector};
use mdrep_types::UserId;
use std::error::Error;
use std::fmt;

/// Error returned by [`blend`] when the weights are not a convex combination.
#[derive(Debug, Clone, PartialEq)]
pub struct BlendError {
    weights: Vec<f64>,
}

impl fmt::Display for BlendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blend weights {:?} must be finite, non-negative, and sum to 1",
            self.weights
        )
    }
}

impl Error for BlendError {}

/// Equation 7: `TM = Σ wᵢ·Mᵢ` for a convex weight vector (`Σ wᵢ = 1`,
/// `wᵢ ≥ 0`).
///
/// The paper's instance is `TM = α·FM + β·DM + γ·UM`, but the equation "can
/// be extended easily" to more dimensions — hence the slice API.
///
/// # Errors
///
/// Returns [`BlendError`] when the weight vector is empty, contains a
/// negative or non-finite weight, or does not sum to 1 (within `1e-9`).
///
/// # Examples
///
/// ```
/// use mdrep_matrix::{blend, SparseMatrix};
/// use mdrep_types::UserId;
///
/// let mut fm = SparseMatrix::new();
/// fm.set(UserId::new(0), UserId::new(1), 1.0)?;
/// let mut dm = SparseMatrix::new();
/// dm.set(UserId::new(0), UserId::new(2), 1.0)?;
/// let tm = blend(&[(0.7, &fm), (0.3, &dm)]).expect("valid weights");
/// assert_eq!(tm.get(UserId::new(0), UserId::new(1)), 0.7);
/// assert_eq!(tm.get(UserId::new(0), UserId::new(2)), 0.3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn blend(parts: &[(f64, &SparseMatrix)]) -> Result<SparseMatrix, BlendError> {
    blend_parallel(parts, 1)
}

/// Validates that `parts` carries a convex weight vector.
fn validate_blend_weights(parts: &[(f64, &SparseMatrix)]) -> Result<(), BlendError> {
    validate_blend_weights_by_value(parts.iter().map(|(w, _)| *w))
}

/// Weight validation shared with the frozen (CSR) blend, which carries its
/// parts in a different tuple type.
pub(crate) fn validate_blend_weights_by_value<I: IntoIterator<Item = f64>>(
    weights: I,
) -> Result<(), BlendError> {
    let weights: Vec<f64> = weights.into_iter().collect();
    let valid = !weights.is_empty()
        && weights.iter().all(|w| w.is_finite() && *w >= 0.0)
        && (weights.iter().sum::<f64>() - 1.0).abs() <= 1e-9;
    if valid {
        Ok(())
    } else {
        Err(BlendError { weights })
    }
}

/// One row of Equation 7: `out_r = Σ wᵢ·Mᵢ[r]`, accumulated in `parts`
/// order so a row blended here is bit-identical to the same row of
/// [`blend`]. Weights are *not* validated — this is the inner loop shared
/// by the batch and dirty-row paths; validate once at the call boundary.
#[must_use]
pub fn blend_row(parts: &[(f64, &SparseMatrix)], row: UserId) -> SparseVector {
    let mut out = SparseVector::new();
    for (w, m) in parts {
        if *w == 0.0 {
            continue;
        }
        if let Some(cols) = m.row(row) {
            for (&c, &v) in cols {
                *out.entry(c).or_insert(0.0) += w * v;
            }
        }
    }
    out.retain(|_, v| *v != 0.0);
    out
}

/// [`blend_row`] over `(column, value)` rows in ascending column order,
/// returned as a pair vector: each column accumulates `Σ wᵢ·vᵢ` from `0.0`
/// in `parts` order, zero-weight parts are skipped and zero sums dropped.
/// The column key is a [`UserId`] or an index position; since positions
/// follow id order, both spaces blend to the same bits.
#[must_use]
pub fn blend_entries<K: Copy + Ord, const N: usize>(
    parts: [(f64, &[(K, f64)]); N],
) -> Vec<(K, f64)> {
    let mut out = Vec::new();
    blend_entries_into(parts, &mut out);
    out
}

/// [`blend_entries`] into a caller's buffer: `out` is cleared, then filled
/// with the same entries, so a worker that blends many rows reuses one
/// allocation for all of them.
pub fn blend_entries_into<K: Copy + Ord, const N: usize>(
    parts: [(f64, &[(K, f64)]); N],
    out: &mut Vec<(K, f64)>,
) {
    out.clear();
    let parts = parts.map(|(w, row)| (w, if w == 0.0 { &[][..] } else { row }));
    let mut at = [0usize; N];
    while let Some(c) = (0..N)
        .filter_map(|k| parts[k].1.get(at[k]).map(|e| e.0))
        .min()
    {
        let mut sum = 0.0;
        for (k, (w, row)) in parts.iter().enumerate() {
            if let Some(&(col, v)) = row.get(at[k]) {
                if col == c {
                    sum += w * v;
                    at[k] += 1;
                }
            }
        }
        if sum != 0.0 {
            out.push((c, sum));
        }
    }
}

/// Equation 7 computed across `threads` OS threads: the union of row ids is
/// partitioned and each thread blends its slice row-by-row (the same
/// scoped-thread pattern as [`SparseMatrix::multiply_parallel`]). Produces
/// exactly the same matrix as [`blend`].
///
/// # Errors
///
/// Returns [`BlendError`] under the same conditions as [`blend`].
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn blend_parallel(
    parts: &[(f64, &SparseMatrix)],
    threads: usize,
) -> Result<SparseMatrix, BlendError> {
    assert!(threads >= 1, "at least one thread is required");
    validate_blend_weights(parts)?;
    let rows: Vec<UserId> = {
        let mut ids: Vec<UserId> = parts.iter().flat_map(|(_, m)| m.row_ids()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let built = build_rows_parallel(&rows, threads, |r| blend_row(parts, r));
    let mut out = SparseMatrix::new();
    for (r, row) in built {
        out.insert_row(r, row);
    }
    Ok(out)
}

/// Row-partitioned parallel row construction: evaluates `f` for every id in
/// `rows` across `threads` scoped OS threads and returns the `(id, row)`
/// pairs in the order of `rows`. Rows are computed independently, so the
/// output is identical to the serial loop for any thread count — this is
/// the building block behind the parallel one-step matrix builds.
///
/// Small inputs (fewer than two rows per thread) fall back to the serial
/// loop, like [`SparseMatrix::multiply_parallel`].
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn build_rows_parallel<F>(rows: &[UserId], threads: usize, f: F) -> Vec<(UserId, SparseVector)>
where
    F: Fn(UserId) -> SparseVector + Sync,
{
    map_chunks(rows, threads, |chunk| {
        chunk.iter().map(|&r| (r, f(r))).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Options controlling [`SparseMatrix::power`] and the frozen
/// [`CsrMatrix::power`](crate::CsrMatrix::power).
///
/// Pruning is **fused into each multiplication step**: every product row is
/// ε-filtered and (optionally) reduced to its `top_k` heaviest entries the
/// moment it is accumulated, so no intermediate dense matrix is ever
/// materialized. The per-row rule, applied identically by the `BTreeMap`
/// and CSR paths, is:
///
/// 1. drop entries below [`prune_threshold`](Self::prune_threshold)
///    (`0.0` keeps everything non-zero),
/// 2. keep only the [`top_k`](Self::top_k) heaviest survivors — ties at
///    the boundary break toward the **smaller column position** (equal to
///    ascending user id), so results are deterministic and independent of
///    thread count,
/// 3. rescale the kept entries to sum 1 when
///    [`renormalize`](Self::renormalize) is set, keeping the matrix
///    row-stochastic.
///
/// When [`top_k`](Self::top_k) is set, the same rule is additionally
/// applied as a **fan-out screen** to each input row of the left operand
/// before accumulation: a hop propagates through at most `k` most-trusted
/// intermediaries (a truncated random walk), so per-row product work drops
/// from `deg_a · deg_b` to `k · deg_b` — the source of the multi-hop
/// speedup, not just a smaller output. ε-only pruning (`top_k == None`)
/// keeps the original output-only semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerOptions {
    /// Entries below this magnitude are dropped from every product row,
    /// bounding fill-in. `0.0` disables the threshold.
    pub prune_threshold: f64,
    /// Upper bound on entries kept per product row (the k-heaviest survive
    /// the ε-filter; ties break toward the smaller column position).
    /// `None` keeps every surviving entry. `Some(0)` is invalid.
    pub top_k: Option<usize>,
    /// Renormalize rows after pruning so the result stays row-stochastic.
    pub renormalize: bool,
}

impl Default for PowerOptions {
    fn default() -> Self {
        Self {
            prune_threshold: 0.0,
            top_k: None,
            renormalize: false,
        }
    }
}

impl PowerOptions {
    /// Exact computation: no pruning, no renormalization.
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// Pruned computation that keeps rows stochastic: entries below
    /// `threshold` are dropped and rows rescaled after each step.
    #[must_use]
    pub fn pruned(threshold: f64) -> Self {
        Self {
            prune_threshold: threshold,
            top_k: None,
            renormalize: true,
        }
    }

    /// Sets (or clears) the per-row `top_k` bound, keeping the other
    /// options. `PowerOptions::pruned(eps).with_top_k(Some(k))` is the
    /// fused multi-hop operating point: ε-drop, keep the k heaviest,
    /// renormalize.
    #[must_use]
    pub fn with_top_k(mut self, top_k: Option<usize>) -> Self {
        self.top_k = top_k;
        self
    }

    /// Whether any pruning rule is active. When `false`, the power is
    /// exact and `renormalize` has no effect — `prune_threshold == 0.0`
    /// with `top_k == None` reproduces [`exact`](Self::exact)
    /// bit-identically.
    #[must_use]
    pub fn is_pruning(&self) -> bool {
        self.prune_threshold > 0.0 || self.top_k.is_some()
    }
}

/// Applies the fused per-row pruning rule of [`PowerOptions`] to one
/// product row: ε-drop, top-k partial-select (ties toward the smaller
/// user id), optional renormalization. Shared semantics with the CSR
/// emit loop in `csr.rs` — the accumulation order (ascending id) and the
/// renormalization sum order are identical, so the two paths produce
/// bit-identical rows.
pub(crate) fn prune_row_fused(row: &mut SparseVector, options: &PowerOptions) {
    if options.prune_threshold > 0.0 {
        row.retain(|_, v| *v >= options.prune_threshold);
    }
    if let Some(k) = options.top_k {
        assert!(k >= 1, "top_k must be at least 1 when set");
        if row.len() > k {
            let mut entries: Vec<(UserId, f64)> = row.iter().map(|(&c, &v)| (c, v)).collect();
            // The k heaviest first; ties break toward the smaller id —
            // the same total order the CSR kernel applies to column
            // positions, so the kept set is identical on both paths.
            entries.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            *row = entries.into_iter().collect();
        }
    }
    if options.renormalize && !crate::sparse::normalize_row_mut(row) {
        row.clear();
    }
}

/// Applies [`prune_row_fused`] to every row of `m` (rows emptied by the
/// ε-filter are removed).
fn prune_matrix_fused(m: &mut SparseMatrix, options: &PowerOptions) {
    let rows: Vec<UserId> = m.row_ids().collect();
    for r in rows {
        let mut row = m.row(r).expect("row id came from row_ids").clone();
        prune_row_fused(&mut row, options);
        m.set_row(r, row).expect("pruning keeps entries valid");
    }
}

/// One fused multi-hop step with a top-k fan-out cap: every row of `a`
/// first passes [`prune_row_fused`] — the hop propagates through at most
/// `top_k` most-trusted intermediaries, renormalized — then the product
/// row against `b` is accumulated in ascending id order and passed
/// through the same rule. Capping the *input* is what makes the step
/// cheaper than an exact multiply (the product work shrinks from
/// `deg_a · deg_b` to `k · deg_b` per row), not just its output smaller;
/// it is the truncated-random-walk semantics, only reachable when
/// `top_k` is set.
///
/// Mirrored operation-for-operation by the CSR kernel's screened path in
/// `csr.rs` — identical filter, selection comparator, normalization sum
/// order, and ascending-id accumulation order, so the two paths stay
/// bit-identical.
pub(crate) fn pruned_multiply(
    a: &SparseMatrix,
    b: &SparseMatrix,
    options: &PowerOptions,
) -> SparseMatrix {
    let mut out = SparseMatrix::new();
    for r in a.row_ids().collect::<Vec<_>>() {
        let mut row = a.row(r).expect("row id came from row_ids").clone();
        prune_row_fused(&mut row, options);
        let mut product = b.vector_multiply(&row);
        prune_row_fused(&mut product, options);
        out.insert_row(r, product);
    }
    out
}

impl SparseMatrix {
    /// Sparse matrix product `self · other`.
    ///
    /// Complexity is `O(Σ_r nnz(row_r) · avg_nnz(other))`; the row-major
    /// layout makes each output row a sum of scaled rows of `other`.
    #[must_use]
    pub fn multiply(&self, other: &Self) -> Self {
        let mut out = Self::new();
        for r in self.row_ids().collect::<Vec<_>>() {
            let row = self.row(r).expect("row id came from row_ids");
            let product: SparseVector = other.vector_multiply(row);
            out.insert_row(r, product);
        }
        out
    }

    /// Sparse matrix product computed across `threads` OS threads (rows of
    /// `self` are partitioned; each thread multiplies its slice against
    /// `other`). Produces exactly the same result as
    /// [`multiply`](Self::multiply); worthwhile from a few tens of
    /// thousands of non-zeros upward.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn multiply_parallel(&self, other: &Self, threads: usize) -> Self {
        let rows: Vec<UserId> = self.row_ids().collect();
        let built = build_rows_parallel(&rows, threads, |r| {
            other.vector_multiply(self.row(r).expect("row id came from row_ids"))
        });
        let mut out = Self::new();
        for (r, product) in built {
            out.insert_row(r, product);
        }
        out
    }

    /// [`normalized_rows`](Self::normalized_rows) computed across `threads`
    /// OS threads via [`build_rows_parallel`]; identical output for any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn normalized_rows_parallel(&self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread is required");
        if threads == 1 {
            return self.normalized_rows();
        }
        let rows: Vec<UserId> = self.row_ids().collect();
        let built = build_rows_parallel(&rows, threads, |r| {
            self.row(r)
                .and_then(crate::sparse::normalized_row)
                .unwrap_or_default()
        });
        let mut out = Self::new();
        for (r, row) in built {
            out.insert_row(r, row);
        }
        out
    }

    /// The identity matrix over this matrix's id space (row ∪ column ids):
    /// `M^0` by the mathematical convention. The CSR counterpart is
    /// [`CsrMatrix::identity`](crate::CsrMatrix::identity) over the shared
    /// index.
    #[must_use]
    pub fn identity_like(&self) -> Self {
        let mut ids: Vec<UserId> = Vec::new();
        for (r, c, _) in self.iter() {
            ids.push(r);
            ids.push(c);
        }
        ids.sort_unstable();
        ids.dedup();
        let mut out = Self::new();
        for id in ids {
            out.set(id, id, 1.0).expect("1.0 is a valid entry");
        }
        out
    }

    /// Equation 8: `RM = TM^n`, with pruning fused into every step (see
    /// [`PowerOptions`]).
    ///
    /// `n = 0` returns the identity over the matrix's own id space
    /// ([`identity_like`](Self::identity_like)); `n = 1` returns a clone —
    /// the paper's choice for Maze, where the multi-dimensional one-step
    /// matrix is already dense enough. Larger `n` extends trust along
    /// paths: `RM_ij > 0` whenever j is reachable from i in at most `n`
    /// trust hops.
    ///
    /// Exact powers with `n ≥ 4` run by exponentiation-by-squaring
    /// (`O(log n)` multiplies); pruned powers stay iterative because the
    /// fused per-step pruning *is* their semantics. The squaring schedule
    /// is mirrored exactly by [`CsrMatrix::power`](crate::CsrMatrix::power),
    /// so the two paths remain bit-identical at every `n`.
    #[must_use]
    pub fn power(&self, n: u32, options: PowerOptions) -> Self {
        if n == 0 {
            return self.identity_like();
        }
        if n == 1 {
            return self.clone();
        }
        if options.is_pruning() || n < 4 {
            // With a top-k cap the hop consumes the row-pruned view of its
            // input (fan-out cap — see `pruned_multiply`); ε-only pruning
            // keeps the original output-only semantics.
            let step = |m: &Self| -> Self {
                if options.top_k.is_some() {
                    pruned_multiply(m, self, &options)
                } else {
                    let mut p = m.multiply(self);
                    if options.is_pruning() {
                        prune_matrix_fused(&mut p, &options);
                    }
                    p
                }
            };
            let mut acc = step(self);
            for _ in 2..n {
                acc = step(&acc);
            }
            return acc;
        }
        // Exact n ≥ 4: binary exponentiation. The accumulation schedule
        // (result · square, squares built left-to-right) must stay in
        // lockstep with the CSR implementation for bit-identical output.
        let mut result: Option<Self> = None;
        let mut square = self.clone();
        let mut e = n;
        loop {
            if e & 1 == 1 {
                result = Some(match result {
                    None => square.clone(),
                    Some(r) => r.multiply(&square),
                });
            }
            e >>= 1;
            if e == 0 {
                break;
            }
            square = square.multiply(&square);
        }
        result.expect("n >= 1 sets at least one bit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::UserId;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// Builds the 3-user chain 0 → 1 → 2 (row-stochastic).
    fn chain() -> SparseMatrix {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        m.set(u(1), u(2), 1.0).unwrap();
        m.set(u(2), u(2), 1.0).unwrap();
        m
    }

    #[test]
    fn blend_weighted_sum() {
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 1.0).unwrap();
        let mut b = SparseMatrix::new();
        b.set(u(0), u(1), 0.5).unwrap();
        b.set(u(1), u(0), 1.0).unwrap();
        let out = blend(&[(0.4, &a), (0.6, &b)]).unwrap();
        assert!((out.get(u(0), u(1)) - 0.7).abs() < 1e-12);
        assert!((out.get(u(1), u(0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn blend_preserves_row_stochasticity() {
        // Blending row-stochastic matrices with convex weights stays
        // row-stochastic when all matrices cover the same rows.
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 0.5).unwrap();
        a.set(u(0), u(2), 0.5).unwrap();
        let mut b = SparseMatrix::new();
        b.set(u(0), u(2), 1.0).unwrap();
        let out = blend(&[(0.5, &a), (0.5, &b)]).unwrap();
        assert!(out.is_row_stochastic(1e-12));
    }

    #[test]
    fn blend_rejects_bad_weights() {
        let m = SparseMatrix::new();
        assert!(blend(&[]).is_err());
        assert!(blend(&[(0.5, &m)]).is_err(), "must sum to one");
        assert!(blend(&[(-0.5, &m), (1.5, &m)]).is_err(), "negative weight");
        assert!(blend(&[(f64::NAN, &m), (1.0, &m)]).is_err());
        let err = blend(&[(0.2, &m)]).unwrap_err();
        assert!(err.to_string().contains("0.2"));
    }

    #[test]
    fn blend_with_three_dimensions_matches_equation_seven() {
        // α·FM + β·DM + γ·UM with hand-computed output.
        let mut fm = SparseMatrix::new();
        fm.set(u(0), u(1), 1.0).unwrap();
        let mut dm = SparseMatrix::new();
        dm.set(u(0), u(1), 1.0).unwrap();
        let mut um = SparseMatrix::new();
        um.set(u(0), u(2), 1.0).unwrap();
        let tm = blend(&[(0.5, &fm), (0.3, &dm), (0.2, &um)]).unwrap();
        assert!((tm.get(u(0), u(1)) - 0.8).abs() < 1e-12);
        assert!((tm.get(u(0), u(2)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn multiply_matches_hand_computation() {
        // A = [[0,1],[1,0]] (swap), A·A = I over the occupied rows.
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 1.0).unwrap();
        a.set(u(1), u(0), 1.0).unwrap();
        let sq = a.multiply(&a);
        assert_eq!(sq.get(u(0), u(0)), 1.0);
        assert_eq!(sq.get(u(1), u(1)), 1.0);
        assert_eq!(sq.get(u(0), u(1)), 0.0);
    }

    #[test]
    fn power_one_is_identity_operation() {
        let m = chain();
        assert_eq!(m.power(1, PowerOptions::exact()), m);
    }

    #[test]
    fn power_extends_reach_along_paths() {
        let m = chain();
        // One step: 0 reaches 1 only.
        assert_eq!(m.get(u(0), u(2)), 0.0);
        // Two steps: 0 reaches 2 through 1.
        let m2 = m.power(2, PowerOptions::exact());
        assert_eq!(m2.get(u(0), u(2)), 1.0);
        assert_eq!(m2.get(u(0), u(1)), 0.0);
    }

    #[test]
    fn power_of_stochastic_matrix_stays_stochastic() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(0), 0.2).unwrap();
        m.set(u(0), u(1), 0.8).unwrap();
        m.set(u(1), u(0), 0.6).unwrap();
        m.set(u(1), u(1), 0.4).unwrap();
        for n in 1..=5 {
            assert!(
                m.power(n, PowerOptions::exact()).is_row_stochastic(1e-9),
                "power {n}"
            );
        }
    }

    #[test]
    fn pruned_power_stays_stochastic_when_renormalizing() {
        // A dense-ish random-ish matrix with small entries.
        let mut m = SparseMatrix::new();
        for i in 0..8u64 {
            for j in 0..8u64 {
                m.set(u(i), u(j), 1.0 + ((i * 7 + j * 3) % 5) as f64)
                    .unwrap();
            }
        }
        let m = m.normalized_rows();
        let p = m.power(3, PowerOptions::pruned(0.05));
        assert!(p.is_row_stochastic(1e-9));
        assert!(p.nnz() <= m.power(3, PowerOptions::exact()).nnz());
    }

    #[test]
    fn power_zero_is_identity() {
        let m = chain();
        let id = m.power(0, PowerOptions::exact());
        // Diagonal ones over every id the matrix mentions (rows ∪ columns).
        for i in 0..=2u64 {
            assert_eq!(id.get(u(i), u(i)), 1.0);
        }
        assert_eq!(id.nnz(), 3, "chain mentions users 0, 1, 2");
        assert!(id.is_row_stochastic(0.0));
        assert_eq!(id, m.identity_like());
        // M^0 · M = M.
        assert_eq!(id.multiply(&m), m);
        assert!(SparseMatrix::new()
            .power(0, PowerOptions::exact())
            .is_empty());
    }

    #[test]
    fn exact_squaring_matches_iterated_multiply() {
        let mut m = SparseMatrix::new();
        for i in 0..12u64 {
            for j in 0..4u64 {
                m.set(u(i), u((i * 5 + j * 3) % 12), 1.0 + ((i + j) % 3) as f64)
                    .unwrap();
            }
        }
        let m = m.normalized_rows();
        for n in 4..=6u32 {
            let fast = m.power(n, PowerOptions::exact());
            let mut slow = m.clone();
            for _ in 1..n {
                slow = slow.multiply(&m);
            }
            assert!(fast.is_row_stochastic(1e-9), "n = {n}");
            for (r, c, v) in slow.iter() {
                assert!((fast.get(r, c) - v).abs() < 1e-12, "n = {n} at ({r}, {c})");
            }
            assert_eq!(fast.nnz(), slow.nnz(), "n = {n}");
        }
    }

    #[test]
    fn fused_top_k_bounds_rows_and_breaks_ties_deterministically() {
        // Row 0 has four equal-weight targets; top_k = 2 must keep the two
        // smallest ids (deterministic tie-break), renormalized to sum 1.
        let mut m = SparseMatrix::new();
        for j in 1..=4u64 {
            m.set(u(0), u(j), 0.25).unwrap();
        }
        m.set(u(1), u(0), 1.0).unwrap();
        let p = m.power(2, PowerOptions::pruned(0.0).with_top_k(Some(2)));
        // Row 1 → row 0 of M, pruned to its 2 heaviest (= smallest ids).
        assert_eq!(p.get(u(1), u(1)), 0.5);
        assert_eq!(p.get(u(1), u(2)), 0.5);
        assert_eq!(p.get(u(1), u(3)), 0.0, "tie lost to smaller id");
        assert!(p.row(u(1)).unwrap().len() <= 2);
        assert!(p.is_row_stochastic(1e-12));
    }

    #[test]
    fn fused_options_compose_eps_and_top_k() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.90).unwrap();
        m.set(u(0), u(2), 0.06).unwrap();
        m.set(u(0), u(3), 0.04).unwrap();
        m.set(u(1), u(0), 1.0).unwrap();
        m.set(u(2), u(0), 1.0).unwrap();
        m.set(u(3), u(0), 1.0).unwrap();
        // ε = 0.05 drops the 0.04 path first; top_k = 1 then keeps only
        // the heaviest survivor, renormalized to 1.
        let opts = PowerOptions::pruned(0.05).with_top_k(Some(1));
        assert!(opts.is_pruning());
        let p = m.power(2, opts);
        assert_eq!(p.row(u(1)).unwrap().len(), 1);
        assert_eq!(p.get(u(1), u(1)), 1.0);
        // ε=0 and k=None reproduce the exact power bit-identically even
        // with renormalize set: no pruning rule fires.
        let noop = PowerOptions::pruned(0.0);
        assert!(!noop.is_pruning());
        assert_eq!(m.power(2, noop), m.power(2, PowerOptions::exact()));
    }

    #[test]
    fn parallel_multiply_matches_sequential() {
        // A pseudo-random matrix large enough to actually split.
        let mut m = SparseMatrix::new();
        for i in 0..64u64 {
            for j in 0..8u64 {
                let col = (i * 17 + j * 29) % 64;
                m.set(u(i), u(col), 1.0 + ((i + j) % 7) as f64).unwrap();
            }
        }
        let m = m.normalized_rows();
        let sequential = m.multiply(&m);
        for threads in [1, 2, 4, 7] {
            let parallel = m.multiply_parallel(&m, threads);
            assert_eq!(parallel.nnz(), sequential.nnz(), "{threads} threads");
            for (r, c, v) in sequential.iter() {
                assert!(
                    (parallel.get(r, c) - v).abs() < 1e-12,
                    "{threads} threads at ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn parallel_multiply_small_input_falls_back() {
        let m = chain();
        assert_eq!(m.multiply_parallel(&m, 8), m.multiply(&m));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_multiply_zero_threads_panics() {
        let m = chain();
        let _ = m.multiply_parallel(&m, 0);
    }

    #[test]
    fn blend_parallel_matches_serial() {
        let mut a = SparseMatrix::new();
        let mut b = SparseMatrix::new();
        for i in 0..64u64 {
            a.set(u(i), u((i * 13) % 64), 1.0 + (i % 5) as f64).unwrap();
            b.set(u((i + 7) % 64), u(i), 0.5 + (i % 3) as f64).unwrap();
        }
        let a = a.normalized_rows();
        let b = b.normalized_rows();
        let serial = blend(&[(0.6, &a), (0.4, &b)]).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = blend_parallel(&[(0.6, &a), (0.4, &b)], threads).unwrap();
            assert_eq!(parallel, serial, "{threads} threads");
        }
        assert!(blend_parallel(&[(0.5, &a)], 4).is_err(), "weights checked");
    }

    #[test]
    fn blend_row_matches_blend() {
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 0.5).unwrap();
        a.set(u(0), u(2), 0.5).unwrap();
        let mut b = SparseMatrix::new();
        b.set(u(0), u(2), 1.0).unwrap();
        let whole = blend(&[(0.5, &a), (0.5, &b)]).unwrap();
        let row = blend_row(&[(0.5, &a), (0.5, &b)], u(0));
        assert_eq!(whole.row(u(0)).unwrap(), &row);
        assert!(blend_row(&[(0.5, &a), (0.5, &b)], u(9)).is_empty());
    }

    #[test]
    fn build_rows_parallel_keeps_order_and_values() {
        let rows: Vec<UserId> = (0..33u64).map(u).collect();
        for threads in [1, 2, 4, 16] {
            let built = build_rows_parallel(&rows, threads, |r| {
                [(r, r.as_u64() as f64 + 1.0)].into_iter().collect()
            });
            assert_eq!(built.len(), rows.len(), "{threads} threads");
            for (i, (r, row)) in built.iter().enumerate() {
                assert_eq!(*r, rows[i]);
                assert_eq!(row[r], r.as_u64() as f64 + 1.0);
            }
        }
    }

    #[test]
    fn normalized_rows_parallel_matches_serial() {
        let mut m = SparseMatrix::new();
        for i in 0..48u64 {
            for j in 0..4u64 {
                m.set(u(i), u((i * 11 + j * 5) % 48), 1.0 + ((i + j) % 7) as f64)
                    .unwrap();
            }
        }
        let serial = m.normalized_rows();
        for threads in [1, 3, 8] {
            assert_eq!(m.normalized_rows_parallel(threads), serial, "{threads}");
        }
    }

    #[test]
    fn multiply_empty_is_empty() {
        let empty = SparseMatrix::new();
        assert!(empty.multiply(&chain()).is_empty());
        assert!(chain().multiply(&empty).is_empty());
    }
}
