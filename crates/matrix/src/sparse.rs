//! The reference sparse matrix/vector over [`UserId`] indices: `BTreeMap`
//! rows, the form the property tests, doc examples and the EigenTrust
//! baseline compute with, and the one every [`CsrMatrix`](crate::CsrMatrix)
//! kernel is checked against bit for bit.

use mdrep_types::UserId;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error returned when inserting an invalid (negative or non-finite) entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixError {
    row: UserId,
    col: UserId,
    value: f64,
}

impl MatrixError {
    /// The offending value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix entry ({}, {}) = {} is not a finite non-negative value",
            self.row, self.col, self.value
        )
    }
}

impl Error for MatrixError {}

/// A sparse vector over user ids (one matrix row, or a reputation vector).
pub type SparseVector = BTreeMap<UserId, f64>;

/// Scales one sparse row to sum 1 (the per-row core of Equations 3/5/6).
/// Returns `None` for an empty or zero-sum row — the "no direct trust
/// relationship" case.
///
/// Both the batch matrix builders ([`SparseMatrix::normalized_rows`]) and
/// the incremental dirty-row rebuilds normalize through this one function,
/// which is what makes their outputs bit-identical.
#[must_use]
pub fn normalized_row(row: &SparseVector) -> Option<SparseVector> {
    let mut out = row.clone();
    normalize_row_mut(&mut out).then_some(out)
}

/// In-place variant of [`normalized_row`]: scales `row` to sum 1 without
/// allocating a fresh `BTreeMap`, returning `false` (and leaving the row
/// untouched) for an empty or zero-sum row. The division order is ascending
/// column id in both variants, so the outputs are bit-identical — callers
/// that build a temporary row can normalize it for free.
pub fn normalize_row_mut(row: &mut SparseVector) -> bool {
    let sum: f64 = row.values().sum();
    if sum <= 0.0 {
        return false;
    }
    for v in row.values_mut() {
        *v /= sum;
    }
    true
}

/// [`normalized_row`] over `(column, value)` entries in ascending column
/// order, returned as a pair vector: the same column-order sum and
/// per-entry division, with entries that underflow to zero dropped. A
/// zero-sum row normalizes to the empty row. The column key is opaque —
/// a [`UserId`] or an index position — so one kernel serves rows in
/// either space, with the same bits.
#[must_use]
pub fn normalized_entries<K>(raw: impl IntoIterator<Item = (K, f64)> + Clone) -> Vec<(K, f64)> {
    let mut out = Vec::new();
    normalize_entries_into(raw, &mut out);
    out
}

/// [`normalized_entries`] into a caller's buffer: `out` is cleared, then
/// filled with the same entries, so a worker that builds many rows reuses
/// one allocation for all of them.
pub fn normalize_entries_into<K>(
    raw: impl IntoIterator<Item = (K, f64)> + Clone,
    out: &mut Vec<(K, f64)>,
) {
    out.clear();
    let sum: f64 = raw.clone().into_iter().map(|(_, v)| v).sum();
    if sum <= 0.0 {
        return;
    }
    out.extend(
        raw.into_iter()
            .map(|(c, v)| (c, v / sum))
            .filter(|&(_, v)| v != 0.0),
    );
}

/// A sparse, row-major matrix over user ids with non-negative finite entries.
///
/// Trust values are non-negative by construction in the paper (Equations
/// 2–7), so the insertion API validates that invariant once and every
/// downstream operation can rely on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    rows: BTreeMap<UserId, SparseVector>,
}

impl SparseMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets entry `(row, col)` to `value`, replacing any previous value.
    /// A value of exactly `0.0` removes the entry.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] when `value` is negative, NaN, or infinite.
    pub fn set(&mut self, row: UserId, col: UserId, value: f64) -> Result<(), MatrixError> {
        if !value.is_finite() || value < 0.0 {
            return Err(MatrixError { row, col, value });
        }
        if value == 0.0 {
            if let Some(r) = self.rows.get_mut(&row) {
                r.remove(&col);
                if r.is_empty() {
                    self.rows.remove(&row);
                }
            }
        } else {
            self.rows.entry(row).or_default().insert(col, value);
        }
        Ok(())
    }

    /// Adds `delta` to entry `(row, col)` (missing entries count as zero).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] when the resulting value would be negative,
    /// NaN, or infinite; the matrix is left unchanged in that case.
    pub fn add(&mut self, row: UserId, col: UserId, delta: f64) -> Result<(), MatrixError> {
        let current = self.get(row, col);
        self.set(row, col, current + delta)
    }

    /// Removes entry `(row, col)`, dropping the row when it becomes empty.
    /// Returns whether an entry was present.
    pub fn remove(&mut self, row: UserId, col: UserId) -> bool {
        if let Some(cols) = self.rows.get_mut(&row) {
            let removed = cols.remove(&col).is_some();
            if cols.is_empty() {
                self.rows.remove(&row);
            }
            removed
        } else {
            false
        }
    }

    /// Returns entry `(row, col)`, with missing entries reading as `0.0`.
    #[must_use]
    pub fn get(&self, row: UserId, col: UserId) -> f64 {
        self.rows
            .get(&row)
            .and_then(|r| r.get(&col))
            .copied()
            .unwrap_or(0.0)
    }

    /// Returns the sparse row for `row`, if it has any entries.
    #[must_use]
    pub fn row(&self, row: UserId) -> Option<&SparseVector> {
        self.rows.get(&row)
    }

    /// Iterates over `(row, col, value)` triples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserId, f64)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&r, cols)| cols.iter().map(move |(&c, &v)| (r, c, v)))
    }

    /// Iterates over the row ids that have at least one entry.
    pub fn row_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.rows.keys().copied()
    }

    /// Number of stored (non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.values().map(BTreeMap::len).sum()
    }

    /// Number of non-empty rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of the entries of `row` (0.0 for a missing row), accumulated in
    /// ascending column order.
    #[must_use]
    pub fn row_sum(&self, row: UserId) -> f64 {
        self.rows.get(&row).map_or(0.0, |cols| cols.values().sum())
    }

    /// Equation 3/5/6: returns a copy of the matrix with every non-empty row
    /// scaled to sum to 1 (row-stochastic). Empty rows stay empty — the
    /// semantics the paper assigns to "no direct trust relationship".
    #[must_use]
    pub fn normalized_rows(&self) -> Self {
        let mut out = Self::new();
        for (&r, cols) in &self.rows {
            if let Some(row) = normalized_row(cols) {
                out.rows.insert(r, row);
            }
        }
        out
    }

    /// Returns `true` if every non-empty row sums to 1 within `tol`.
    #[must_use]
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.rows
            .values()
            .all(|r| (r.values().sum::<f64>() - 1.0).abs() <= tol)
    }

    /// Fraction of `(from, to)` request pairs covered by a non-zero entry —
    /// the paper's *request coverage* metric (Figure 1), evaluated against a
    /// replayed request log. Returns 0.0 for an empty request list.
    #[must_use]
    pub fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let covered = requests
            .iter()
            .filter(|(a, b)| self.get(*a, *b) > 0.0)
            .count();
        covered as f64 / requests.len() as f64
    }

    /// Multiplies a sparse row vector from the left: `out = v · M`.
    ///
    /// This is the workhorse of both the multi-trust power computation and
    /// EigenTrust's iteration `t' = Cᵀ·t` (which is exactly `t · C` in
    /// row-vector form).
    #[must_use]
    pub fn vector_multiply(&self, v: &SparseVector) -> SparseVector {
        let mut out = SparseVector::new();
        for (row, &weight) in v {
            if weight == 0.0 {
                continue;
            }
            if let Some(cols) = self.rows.get(row) {
                for (&c, &m) in cols {
                    *out.entry(c).or_insert(0.0) += weight * m;
                }
            }
        }
        out.retain(|_, val| *val != 0.0);
        out
    }

    /// Removes entries smaller than `threshold`, returning how many were
    /// dropped. Used to keep `TM^n` tractable on large overlays.
    pub fn prune(&mut self, threshold: f64) -> usize {
        let mut dropped = 0;
        self.rows.retain(|_, cols| {
            let before = cols.len();
            cols.retain(|_, v| *v >= threshold);
            dropped += before - cols.len();
            !cols.is_empty()
        });
        dropped
    }

    /// Replaces `row`'s entire sparse row in one move (crate-internal fast
    /// path for products, which build complete rows anyway). Zero and
    /// invalid entries must already be absent — callers derive rows from
    /// validated matrices.
    pub(crate) fn insert_row(&mut self, row: UserId, values: SparseVector) {
        if !values.is_empty() {
            self.rows.insert(row, values);
        }
    }

    /// Replaces `row` wholesale: zero entries are dropped, an empty (or
    /// all-zero) `values` removes the row. This is the dirty-row patch
    /// primitive of the incremental recompute path.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] on the first negative, NaN, or infinite
    /// entry; the matrix is left unchanged in that case.
    pub fn set_row(&mut self, row: UserId, values: SparseVector) -> Result<(), MatrixError> {
        if let Some((&col, &value)) = values.iter().find(|(_, v)| !v.is_finite() || **v < 0.0) {
            return Err(MatrixError { row, col, value });
        }
        let filtered = if values.values().any(|&v| v == 0.0) {
            values.into_iter().filter(|&(_, v)| v != 0.0).collect()
        } else {
            values
        };
        if filtered.is_empty() {
            self.rows.remove(&row);
        } else {
            self.rows.insert(row, filtered);
        }
        Ok(())
    }

    /// Removes `row` entirely; returns whether it existed.
    pub fn remove_row(&mut self, row: UserId) -> bool {
        self.rows.remove(&row).is_some()
    }

    /// Merges another matrix into this one entry-wise with a scale factor:
    /// `self += scale · other`. Negative results are clamped out by
    /// validation.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] on the first entry whose accumulated value
    /// would be invalid.
    pub fn accumulate(&mut self, other: &Self, scale: f64) -> Result<(), MatrixError> {
        for (r, c, v) in other.iter() {
            self.add(r, c, scale * v)?;
        }
        Ok(())
    }
}

impl FromIterator<(UserId, UserId, f64)> for SparseMatrix {
    /// Builds a matrix from `(row, col, value)` triples, **summing**
    /// duplicates. Invalid values are skipped (use [`SparseMatrix::set`] for
    /// validated insertion).
    fn from_iter<I: IntoIterator<Item = (UserId, UserId, f64)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (r, c, v) in iter {
            let _ = m.add(r, c, v);
        }
        m
    }
}

impl Extend<(UserId, UserId, f64)> for SparseMatrix {
    fn extend<I: IntoIterator<Item = (UserId, UserId, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            let _ = self.add(r, c, v);
        }
    }
}

impl fmt::Display for SparseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SparseMatrix[{} rows, {} nnz]",
            self.row_count(),
            self.nnz()
        )?;
        for (r, c, v) in self.iter().take(16) {
            writeln!(f, "  ({r}, {c}) = {v:.4}")?;
        }
        if self.nnz() > 16 {
            writeln!(f, "  … {} more", self.nnz() - 16)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn set_get_round_trip() {
        let mut m = SparseMatrix::new();
        m.set(u(1), u(2), 0.5).unwrap();
        assert_eq!(m.get(u(1), u(2)), 0.5);
        assert_eq!(m.get(u(2), u(1)), 0.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn set_zero_removes_entry() {
        let mut m = SparseMatrix::new();
        m.set(u(1), u(2), 0.5).unwrap();
        m.set(u(1), u(2), 0.0).unwrap();
        assert_eq!(m.nnz(), 0);
        assert!(m.is_empty());
        assert!(m.row(u(1)).is_none());
    }

    #[test]
    fn invalid_values_rejected() {
        let mut m = SparseMatrix::new();
        assert!(m.set(u(0), u(0), -1.0).is_err());
        assert!(m.set(u(0), u(0), f64::NAN).is_err());
        assert!(m.set(u(0), u(0), f64::INFINITY).is_err());
        assert!(m.is_empty());
        let err = m.set(u(0), u(0), -2.0).unwrap_err();
        assert_eq!(err.value(), -2.0);
        assert!(err.to_string().contains("-2"));
    }

    #[test]
    fn add_accumulates_and_validates() {
        let mut m = SparseMatrix::new();
        m.add(u(1), u(2), 0.25).unwrap();
        m.add(u(1), u(2), 0.25).unwrap();
        assert_eq!(m.get(u(1), u(2)), 0.5);
        // Going negative is rejected and leaves the value intact.
        assert!(m.add(u(1), u(2), -1.0).is_err());
        assert_eq!(m.get(u(1), u(2)), 0.5);
    }

    #[test]
    fn normalized_rows_are_stochastic() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 2.0).unwrap();
        m.set(u(0), u(2), 6.0).unwrap();
        m.set(u(1), u(0), 5.0).unwrap();
        let n = m.normalized_rows();
        assert!(n.is_row_stochastic(1e-12));
        assert_eq!(n.get(u(0), u(1)), 0.25);
        assert_eq!(n.get(u(0), u(2)), 0.75);
        assert_eq!(n.get(u(1), u(0)), 1.0);
        // The original is untouched.
        assert_eq!(m.get(u(0), u(2)), 6.0);
    }

    #[test]
    fn vector_multiply_matches_hand_computation() {
        // M = [[0, 1], [0.5, 0.5]] over users {0, 1}; v = (0.4, 0.6).
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        m.set(u(1), u(0), 0.5).unwrap();
        m.set(u(1), u(1), 0.5).unwrap();
        let v: SparseVector = [(u(0), 0.4), (u(1), 0.6)].into_iter().collect();
        let out = m.vector_multiply(&v);
        // out_0 = 0.6*0.5 = 0.3; out_1 = 0.4*1 + 0.6*0.5 = 0.7.
        assert!((out[&u(0)] - 0.3).abs() < 1e-12);
        assert!((out[&u(1)] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn vector_multiply_skips_zero_weights() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        let v: SparseVector = [(u(0), 0.0)].into_iter().collect();
        assert!(m.vector_multiply(&v).is_empty());
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.001).unwrap();
        m.set(u(0), u(2), 0.5).unwrap();
        m.set(u(1), u(0), 0.0001).unwrap();
        let dropped = m.prune(0.01);
        assert_eq!(dropped, 2);
        assert_eq!(m.nnz(), 1);
        assert!(m.row(u(1)).is_none(), "emptied rows are removed");
    }

    #[test]
    fn accumulate_blends_matrices() {
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 1.0).unwrap();
        let mut b = SparseMatrix::new();
        b.set(u(0), u(1), 1.0).unwrap();
        b.set(u(1), u(0), 2.0).unwrap();
        a.accumulate(&b, 0.5).unwrap();
        assert_eq!(a.get(u(0), u(1)), 1.5);
        assert_eq!(a.get(u(1), u(0)), 1.0);
    }

    #[test]
    fn from_iterator_sums_duplicates() {
        let m: SparseMatrix = [(u(0), u(1), 0.5), (u(0), u(1), 0.25), (u(1), u(2), 1.0)]
            .into_iter()
            .collect();
        assert_eq!(m.get(u(0), u(1)), 0.75);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn iteration_is_deterministic_row_major() {
        let mut m = SparseMatrix::new();
        m.set(u(2), u(0), 1.0).unwrap();
        m.set(u(0), u(5), 1.0).unwrap();
        m.set(u(0), u(3), 1.0).unwrap();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(u(0), u(3), 1.0), (u(0), u(5), 1.0), (u(2), u(0), 1.0)]
        );
        let ids: Vec<_> = m.row_ids().collect();
        assert_eq!(ids, vec![u(0), u(2)]);
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        let s = m.to_string();
        assert!(s.contains("1 rows"));
        assert!(s.contains("U0"));
    }

    #[test]
    fn display_truncates_long_matrices() {
        let mut m = SparseMatrix::new();
        for i in 0..20u64 {
            m.set(u(i), u(i + 1), 1.0).unwrap();
        }
        let shown = m.to_string();
        assert!(shown.contains("20 rows"));
        assert!(shown.contains("… 4 more"), "got: {shown}");
    }

    #[test]
    fn extend_sums_like_from_iterator() {
        let mut m = SparseMatrix::new();
        m.extend([(u(0), u(1), 0.5), (u(0), u(1), 0.25)]);
        assert_eq!(m.get(u(0), u(1)), 0.75);
        // Invalid entries are skipped silently, matching FromIterator.
        m.extend([(u(0), u(2), f64::NAN)]);
        assert_eq!(m.get(u(0), u(2)), 0.0);
    }

    #[test]
    fn set_row_replaces_and_removes() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 0.5).unwrap();
        let replacement: SparseVector = [(u(3), 1.0), (u(4), 0.0)].into_iter().collect();
        m.set_row(u(0), replacement).unwrap();
        assert_eq!(m.get(u(0), u(1)), 0.0);
        assert_eq!(m.get(u(0), u(3)), 1.0);
        assert_eq!(m.nnz(), 1, "zero entries are dropped");
        // An empty replacement removes the row.
        m.set_row(u(0), SparseVector::new()).unwrap();
        assert!(m.is_empty());
        assert!(!m.remove_row(u(0)), "already gone");
    }

    #[test]
    fn remove_drops_entry_and_empty_row() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 0.5).unwrap();
        assert!(m.remove(u(0), u(1)));
        assert!(!m.remove(u(0), u(1)), "already gone");
        assert_eq!(m.row_count(), 1);
        assert!(m.remove(u(0), u(2)));
        assert!(m.is_empty(), "empty rows are dropped");
        assert!(!m.remove(u(5), u(6)), "missing row");
    }

    #[test]
    fn set_row_validates_entries() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        let bad: SparseVector = [(u(2), -1.0)].into_iter().collect();
        assert!(m.set_row(u(0), bad).is_err());
        assert_eq!(m.get(u(0), u(1)), 0.5, "matrix unchanged on error");
    }

    #[test]
    fn normalized_row_matches_normalized_rows() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 2.0).unwrap();
        m.set(u(0), u(2), 6.0).unwrap();
        let whole = m.normalized_rows();
        let row = normalized_row(m.row(u(0)).unwrap()).unwrap();
        assert_eq!(whole.row(u(0)).unwrap(), &row);
        assert!(normalized_row(&SparseVector::new()).is_none());
    }

    #[test]
    fn row_sum() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 0.75).unwrap();
        assert!((m.row_sum(u(0)) - 1.25).abs() < 1e-12);
        assert_eq!(m.row_sum(u(9)), 0.0);
    }

    #[test]
    fn normalize_row_mut_matches_normalized_row() {
        let row: SparseVector = [(u(1), 2.0), (u(2), 6.0)].into_iter().collect();
        let copied = normalized_row(&row).unwrap();
        let mut in_place = row.clone();
        assert!(normalize_row_mut(&mut in_place));
        assert_eq!(in_place, copied, "bit-identical outputs");
        assert_eq!(in_place[&u(1)], 0.25);

        let mut empty = SparseVector::new();
        assert!(!normalize_row_mut(&mut empty), "zero-sum rows refused");
        assert!(empty.is_empty());
    }

    #[test]
    fn aggregates_track_every_mutation() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 1.5).unwrap();
        m.set(u(1), u(0), 1.0).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_sum(u(0)), 2.0);

        m.set(u(2), u(0), 1.0).unwrap();
        assert_eq!(m.nnz(), 4);
        m.add(u(0), u(1), 0.5).unwrap();
        assert_eq!(m.row_sum(u(0)), 2.5);
        assert!(m.remove(u(2), u(0)));
        assert_eq!(m.nnz(), 3);
        assert!(!m.remove(u(2), u(0)), "no-op remove");
        assert_eq!(m.nnz(), 3);
        m.set_row(u(1), [(u(3), 2.0), (u(4), 2.0)].into_iter().collect())
            .unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_sum(u(1)), 4.0);
        assert!(m.remove_row(u(1)));
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_sum(u(1)), 0.0);
        m.set(u(0), u(1), 0.0).unwrap();
        assert_eq!(m.nnz(), 1);
        m.prune(1.0);
        assert_eq!(m.nnz(), 1, "1.5 survives the prune");
        m.prune(2.0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_sum(u(0)), 0.0);

        // Failed mutations leave the matrix unchanged.
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 1.0).unwrap();
        assert!(m.set(u(0), u(2), -1.0).is_err());
        assert!(m.add(u(0), u(1), f64::NAN).is_err());
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row_sum(u(0)), 1.0);
    }

    #[test]
    fn request_coverage_counts_covered_pairs() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.4).unwrap();
        let requests = vec![(u(0), u(1)), (u(1), u(0)), (u(0), u(2)), (u(0), u(1))];
        // 2 of 4 requests hit the (0,1) edge.
        assert!((m.request_coverage(&requests) - 0.5).abs() < 1e-12);
        assert_eq!(m.request_coverage(&[]), 0.0);
    }
}
