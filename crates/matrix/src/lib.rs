//! Sparse trust-matrix substrate for the multi-dimensional reputation
//! system.
//!
//! Every reputation mechanism in the paper is a linear-algebra statement
//! about *row-stochastic sparse matrices* over user ids:
//!
//! - Equations 3, 5 and 6 row-normalize raw trust scores into the one-step
//!   matrices `FM`, `DM`, `UM` — [`normalized_entries`], one row at a time.
//! - Equation 7 blends them: `TM = α·FM + β·DM + γ·UM` — [`blend_entries`]
//!   per row, [`blend_frozen`] per matrix.
//! - Equation 8 raises the result to the n-th power: `RM = TM^n` —
//!   [`CsrMatrix::power`].
//! - EigenTrust (the baseline) computes the left principal eigenvector of
//!   the trust matrix — [`principal_eigenvector`].
//!
//! Production code builds one matrix type, [`CsrMatrix`]: contiguous
//! compressed-sparse-row arrays over interned user ids, concatenated from
//! worker [`PositionRun`]s, with dirty rows patched in as sorted
//! `(column, value)` slices. [`SparseMatrix`] (a `BTreeMap` per row) is the
//! reference: the property tests and doc examples compute with it, and
//! every CSR kernel must match its `BTreeMap` counterpart bit for bit.
//! Both iterate in ascending user id, which keeps experiments
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use mdrep_matrix::SparseMatrix;
//! use mdrep_types::UserId;
//!
//! let mut m = SparseMatrix::new();
//! m.set(UserId::new(0), UserId::new(1), 3.0)?;
//! m.set(UserId::new(0), UserId::new(2), 1.0)?;
//! let stochastic = m.normalized_rows();
//! assert_eq!(stochastic.get(UserId::new(0), UserId::new(1)), 0.75);
//! assert_eq!(stochastic.get(UserId::new(0), UserId::new(2)), 0.25);
//! # Ok::<(), mdrep_matrix::MatrixError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod eigen;
mod ops;
mod sparse;

pub use csr::{
    blend_frozen, map_chunks, weighted_ranges, ColumnSet, CsrMatrix, PositionRun, RowView,
    UserIndex,
};
pub use eigen::{principal_eigenvector, EigenOptions, EigenResult};
pub use ops::{
    blend, blend_entries, blend_entries_into, blend_parallel, blend_row, build_rows_parallel,
    BlendError, PowerOptions,
};
pub use sparse::{
    normalize_entries_into, normalize_row_mut, normalized_entries, normalized_row, MatrixError,
    SparseMatrix, SparseVector,
};
