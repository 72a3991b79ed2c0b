//! Compressed-sparse-row (CSR) trust matrices: the one matrix type the
//! engine builds, from the Equation 2 matrix `FT` through `RM`.
//!
//! User ids are interned into dense `u32` positions by a [`UserIndex`], and
//! a matrix is held in three contiguous arrays (`indptr`/`cols`/`vals`) so
//! that
//!
//! - rows built by parallel workers, already in index positions, stitch
//!   into the arrays by concatenation ([`PositionRun`],
//!   [`CsrMatrix::from_position_runs`]),
//! - the Equation 7 blend runs as a k-way scaled merge over row slices
//!   ([`blend_frozen`]),
//! - the Equation 8 power `RM = TM^n` runs as a row-chunked parallel SpGEMM
//!   with a reused dense accumulator per worker ([`CsrMatrix::power`]), and
//! - batched Equation 9 queries gather one file's owner columns across many
//!   viewer rows without materializing a `BTreeMap` per row
//!   ([`CsrMatrix::column_set`] / [`CsrMatrix::gather_row`]).
//!
//! [`SparseMatrix`] is the reference: [`CsrMatrix::freeze`] and
//! [`CsrMatrix::thaw`] convert between the two, and every kernel performs
//! its floating-point additions in exactly the order the `BTreeMap` kernels
//! do (ascending user id, parts in caller order), so results are
//! **bit-identical** to [`SparseMatrix::multiply`], [`blend`](crate::blend),
//! and [`normalized_row`] — the property tests hold the two side by side.
//!
//! # Overlay
//!
//! The frozen arrays are immutable, but the incremental dirty-row
//! recompute needs to patch a few rows between full rebuilds.
//! [`CsrMatrix::set_row`] stores each patch as a sorted `(column, value)`
//! slice in a per-row *overlay*, a hash map keyed by [`UserId`] (so a
//! patched row may reference users that did not exist at freeze time).
//! Every row read goes through [`CsrMatrix::row_view`], which looks the
//! row up once — in the overlay first, else in the frozen arrays — and
//! then searches only within that row. The overlay is folded back into clean
//! contiguous storage by [`CsrMatrix::compact`] before any multi-step
//! power; the engine's next rebuild of every row replaces the matrix
//! outright.
//!
//! # Read cost
//!
//! A read is `O(1)` up to the final search within one row: the overlay is
//! hashed, and a [`UserIndex`] whose ids are dense (the largest below
//! `DENSE_SPREAD` = 4 times their count) maps an id to its position
//! through a flat table. Sparse id spaces keep a binary search over the
//! sorted ids. Only lookups are hashed, never sums: every reader of the
//! overlay either sorts its ids or adds integers over it, so the map's
//! iteration order never reaches a result.

use crate::ops::{validate_blend_weights_by_value, BlendError, PowerOptions};
use crate::sparse::SparseMatrix;
use mdrep_types::UserId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One computed output row: `(row position, column positions, values)`.
type CsrRow = (u32, Vec<u32>, Vec<f64>);

/// How spread a [`UserIndex`]'s ids may be for it to keep a flat
/// id → position table: the table is built when the largest id is below
/// `DENSE_SPREAD` times the number of ids, so it costs at most
/// `4 · DENSE_SPREAD` bytes per interned id.
const DENSE_SPREAD: u64 = 4;

/// Marks an id the dense table does not intern.
const ABSENT: u32 = u32::MAX;

/// Interns [`UserId`]s into dense `u32` positions (and back).
///
/// The ids are kept sorted, so position order equals id order — frozen rows
/// iterate columns in exactly the order `BTreeMap` rows do, which is what
/// keeps CSR kernels bit-identical to the builder path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserIndex {
    ids: Vec<UserId>,
    /// `dense[id]` is the position of `id`, or [`ABSENT`]; empty when the
    /// ids are too spread (see `DENSE_SPREAD`), and then
    /// [`position`](Self::position) searches `ids`.
    dense: Vec<u32>,
}

impl UserIndex {
    /// Builds an index from arbitrary ids (sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics with more than `u32::MAX - 1` distinct ids.
    #[must_use]
    pub fn from_ids<I: IntoIterator<Item = UserId>>(ids: I) -> Self {
        let mut ids: Vec<UserId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() < ABSENT as usize,
            "user index positions fit in u32"
        );
        let dense = match ids.last() {
            Some(max) if max.as_u64() < DENSE_SPREAD.saturating_mul(ids.len() as u64) => {
                let mut dense = vec![ABSENT; max.as_u64() as usize + 1];
                for (pos, id) in ids.iter().enumerate() {
                    dense[id.as_u64() as usize] = pos as u32;
                }
                dense
            }
            _ => Vec::new(),
        };
        Self { ids, dense }
    }

    /// Builds the union index over every row and column id of `matrices` —
    /// one coordinate space to freeze reference matrices into, so
    /// [`blend_frozen`] can combine them.
    #[must_use]
    pub fn from_matrices(matrices: &[&SparseMatrix]) -> Self {
        let mut ids: Vec<UserId> = Vec::new();
        for m in matrices {
            for (r, c, _) in m.iter() {
                ids.push(r);
                ids.push(c);
            }
        }
        Self::from_ids(ids)
    }

    /// The dense position of `id`, if interned: one table load for a dense
    /// index, a binary search over the sorted ids otherwise.
    #[must_use]
    pub fn position(&self, id: UserId) -> Option<u32> {
        if self.dense.is_empty() {
            return self.ids.binary_search(&id).ok().map(|p| p as u32);
        }
        let slot = usize::try_from(id.as_u64()).ok()?;
        self.dense.get(slot).copied().filter(|&p| p != ABSENT)
    }

    /// The id at `position`.
    ///
    /// # Panics
    ///
    /// Panics when `position` is out of bounds.
    #[must_use]
    pub fn id(&self, position: u32) -> UserId {
        self.ids[position as usize]
    }

    /// Number of interned ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The interned ids in ascending order.
    #[must_use]
    pub fn ids(&self) -> &[UserId] {
        &self.ids
    }
}

/// A pre-resolved column set for repeated row gathers (e.g. one file's
/// owner set queried by many viewers). Built once per query batch by
/// [`CsrMatrix::column_set`].
#[derive(Debug, Clone)]
pub struct ColumnSet {
    /// Queried ids, in caller order (Equation 9 accumulates in this order,
    /// matching the scalar path exactly).
    ids: Vec<UserId>,
    /// Interned position per id (`None` for ids outside the frozen index —
    /// they can still be hit through the overlay).
    positions: Vec<Option<u32>>,
}

impl ColumnSet {
    /// Number of columns in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Rows appended in ascending position order with their columns already
/// interned as positions of the shared [`UserIndex`]: one worker's share
/// of a matrix whose index was built before the workers ran.
/// [`CsrMatrix::from_position_runs`] stitches the runs by concatenation.
#[derive(Debug, Clone, Default)]
pub struct PositionRun {
    rows: Vec<u32>,
    /// Per row, the end offset of its entries.
    ends: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl PositionRun {
    /// An empty run with room for `entries` entries.
    #[must_use]
    pub fn with_capacity(entries: usize) -> Self {
        Self {
            cols: Vec::with_capacity(entries),
            vals: Vec::with_capacity(entries),
            ..Self::default()
        }
    }

    /// Appends the row at position `row` (entries in ascending column
    /// position) after every row pushed so far. Empty rows are skipped: a
    /// frozen matrix stores none.
    pub fn push_row(&mut self, row: u32, entries: &[(u32, f64)]) {
        if entries.is_empty() {
            return;
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "columns must ascend within a row"
        );
        debug_assert!(
            self.rows.last().is_none_or(|&last| last < row),
            "rows must arrive in ascending position order"
        );
        self.cols.extend(entries.iter().map(|&(c, _)| c));
        self.vals.extend(entries.iter().map(|&(_, v)| v));
        self.rows.push(row);
        self.ends.push(self.vals.len());
    }
}

/// The entries a stitch must have before [`CsrMatrix::from_position_runs`]
/// copies its runs in parallel. Below it, spawning the copy threads costs
/// more than they save, and copying serially frees each run as it lands,
/// which keeps peak memory down.
const MIN_PARALLEL_COPY_ENTRIES: usize = 1 << 20;

/// A frozen, index-interned CSR matrix with an optional per-row overlay.
///
/// Production code builds one from worker row runs
/// ([`from_position_runs`](Self::from_position_runs)) and patches it row
/// by row ([`set_row`](Self::set_row)). [`freeze`](Self::freeze) (or
/// [`freeze_normalized_with`](Self::freeze_normalized_with), which fuses
/// the Equation 3/5/6 row normalization into the same pass) converts from
/// the reference [`SparseMatrix`], and [`thaw`](Self::thaw) converts back.
///
/// # Examples
///
/// ```
/// use mdrep_matrix::{CsrMatrix, PowerOptions, SparseMatrix};
/// use mdrep_types::UserId;
///
/// let mut tm = SparseMatrix::new();
/// tm.set(UserId::new(0), UserId::new(1), 1.0)?;
/// tm.set(UserId::new(1), UserId::new(2), 1.0)?;
/// let csr = CsrMatrix::freeze(&tm);
/// let two_step = csr.power(2, PowerOptions::exact(), 1);
/// assert_eq!(two_step.get(UserId::new(0), UserId::new(2)), 1.0);
/// assert_eq!(csr.thaw(), tm);
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    index: Arc<UserIndex>,
    /// The frozen arrays, structurally shared (copy-on-write): cloning a
    /// `CsrMatrix` bumps this `Arc` instead of copying `O(nnz)` bytes, so
    /// an epoch snapshot costs only the overlay's pointer map. The arrays
    /// are written exactly once, at construction — no constructed matrix
    /// ever mutates them.
    storage: Arc<CsrStorage>,
    /// Patched rows (dirty-row recompute): [`row_view`](Self::row_view)
    /// consults this first, with one hashed lookup, and then searches the
    /// row, so each row's columns strictly ascend (and its values are
    /// finite and positive). An empty slice masks the frozen row entirely
    /// (row removal). Rows are `Arc`-wrapped so snapshot clones share them
    /// too; `set_row` replaces the `Arc`, never the pointee, keeping clones
    /// isolated.
    overlay: Overlay,
}

/// The dirty-row overlay: patched rows by id.
type Overlay = HashMap<UserId, Arc<[(UserId, f64)]>, BuildHasherDefault<IdHasher>>;

/// A fixed multiplicative hash of one id for the overlay. It is
/// deterministic and cheap, and the Fibonacci multiplier spreads
/// consecutive ids over both the bucket (low) and tag (high) bits. Being
/// unkeyed, it assumes ids are assigned by the engine's caller, not
/// chosen by peers to collide.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One row of a [`CsrMatrix`], looked up once by
/// [`row_view`](CsrMatrix::row_view): its overlay patch, or its frozen
/// slices (empty for a row the matrix does not hold). Reads of it search
/// only within the row.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    index: &'a UserIndex,
    entries: RowEntries<'a>,
}

#[derive(Debug, Clone, Copy)]
enum RowEntries<'a> {
    /// An overlay patch, by column id.
    Patched(&'a [(UserId, f64)]),
    /// Frozen column positions and their values.
    Frozen(&'a [u32], &'a [f64]),
}

impl RowView<'_> {
    /// Entry `col` of the row, with a missing entry reading as `0.0`.
    #[must_use]
    pub fn get(&self, col: UserId) -> f64 {
        match self.entries {
            RowEntries::Patched(row) => row
                .binary_search_by_key(&col, |&(c, _)| c)
                .map_or(0.0, |i| row[i].1),
            RowEntries::Frozen(cols, vals) => {
                if cols.is_empty() {
                    return 0.0;
                }
                self.index
                    .position(col)
                    .and_then(|c| cols.binary_search(&c).ok())
                    .map_or(0.0, |i| vals[i])
            }
        }
    }
}

/// The immutable frozen arrays behind a [`CsrMatrix`] — see the `storage`
/// field. Held in an `Arc` so clones (epoch snapshots, readers) share one
/// allocation.
#[derive(Debug, Default)]
struct CsrStorage {
    /// Row start offsets into `cols`/`vals`; length `index.len() + 1`.
    indptr: Vec<usize>,
    /// Column positions per entry, ascending within each row.
    cols: Vec<u32>,
    /// Entry values, parallel to `cols`.
    vals: Vec<f64>,
}

impl CsrStorage {
    fn bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }
}

impl CsrMatrix {
    /// Freezes `m` under its own (row ∪ column) index.
    #[must_use]
    pub fn freeze(m: &SparseMatrix) -> Self {
        Self::freeze_with(&Arc::new(UserIndex::from_matrices(&[m])), m)
    }

    /// Freezes `m` under a shared `index`, which must intern every row and
    /// column id of `m` (build it with [`UserIndex::from_matrices`]).
    ///
    /// # Panics
    ///
    /// Panics when `m` references an id missing from `index`.
    #[must_use]
    pub fn freeze_with(index: &Arc<UserIndex>, m: &SparseMatrix) -> Self {
        Self::freeze_impl(index, m, false)
    }

    /// Fused freeze + Equation 3/5/6 row normalization: every frozen row is
    /// scaled to sum 1 in the same pass (zero-sum rows cannot occur in a
    /// validated [`SparseMatrix`], which never stores zeros). Bit-identical
    /// to freezing [`SparseMatrix::normalized_rows`], without building the
    /// intermediate `BTreeMap` matrix.
    ///
    /// # Panics
    ///
    /// Panics when `m` references an id missing from `index`.
    #[must_use]
    pub fn freeze_normalized_with(index: &Arc<UserIndex>, m: &SparseMatrix) -> Self {
        Self::freeze_impl(index, m, true)
    }

    /// Stitches `runs` into one compact matrix under `index`, whose
    /// positions the runs' rows and columns already are. Each run holds
    /// rows in ascending position order, and every row of a run precedes
    /// every row of the next — the shape workers produce over contiguous
    /// ranges of a sorted row set — so the arrays are the runs
    /// concatenated. A single run's buffers become the arrays as they
    /// are. Below 2²⁰ entries the runs are copied on the calling thread,
    /// each freed once copied. Above it one scoped thread
    /// per run copies it into its own slice of the fresh arrays: the copy
    /// is bound by the page faults on them, and those spread over the
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics when a row or column lies outside `index`, or rows do not
    /// ascend across runs.
    #[must_use]
    pub fn from_position_runs(index: &Arc<UserIndex>, mut runs: Vec<PositionRun>) -> Self {
        let n = index.len();
        let mut indptr = vec![0usize; n + 1];
        // `next` is the first position whose start offset is still unset.
        let mut next = 0usize;
        let mut nnz = 0usize;
        for run in &runs {
            let mut start = nnz;
            for (&pos, &end) in run.rows.iter().zip(&run.ends) {
                let pos = pos as usize;
                assert!(
                    (next..n).contains(&pos),
                    "runs must list rows of the index in ascending order"
                );
                indptr[next..=pos].fill(start);
                start = nnz + end;
                next = pos + 1;
            }
            assert!(
                run.cols.iter().all(|&c| (c as usize) < n),
                "run columns must be positions of the index"
            );
            nnz += run.vals.len();
        }
        indptr[next..].fill(nnz);
        let (cols, vals) = if runs.len() == 1 {
            let run = runs.pop().expect("one run");
            (run.cols, run.vals)
        } else if nnz < MIN_PARALLEL_COPY_ENTRIES {
            // Small enough to copy on this thread, freeing each run as it
            // lands: the runs and the arrays are never both held whole.
            let (mut cols, mut vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
            for run in runs {
                cols.extend_from_slice(&run.cols);
                vals.extend_from_slice(&run.vals);
            }
            (cols, vals)
        } else {
            // One scoped thread per run copies it into its own slice of
            // the fresh arrays, so their page faults spread over the cores.
            let (mut cols, mut vals) = (vec![0u32; nnz], vec![0.0f64; nnz]);
            std::thread::scope(|scope| {
                let (mut cols_left, mut vals_left) = (&mut cols[..], &mut vals[..]);
                for run in &runs {
                    let (c, rest) = std::mem::take(&mut cols_left).split_at_mut(run.cols.len());
                    cols_left = rest;
                    let (v, rest) = std::mem::take(&mut vals_left).split_at_mut(run.vals.len());
                    vals_left = rest;
                    scope.spawn(move || {
                        c.copy_from_slice(&run.cols);
                        v.copy_from_slice(&run.vals);
                    });
                }
            });
            (cols, vals)
        };
        Self {
            index: Arc::clone(index),
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: Overlay::default(),
        }
    }

    fn freeze_impl(index: &Arc<UserIndex>, m: &SparseMatrix, normalize: bool) -> Self {
        let n = index.len();
        let nnz = m.nnz();
        let mut indptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for (pos, &id) in index.ids().iter().enumerate() {
            indptr[pos] = vals.len();
            let Some(row) = m.row(id) else { continue };
            let scale = if normalize {
                // Same accumulation order as `normalized_row`: ascending
                // column id — bit-identical sums.
                let sum: f64 = row.values().sum();
                debug_assert!(sum > 0.0, "validated matrices store no zero rows");
                sum
            } else {
                1.0
            };
            for (&c, &v) in row {
                cols.push(index.position(c).expect("column id interned in index"));
                vals.push(if normalize { v / scale } else { v });
            }
        }
        indptr[n] = vals.len();
        assert_eq!(cols.len(), nnz, "index must intern every row id of m");
        Self {
            index: Arc::clone(index),
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: Overlay::default(),
        }
    }

    /// The interner this matrix is frozen under.
    #[must_use]
    pub fn index(&self) -> &Arc<UserIndex> {
        &self.index
    }

    /// The row at index position `pos`, as column positions and values —
    /// the position-space read of a compact matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix has an overlay (patched rows are keyed by
    /// id, not position) or `pos` lies outside the index.
    #[must_use]
    pub fn position_row(&self, pos: u32) -> (&[u32], &[f64]) {
        assert!(self.is_compact(), "position reads need a compact matrix");
        self.base_row(pos)
    }

    /// Thaws back into a mutable [`SparseMatrix`] (overlay folded in).
    #[must_use]
    pub fn thaw(&self) -> SparseMatrix {
        let mut out = SparseMatrix::new();
        for r in self.row_ids() {
            out.set_row(r, self.row_entries(r).collect())
                .expect("frozen entries are valid");
        }
        out
    }

    /// The frozen (pre-overlay) row slice at dense position `pos`.
    fn base_row(&self, pos: u32) -> (&[u32], &[f64]) {
        let s = &*self.storage;
        let (start, end) = (s.indptr[pos as usize], s.indptr[pos as usize + 1]);
        (&s.cols[start..end], &s.vals[start..end])
    }

    /// Whether `self` and `other` share one frozen-storage allocation —
    /// true exactly when one is a copy-on-write clone of the other (plus
    /// any number of overlay patches). Snapshot tests use this to prove
    /// publication did not deep-copy the matrices.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Heap bytes of the frozen arrays (`indptr`/`cols`/`vals`). Shared,
    /// not copied, by clones — the denominator of the COW savings gauges.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.storage.bytes()
    }

    /// Heap bytes of the overlay row slices — the only per-matrix payload
    /// a copy-on-write snapshot actually republishes (clones share the
    /// `Arc`s, but each patched row was materialized fresh by the dirty
    /// recompute that produced it).
    #[must_use]
    pub fn overlay_bytes(&self) -> usize {
        self.overlay
            .values()
            .map(|row| std::mem::size_of_val(&**row))
            .sum()
    }

    /// Row `row`, looked up once: its overlay patch if it has one, else
    /// its frozen slices (empty for a row the matrix does not hold).
    #[must_use]
    pub fn row_view(&self, row: UserId) -> RowView<'_> {
        let entries = match self.overlay.get(&row) {
            Some(patched) => RowEntries::Patched(patched),
            None => match self.index.position(row) {
                Some(pos) => {
                    let (cols, vals) = self.base_row(pos);
                    RowEntries::Frozen(cols, vals)
                }
                None => RowEntries::Frozen(&[], &[]),
            },
        };
        RowView {
            index: &self.index,
            entries,
        }
    }

    /// Entry `(row, col)`, with missing entries reading as `0.0`.
    #[must_use]
    pub fn get(&self, row: UserId, col: UserId) -> f64 {
        self.row_view(row).get(col)
    }

    /// Iterates `(col, value)` over one row in ascending column order,
    /// consulting the overlay first.
    pub fn row_entries(&self, row: UserId) -> impl Iterator<Item = (UserId, f64)> + Clone + '_ {
        let view = self.row_view(row);
        let (patched, (cols, vals)) = match view.entries {
            RowEntries::Patched(p) => (p, (&[][..], &[][..])),
            RowEntries::Frozen(cols, vals) => (&[][..], (cols, vals)),
        };
        let index = view.index;
        patched
            .iter()
            .copied()
            .chain(cols.iter().zip(vals).map(move |(&c, &v)| (index.id(c), v)))
    }

    /// Ids of non-empty rows, ascending (overlay-aware: patched-empty rows
    /// are skipped, patched-new rows included).
    #[must_use]
    pub fn row_ids(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self
            .index
            .ids()
            .iter()
            .enumerate()
            .filter(|&(pos, id)| {
                !self.overlay.contains_key(id)
                    && self.storage.indptr[pos] < self.storage.indptr[pos + 1]
            })
            .map(|(_, &id)| id)
            .collect();
        ids.extend(
            self.overlay
                .iter()
                .filter(|(_, row)| !row.is_empty())
                .map(|(&id, _)| id),
        );
        ids.sort_unstable();
        ids
    }

    /// Iterates `(row, col, value)` triples in deterministic row-major
    /// order, matching [`SparseMatrix::iter`] on the thawed matrix.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserId, f64)> + '_ {
        self.row_ids()
            .into_iter()
            .flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Number of stored entries (overlay-aware).
    #[must_use]
    pub fn nnz(&self) -> usize {
        let mut nnz = self.storage.vals.len();
        for (id, row) in &self.overlay {
            if let Some(pos) = self.index.position(*id) {
                nnz -= self.storage.indptr[pos as usize + 1] - self.storage.indptr[pos as usize];
            }
            nnz += row.len();
        }
        nnz
    }

    /// Number of non-empty rows (overlay-aware).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.row_ids().len()
    }

    /// Whether the matrix stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// Sum of the entries of `row` (0.0 for a missing row), accumulated in
    /// ascending column order like [`SparseMatrix::row_sum`].
    #[must_use]
    pub fn row_sum(&self, row: UserId) -> f64 {
        self.row_entries(row).map(|(_, v)| v).sum()
    }

    /// Largest entry of `row` (0.0 for a missing row) — the scaling factor
    /// of the service policy's relative-reputation view.
    #[must_use]
    pub fn row_max(&self, row: UserId) -> f64 {
        self.row_entries(row).fold(0.0f64, |a, (_, v)| a.max(v))
    }

    /// Returns `true` if every non-empty row sums to 1 within `tol`.
    #[must_use]
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.row_ids()
            .into_iter()
            .all(|r| (self.row_sum(r) - 1.0).abs() <= tol)
    }

    /// Fraction of `(from, to)` request pairs with a positive entry — the
    /// Figure 1 request-coverage metric over the frozen matrix.
    #[must_use]
    pub fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let covered = requests
            .iter()
            .filter(|&&(a, b)| self.get(a, b) > 0.0)
            .count();
        covered as f64 / requests.len() as f64
    }

    /// Patches one row wholesale (the dirty-row recompute primitive): the
    /// replacement lands in the overlay, masking the frozen row. An empty
    /// `values` removes the row. Columns need not be interned — new users
    /// can appear between full freezes. A patch replaces the overlay's
    /// `Arc`, never the slice behind it, so clones taken earlier keep their
    /// row, and one slice may serve several matrices (`TM` and a one-step
    /// `RM`).
    ///
    /// # Panics
    ///
    /// Panics unless the columns strictly ascend and every value is finite
    /// and positive: reads binary-search the slice, and a stored entry is
    /// never zero.
    pub fn set_row(&mut self, row: UserId, values: impl Into<Arc<[(UserId, f64)]>>) {
        let values = values.into();
        assert!(
            values.windows(2).all(|w| w[0].0 < w[1].0),
            "patched row columns must strictly ascend"
        );
        assert!(
            values.iter().all(|&(_, v)| v.is_finite() && v > 0.0),
            "patched row values must be finite and positive"
        );
        if values.is_empty() && self.index.position(row).is_none() {
            // Nothing to mask: the row never existed.
            self.overlay.remove(&row);
            return;
        }
        self.overlay.insert(row, values);
    }

    /// Number of overlaid (patched) rows.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Whether the matrix has no pending overlay (fully contiguous).
    #[must_use]
    pub fn is_compact(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Folds the overlay back into contiguous storage, extending the index
    /// with any new ids the patches introduced. No-op (cheap clone) when
    /// already compact.
    #[must_use]
    pub fn compact(&self) -> Self {
        if self.is_compact() {
            return self.clone();
        }
        let mut ids: Vec<UserId> = self.index.ids().to_vec();
        for (r, row) in &self.overlay {
            ids.push(*r);
            ids.extend(row.iter().map(|&(c, _)| c));
        }
        let index = Arc::new(UserIndex::from_ids(ids));
        let n = index.len();
        let mut indptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for (pos, &id) in index.ids().iter().enumerate() {
            indptr[pos] = vals.len();
            for (c, v) in self.row_entries(id) {
                cols.push(index.position(c).expect("compacted index covers all ids"));
                vals.push(v);
            }
        }
        indptr[n] = vals.len();
        Self {
            index,
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: Overlay::default(),
        }
    }

    /// Pre-resolves a column set for repeated [`gather_row`](Self::gather_row) calls.
    #[must_use]
    pub fn column_set(&self, ids: &[UserId]) -> ColumnSet {
        ColumnSet {
            ids: ids.to_vec(),
            positions: ids.iter().map(|&id| self.index.position(id)).collect(),
        }
    }

    /// Gathers `row`'s values at the columns of `set`, in set order, into
    /// `out` (cleared first; missing entries read 0.0). This is the batched
    /// Equation 9 primitive: one row lookup per viewer, then one search
    /// within the row per owner, on contiguous slices.
    pub fn gather_row(&self, row: UserId, set: &ColumnSet, out: &mut Vec<f64>) {
        out.clear();
        let view = self.row_view(row);
        match view.entries {
            RowEntries::Patched(_) => out.extend(set.ids.iter().map(|&c| view.get(c))),
            RowEntries::Frozen(cols, vals) => out.extend(set.positions.iter().map(|p| {
                p.and_then(|c| cols.binary_search(&c).ok())
                    .map_or(0.0, |i| vals[i])
            })),
        }
    }

    /// One SpGEMM step `self · other` with pruning **fused into the
    /// accumulation pass**, row-partitioned across `threads` workers. Each
    /// worker reuses one dense `f64` accumulator (plus a touched-column
    /// list and candidate/screen buffers) across its whole row chunk, so
    /// per-row cost is `O(nnz(row) · avg_nnz(other) + touched · log
    /// touched)` for exact rows and `O(k · avg_nnz(other) + touched +
    /// k log k)` for `top_k`-pruned rows: the fan-out screen first reduces
    /// the row of `self` to its `top_k` heaviest entries (so the product
    /// work itself shrinks, not just the output), the partial select over
    /// the accumulated candidates replaces the full touched-column sort,
    /// and only the kept entries are ever emitted — no dense product row
    /// is materialized into the output.
    ///
    /// The fused per-row rule is [`PowerOptions`]' ε-drop → top-k →
    /// renormalize, applied to the input row of `self` when `top_k` is
    /// set (the fan-out screen) and to every accumulated product row,
    /// with ties at the k-boundary breaking toward the smaller column
    /// position; selection is a per-row pure function of the operands,
    /// so output is bit-identical at any thread count.
    /// Without pruning, bit-identical to `SparseMatrix::multiply` on the
    /// thawed operands: rows accumulate in ascending `k` order, and each
    /// output entry starts from `0.0` exactly like `entry().or_insert(0.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `options.top_k == Some(0)`, or the
    /// operands are frozen under different indices. Operands must be
    /// compact ([`compact`](Self::compact) first).
    #[must_use]
    pub fn multiply_step(&self, other: &Self, options: PowerOptions, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread is required");
        assert!(
            options.top_k != Some(0),
            "top_k must be at least 1 when set"
        );
        assert!(
            self.is_compact() && other.is_compact(),
            "SpGEMM operands must be compact"
        );
        assert!(
            Arc::ptr_eq(&self.index, &other.index) || self.index == other.index,
            "SpGEMM operands must share one index"
        );
        let n = self.index.len();
        let occupied: Vec<u32> = (0..n as u32)
            .filter(|&p| self.storage.indptr[p as usize] < self.storage.indptr[p as usize + 1])
            .collect();
        let worker = |chunk: &[u32]| -> Vec<CsrRow> {
            let mut scratch = vec![0.0f64; n];
            let mut touched: Vec<u32> = Vec::new();
            let mut candidates: Vec<(u32, f64)> = Vec::new();
            let mut screen: Vec<(u32, f64)> = Vec::new();
            let mut out = Vec::with_capacity(chunk.len());
            for &r in chunk {
                let (a_cols, a_vals) = self.base_row(r);
                if let Some(cap) = options.top_k {
                    // Fan-out cap: the hop propagates through at most the
                    // `cap` most-trusted intermediaries. `prune_row_fused`'s
                    // rule applied to the input row — ε-filter, partial
                    // select with the same total order, renormalize in
                    // ascending column order — so the screened terms match
                    // the BTreeMap path's bit-for-bit. This is where the
                    // pruned step beats the exact one on *work*, not just
                    // output size: per-row products drop from
                    // `deg_a · deg_b` to `cap · deg_b`.
                    screen.clear();
                    for (&c, &v) in a_cols.iter().zip(a_vals) {
                        if options.prune_threshold == 0.0 || v >= options.prune_threshold {
                            screen.push((c, v));
                        }
                    }
                    if screen.len() > cap {
                        screen.select_nth_unstable_by(cap - 1, |a, b| {
                            b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
                        });
                        screen.truncate(cap);
                    }
                    screen.sort_unstable_by_key(|&(c, _)| c);
                    if options.renormalize {
                        let sum: f64 = screen.iter().map(|&(_, v)| v).sum();
                        if sum > 0.0 {
                            for e in &mut screen {
                                e.1 /= sum;
                            }
                        } else {
                            screen.clear();
                        }
                    }
                    for &(k, a_rk) in &screen {
                        if a_rk == 0.0 {
                            continue;
                        }
                        let (b_cols, b_vals) = other.base_row(k);
                        for (&c, &b_kc) in b_cols.iter().zip(b_vals) {
                            // A column cancelled back to exact 0.0 re-enters
                            // `touched`; the emit loops below read each
                            // column once and zero it, so duplicates are
                            // harmless.
                            if scratch[c as usize] == 0.0 {
                                touched.push(c);
                            }
                            scratch[c as usize] += a_rk * b_kc;
                        }
                    }
                } else {
                    for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
                        if a_rk == 0.0 {
                            continue;
                        }
                        let (b_cols, b_vals) = other.base_row(k);
                        for (&c, &b_kc) in b_cols.iter().zip(b_vals) {
                            // A column cancelled back to exact 0.0 re-enters
                            // `touched`; the emit loops below read each
                            // column once and zero it, so duplicates are
                            // harmless.
                            if scratch[c as usize] == 0.0 {
                                touched.push(c);
                            }
                            scratch[c as usize] += a_rk * b_kc;
                        }
                    }
                }
                let (mut row_cols, mut row_vals) = (Vec::new(), Vec::new());
                if let Some(k) = options.top_k {
                    // Fused top-k emit: drain the accumulator unsorted into
                    // the candidate buffer (ε-filtered), partial-select the
                    // k heaviest, and only then sort the keepers by column.
                    // Avoids the full touched sort *and* the dense emit.
                    candidates.clear();
                    for &c in &touched {
                        let v = scratch[c as usize];
                        scratch[c as usize] = 0.0;
                        if v != 0.0
                            && (options.prune_threshold == 0.0 || v >= options.prune_threshold)
                        {
                            candidates.push((c, v));
                        }
                    }
                    if candidates.len() > k {
                        // Heaviest first; equal values break toward the
                        // smaller column position. A total order, so the
                        // kept set is independent of candidate order (and
                        // therefore of chunking / thread count).
                        candidates.select_nth_unstable_by(k - 1, |a, b| {
                            b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
                        });
                        candidates.truncate(k);
                    }
                    candidates.sort_unstable_by_key(|&(c, _)| c);
                    row_cols.reserve_exact(candidates.len());
                    row_vals.reserve_exact(candidates.len());
                    for &(c, v) in &candidates {
                        row_cols.push(c);
                        row_vals.push(v);
                    }
                } else {
                    touched.sort_unstable();
                    for &c in &touched {
                        let v = scratch[c as usize];
                        scratch[c as usize] = 0.0;
                        // Exact zeros are dropped (matching
                        // `vector_multiply`'s retain) and, when pruning,
                        // sub-threshold entries too.
                        if v != 0.0
                            && (options.prune_threshold == 0.0 || v >= options.prune_threshold)
                        {
                            row_cols.push(c);
                            row_vals.push(v);
                        }
                    }
                }
                touched.clear();
                if options.is_pruning() && options.renormalize && !row_vals.is_empty() {
                    // Ascending-column sum order, matching the BTreeMap
                    // path's ascending-id normalization bit-for-bit.
                    let sum: f64 = row_vals.iter().sum();
                    if sum > 0.0 {
                        for v in &mut row_vals {
                            *v /= sum;
                        }
                    }
                }
                if !row_cols.is_empty() {
                    out.push((r, row_cols, row_vals));
                }
            }
            out
        };
        let rows: Vec<CsrRow> = map_chunks(&occupied, threads, worker)
            .into_iter()
            .flatten()
            .collect();
        Self::assemble(Arc::clone(&self.index), n, rows)
    }

    /// Stitches per-row results (ascending row positions) into one CSR.
    fn assemble(index: Arc<UserIndex>, n: usize, rows: Vec<CsrRow>) -> Self {
        let nnz = rows.iter().map(|(_, c, _)| c.len()).sum();
        let mut indptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let mut next = 0usize;
        for (r, row_cols, row_vals) in rows {
            for p in indptr.iter_mut().take(r as usize + 1).skip(next) {
                *p = vals.len();
            }
            next = r as usize + 1;
            cols.extend(row_cols);
            vals.extend(row_vals);
        }
        for p in indptr.iter_mut().skip(next) {
            *p = vals.len();
        }
        Self {
            index,
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: Overlay::default(),
        }
    }

    /// Identity matrix over `index`: 1.0 on the diagonal for every interned
    /// id. This is `power(0, ..)`'s return value, matching the mathematical
    /// convention `M^0 = I`.
    #[must_use]
    pub fn identity(index: &Arc<UserIndex>) -> Self {
        let n = index.len();
        Self {
            index: Arc::clone(index),
            storage: Arc::new(CsrStorage {
                indptr: (0..=n).collect(),
                cols: (0..n as u32).collect(),
                vals: vec![1.0; n],
            }),
            overlay: Overlay::default(),
        }
    }

    /// Equation 8 on the frozen representation: `RM = TM^n` with optional
    /// fused pruning, each step a [`multiply_step`](Self::multiply_step).
    /// Overlaid matrices are compacted first.
    ///
    /// `n == 0` returns [`identity`](Self::identity) on the (compacted)
    /// index; `n == 1` returns the matrix itself with a single copy.
    ///
    /// When `options` prunes, powers are computed iteratively
    /// (`((TM·TM)·TM)·…`) because pruning *between* hops is the semantics —
    /// each hop's sparsity bound feeds the next. Exact powers with `n >= 4`
    /// use exponentiation by squaring (O(log n) multiplies); its schedule is
    /// mirrored operation-for-operation by [`SparseMatrix::power`] so the
    /// two paths stay bit-identical. Exact `n <= 3` keeps the iterative
    /// left-associated order both for the same mirroring reason and so
    /// historical bench baselines stay comparable.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `options.top_k == Some(0)`.
    #[must_use]
    pub fn power(&self, n: u32, options: PowerOptions, threads: usize) -> Self {
        let base = if self.is_compact() {
            self.clone()
        } else {
            self.compact()
        };
        if n == 0 {
            return Self::identity(base.index());
        }
        if n == 1 {
            return base;
        }
        if options.is_pruning() || n < 4 {
            let mut acc = base.multiply_step(&base, options, threads);
            for _ in 2..n {
                acc = acc.multiply_step(&base, options, threads);
            }
            return acc;
        }
        // Exact n >= 4: binary exponentiation. The result/square schedule
        // below is mirrored byte-for-byte by `SparseMatrix::power` — both
        // paths perform the same multiplies in the same association order,
        // keeping the ≤1e-12 equivalence contract exact (bit-identical).
        let mut result: Option<Self> = None;
        let mut square = base;
        let mut e = n;
        loop {
            if e & 1 == 1 {
                result = Some(match result {
                    None => square.clone(),
                    Some(r) => r.multiply_step(&square, options, threads),
                });
            }
            e >>= 1;
            if e == 0 {
                break;
            }
            square = square.multiply_step(&square, options, threads);
        }
        result.expect("n >= 1 sets at least one bit")
    }
}

impl Default for CsrMatrix {
    /// The empty matrix, over an empty index.
    fn default() -> Self {
        Self::from_position_runs(&Arc::default(), Vec::new())
    }
}

impl PartialEq for CsrMatrix {
    /// Semantic equality over the merged (overlay-aware) triples — two
    /// matrices are equal when they store the same entries, regardless of
    /// index layout or overlay state.
    fn eq(&self, other: &Self) -> bool {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
    }
}

impl PartialEq<SparseMatrix> for CsrMatrix {
    fn eq(&self, other: &SparseMatrix) -> bool {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
    }
}

impl PartialEq<CsrMatrix> for SparseMatrix {
    fn eq(&self, other: &CsrMatrix) -> bool {
        other == self
    }
}

/// Equation 7 on frozen operands: `TM = Σ wᵢ·Mᵢ`, row-partitioned across
/// `threads` workers with a dense accumulator per worker. All parts must be
/// compact and share one index. Bit-identical to [`blend`](crate::blend) on
/// the thawed parts (per output entry, contributions accumulate in `parts`
/// order starting from `0.0`).
///
/// # Errors
///
/// Returns [`BlendError`] when the weights are not a convex combination.
///
/// # Panics
///
/// Panics if `threads == 0`, a part is not compact, or indices differ.
pub fn blend_frozen(parts: &[(f64, &CsrMatrix)], threads: usize) -> Result<CsrMatrix, BlendError> {
    assert!(threads >= 1, "at least one thread is required");
    validate_blend_weights_by_value(parts.iter().map(|(w, _)| *w))?;
    let first = parts.first().expect("validated weights are non-empty").1;
    for (_, m) in parts {
        assert!(m.is_compact(), "blend parts must be compact");
        assert!(
            Arc::ptr_eq(&m.index, &first.index) || m.index == first.index,
            "blend parts must share one index"
        );
    }
    let n = first.index.len();
    let occupied: Vec<u32> = (0..n as u32)
        .filter(|&p| {
            parts
                .iter()
                .any(|(_, m)| m.storage.indptr[p as usize] < m.storage.indptr[p as usize + 1])
        })
        .collect();
    let worker = |chunk: &[u32]| -> Vec<CsrRow> {
        let mut scratch = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut out = Vec::with_capacity(chunk.len());
        for &r in chunk {
            for (w, m) in parts {
                if *w == 0.0 {
                    continue;
                }
                let (cols, vals) = m.base_row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    // Cancellation duplicates in `touched` are harmless:
                    // the emit loop reads each column once and zeroes it.
                    if scratch[c as usize] == 0.0 {
                        touched.push(c);
                    }
                    scratch[c as usize] += w * v;
                }
            }
            touched.sort_unstable();
            let (mut row_cols, mut row_vals) = (Vec::new(), Vec::new());
            for &c in &touched {
                let v = scratch[c as usize];
                scratch[c as usize] = 0.0;
                if v != 0.0 {
                    row_cols.push(c);
                    row_vals.push(v);
                }
            }
            touched.clear();
            if !row_cols.is_empty() {
                out.push((r, row_cols, row_vals));
            }
        }
        out
    };
    let rows: Vec<CsrRow> = map_chunks(&occupied, threads, worker)
        .into_iter()
        .flatten()
        .collect();
    Ok(CsrMatrix::assemble(Arc::clone(&first.index), n, rows))
}

/// Partitions `0..n` into at most `shards` contiguous, near-equal ranges
/// (empty ranges are dropped). The partition depends only on `n` and
/// `shards`, never on runtime thread availability, so shard-parallel
/// kernels stay deterministic.
#[must_use]
pub fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards >= 1, "at least one shard is required");
    let chunk = n.div_ceil(shards).max(1);
    (0..shards)
        .map(|s| (s * chunk).min(n)..((s + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Applies `worker` to the contiguous [`shard_ranges`] of `items`, one
/// scoped thread per range, and returns the outputs in range order. Fewer
/// than two items per thread run as one range on the caller's thread.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker panics.
pub fn map_chunks<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    worker: impl Fn(&[I]) -> T + Sync,
) -> Vec<T> {
    assert!(threads >= 1, "at least one thread is required");
    if threads == 1 || items.len() < 2 * threads {
        return vec![worker(items)];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_ranges(items.len(), threads)
            .into_iter()
            .map(|range| scope.spawn(move || worker(&items[range])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        blend, blend_entries, blend_entries_into, blend_row, normalize_entries_into,
        normalized_entries, normalized_row,
    };

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// A deterministic pseudo-random matrix: `rows` rows, ~`deg` entries
    /// per row, values in (0, 8).
    fn synth(rows: u64, deg: u64, seed: u64) -> SparseMatrix {
        let mut m = SparseMatrix::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for r in 0..rows {
            for _ in 0..deg {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let c = (state >> 33) % rows;
                let v = 1.0 + ((state >> 11) % 7) as f64;
                m.set(u(r), u(c), v).unwrap();
            }
        }
        m
    }

    #[test]
    fn index_interns_sorted_unique() {
        let idx = UserIndex::from_ids([u(5), u(1), u(5), u(3)]);
        assert_eq!(idx.ids(), &[u(1), u(3), u(5)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.position(u(3)), Some(1));
        assert_eq!(idx.position(u(2)), None);
        assert_eq!(idx.id(2), u(5));
        assert!(!idx.is_empty());
        assert!(UserIndex::default().is_empty());
        assert_eq!(UserIndex::default().position(u(0)), None);
    }

    #[test]
    fn dense_and_sparse_indices_find_the_same_positions() {
        // Dense: the largest id (11) is below DENSE_SPREAD × 3 ids.
        let dense = UserIndex::from_ids([u(0), u(11), u(4)]);
        assert!(!dense.dense.is_empty(), "takes the flat table");
        // Sparse: one id at the edge of the spread, one far beyond it.
        let edge = UserIndex::from_ids([u(0), u(12), u(4)]);
        let far = UserIndex::from_ids([u(7), u(1 << 40), u(u64::MAX)]);
        assert!(edge.dense.is_empty() && far.dense.is_empty());
        for idx in [&dense, &edge, &far] {
            let probes = (0..16).chain([1 << 40, u64::MAX - 1, u64::MAX]).map(u);
            for id in probes {
                let searched = idx.ids().binary_search(&id).ok().map(|p| p as u32);
                assert_eq!(idx.position(id), searched, "{id} in {:?}", idx.ids());
            }
        }
    }

    #[test]
    fn freeze_thaw_round_trip() {
        let m = synth(40, 5, 7);
        let csr = CsrMatrix::freeze(&m);
        assert_eq!(csr.thaw(), m);
        assert_eq!(csr.nnz(), m.nnz());
        assert_eq!(csr.row_count(), m.row_count());
        assert_eq!(csr, m, "PartialEq<SparseMatrix>");
        assert_eq!(m, csr, "symmetric comparison");
    }

    #[test]
    fn freeze_empty_matrix() {
        let csr = CsrMatrix::freeze(&SparseMatrix::new());
        assert!(csr.is_empty());
        assert_eq!(csr.nnz(), 0);
        assert!(csr.row_ids().is_empty());
        assert!(csr.thaw().is_empty());
        assert!(csr.is_row_stochastic(1e-12), "vacuously stochastic");
        assert_eq!(csr.request_coverage(&[]), 0.0);
    }

    #[test]
    fn get_matches_builder() {
        let m = synth(30, 4, 3);
        let csr = CsrMatrix::freeze(&m);
        for (r, c, v) in m.iter() {
            assert_eq!(csr.get(r, c), v);
        }
        assert_eq!(csr.get(u(999), u(0)), 0.0);
        assert_eq!(csr.get(u(0), u(999)), 0.0);
    }

    #[test]
    fn freeze_with_sparse_index_gaps() {
        // Rows 2 and 7 only; index carries extra ids that stay empty.
        let mut m = SparseMatrix::new();
        m.set(u(2), u(7), 1.0).unwrap();
        m.set(u(7), u(2), 2.0).unwrap();
        let index = Arc::new(UserIndex::from_ids([u(0), u(2), u(5), u(7), u(9)]));
        let csr = CsrMatrix::freeze_with(&index, &m);
        assert_eq!(csr.get(u(2), u(7)), 1.0);
        assert_eq!(csr.get(u(7), u(2)), 2.0);
        assert_eq!(csr.get(u(5), u(2)), 0.0);
        assert_eq!(csr.row_ids(), vec![u(2), u(7)]);
        assert_eq!(csr.thaw(), m);
    }

    #[test]
    fn fused_normalize_matches_normalized_rows() {
        let m = synth(50, 6, 11);
        let index = Arc::new(UserIndex::from_matrices(&[&m]));
        let fused = CsrMatrix::freeze_normalized_with(&index, &m);
        let reference = m.normalized_rows();
        assert_eq!(fused, reference, "bit-identical normalization");
        assert!(fused.is_row_stochastic(1e-12));
    }

    #[test]
    fn position_runs_stitch_to_the_frozen_arrays() {
        let m = synth(97, 6, 77);
        // The index carries ids with no row, so stitching must leave gaps.
        let index = Arc::new(UserIndex::from_ids(
            m.iter()
                .flat_map(|(r, c, _)| [r, c])
                .chain([u(500), u(501)]),
        ));
        let frozen = CsrMatrix::freeze_with(&index, &m);
        let position = |id| index.position(id).expect("interned");
        let rows: Vec<UserId> = m.row_ids().collect();
        for runs in [1, 2, 3, 7, 200] {
            let runs: Vec<PositionRun> = shard_ranges(rows.len(), runs)
                .into_iter()
                .map(|range| {
                    let mut run = PositionRun::default();
                    for &r in &rows[range] {
                        let row: Vec<(u32, f64)> = m
                            .row(r)
                            .expect("listed row")
                            .iter()
                            .map(|(&c, &v)| (position(c), v))
                            .collect();
                        run.push_row(position(r), &row);
                    }
                    run
                })
                .collect();
            let stitched = CsrMatrix::from_position_runs(&index, runs);
            assert_eq!(stitched.storage.indptr, frozen.storage.indptr);
            assert_eq!(stitched.storage.cols, frozen.storage.cols);
            for (a, b) in stitched.storage.vals.iter().zip(&frozen.storage.vals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for p in 0..index.len() as u32 {
                assert_eq!(stitched.position_row(p), frozen.position_row(p));
            }
        }
    }

    #[test]
    fn position_runs_skip_empty_rows_and_handle_no_runs() {
        // Index [2, 3, 9]: row 2 is pushed empty, and 9 is interned but
        // referenced by no entry — the superset an index built before its
        // rows may be.
        let index = Arc::new(UserIndex::from_ids([u(9), u(3), u(2)]));
        let mut run = PositionRun::default();
        run.push_row(0, &[]);
        run.push_row(1, &[(0, 0.5)]);
        let m = CsrMatrix::from_position_runs(&index, vec![run]);
        assert_eq!(m.row_ids(), vec![u(3)]);
        assert_eq!(m.get(u(3), u(2)), 0.5);
        assert_eq!(m.nnz(), 1);
        let mut reference = SparseMatrix::new();
        reference.set(u(3), u(2), 0.5).unwrap();
        assert_eq!(m, reference, "equality ignores the unreferenced id");

        let empty = CsrMatrix::from_position_runs(&Arc::new(UserIndex::default()), Vec::new());
        assert!(empty.is_empty());
        let no_runs = CsrMatrix::from_position_runs(&index, Vec::new());
        assert!(no_runs.is_empty());
        assert_eq!(no_runs.position_row(2), (&[][..], &[][..]));

        // Ids far beyond the index length.
        let index = Arc::new(UserIndex::from_ids([u(7), u(1 << 40), u(u64::MAX)]));
        let mut run = PositionRun::default();
        run.push_row(0, &[(1, 0.25), (2, 0.75)]);
        let m = CsrMatrix::from_position_runs(&index, vec![run]);
        assert_eq!(m.get(u(7), u(u64::MAX)), 0.75);
        assert_eq!(m.row_ids(), vec![u(7)]);
    }

    #[test]
    fn parallel_copy_matches_a_single_run() {
        let index = Arc::new(UserIndex::from_ids((0..1400).map(u)));
        let row = |r: u32| -> Vec<(u32, f64)> {
            (0..1000)
                .filter(|c| !(c + r).is_multiple_of(7))
                .map(|c| (c, f64::from(r * 1000 + c + 1)))
                .collect()
        };
        let rows: Vec<u32> = (0..1400).filter(|r| r % 11 != 3).collect();
        let whole = {
            let mut run = PositionRun::default();
            for &r in &rows {
                run.push_row(r, &row(r));
            }
            CsrMatrix::from_position_runs(&index, vec![run])
        };
        assert!(
            whole.nnz() >= MIN_PARALLEL_COPY_ENTRIES,
            "takes the parallel copy"
        );
        let runs: Vec<PositionRun> = shard_ranges(rows.len(), 3)
            .into_iter()
            .map(|range| {
                let mut run = PositionRun::default();
                for &r in &rows[range] {
                    run.push_row(r, &row(r));
                }
                run
            })
            .collect();
        let split = CsrMatrix::from_position_runs(&index, runs);
        assert_eq!(split.storage.indptr, whole.storage.indptr);
        assert_eq!(split.storage.cols, whole.storage.cols);
        assert_eq!(split.storage.vals, whole.storage.vals);
    }

    #[test]
    #[should_panic(expected = "positions of the index")]
    fn position_runs_reject_columns_outside_the_index() {
        let index = Arc::new(UserIndex::from_ids([u(1), u(2)]));
        let mut run = PositionRun::default();
        run.push_row(0, &[(2, 1.0)]);
        let _ = CsrMatrix::from_position_runs(&index, vec![run]);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn position_runs_reject_rows_out_of_order_across_runs() {
        let index = Arc::new(UserIndex::from_ids([u(1), u(2)]));
        let mut first = PositionRun::default();
        first.push_row(1, &[(0, 1.0)]);
        let mut second = PositionRun::default();
        second.push_row(0, &[(1, 1.0)]);
        let _ = CsrMatrix::from_position_runs(&index, vec![first, second]);
    }

    #[test]
    fn shard_ranges_cover_and_never_overlap() {
        for n in [0usize, 1, 5, 97, 1000] {
            for shards in [1usize, 2, 3, 7, 64] {
                let ranges = shard_ranges(n, shards);
                let mut covered = 0usize;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "contiguous at n={n} s={shards}");
                    assert!(r.end > r.start, "non-empty range {i}");
                    covered = r.end;
                }
                assert_eq!(covered, n, "full cover at n={n} s={shards}");
                assert!(ranges.len() <= shards);
            }
        }
    }

    #[test]
    fn cow_clone_shares_frozen_storage() {
        let m = synth(60, 5, 9);
        let csr = CsrMatrix::freeze(&m);
        let snap = csr.clone();
        assert!(snap.shares_storage_with(&csr), "clone must not deep-copy");
        assert!(csr.storage_bytes() > 0);
        assert_eq!(snap.storage_bytes(), csr.storage_bytes());
        // A compact() of a compact matrix is a cheap clone — still shared.
        assert!(csr.compact().shares_storage_with(&csr));
    }

    #[test]
    fn set_row_after_clone_leaves_sibling_untouched() {
        let m = synth(40, 4, 21);
        let mut live = CsrMatrix::freeze(&m);
        let snap = live.clone();
        let before: Vec<(UserId, UserId, f64)> = snap.iter().collect();
        // Patch one existing row and one brand-new row on the live copy.
        let target = snap.row_ids()[0];
        live.set_row(target, [(u(1), 0.25), (u(2), 0.75)]);
        live.set_row(u(10_000), [(u(3), 1.0)]);
        live.set_row(snap.row_ids()[1], []); // removal
        assert!(live.shares_storage_with(&snap), "patches stay in overlay");
        assert_eq!(live.overlay_len(), 3);
        assert_eq!(
            live.overlay_bytes(),
            3 * std::mem::size_of::<(UserId, f64)>()
        );
        let after: Vec<(UserId, UserId, f64)> = snap.iter().collect();
        assert_eq!(before, after, "snapshot must not observe patches");
        assert_eq!(live.get(target, u(2)), 0.75);
        // Compacting folds the overlay into fresh storage.
        let folded = live.compact();
        assert!(!folded.shares_storage_with(&live));
        assert_eq!(folded, live, "compaction preserves entries");
    }

    #[test]
    fn power_matches_btreemap_power() {
        let m = synth(60, 5, 13).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        for n in 1..=3 {
            let frozen = csr.power(n, PowerOptions::exact(), 1);
            let reference = m.power(n, PowerOptions::exact());
            assert_eq!(frozen, reference, "n = {n}");
        }
    }

    #[test]
    fn parallel_power_matches_serial() {
        let m = synth(80, 6, 17).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        let serial = csr.power(2, PowerOptions::exact(), 1);
        for threads in [2, 4, 7] {
            assert_eq!(csr.power(2, PowerOptions::exact(), threads), serial);
        }
    }

    #[test]
    fn pruned_power_matches_btreemap() {
        let m = synth(40, 8, 19).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        let frozen = csr.power(3, PowerOptions::pruned(0.02), 2);
        let reference = m.power(3, PowerOptions::pruned(0.02));
        assert_eq!(frozen, reference);
        assert!(frozen.is_row_stochastic(1e-9));
    }

    #[test]
    fn entry_row_kernels_match_the_matrix_kernels_bit_for_bit() {
        let raw = [synth(40, 4, 23), synth(40, 4, 29), synth(40, 4, 31)];
        let normalized = raw.each_ref().map(SparseMatrix::normalized_rows);
        // A superset index with ids no entry references, so positions and
        // ids differ by more than an offset.
        let index = UserIndex::from_ids((0..40).map(|i| u(3 * i)).chain((0..40).map(u)));
        let position = |id| index.position(id).expect("interned");
        let bits = |row: &[(UserId, f64)]| -> Vec<(UserId, u64)> {
            row.iter().map(|&(c, v)| (c, v.to_bits())).collect()
        };
        let ids = |row: &[(u32, f64)]| -> Vec<(UserId, f64)> {
            row.iter().map(|&(c, v)| (index.id(c), v)).collect()
        };
        let weights = [
            [0.2, 0.3, 0.5],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ];
        for weights in weights {
            let parts: Vec<(f64, &SparseMatrix)> = weights.into_iter().zip(&normalized).collect();
            for r in (0..40).map(u) {
                let raw_row = |k: usize| raw[k].row(r).into_iter().flatten().map(|(&c, &v)| (c, v));
                let rows = std::array::from_fn::<_, 3, _>(|k| {
                    let entries = normalized_entries(raw_row(k));
                    let reference: Vec<(UserId, f64)> = normalized[k]
                        .row(r)
                        .into_iter()
                        .flatten()
                        .map(|(&c, &v)| (c, v))
                        .collect();
                    assert_eq!(bits(&entries), bits(&reference));
                    entries
                });
                let positioned = std::array::from_fn::<_, 3, _>(|k| {
                    let entries = normalized_entries(raw_row(k).map(|(c, v)| (position(c), v)));
                    assert_eq!(
                        bits(&ids(&entries)),
                        bits(&rows[k]),
                        "normalize by position"
                    );
                    entries
                });
                let blended =
                    blend_entries::<_, 3>(std::array::from_fn(|k| (weights[k], &rows[k][..])));
                let reference: Vec<(UserId, f64)> = blend_row(&parts, r).into_iter().collect();
                assert_eq!(bits(&blended), bits(&reference));
                let by_position = blend_entries::<_, 3>(std::array::from_fn(|k| {
                    (weights[k], &positioned[k][..])
                }));
                assert_eq!(
                    bits(&ids(&by_position)),
                    bits(&reference),
                    "blend by position"
                );
                // The buffer forms clear what the last row left behind.
                let mut reused = vec![(u32::MAX, 1.0); 3];
                normalize_entries_into(raw_row(0).map(|(c, v)| (position(c), v)), &mut reused);
                assert_eq!(reused, positioned[0], "normalize into a used buffer");
                blend_entries_into::<_, 3>(
                    std::array::from_fn(|k| (weights[k], &positioned[k][..])),
                    &mut reused,
                );
                assert_eq!(reused, by_position, "blend into a used buffer");
            }
        }
    }

    #[test]
    fn blend_frozen_matches_blend() {
        let a = synth(40, 4, 23).normalized_rows();
        let b = synth(40, 4, 29).normalized_rows();
        let c = synth(40, 4, 31).normalized_rows();
        let index = Arc::new(UserIndex::from_matrices(&[&a, &b, &c]));
        let fa = CsrMatrix::freeze_with(&index, &a);
        let fb = CsrMatrix::freeze_with(&index, &b);
        let fc = CsrMatrix::freeze_with(&index, &c);
        let reference = blend(&[(0.5, &a), (0.3, &b), (0.2, &c)]).unwrap();
        for threads in [1, 3] {
            let frozen = blend_frozen(&[(0.5, &fa), (0.3, &fb), (0.2, &fc)], threads).unwrap();
            assert_eq!(frozen, reference, "{threads} threads");
        }
        assert!(blend_frozen(&[(0.5, &fa)], 1).is_err(), "weights checked");
    }

    #[test]
    fn overlay_patches_and_masks_rows() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 0.5).unwrap();
        m.set(u(1), u(0), 1.0).unwrap();
        let mut csr = CsrMatrix::freeze(&m);

        // Replace row 0, referencing a brand-new user 9.
        csr.set_row(u(0), [(u(9), 1.0)]);
        assert_eq!(csr.get(u(0), u(1)), 0.0, "frozen row masked");
        assert_eq!(csr.get(u(0), u(9)), 1.0, "new column readable");
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.overlay_len(), 1);
        assert!(!csr.is_compact());

        // Remove row 1 outright.
        csr.set_row(u(1), []);
        assert_eq!(csr.get(u(1), u(0)), 0.0);
        assert_eq!(csr.row_ids(), vec![u(0)]);
        assert_eq!(csr.nnz(), 1);

        // Patching a nonexistent row to empty is a no-op.
        csr.set_row(u(42), []);
        assert_eq!(csr.overlay_len(), 2);

        // Compaction folds everything back.
        let compacted = csr.compact();
        assert!(compacted.is_compact());
        assert_eq!(compacted, csr, "semantic equality survives compaction");
        assert_eq!(compacted.get(u(0), u(9)), 1.0);
        assert_eq!(compacted.nnz(), 1);
    }

    #[test]
    fn overlay_thaw_matches_patched_builder() {
        let m = synth(15, 3, 43);
        let mut csr = CsrMatrix::freeze(&m);
        let mut reference = m.clone();
        let patch = [(u(3), 0.25), (u(99), 0.75)];
        csr.set_row(u(4), patch);
        reference
            .set_row(u(4), patch.into_iter().collect())
            .unwrap();
        assert_eq!(csr.thaw(), reference);
        assert_eq!(csr.nnz(), reference.nnz());
        assert_eq!(csr.row_sum(u(4)), reference.row_sum(u(4)));
    }

    /// Patches `row` on a small frozen matrix, for the rejection tests.
    fn patch(row: &[(UserId, f64)]) {
        let mut csr = CsrMatrix::freeze(&synth(4, 2, 47));
        csr.set_row(u(0), row);
    }

    #[test]
    #[should_panic(expected = "columns must strictly ascend")]
    fn set_row_rejects_unsorted_columns() {
        patch(&[(u(2), 0.5), (u(1), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "columns must strictly ascend")]
    fn set_row_rejects_duplicate_columns() {
        patch(&[(u(1), 0.5), (u(1), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_row_rejects_nan() {
        patch(&[(u(1), f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_row_rejects_infinity() {
        patch(&[(u(1), f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_row_rejects_negative_values() {
        patch(&[(u(1), 0.5), (u(2), -1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_row_rejects_zero_values() {
        patch(&[(u(1), 0.0)]);
    }

    #[test]
    fn gather_row_reads_owner_columns() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.75).unwrap();
        m.set(u(0), u(2), 0.25).unwrap();
        m.set(u(3), u(1), 1.0).unwrap();
        let mut csr = CsrMatrix::freeze(&m);
        let set = csr.column_set(&[u(2), u(1), u(7)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let mut out = Vec::new();
        csr.gather_row(u(0), &set, &mut out);
        assert_eq!(out, vec![0.25, 0.75, 0.0], "set order preserved");
        csr.gather_row(u(3), &set, &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
        csr.gather_row(u(42), &set, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.0], "unknown viewer");

        // Overlay rows are gathered through the patch.
        csr.set_row(u(0), [(u(7), 0.5)]);
        csr.gather_row(u(0), &set, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.5], "overlay consulted");
    }

    #[test]
    fn row_helpers_match_builder() {
        let m = synth(25, 4, 53);
        let csr = CsrMatrix::freeze(&m);
        for r in m.row_ids() {
            assert!((csr.row_sum(r) - m.row_sum(r)).abs() < 1e-15);
            let max = m.row(r).unwrap().values().fold(0.0f64, |a, &b| a.max(b));
            assert_eq!(csr.row_max(r), max);
        }
        assert_eq!(csr.row_sum(u(999)), 0.0);
        assert_eq!(csr.row_max(u(999)), 0.0);
        let ids: Vec<UserId> = m.row_ids().collect();
        assert_eq!(csr.row_ids(), ids);
    }

    #[test]
    fn request_coverage_matches_builder() {
        let m = synth(20, 3, 59);
        let csr = CsrMatrix::freeze(&m);
        let requests: Vec<(UserId, UserId)> =
            (0..30).map(|i| (u(i % 20), u((i * 7) % 20))).collect();
        assert_eq!(
            csr.request_coverage(&requests),
            m.request_coverage(&requests)
        );
    }

    #[test]
    fn power_compacts_overlay_first() {
        let m = synth(30, 4, 61).normalized_rows();
        let mut csr = CsrMatrix::freeze(&m);
        let mut reference = m.clone();
        let patch = normalized_row(&[(u(1), 3.0), (u(2), 1.0)].into_iter().collect()).unwrap();
        csr.set_row(u(0), patch.clone().into_iter().collect::<Vec<_>>());
        reference.set_row(u(0), patch).unwrap();
        let frozen = csr.power(2, PowerOptions::exact(), 2);
        let expected = reference.power(2, PowerOptions::exact());
        assert_eq!(frozen, expected);
    }

    #[test]
    fn equality_is_semantic_not_structural() {
        let m = synth(10, 3, 67);
        let a = CsrMatrix::freeze(&m);
        // Same entries, wider index.
        let wide = Arc::new(UserIndex::from_ids(
            (0..40).map(u).chain(a.index().ids().iter().copied()),
        ));
        let b = CsrMatrix::freeze_with(&wide, &m);
        assert_eq!(a, b);
        let mut c = b.clone();
        c.set_row(u(0), []);
        assert_ne!(a, c);
    }

    #[test]
    fn power_zero_is_identity() {
        let m = synth(4, 2, 71).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        let id = csr.power(0, PowerOptions::exact(), 1);
        assert_eq!(id.nnz(), csr.index().len());
        for r in id.row_ids() {
            let row: Vec<(UserId, f64)> = id.row_entries(r).collect();
            assert_eq!(row, vec![(r, 1.0)]);
        }
        // I · M == M, and it matches the BTreeMap convention.
        assert_eq!(id.multiply_step(&csr, PowerOptions::exact(), 1), csr);
        assert_eq!(id, m.power(0, PowerOptions::exact()));
    }

    #[test]
    fn exact_squaring_power_matches_btreemap() {
        let m = synth(30, 4, 73).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        for n in [4u32, 5, 6, 7] {
            let frozen = csr.power(n, PowerOptions::exact(), 2);
            let reference = m.power(n, PowerOptions::exact());
            assert_eq!(frozen, reference, "n = {n}");
        }
    }

    #[test]
    fn fused_top_k_power_matches_btreemap() {
        let m = synth(50, 8, 79).normalized_rows();
        let csr = CsrMatrix::freeze(&m);
        let options = PowerOptions::pruned(1e-3).with_top_k(Some(4));
        let reference = m.power(2, options);
        for threads in [1, 2, 8] {
            let frozen = csr.power(2, options, threads);
            assert_eq!(frozen, reference, "{threads} threads");
            assert!(frozen.is_row_stochastic(1e-9));
            for r in frozen.row_ids() {
                assert!(frozen.row_entries(r).count() <= 4, "row {r} over top_k");
            }
        }
    }

    #[test]
    #[should_panic(expected = "top_k must be at least 1")]
    fn multiply_step_top_k_zero_panics() {
        let csr = CsrMatrix::freeze(&synth(4, 2, 71));
        let options = PowerOptions::exact().with_top_k(Some(0));
        let _ = csr.multiply_step(&csr, options, 1);
    }

    #[test]
    fn multiply_step_empty_is_empty() {
        let empty = CsrMatrix::freeze(&SparseMatrix::new());
        let product = empty.multiply_step(&empty, PowerOptions::exact(), 2);
        assert!(product.is_empty());
    }
}
