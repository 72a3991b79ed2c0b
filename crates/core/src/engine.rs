//! The [`ReputationEngine`]: event ingestion, matrix recomputation, and
//! queries.
//!
//! The engine is the façade a peer (or the overlay simulator) uses:
//! feed it observations — downloads, votes, deletions, user ratings — then
//! call [`ReputationEngine::recompute`] to rebuild
//! `RM = (α·FM + β·DM + γ·UM)^n` and query reputations, file verdicts, and
//! service decisions. The computed state is one [`EngineSnapshot`]: every
//! read delegates to it, and [`ReputationEngine::snapshot_at`] publishes a
//! restamped copy of it.

use crate::audit::{AuditOutcome, Auditor};
use crate::eval::EvaluationStore;
use crate::file_reputation::{DownloadDecision, OwnerEvaluation};
use crate::file_trust::{FileTrustOptions, FileTrustState};
use crate::incentive::{ServiceDecision, ServicePolicy};
use crate::params::Params;
use crate::reputation::ReputationMatrix;
use crate::sharded::EngineEvent;
use crate::snapshot::EngineSnapshot;
use crate::user_trust::UserTrust;
use crate::volume_trust::{VolumeTerm, VolumeTrust};
use mdrep_matrix::{
    blend_entries, blend_entries_into, map_chunks, normalize_entries_into, normalized_entries,
    CsrMatrix, PositionRun, UserIndex,
};
use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
use mdrep_workload::{Catalog, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The one-step matrices of the last recomputation, kept for inspection and
/// experiments.
///
/// The matrices are CSR: a rebuild of every row writes fresh contiguous
/// arrays; a dirty-row rebuild patches its rows through each matrix's
/// overlay, which the next rebuild of every row replaces.
#[derive(Debug, Clone)]
pub struct TrustComponents {
    /// File-based one-step matrix `FM` (Equation 3).
    pub fm: CsrMatrix,
    /// Download-volume one-step matrix `DM` (Equation 5).
    pub dm: CsrMatrix,
    /// User-based one-step matrix `UM` (Equation 6).
    pub um: CsrMatrix,
    /// The blended one-step matrix `TM` (Equation 7).
    pub tm: CsrMatrix,
}

/// How a [`ReputationEngine::recompute`] call actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Every row was rebuilt (first recompute, incremental path disabled,
    /// or an explicit [`ReputationEngine::full_rebuild`]).
    Full,
    /// Only the dirty rows were rebuilt, renormalized, and re-blended.
    Incremental,
    /// The dirty fraction exceeded
    /// [`Params::incremental_threshold`](crate::Params::incremental_threshold),
    /// so the engine fell back to rebuilding every row.
    FallbackFull,
}

/// The multi-dimensional reputation engine (see crate docs for the model).
///
/// # Incremental recompute
///
/// Every `observe_*` entry point records which matrix rows it invalidated:
/// an event on file `f` dirties the `FM` rows of *all* current evaluators
/// of `f` (any pair among them can change), the actor's `DM` row, and — for
/// rankings — the rater's `UM` row. [`recompute`](Self::recompute) then
/// rebuilds only those rows, renormalizes them, re-blends the affected
/// `TM` rows, and patches `RM`. A rebuild of every row runs the same row
/// rebuild over every known row, so the results are bit-identical. When
/// the dirty fraction exceeds
/// [`Params::incremental_threshold`](crate::Params::incremental_threshold)
/// it falls back to rebuilding every row automatically;
/// [`full_rebuild`](Self::full_rebuild) forces one.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ReputationEngine};
/// use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
///
/// let mut engine = ReputationEngine::new(Params::default());
/// let (a, b) = (UserId::new(0), UserId::new(1));
/// engine.observe_download(SimTime::ZERO, a, b, FileId::new(0), FileSize::from_mib(10));
/// engine.observe_vote(SimTime::ZERO, a, FileId::new(0), Evaluation::BEST);
/// engine.recompute(SimTime::ZERO);
/// assert!(engine.reputation(a, b) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ReputationEngine {
    file_trust_options: FileTrustOptions,
    evals: EvaluationStore,
    volume: VolumeTrust,
    user_trust: UserTrust,
    file_trust: FileTrustState,
    /// Files whose evaluation set changed since the last recompute. Kept as
    /// files rather than expanded to evaluator rows eagerly: a popular file
    /// has many co-evaluators, and expanding once per recompute instead of
    /// once per event keeps ingestion O(log n) per event.
    dirty_files: BTreeSet<FileId>,
    /// The computed state (`RM`, the one-step components, the punished
    /// set) and the parameters; every read answers from it. Its epoch
    /// stays 0: [`snapshot_at`](Self::snapshot_at) stamps the copies.
    state: EngineSnapshot,
    last_recompute: Option<SimTime>,
    last_mode: Option<RecomputeMode>,
    last_dirty_rows: usize,
    /// Rows materialized fresh by the last recompute — everything else in
    /// the next snapshot is shared structurally with the previous one.
    last_publish_rows: usize,
    /// Approximate bytes those fresh rows cost (the true marginal cost of
    /// publishing the next copy-on-write snapshot).
    last_publish_bytes: usize,
}

/// What the per-row workers read: the stores, immutable while the workers
/// run.
#[derive(Clone, Copy)]
struct RowSources<'a> {
    ft: &'a CsrMatrix,
    volume: &'a VolumeTrust,
    user_trust: &'a UserTrust,
    evals: &'a EvaluationStore,
    params: &'a Params,
    now: SimTime,
}

/// One sparse row as `(column, value)` pairs in ascending column order.
type Row = Vec<(UserId, f64)>;

/// One row of every matrix as the worker rebuilt it: the `FM`/`DM`/`UM`
/// rows, each `Some` exactly when that store's row is rebuilt, and the
/// blended `TM` row, always rebuilt (any rebuilt component changes it).
/// Rows arrive normalized and zero-filtered.
struct RowParts {
    parts: [Option<Row>; 3],
    tm: Row,
}

/// The coordinate space of a rebuild of every row, interned once before
/// its workers run, so they emit rows in index positions.
struct Columns {
    index: Arc<UserIndex>,
    /// `FT`'s index position → position in `index`.
    ft: Vec<u32>,
}

impl Columns {
    fn position(&self, id: UserId) -> u32 {
        self.index
            .position(id)
            .expect("every row and column is interned before integrate")
    }
}

/// One worker's buffers, reused for every row it builds: Equation 4's
/// terms and the raw `VD` or `UT` row a `DM` or `UM` row is normalized
/// from, and, in a rebuild of every row, the `FM`/`DM`/`UM`/`TM` rows in
/// positions. Allocating them afresh per row made the workers of a
/// rebuild of every row contend on the allocator.
#[derive(Default)]
struct Scratch {
    terms: Vec<VolumeTerm>,
    raw: Row,
    rows: [Vec<(u32, f64)>; 4],
}

impl RowSources<'_> {
    /// Equation 5's `DM` row of `u`.
    fn dm_row(&self, u: UserId, scratch: &mut Scratch) -> Row {
        self.volume.vd_row_into(
            u,
            self.evals,
            self.now,
            self.params,
            &mut scratch.terms,
            &mut scratch.raw,
        );
        normalized_entries(scratch.raw.iter().copied())
    }

    /// Equation 6's `UM` row of `u`.
    fn um_row(&self, u: UserId, scratch: &mut Scratch) -> Row {
        self.user_trust.ut_row_into(u, &mut scratch.raw);
        normalized_entries(scratch.raw.iter().copied())
    }

    /// Equation 7's weighted parts over one row's `FM`/`DM`/`UM` rows, in
    /// either column space.
    fn weighted<'r, K>(&self, rows: [&'r [(K, f64)]; 3]) -> [(f64, &'r [(K, f64)]); 3] {
        let w = self.params.weights();
        [
            (w.alpha(), rows[0]),
            (w.beta(), rows[1]),
            (w.gamma(), rows[2]),
        ]
    }

    /// Rebuilds dirty row `u`: Equations 3, 5 and 6 for each component
    /// row a store's dirty set (ascending) names, the `previous` matrix's
    /// row for the others, then the Equation 7 blend.
    fn build_row(
        &self,
        u: UserId,
        dirty: &[Vec<UserId>; 3],
        previous: &TrustComponents,
        scratch: &mut Scratch,
    ) -> RowParts {
        // `(rebuilt, row)` per store: the fresh row, or the previous
        // matrix's row when the store finds it clean.
        let rows: [(bool, Row); 3] = std::array::from_fn(|store| {
            if dirty[store].binary_search(&u).is_err() {
                let previous = [&previous.fm, &previous.dm, &previous.um][store];
                return (false, previous.row_entries(u).collect());
            }
            let fresh = match store {
                0 => normalized_entries(self.ft.row_entries(u)),
                1 => self.dm_row(u, scratch),
                _ => self.um_row(u, scratch),
            };
            (true, fresh)
        });
        let tm = blend_entries(self.weighted([&rows[0].1[..], &rows[1].1[..], &rows[2].1[..]]));
        RowParts {
            parts: rows.map(|(rebuilt, row)| rebuilt.then_some(row)),
            tm,
        }
    }

    /// Rebuilds row `u` of a rebuild of every row into `scratch.rows`, in
    /// positions of `columns.index`: the `FM`, `DM`, `UM` and `TM` rows.
    /// `FT`'s columns map through the position table; `DM`'s and `UM`'s
    /// resolve through the index. Positions follow id order, so the rows
    /// carry the bits the id-space kernels give.
    fn position_rows_into(&self, u: UserId, columns: &Columns, scratch: &mut Scratch) {
        let Scratch { terms, raw, rows } = scratch;
        let [fm, dm, um, tm] = rows;
        match self.ft.index().position(u) {
            Some(at) => {
                let (cols, vals) = self.ft.position_row(at);
                normalize_entries_into(
                    cols.iter()
                        .map(|&c| columns.ft[c as usize])
                        .zip(vals.iter().copied()),
                    fm,
                );
            }
            None => fm.clear(),
        }
        self.volume
            .vd_row_into(u, self.evals, self.now, self.params, terms, raw);
        normalize_entries_into(raw.iter().map(|&(c, v)| (columns.position(c), v)), dm);
        self.user_trust.ut_row_into(u, raw);
        normalize_entries_into(raw.iter().map(|&(c, v)| (columns.position(c), v)), um);
        blend_entries_into(self.weighted([fm, dm, um]), tm);
    }
}

/// One dirty row's rebuilt rows (as in [`RowParts`]), ready for the
/// serial merge into the CSR overlays. Rows are `Arc`-wrapped on the
/// worker so the merge is a pointer insert per row.
struct RowPatch {
    user: UserId,
    parts: [Option<SharedRow>; 3],
    tm: SharedRow,
}

/// A [`Row`] as the overlays hold it: `TM` and a one-step `RM` share one.
type SharedRow = Arc<[(UserId, f64)]>;

impl RowParts {
    fn into_patch(self, user: UserId) -> RowPatch {
        RowPatch {
            user,
            parts: self.parts.map(|part| part.map(Arc::from)),
            tm: Arc::from(self.tm),
        }
    }
}

impl ReputationEngine {
    /// Creates an engine with default file-trust options.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self::with_options(params, FileTrustOptions::default())
    }

    /// Creates an engine with explicit file-trust options (distance metric,
    /// per-file evaluator cap).
    #[must_use]
    pub fn with_options(params: Params, file_trust_options: FileTrustOptions) -> Self {
        Self {
            file_trust_options,
            evals: EvaluationStore::new(),
            volume: VolumeTrust::new(),
            user_trust: UserTrust::new(),
            file_trust: FileTrustState::new(),
            dirty_files: BTreeSet::new(),
            state: EngineSnapshot::empty(params),
            last_recompute: None,
            last_mode: None,
            last_dirty_rows: 0,
            last_publish_rows: 0,
            last_publish_bytes: 0,
        }
    }

    /// The engine's parameters.
    #[must_use]
    pub fn params(&self) -> &Params {
        self.state.params()
    }

    /// Whether dirty-row bookkeeping is worth the per-event cost: with a
    /// zero threshold every recompute rebuilds every row anyway.
    fn dirty_tracking_enabled(&self) -> bool {
        self.params().incremental_threshold() > 0.0
    }

    /// Notes that an evaluation change on `file` invalidated `FM` rows: all
    /// of its *current* evaluators. A pair of them can change directly
    /// (shared-file distance) or through the evaluator-cap prefix, and a
    /// pair with at least one evaluator outside this set is untouched by
    /// the event — the invariant the dirty-row rebuild relies on. The
    /// expansion to evaluator rows is deferred to
    /// [`expand_dirty_files`](Self::expand_dirty_files) at recompute time;
    /// evaluator sets only grow between recomputes (shrinking paths —
    /// expiry, whitewash — dirty the affected rows themselves), so the
    /// deferred expansion reaches every row the per-event one would have.
    fn dirty_file_coevaluators(&mut self, file: FileId) {
        self.dirty_files.insert(file);
    }

    /// Folds the deferred per-file dirt into the `FM` dirty-row set.
    fn expand_dirty_files(&mut self) {
        for file in std::mem::take(&mut self.dirty_files) {
            self.file_trust
                .mark_dirty_many(self.evals.evaluators_of(file));
        }
    }

    /// Records a completed download (starts the retention clock and adds
    /// download volume).
    pub fn observe_download(
        &mut self,
        time: SimTime,
        downloader: UserId,
        uploader: UserId,
        file: FileId,
        size: FileSize,
    ) {
        self.evals.record_download(time, downloader, file);
        self.volume
            .record_download(downloader, uploader, file, size);
        if self.dirty_tracking_enabled() {
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records that `user` published `file` (publication starts a retention
    /// record too — the publisher holds the file).
    pub fn observe_publish(&mut self, time: SimTime, user: UserId, file: FileId) {
        self.evals.record_download(time, user, file);
        if self.dirty_tracking_enabled() {
            // Publication resets the retention clock, which can change the
            // user's own download-volume row too.
            self.volume.mark_dirty(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records an explicit vote.
    pub fn observe_vote(&mut self, time: SimTime, user: UserId, file: FileId, value: Evaluation) {
        self.evals.record_vote(time, user, file, value);
        if self.dirty_tracking_enabled() {
            self.volume.mark_dirty(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records a file deletion (freezes the retention clock).
    pub fn observe_delete(&mut self, time: SimTime, user: UserId, file: FileId) {
        self.evals.record_delete(time, user, file);
        if self.dirty_tracking_enabled() {
            self.volume.mark_dirty(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records a user-to-user rating.
    pub fn observe_rank(&mut self, rater: UserId, target: UserId, value: Evaluation) {
        self.user_trust.rate(rater, target, value);
    }

    /// Handles a whitewash: the user's entire history disappears, exactly
    /// what makes whitewashing unprofitable — the fresh identity also has
    /// zero reputation and gets stranger-level service.
    pub fn observe_whitewash(&mut self, user: UserId) {
        if self.dirty_tracking_enabled() {
            // Every co-evaluator of the user's files can gain a pair (cap
            // prefixes shift) …
            let files: Vec<FileId> = self.evals.files_of(user).collect();
            for file in files {
                self.dirty_file_coevaluators(file);
            }
            // … and every existing FT partner loses one.
            self.file_trust.mark_user_removed(user);
        }
        self.evals.remove_user(user);
        self.volume.remove_user(user);
        self.user_trust.remove_user(user);
    }

    /// Feeds one workload trace event; file sizes are resolved through the
    /// catalog (unknown files fall back to zero size, contributing no
    /// volume trust).
    pub fn observe_trace_event(&mut self, event: &TraceEvent, catalog: &Catalog) {
        if let Some(event) = EngineEvent::from_trace(event, catalog) {
            event.apply_to(self);
        }
    }

    /// Drops evaluations older than the configured interval. Returns how
    /// many records were expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let dropped = self.evals.expire_detailed(now, self.state.params());
        if self.dirty_tracking_enabled() {
            for &(user, file) in &dropped {
                self.volume.mark_dirty(user);
                self.file_trust.mark_dirty(user);
                // The record is already gone, so this reaches exactly the
                // *remaining* evaluators whose pairs with `user` must drop.
                self.dirty_file_coevaluators(file);
            }
        }
        dropped.len()
    }

    /// Rebuilds `FM`, `DM`, `UM`, `TM`, and `RM` from the observations —
    /// only the dirty rows when their fraction is below
    /// [`Params::incremental_threshold`](crate::Params::incremental_threshold),
    /// every row otherwise. Both run the same row rebuild and produce
    /// bit-identical matrices.
    ///
    /// Each phase reports its wall time to the global [`mdrep_obs`]
    /// registry under `engine.recompute.*` (and to the trace ring under the
    /// same names), along with `engine.*.nnz` / `engine.tm.density` gauges,
    /// the `engine.recompute.dirty_rows` gauge, and an
    /// `engine.recompute.mode.*` counter recording which mode ran.
    pub fn recompute(&mut self, now: SimTime) {
        self.recompute_inner(now, false);
    }

    /// Forces a rebuild of every row, regardless of dirty state — the
    /// escape hatch (and the reference the equivalence tests compare the
    /// dirty-row rebuild against).
    pub fn full_rebuild(&mut self, now: SimTime) {
        self.recompute_inner(now, true);
    }

    fn recompute_inner(&mut self, now: SimTime, force_full: bool) {
        let obs = mdrep_obs::global();
        // Per-epoch causal root: every phase below traces as a child, so a
        // stalled epoch can be blamed on its slowest phase in the exported
        // span tree.
        let mut epoch = mdrep_obs::phase("engine.recompute.total");

        let mode = {
            let _phase = mdrep_obs::phase("engine.recompute.dirty_expand");
            self.plan_mode(now, force_full)
        };
        self.last_dirty_rows = self.pending_dirty_rows();
        obs.gauge_set("engine.recompute.dirty_rows", self.last_dirty_rows as f64);
        epoch.annotate(
            "mode",
            match mode {
                RecomputeMode::Full => "full",
                RecomputeMode::Incremental => "incremental",
                RecomputeMode::FallbackFull => "fallback_full",
            },
        );
        epoch.annotate("dirty_rows", self.last_dirty_rows);
        epoch.annotate("sim_time_ticks", now.as_ticks());
        self.rebuild(now, mode);
        obs.counter_inc(match mode {
            RecomputeMode::Full => "engine.recompute.mode.full",
            RecomputeMode::Incremental => "engine.recompute.mode.incremental",
            RecomputeMode::FallbackFull => "engine.recompute.mode.fallback",
        });
        self.last_recompute = Some(now);
        self.last_mode = Some(mode);
    }

    /// Decides the recompute mode and, when the clock moved, folds the
    /// time-drift dirt in: users whose implicit evaluations were still
    /// ramping at the previous recompute have changed rows even without new
    /// events, so they (and their co-evaluators) join the dirty sets.
    fn plan_mode(&mut self, now: SimTime, force_full: bool) -> RecomputeMode {
        let threshold = self.params().incremental_threshold();
        if force_full || threshold <= 0.0 || self.state.reputation_matrix().is_none() {
            return RecomputeMode::Full;
        }
        self.expand_dirty_files();
        let total = self
            .evals
            .user_count()
            .max(self.volume.row_count())
            .max(self.user_trust.row_count())
            .max(1);
        // The dirty-row union can span users from all three stores, so at
        // threshold 1.0 the budget is unbounded: incremental always wins.
        let budget = if threshold >= 1.0 {
            f64::INFINITY
        } else {
            threshold * total as f64
        };
        if let Some(last) = self.last_recompute {
            if now != last {
                let drifting = self
                    .evals
                    .users_with_unsaturated_records(last, self.params().retention_saturation());
                if drifting.len() as f64 > budget {
                    // Don't pay for the co-evaluator expansion when the
                    // drifting users alone already bust the budget.
                    return RecomputeMode::FallbackFull;
                }
                for user in drifting {
                    self.volume.mark_dirty(user);
                    self.file_trust.mark_dirty(user);
                    let files: Vec<FileId> = self.evals.files_of(user).collect();
                    for file in files {
                        self.dirty_file_coevaluators(file);
                    }
                }
            }
        }
        if self.pending_dirty_rows() as f64 > budget {
            RecomputeMode::FallbackFull
        } else {
            RecomputeMode::Incremental
        }
    }

    /// Rebuilds the matrix rows of one recompute. The row set is the
    /// dirty union in [`RecomputeMode::Incremental`] and every known row
    /// otherwise; both run the same three phases:
    ///
    /// 1. **Equation 2** (`fm_build`) — parallel by row, into the raw CSR
    ///    `FT` (`FileTrustState`): over everyone, concatenated into fresh
    ///    arrays, or over the dirty users, one overlay patch per row.
    /// 2. **Rows** (`integrate`) — shard-parallel and pure: the row set is
    ///    split into contiguous ranges ([`map_chunks`]) and one worker
    ///    per range builds each row's `FM`/`DM`/`UM` rows and its blended
    ///    `TM` row — by id for dirty rows ([`RowSources::build_row`]); for
    ///    every row, in positions of one index interned from the stores
    ///    before the workers start ([`RowSources::position_rows_into`]),
    ///    in ranges of near-equal cost by each row's FT, uploader and
    ///    rating counts, each worker reusing one [`Scratch`] for all of its
    ///    rows. Rows are pure functions of the stores, which stay immutable
    ///    during the pass, and the partition depends only on the stores
    ///    and [`Params::threads`](crate::Params::threads) — so the result
    ///    is bit-identical at any shard/thread count.
    /// 3. **Sink** (`merge`) — dirty rows are patched into the previous
    ///    matrices' copy-on-write overlays; a rebuild of every row
    ///    concatenates the workers' runs into fresh contiguous CSR arrays.
    fn rebuild(&mut self, now: SimTime, mode: RecomputeMode) {
        let threads = self.params().effective_threads();
        let incremental = mode == RecomputeMode::Incremental;

        let fm_dirty = {
            let _phase = mdrep_obs::phase("engine.recompute.fm_build");
            let params = self.state.params();
            if incremental {
                self.file_trust
                    .apply_dirty(&self.evals, now, params, self.file_trust_options)
            } else {
                self.file_trust
                    .full_rebuild(&self.evals, now, params, self.file_trust_options);
                Vec::new()
            }
        };
        // Each store's dirty rows (ascending). An incremental rebuild
        // rebuilds exactly these and keeps every clean row in the previous
        // matrices; a full rebuild rebuilds every row and drops the dirt.
        let dirty_sets = [
            fm_dirty,
            self.volume.take_dirty(),
            self.user_trust.take_dirty(),
        ];
        let dirty = if incremental {
            let (components, rm) = self
                .state
                .take_matrices()
                .expect("incremental mode requires prior matrices");
            Some((dirty_sets, components, rm))
        } else {
            self.dirty_files.clear();
            None
        };
        let mut rows: Vec<UserId> = match &dirty {
            Some((sets, ..)) => sets.concat(),
            None => self
                .file_trust
                .raw()
                .row_ids()
                .into_iter()
                .chain(self.volume.rows())
                .chain(self.user_trust.rows())
                .collect(),
        };
        rows.sort_unstable();
        rows.dedup();

        let sources = RowSources {
            ft: self.file_trust.raw(),
            volume: &self.volume,
            user_trust: &self.user_trust,
            evals: &self.evals,
            params: self.state.params(),
            now,
        };
        let (components, rm) = match dirty {
            Some((sets, mut comps, mut rm)) => {
                let patches: Vec<RowPatch> = {
                    let _phase = mdrep_obs::phase("engine.recompute.integrate");
                    map_chunks(
                        &rows,
                        threads,
                        |_| 1,
                        |shard| {
                            let mut scratch = Scratch::default();
                            shard
                                .iter()
                                .map(|&u| {
                                    sources
                                        .build_row(u, &sets, &comps, &mut scratch)
                                        .into_patch(u)
                                })
                                .collect::<Vec<_>>()
                        },
                    )
                    .into_iter()
                    .flatten()
                    .collect()
                };
                // Fold the prebuilt rows into the CSR overlays in
                // ascending id order, tallying the copy-on-write publish
                // cost (only these rows are new bytes in the next
                // snapshot; everything else is shared).
                let _phase = mdrep_obs::phase("engine.recompute.merge");
                let mut publish_bytes = 0usize;
                let one_step = sources.params.steps() == 1;
                for patch in patches {
                    let u = patch.user;
                    let matrices = [&mut comps.fm, &mut comps.dm, &mut comps.um];
                    for (matrix, part) in matrices.into_iter().zip(patch.parts) {
                        if let Some(row) = part {
                            publish_bytes += std::mem::size_of_val(&*row);
                            matrix.set_row(u, row);
                        }
                    }
                    // One row serves both matrices on the one-step path
                    // (overlay rows are immutable), so it is priced once.
                    publish_bytes += std::mem::size_of_val(&*patch.tm);
                    if one_step {
                        // RM = TM: patch both from the same blended row.
                        comps.tm.set_row(u, Arc::clone(&patch.tm));
                        rm.set_one_step_row(u, patch.tm);
                    } else {
                        comps.tm.set_row(u, patch.tm);
                    }
                }
                if !one_step {
                    // The power dominates the cost anyway; recompute it from
                    // the incrementally maintained TM (compacted inside
                    // `compute_csr` before the SpGEMM steps). The rebuilt RM
                    // is fresh storage.
                    rm = ReputationMatrix::compute_csr(comps.tm.clone(), sources.params);
                    publish_bytes += rm.approx_bytes();
                }
                self.last_publish_rows = rows.len();
                self.last_publish_bytes = publish_bytes;
                (comps, rm)
            }
            None => {
                let ft = sources.ft;
                let (columns, shards) = {
                    let _phase = mdrep_obs::phase("engine.recompute.integrate");
                    // Intern once, before the workers run: every row and
                    // every column a row can have — FT's index (a full
                    // rebuild leaves FT compact), the uploaders in the
                    // download log, the rated targets. The index may hold
                    // ids no entry references; equality, `row_ids` and
                    // the snapshot digest read entries, not the index.
                    let index = Arc::new(UserIndex::from_ids(
                        rows.iter()
                            .chain(ft.index().ids())
                            .copied()
                            .chain(self.volume.uploaders())
                            .chain(self.user_trust.targets()),
                    ));
                    let ft_columns = ft
                        .index()
                        .ids()
                        .iter()
                        .map(|&id| index.position(id).expect("FT ids are interned"))
                        .collect();
                    let columns = Columns {
                        index,
                        ft: ft_columns,
                    };
                    // Each row with its FT, uploader and rating counts,
                    // read in one merge over the ascending stores: upper
                    // bounds on its FM, DM and UM rows, and with one for
                    // the row itself, its cost in the split.
                    let mut uploads = sources.volume.uploader_counts().peekable();
                    let mut ratings = sources.user_trust.rating_counts().peekable();
                    let sized: Vec<(UserId, [usize; 3])> = rows
                        .iter()
                        .map(|&u| {
                            let fm = ft
                                .index()
                                .position(u)
                                .map_or(0, |at| ft.position_row(at).0.len());
                            let dm = uploads.next_if(|&(d, _)| d == u).map_or(0, |(_, n)| n);
                            let um = ratings.next_if(|&(r, _)| r == u).map_or(0, |(_, n)| n);
                            (u, [fm, dm, um])
                        })
                        .collect();
                    let cost = |(_, counts): &(UserId, [usize; 3])| {
                        1 + counts.iter().sum::<usize>() as u64
                    };
                    let worker = |shard: &[(UserId, [usize; 3])]| {
                        // Sized up front to the stores' row lengths, an
                        // upper bound on every run: runs grown by doubling
                        // on the workers fragment their allocator arenas and
                        // hold the process's peak RSS well above the data.
                        let mut bounds = [0usize; 3];
                        for (_, counts) in shard {
                            for (bound, count) in bounds.iter_mut().zip(counts) {
                                *bound += count;
                            }
                        }
                        let [fm, dm, um] = bounds;
                        let mut runs = [fm, dm, um, fm + dm + um].map(PositionRun::with_capacity);
                        let mut scratch = Scratch::default();
                        for &(u, _) in shard {
                            sources.position_rows_into(u, &columns, &mut scratch);
                            let at = columns.position(u);
                            for (run, row) in runs.iter_mut().zip(&scratch.rows) {
                                run.push_row(at, row);
                            }
                        }
                        runs
                    };
                    let shards: Vec<[PositionRun; 4]> = map_chunks(&sized, threads, cost, worker);
                    (columns, shards)
                };
                let _phase = mdrep_obs::phase("engine.recompute.merge");
                let mut per_matrix: [Vec<PositionRun>; 4] = Default::default();
                for shard in shards {
                    for (runs, run) in per_matrix.iter_mut().zip(shard) {
                        runs.push(run);
                    }
                }
                // One matrix at a time: the arrays are allocated on this
                // thread, and only one matrix's runs and arrays are held
                // at once.
                let [fm, dm, um, tm] =
                    per_matrix.map(|runs| CsrMatrix::from_position_runs(&columns.index, runs));
                let rm = ReputationMatrix::compute_csr(tm.clone(), sources.params);
                // Every matrix was materialized from scratch: the next
                // snapshot shares nothing with the previous one.
                self.last_publish_rows = rows.len();
                self.last_publish_bytes = fm.storage_bytes()
                    + dm.storage_bytes()
                    + um.storage_bytes()
                    + tm.storage_bytes()
                    + rm.approx_bytes();
                (TrustComponents { fm, dm, um, tm }, rm)
            }
        };
        Self::record_matrix_gauges(&components.tm, &rm);
        self.state.set_matrices(components, rm);
    }

    fn record_matrix_gauges(tm: &CsrMatrix, rm: &ReputationMatrix) {
        let obs = mdrep_obs::global();
        let rows = tm.row_count();
        obs.gauge_set("engine.tm.nnz", tm.nnz() as f64);
        if rows > 0 {
            obs.gauge_set("engine.tm.density", tm.nnz() as f64 / (rows * rows) as f64);
        }
        obs.gauge_set("engine.rm.nnz", rm.matrix().nnz() as f64);
    }

    /// How the last [`recompute`](Self::recompute) ran; `None` before the
    /// first one.
    #[must_use]
    pub fn last_recompute_mode(&self) -> Option<RecomputeMode> {
        self.last_mode
    }

    /// How many rows the last recompute treated as dirty (the union across
    /// the `FM`, `DM`, and `UM` dirty sets, including time drift).
    #[must_use]
    pub fn last_dirty_rows(&self) -> usize {
        self.last_dirty_rows
    }

    /// Rows the last recompute rebuilt — the only rows the next
    /// copy-on-write snapshot cannot share with its predecessor: every
    /// known row after a rebuild of every row (ids interned only as
    /// columns are not rows), the dirty union after a dirty-row rebuild.
    #[must_use]
    pub fn last_publish_rows(&self) -> usize {
        self.last_publish_rows
    }

    /// Approximate bytes of those freshly materialized slabs (plus the
    /// rebuilt `RM` storage when `steps > 1`) — the marginal memory cost
    /// of publishing the next snapshot.
    #[must_use]
    pub fn last_publish_bytes(&self) -> usize {
        self.last_publish_bytes
    }

    /// Rows currently marked dirty and awaiting the next recompute: the
    /// union across the three dirty sets plus the co-evaluators of files
    /// touched since the last recompute (time drift not yet folded in).
    #[must_use]
    pub fn pending_dirty_rows(&self) -> usize {
        let mut union: BTreeSet<UserId> = self.file_trust.dirty().collect();
        union.extend(self.volume.dirty());
        union.extend(self.user_trust.dirty());
        for &file in &self.dirty_files {
            union.extend(self.evals.evaluators_of(file));
        }
        union.len()
    }

    /// `RM_ij` from the last [`recompute`](Self::recompute); 0 before the
    /// first recomputation, for unknown pairs, and for punished targets.
    #[must_use]
    pub fn reputation(&self, i: UserId, j: UserId) -> f64 {
        self.state.reputation(i, j)
    }

    /// [`reputation`](Self::reputation) rescaled so `i`'s most-trusted peer
    /// maps to 1 (see [`EngineSnapshot::relative_reputation`]).
    #[must_use]
    pub fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        self.state.relative_reputation(i, j)
    }

    /// Marks `user` as punished (caught forging evaluations, Section 4.2
    /// attack 3): its reputation reads as zero everywhere, it gets
    /// stranger-level service, and its published evaluations stop counting
    /// in Equation 9. The underlying observations are kept so a
    /// [`pardon`](Self::pardon) can restore the user.
    pub fn mark_punished(&mut self, user: UserId) {
        self.state.set_punished(user, true);
    }

    /// Lifts a punishment.
    pub fn pardon(&mut self, user: UserId) {
        self.state.set_punished(user, false);
    }

    /// Whether `user` is currently punished.
    #[must_use]
    pub fn is_punished(&self, user: UserId) -> bool {
        self.state.is_punished(user)
    }

    /// Runs one proactive audit of `user`'s published evaluations through
    /// `auditor` and applies the punishment automatically when forgery is
    /// detected. Returns the audit outcome.
    pub fn audit_user(
        &mut self,
        auditor: &mut Auditor,
        user: UserId,
        now: SimTime,
    ) -> AuditOutcome {
        let published = self.published_evaluations(user, now);
        let outcome = auditor.audit(now, user, &published);
        if outcome.is_forged() {
            self.mark_punished(user);
        }
        outcome
    }

    /// The full reputation matrix, if computed.
    #[must_use]
    pub fn reputation_matrix(&self) -> Option<&ReputationMatrix> {
        self.state.reputation_matrix()
    }

    /// The one-step matrices of the last recomputation, if any.
    #[must_use]
    pub fn components(&self) -> Option<&TrustComponents> {
        self.state.components()
    }

    /// Equation 9 for `viewer` (see [`EngineSnapshot::file_reputation`]).
    #[must_use]
    pub fn file_reputation(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> Option<Evaluation> {
        self.state.file_reputation(viewer, evaluations)
    }

    /// Batched Equation 9 (see [`EngineSnapshot::file_reputation_batch`]).
    #[must_use]
    pub fn file_reputation_batch(
        &self,
        viewers: &[UserId],
        evaluations: &[OwnerEvaluation],
    ) -> Vec<Option<Evaluation>> {
        self.state.file_reputation_batch(viewers, evaluations)
    }

    /// The download decision for `viewer` (see
    /// [`EngineSnapshot::decide_download`]).
    #[must_use]
    pub fn decide_download(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> DownloadDecision {
        self.state.decide_download(viewer, evaluations)
    }

    /// The service `uploader` grants `requester` under `policy` (see
    /// [`EngineSnapshot::service`]).
    #[must_use]
    pub fn service(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        self.state.service(uploader, requester, policy)
    }

    /// Tier-based service (see [`EngineSnapshot::service_tiered`]).
    #[must_use]
    pub fn service_tiered(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        self.state.service_tiered(uploader, requester, policy)
    }

    /// The evaluations `user` would publish to the DHT at `now` (Fig. 2
    /// step 1) — also the input the auditor re-examines.
    #[must_use]
    pub fn published_evaluations(
        &self,
        user: UserId,
        now: SimTime,
    ) -> BTreeMap<FileId, Evaluation> {
        self.evals.evaluations_of(user, now, self.params())
    }

    /// Read access to the evaluation store (for experiments).
    #[must_use]
    pub fn evaluations(&self) -> &EvaluationStore {
        &self.evals
    }

    /// Figure 1 request coverage (see
    /// [`EngineSnapshot::request_coverage`]).
    #[must_use]
    pub fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        self.state.request_coverage(requests)
    }

    /// The engine's computed state (components, `RM`, punished set) as an
    /// immutable [`EngineSnapshot`] stamped with `epoch` — the publication
    /// unit of the sharded epoch-snapshot architecture. It answers every
    /// read exactly as the engine does now.
    ///
    /// Cheap: the frozen CSR arrays are copy-on-write (`Arc`-shared), so
    /// the clone costs only the overlay pointer maps and the punished set —
    /// `O(dirty rows)`, not `O(nnz)`.
    #[must_use]
    pub fn snapshot_at(&self, epoch: u64, as_of: SimTime) -> EngineSnapshot {
        self.state.restamped(epoch, as_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::SimDuration;
    use mdrep_workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn fresh_engine_answers_conservatively() {
        let engine = ReputationEngine::new(Params::default());
        assert_eq!(engine.reputation(u(0), u(1)), 0.0);
        assert!(engine.reputation_matrix().is_none());
        assert!(engine.components().is_none());
        assert_eq!(engine.decide_download(u(0), &[]), DownloadDecision::Unknown);
        let svc = engine.service(u(0), u(1), &ServicePolicy::default());
        assert!(svc.is_throttled());
        assert_eq!(engine.request_coverage(&[(u(0), u(1))]), 0.0);
    }

    #[test]
    fn download_and_vote_build_reputation() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(100));
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.reputation(u(0), u(1)) > 0.0, "volume trust edge");
    }

    #[test]
    fn shared_votes_build_file_trust_both_ways() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.reputation(u(0), u(1)) > 0.0);
        assert!(engine.reputation(u(1), u(0)) > 0.0);
    }

    #[test]
    fn ranking_builds_user_trust() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.reputation(u(0), u(1)) > 0.0);
        // γ = 0.2 and UM_01 = 1 → TM_01 = 0.2.
        assert!((engine.reputation(u(0), u(1)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn components_are_exposed_and_stochastic() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let c = engine.components().unwrap();
        assert!(c.fm.is_row_stochastic(1e-9));
        assert!(c.um.is_row_stochastic(1e-9));
        // TM rows sum to at most 1 (a dimension can be empty for a user).
        for r in c.tm.row_ids() {
            assert!(c.tm.row_sum(r) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn whitewash_erases_reputation() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(100));
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.reputation(u(0), u(1)) > 0.0);

        engine.observe_whitewash(u(1));
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.reputation(u(0), u(1)), 0.0);
    }

    #[test]
    fn file_reputation_through_engine() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let evals = [OwnerEvaluation::new(u(1), Evaluation::WORST)];
        let r = engine.file_reputation(u(0), &evals).unwrap();
        assert_eq!(r, Evaluation::WORST);
        assert!(!engine.decide_download(u(0), &evals).is_accept());
    }

    #[test]
    fn service_differentiation_through_engine() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(1), u(0), Evaluation::BEST); // uploader 1 trusts 0
        engine.recompute(SimTime::ZERO);
        let policy = ServicePolicy::default();
        let friend = engine.service(u(1), u(0), &policy);
        let stranger = engine.service(u(1), u(9), &policy);
        assert!(friend.queue_offset > stranger.queue_offset);
        assert!(!friend.is_throttled());
        assert!(stranger.is_throttled());
    }

    #[test]
    fn expire_forgets_old_records() {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(2))
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        let later = SimTime::ZERO + SimDuration::from_days(5);
        assert_eq!(engine.expire(later), 2);
        engine.recompute(later);
        assert_eq!(engine.reputation(u(0), u(1)), 0.0);
    }

    #[test]
    fn consumes_whole_workload_traces() {
        let config = WorkloadConfig::builder()
            .users(40)
            .titles(50)
            .days(2)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.3)
            .seed(5)
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        let mut engine = ReputationEngine::new(Params::default());
        for event in trace.events() {
            engine.observe_trace_event(event, trace.catalog());
        }
        let end = SimTime::ZERO + SimDuration::from_days(2);
        engine.recompute(end);
        let coverage = engine.request_coverage(&trace.request_pairs());
        assert!(coverage > 0.0, "some requests must be covered");
        // Published evaluations exist for active users.
        let some_user = trace.population().iter().next().unwrap().id();
        let _ = engine.published_evaluations(some_user, end);
    }

    #[test]
    fn punished_users_lose_reputation_and_voice() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.reputation(u(0), u(1)) > 0.0);
        let evals = [OwnerEvaluation::new(u(1), Evaluation::BEST)];
        assert!(engine.file_reputation(u(0), &evals).is_some());

        engine.mark_punished(u(1));
        assert!(engine.is_punished(u(1)));
        assert_eq!(engine.reputation(u(0), u(1)), 0.0, "reputation zeroed");
        assert!(
            engine.file_reputation(u(0), &evals).is_none(),
            "evaluations discarded"
        );
        assert_eq!(
            engine.decide_download(u(0), &evals),
            DownloadDecision::Unknown
        );

        engine.pardon(u(1));
        assert!(!engine.is_punished(u(1)));
        assert!(engine.reputation(u(0), u(1)) > 0.0, "pardon restores");
    }

    #[test]
    fn audit_user_punishes_forgery_automatically() {
        use crate::audit::Auditor;
        let mut engine = ReputationEngine::new(Params::default());
        let mut auditor = Auditor::new(0.3);
        // User 1 has a genuine evaluation history.
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(1), Evaluation::BEST);

        // Baseline examination.
        let outcome = engine.audit_user(&mut auditor, u(1), SimTime::ZERO);
        assert!(!outcome.is_forged());
        assert!(!engine.is_punished(u(1)));

        // The user swaps its list (re-votes everything inverted).
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::WORST);
        engine.observe_vote(SimTime::ZERO, u(1), f(1), Evaluation::WORST);
        let outcome = engine.audit_user(&mut auditor, u(1), SimTime::ZERO);
        assert!(outcome.is_forged());
        assert!(engine.is_punished(u(1)), "forgery leads to punishment");
    }

    #[test]
    fn tiered_service_prefers_closer_tiers() {
        // Chain 0 → 1 → 2 with two multi-trust steps.
        let params = Params::builder().steps(2).build().unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.observe_rank(u(1), u(2), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let policy = ServicePolicy::default();
        let tier1 = engine.service_tiered(u(0), u(1), &policy);
        let tier2 = engine.service_tiered(u(0), u(2), &policy);
        let stranger = engine.service_tiered(u(0), u(9), &policy);
        assert!(tier1.queue_offset > tier2.queue_offset);
        assert!(tier2.queue_offset >= stranger.queue_offset);
        assert!(stranger.is_throttled());

        // Punished requesters fall to stranger level regardless of tier.
        engine.mark_punished(u(1));
        let punished = engine.service_tiered(u(0), u(1), &policy);
        assert_eq!(punished.queue_offset, stranger.queue_offset);
    }

    /// Asserts the two engines expose bit-identical matrices.
    fn assert_engines_match(incremental: &ReputationEngine, full: &ReputationEngine) {
        let ci = incremental.components().expect("recomputed");
        let cf = full.components().expect("recomputed");
        assert_eq!(ci.fm, cf.fm, "FM diverged");
        assert_eq!(ci.dm, cf.dm, "DM diverged");
        assert_eq!(ci.um, cf.um, "UM diverged");
        assert_eq!(ci.tm, cf.tm, "TM diverged");
        assert_eq!(
            incremental.reputation_matrix().unwrap().matrix(),
            full.reputation_matrix().unwrap().matrix(),
            "RM diverged"
        );
    }

    #[test]
    fn incremental_recompute_matches_full_rebuild_on_trace() {
        let config = WorkloadConfig::builder()
            .users(60)
            .titles(40)
            .days(3)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.2)
            .seed(11)
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        let events: Vec<_> = trace.events().to_vec();

        // Interleave recomputes with ingestion: first one is Full, the
        // rest run incrementally (threshold 1.0 never falls back).
        let end = SimTime::ZERO + SimDuration::from_days(3);
        for (idx, chunk) in events.chunks(events.len() / 4 + 1).enumerate() {
            for event in chunk {
                engine.observe_trace_event(event, trace.catalog());
            }
            let at = chunk.last().map_or(end, |e| e.time);
            engine.recompute(at);
            let expected = if idx == 0 {
                RecomputeMode::Full
            } else {
                RecomputeMode::Incremental
            };
            assert_eq!(engine.last_recompute_mode(), Some(expected), "chunk {idx}");
        }
        engine.recompute(end);

        let mut reference = engine.clone();
        reference.full_rebuild(end);
        assert_eq!(reference.last_recompute_mode(), Some(RecomputeMode::Full));
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn incremental_handles_whitewash_and_expiry() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .evaluation_interval(SimDuration::from_days(4))
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        for i in 0..6 {
            engine.observe_vote(SimTime::ZERO, u(i), f(i % 3), Evaluation::new(0.8).unwrap());
            engine.observe_download(
                SimTime::ZERO,
                u(i),
                u((i + 1) % 6),
                f(i % 3),
                FileSize::from_mib(50),
            );
        }
        engine.recompute(SimTime::ZERO);

        let day2 = SimTime::ZERO + SimDuration::from_days(2);
        engine.observe_vote(day2, u(0), f(0), Evaluation::WORST);
        engine.observe_whitewash(u(3));
        engine.recompute(day2);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );

        let day6 = SimTime::ZERO + SimDuration::from_days(6);
        assert!(engine.expire(day6) > 0, "old records expire");
        engine.recompute(day6);

        let mut reference = engine.clone();
        reference.full_rebuild(day6);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn dirty_fraction_triggers_fallback() {
        let params = Params::builder()
            .incremental_threshold(0.05)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        for i in 0..20 {
            engine.observe_rank(u(i), u((i + 1) % 20), Evaluation::BEST);
        }
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_recompute_mode(), Some(RecomputeMode::Full));

        // One dirty row out of 20 stays under the 5% threshold.
        engine.observe_rank(u(0), u(5), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
        assert_eq!(engine.last_dirty_rows(), 1);

        // Ten dirty rows bust it → automatic fallback to batch.
        for i in 0..10 {
            engine.observe_rank(u(i), u(15), Evaluation::new(0.7).unwrap());
        }
        engine.recompute(SimTime::ZERO);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::FallbackFull)
        );
        assert_eq!(engine.last_dirty_rows(), 10);
    }

    #[test]
    fn zero_threshold_disables_incremental_path() {
        let params = Params::builder()
            .incremental_threshold(0.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        engine.observe_rank(u(1), u(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_recompute_mode(), Some(RecomputeMode::Full));
    }

    #[test]
    fn events_dirty_coevaluator_rows() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(2), f(9), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.pending_dirty_rows(), 0, "recompute drains dirt");

        // User 1 re-votes file 0: its own row AND co-evaluator 0's row are
        // invalidated — but not user 2, who shares no file. The expansion
        // from file to evaluator rows is deferred until recompute.
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::WORST);
        assert!(engine.file_trust.dirty().next().is_none(), "deferred");
        assert_eq!(engine.pending_dirty_rows(), 2);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_dirty_rows(), 2);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
    }

    #[test]
    fn time_drift_dirties_unsaturated_users() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        let day2 = SimTime::ZERO + SimDuration::from_days(2);
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(80));
        engine.observe_download(day2, u(0), u(2), f(1), FileSize::from_mib(80));
        engine.recompute(day2);
        // The day-2 record has zero retention so far: all trust goes to u(1).
        let r0 = engine.reputation(u(0), u(1));
        assert!(r0 > 0.0);

        // A day later, with zero new events, the younger record has accrued
        // retention: the incremental recompute must pick the drift up anyway.
        let day3 = SimTime::ZERO + SimDuration::from_days(3);
        engine.recompute(day3);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
        assert!(engine.last_dirty_rows() >= 1);
        assert!(
            engine.reputation(u(0), u(1)) < r0,
            "u(2)'s share grows, diluting u(1)"
        );
        assert!(engine.reputation(u(0), u(2)) > 0.0);
        let mut reference = engine.clone();
        reference.full_rebuild(day3);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn publish_event_starts_retention() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_publish(SimTime::ZERO, u(0), f(0));
        let week = SimTime::ZERO + SimDuration::from_days(7);
        let evals = engine.published_evaluations(u(0), week);
        assert_eq!(evals.get(&f(0)), Some(&Evaluation::BEST));
    }
}
