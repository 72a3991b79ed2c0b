//! File-based direct trust: Equations 2 and 3.
//!
//! Two users who rated the same files similarly probably share taste and
//! honesty, so the paper defines
//! `FT_ij = 1 − (1/m)·Σ_{k∈F} |E_ik − E_jk|` over the intersection `F` of
//! their evaluated files (Equation 2), then row-normalizes into the
//! one-step matrix `FM` (Equation 3).
//!
//! Footnote 1 of the paper notes the L1 distance could be replaced by other
//! vector distances (Euclidean, Kullback–Leibler); [`DistanceMetric`]
//! implements all three for the ablation experiment.

use crate::eval::EvaluationStore;
use crate::params::Params;
use mdrep_matrix::{map_chunks, normalized_entries, CsrMatrix, PositionRun, UserIndex};
use mdrep_types::{Evaluation, FileId, SimTime, UserId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The per-file distance used inside Equation 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMetric {
    /// The paper's choice: mean absolute difference, `FT = 1 − mean|Δ|`.
    #[default]
    L1,
    /// Root-mean-square difference, `FT = 1 − sqrt(meanΔ²)`.
    Euclidean,
    /// Symmetrized Kullback–Leibler divergence between the evaluations
    /// read as Bernoulli parameters, mapped to trust by `exp(−meanKL)`.
    SymmetricKl,
}

impl DistanceMetric {
    /// The per-file contribution for one common file.
    fn per_file(self, a: Evaluation, b: Evaluation) -> f64 {
        match self {
            Self::L1 => a.distance(b),
            Self::Euclidean => {
                let d = a.distance(b);
                d * d
            }
            Self::SymmetricKl => {
                let clamp = |v: f64| v.clamp(1e-6, 1.0 - 1e-6);
                let (p, q) = (clamp(a.value()), clamp(b.value()));
                let kl =
                    |p: f64, q: f64| p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
                0.5 * (kl(p, q) + kl(q, p))
            }
        }
    }

    /// Maps the accumulated distance over `m` common files to `FT ∈ [0,1]`.
    fn to_trust(self, sum: f64, m: usize) -> f64 {
        let mean = sum / m as f64;
        match self {
            Self::L1 => (1.0 - mean).clamp(0.0, 1.0),
            Self::Euclidean => (1.0 - mean.sqrt()).clamp(0.0, 1.0),
            Self::SymmetricKl => (-mean).exp().clamp(0.0, 1.0),
        }
    }
}

/// Options for [`FileTrust::compute`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FileTrustOptions {
    /// The vector distance of Equation 2.
    pub metric: DistanceMetric,
    /// Cap on evaluators considered per file (popular files can have
    /// thousands; pairing them is quadratic). `None` = unbounded.
    pub max_evaluators_per_file: Option<usize>,
}

/// The computed file-based trust relationship.
///
/// # Examples
///
/// ```
/// use mdrep::{EvaluationStore, FileTrust, Params};
/// use mdrep_types::{Evaluation, FileId, SimTime, UserId};
///
/// let params = Params::builder().eta(0.0).build()?; // pure explicit votes
/// let mut store = EvaluationStore::new();
/// let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
/// store.record_vote(SimTime::ZERO, a, f, Evaluation::BEST);
/// store.record_vote(SimTime::ZERO, b, f, Evaluation::BEST);
///
/// let trust = FileTrust::compute(&store, SimTime::ZERO, &params);
/// // Identical opinions → maximal file-based trust.
/// assert_eq!(trust.raw().get(a, b), 1.0);
/// # Ok::<(), mdrep::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FileTrust {
    ft: CsrMatrix,
}

impl FileTrust {
    /// Computes Equation 2 with default options (L1, unbounded).
    #[must_use]
    pub fn compute(store: &EvaluationStore, now: SimTime, params: &Params) -> Self {
        Self::compute_with(store, now, params, FileTrustOptions::default())
    }

    /// Computes Equation 2 with explicit options: the Equation 2 pass of
    /// [`FileTrustState::full_rebuild`], from an empty `FT`.
    ///
    /// The pass runs row by row over the store's inverted file index: each
    /// user adds its distance to every co-evaluator of each of its files,
    /// so the cost is `O(Σ_f e_f²)` where `e_f` is the (possibly capped)
    /// evaluator count.
    #[must_use]
    pub fn compute_with(
        store: &EvaluationStore,
        now: SimTime,
        params: &Params,
        options: FileTrustOptions,
    ) -> Self {
        let mut state = FileTrustState::new();
        state.full_rebuild(store, now, params, options);
        Self { ft: state.ft }
    }

    /// The raw symmetric `FT` matrix (Equation 2).
    #[must_use]
    pub fn raw(&self) -> &CsrMatrix {
        &self.ft
    }

    /// The row-normalized one-step matrix `FM` (Equation 3), each row
    /// normalized by [`normalized_entries`] as the engine does.
    #[must_use]
    pub fn matrix(&self) -> CsrMatrix {
        let index = self.ft.index();
        let mut run = PositionRun::with_capacity(self.ft.nnz());
        for pos in 0..index.len() as u32 {
            let (cols, vals) = self.ft.position_row(pos);
            let row = normalized_entries(cols.iter().copied().zip(vals.iter().copied()));
            run.push_row(pos, &row);
        }
        CsrMatrix::from_position_runs(index, vec![run])
    }
}

/// Incrementally maintained Equation 2 state: the raw symmetric `FT` matrix
/// plus the set of dirty users whose pairs must be recomputed.
///
/// The dirtying contract the engine upholds is: **whenever the trust of a
/// pair `(i, j)` may have changed, both `i` and `j` are marked dirty.** An
/// event touching file `f` dirties *all* current evaluators of `f` (any
/// pair among them can change, including via the evaluator-cap prefix), and
/// removals dirty the removed user plus its current `FT` partners. Under
/// that contract, a pair with at least one clean endpoint is guaranteed
/// unchanged, so [`apply_dirty`](Self::apply_dirty) only recomputes
/// dirty–dirty pairs — from scratch, over all their common files, through
/// the same pass as [`full_rebuild`](Self::full_rebuild), which makes the
/// incremental result bit-identical to [`FileTrust::compute_with`].
///
/// `FT` is a [`CsrMatrix`]: a full rebuild concatenates the workers' row
/// runs into fresh arrays, and a dirty-row rebuild patches each dirty row
/// once through the overlay.
#[derive(Debug, Clone, Default)]
pub struct FileTrustState {
    ft: CsrMatrix,
    dirty: BTreeSet<UserId>,
}

impl FileTrustState {
    /// Creates empty state with no dirty rows.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw symmetric `FT` matrix (Equation 2).
    #[must_use]
    pub fn raw(&self) -> &CsrMatrix {
        &self.ft
    }

    /// Marks one user's pairs as needing recomputation.
    pub fn mark_dirty(&mut self, user: UserId) {
        self.dirty.insert(user);
    }

    /// Marks several users dirty at once.
    pub fn mark_dirty_many(&mut self, users: impl IntoIterator<Item = UserId>) {
        self.dirty.extend(users);
    }

    /// Marks a removed (whitewashed/expired) user dirty together with every
    /// current `FT` partner — their pairs with `user` must be dropped.
    pub fn mark_user_removed(&mut self, user: UserId) {
        self.dirty
            .extend(self.ft.row_entries(user).map(|(partner, _)| partner));
        self.dirty.insert(user);
    }

    /// The currently dirty users, in ascending order.
    pub fn dirty(&self) -> impl Iterator<Item = UserId> + '_ {
        self.dirty.iter().copied()
    }

    /// Rebuilds `FT` from scratch and clears the dirty set: the Equation 2
    /// pass with every evaluator eligible, starting from an empty `FT`, so
    /// there is nothing to remove and no dirty set to filter by.
    pub fn full_rebuild(
        &mut self,
        store: &EvaluationStore,
        now: SimTime,
        params: &Params,
        options: FileTrustOptions,
    ) {
        self.dirty.clear();
        accumulate_pairs(&mut self.ft, store, now, params, options, None);
    }

    /// Recomputes exactly the dirty–dirty pairs and drains the dirty set,
    /// patching each dirty row once. Returns the processed users
    /// (ascending) so the caller can renormalize their `FM` rows.
    pub fn apply_dirty(
        &mut self,
        store: &EvaluationStore,
        now: SimTime,
        params: &Params,
        options: FileTrustOptions,
    ) -> Vec<UserId> {
        let dirty = std::mem::take(&mut self.dirty);
        if dirty.is_empty() {
            return Vec::new();
        }
        accumulate_pairs(&mut self.ft, store, now, params, options, Some(&dirty));
        dirty.into_iter().collect()
    }
}

/// What one Equation 2 pass did, exported per epoch as
/// `engine.eq2.capped_files` (gauge) and `engine.eq2.pair_updates`
/// (counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Eq2Work {
    /// Walked files whose evaluator list the cap truncated.
    capped_files: usize,
    /// Unordered (pair, file) contributions: `Σ_f C(k_f, 2)` over the
    /// walked files' `k_f` members.
    pair_updates: u64,
}

/// The Equation 2 member table: each walked file's capped, eligible
/// evaluators with their Equation 1 values, recorded once and indexed both
/// by file and by user.
struct MemberTable {
    /// The member users, ascending; a member is named by its index here.
    users: Vec<UserId>,
    /// File slot `s`'s members, in store order, are
    /// `members[file_start[s]..file_start[s + 1]]`, as (user index, value).
    /// Slots follow ascending file order.
    file_start: Vec<usize>,
    members: Vec<(usize, Evaluation)>,
    /// User `u`'s (file slot, value) list, in ascending slot order, is
    /// `user_files[user_start[u]..user_start[u + 1]]`.
    user_start: Vec<usize>,
    user_files: Vec<(usize, Evaluation)>,
    work: Eq2Work,
}

impl MemberTable {
    /// Walks the files once, in ascending order — every file, or the files
    /// of the `eligible` users — and keeps each file's first `cap`
    /// evaluators in store order that are eligible. Files left with fewer
    /// than two members pair nobody and get no slot.
    fn build(
        store: &EvaluationStore,
        now: SimTime,
        params: &Params,
        options: FileTrustOptions,
        eligible: Option<&BTreeSet<UserId>>,
    ) -> Self {
        let files: Vec<FileId> = match eligible {
            None => store.files().collect(),
            Some(users) => users
                .iter()
                .flat_map(|&u| store.files_of(u))
                .collect::<BTreeSet<FileId>>()
                .into_iter()
                .collect(),
        };
        let cap = options.max_evaluators_per_file.unwrap_or(usize::MAX);
        let mut work = Eq2Work {
            capped_files: 0,
            pair_updates: 0,
        };
        let mut file_start = vec![0];
        let mut named: Vec<(UserId, Evaluation)> = Vec::new();
        for file in files {
            let start = named.len();
            let mut evaluators = store.evaluators_of(file);
            for user in evaluators.by_ref().take(cap) {
                if eligible.is_none_or(|users| users.contains(&user)) {
                    let value = store
                        .evaluation(user, file, now, params)
                        .expect("an indexed evaluator holds a record");
                    named.push((user, value));
                }
            }
            if evaluators.next().is_some() {
                work.capped_files += 1;
            }
            let k = (named.len() - start) as u64;
            if k < 2 {
                named.truncate(start);
            } else {
                work.pair_updates += k * (k - 1) / 2;
                file_start.push(named.len());
            }
        }

        let mut users: Vec<UserId> = named.iter().map(|&(u, _)| u).collect();
        users.sort_unstable();
        users.dedup();
        let members: Vec<(usize, Evaluation)> = named
            .into_iter()
            .map(|(u, value)| (users.binary_search(&u).expect("collected above"), value))
            .collect();

        // Counting sort by user; walking the slots in order keeps every
        // user's list in ascending file order.
        let mut user_start = vec![0; users.len() + 1];
        for &(u, _) in &members {
            user_start[u + 1] += 1;
        }
        for u in 0..users.len() {
            user_start[u + 1] += user_start[u];
        }
        let mut cursor = user_start[..users.len()].to_vec();
        let mut user_files = vec![(0, Evaluation::WORST); members.len()];
        for slot in 0..file_start.len() - 1 {
            for &(u, value) in &members[file_start[slot]..file_start[slot + 1]] {
                user_files[cursor[u]] = (slot, value);
                cursor[u] += 1;
            }
        }
        Self {
            users,
            file_start,
            members,
            user_start,
            user_files,
            work,
        }
    }

    /// Hands `sink` the `FT` row of each user at `rows` (indices into
    /// [`users`](Self::users)) that has an entry, in order, as its nonzero
    /// entries in ascending column order — columns, like rows, are indices
    /// into `users`, which is sorted, so they are also the positions of
    /// the `FT` index built from it. One dense `(sum, count)`
    /// accumulator serves every row: row `a` walks its files in ascending
    /// order and adds its distance to every co-member, so each pair sums
    /// its common files in ascending file order — the order the symmetric
    /// entry's row uses too.
    fn trust_rows(
        &self,
        rows: &[usize],
        metric: DistanceMetric,
        mut sink: impl FnMut(usize, &[(u32, f64)]),
    ) {
        let mut acc = vec![(0.0, 0usize); self.users.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for &a in rows {
            for &(slot, ea) in &self.user_files[self.user_start[a]..self.user_start[a + 1]] {
                for &(b, eb) in &self.members[self.file_start[slot]..self.file_start[slot + 1]] {
                    if b != a {
                        let cell = &mut acc[b];
                        if cell.1 == 0 {
                            touched.push(b);
                        }
                        cell.0 += metric.per_file(ea, eb);
                        cell.1 += 1;
                    }
                }
            }
            touched.sort_unstable();
            row.clear();
            row.extend(touched.drain(..).filter_map(|b| {
                let (sum, m) = std::mem::take(&mut acc[b]);
                let trust = metric.to_trust(sum, m);
                // Zero-trust pairs stay absent (sparse Equation 2).
                (trust > 0.0).then_some((b as u32, trust))
            }));
            if !row.is_empty() {
                sink(a, &row);
            }
        }
    }
}

/// The (pair, file) contributions one Equation 2 worker must have before
/// another thread is worth spawning: below it, spawning and joining costs
/// more than the rows it would take over, so the small passes of dirty-row
/// epochs run on the caller's thread.
const MIN_PAIR_UPDATES_PER_WORKER: u64 = 1 << 14;

/// The workers for a pass of `pair_updates` contributions: at most
/// `threads`, and at least one.
fn workers(threads: usize, pair_updates: u64) -> usize {
    let by_work = usize::try_from(pair_updates / MIN_PAIR_UPDATES_PER_WORKER).unwrap_or(usize::MAX);
    threads.min(by_work).max(1)
}

/// The Equation 2 pass: computes every pair whose endpoints are both
/// eligible — every evaluator when `eligible` is `None`, else the listed
/// users — over their common files, and writes the pairs into `ft`.
///
/// The rows are split into contiguous ranges ([`map_chunks`]) over
/// [`Params::effective_threads`] — fewer when the pass is small
/// ([`workers`]) — one worker and one accumulator per range. Every pair
/// sums its common files in ascending file order, and
/// [`DistanceMetric::per_file`] is exactly symmetric, so `FT_ab` and
/// `FT_ba` are the same bits, whichever rows (a full or a dirty-row
/// rebuild) and whatever thread count computed them.
///
/// A full pass replaces `ft` with the workers' row runs, concatenated
/// under the member users' index, in whose positions the kernel already
/// emits them. A dirty pass patches every eligible user's
/// row once: its old entries whose column is clean (unchanged, by the
/// dirtying contract), merged in column order with the fresh dirty-column
/// entries; an empty result masks the row.
fn accumulate_pairs(
    ft: &mut CsrMatrix,
    store: &EvaluationStore,
    now: SimTime,
    params: &Params,
    options: FileTrustOptions,
    eligible: Option<&BTreeSet<UserId>>,
) -> Eq2Work {
    let _phase = mdrep_obs::phase("engine.eq2.pairs");
    let table = MemberTable::build(store, now, params, options, eligible);
    let obs = mdrep_obs::global();
    obs.gauge_set("engine.eq2.capped_files", table.work.capped_files as f64);
    obs.counter_add("engine.eq2.pair_updates", table.work.pair_updates);

    let rows: Vec<usize> = (0..table.users.len()).collect();
    let threads = workers(params.effective_threads(), table.work.pair_updates);
    let Some(dirty) = eligible else {
        let runs = map_chunks(&rows, threads, |chunk| {
            let mut run = PositionRun::default();
            table.trust_rows(chunk, options.metric, |a, row| {
                run.push_row(a as u32, row);
            });
            run
        });
        let index = Arc::new(UserIndex::from_ids(table.users));
        *ft = CsrMatrix::from_position_runs(&index, runs);
        return table.work;
    };
    let mut fresh = map_chunks(&rows, threads, |chunk| {
        let mut out = Vec::new();
        table.trust_rows(chunk, options.metric, |a, row| {
            let row: Vec<(UserId, f64)> = row
                .iter()
                .map(|&(b, v)| (table.users[b as usize], v))
                .collect();
            out.push((table.users[a], row));
        });
        out
    })
    .into_iter()
    .flatten()
    .peekable();
    for &user in dirty {
        let mut row: Vec<(UserId, f64)> = ft
            .row_entries(user)
            .filter(|(c, _)| !dirty.contains(c))
            .collect();
        if let Some((_, entries)) = fresh.next_if(|&(a, _)| a == user) {
            row.extend(entries);
            row.sort_unstable_by_key(|&(c, _)| c);
        }
        ft.set_row(user, row);
    }
    table.work
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::FileId;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    /// Pure-explicit params so votes are the evaluation verbatim.
    fn explicit_params() -> Params {
        Params::builder().eta(0.0).build().unwrap()
    }

    fn vote(store: &mut EvaluationStore, user: UserId, file: FileId, v: f64) {
        store.record_vote(SimTime::ZERO, user, file, Evaluation::new(v).unwrap());
    }

    #[test]
    fn identical_opinions_give_full_trust() {
        let mut store = EvaluationStore::new();
        for file in 0..3 {
            vote(&mut store, u(0), f(file), 0.8);
            vote(&mut store, u(1), f(file), 0.8);
        }
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 1.0);
        assert_eq!(t.raw().get(u(1), u(0)), 1.0);
    }

    #[test]
    fn opposite_opinions_give_zero_trust() {
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(0), 0.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 0.0);
    }

    #[test]
    fn equation_two_hand_computed() {
        // Common files: e0 = (1.0, 0.6) → |Δ| = 0.4; e1 = (0.5, 0.7) → 0.2.
        // FT = 1 − (0.4 + 0.2)/2 = 0.7.
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(0), 0.6);
        vote(&mut store, u(0), f(1), 0.5);
        vote(&mut store, u(1), f(1), 0.7);
        // A third file only user 0 evaluated must not affect the pair.
        vote(&mut store, u(0), f(2), 0.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert!((t.raw().get(u(0), u(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn no_common_files_no_relationship() {
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(1), 1.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 0.0);
        assert!(t.raw().is_empty());
    }

    #[test]
    fn fm_is_row_stochastic() {
        let mut store = EvaluationStore::new();
        for file in 0..4 {
            vote(&mut store, u(0), f(file), 0.9);
            vote(&mut store, u(1), f(file), 0.8);
            vote(&mut store, u(2), f(file), 0.2);
        }
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        let fm = t.matrix();
        assert!(fm.is_row_stochastic(1e-12));
        // User 0 trusts user 1 (similar) more than user 2 (dissimilar).
        assert!(fm.get(u(0), u(1)) > fm.get(u(0), u(2)));
    }

    #[test]
    fn euclidean_penalizes_large_deviations_more() {
        // Same mean |Δ| but concentrated in one file: L1 equal, Euclid lower.
        let mut even = EvaluationStore::new();
        vote(&mut even, u(0), f(0), 0.5);
        vote(&mut even, u(1), f(0), 0.0);
        vote(&mut even, u(0), f(1), 0.5);
        vote(&mut even, u(1), f(1), 0.0);

        let mut spiky = EvaluationStore::new();
        vote(&mut spiky, u(0), f(0), 1.0);
        vote(&mut spiky, u(1), f(0), 0.0);
        vote(&mut spiky, u(0), f(1), 0.0);
        vote(&mut spiky, u(1), f(1), 0.0);

        let params = explicit_params();
        let opts = FileTrustOptions {
            metric: DistanceMetric::Euclidean,
            ..Default::default()
        };
        let even_l1 = FileTrust::compute(&even, SimTime::ZERO, &params)
            .raw()
            .get(u(0), u(1));
        let spiky_l1 = FileTrust::compute(&spiky, SimTime::ZERO, &params)
            .raw()
            .get(u(0), u(1));
        assert!((even_l1 - spiky_l1).abs() < 1e-12, "same L1 trust");

        let even_eu = FileTrust::compute_with(&even, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        let spiky_eu = FileTrust::compute_with(&spiky, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        assert!(spiky_eu < even_eu, "euclidean punishes the spike");
    }

    #[test]
    fn kl_metric_in_range_and_monotone() {
        let params = explicit_params();
        let opts = FileTrustOptions {
            metric: DistanceMetric::SymmetricKl,
            ..Default::default()
        };

        let mut close = EvaluationStore::new();
        vote(&mut close, u(0), f(0), 0.8);
        vote(&mut close, u(1), f(0), 0.7);
        let mut far = EvaluationStore::new();
        vote(&mut far, u(0), f(0), 0.9);
        vote(&mut far, u(1), f(0), 0.1);

        let tc = FileTrust::compute_with(&close, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        let tf = FileTrust::compute_with(&far, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        assert!((0.0..=1.0).contains(&tc));
        assert!((0.0..=1.0).contains(&tf));
        assert!(tc > tf);
    }

    #[test]
    fn evaluator_cap_limits_pairing() {
        let mut store = EvaluationStore::new();
        for user in 0..10 {
            vote(&mut store, u(user), f(0), 1.0);
        }
        let params = explicit_params();
        let capped = FileTrustOptions {
            max_evaluators_per_file: Some(3),
            ..Default::default()
        };
        let t = FileTrust::compute_with(&store, SimTime::ZERO, &params, capped);
        // Only 3 evaluators considered → 3 pairs → 6 directed entries.
        assert_eq!(t.raw().nnz(), 6);
        let full = FileTrust::compute(&store, SimTime::ZERO, &params);
        assert_eq!(full.raw().nnz(), 90);
    }

    #[test]
    fn pass_counts_capped_files_and_pair_updates() {
        // One file with 10 evaluators at cap 3: the cap truncates it, and
        // its 3 members contribute C(3, 2) = 3 (pair, file) updates.
        let mut store = EvaluationStore::new();
        for user in 0..10 {
            vote(&mut store, u(user), f(0), 1.0);
        }
        let capped = FileTrustOptions {
            max_evaluators_per_file: Some(3),
            ..Default::default()
        };
        let mut ft = CsrMatrix::default();
        let work = accumulate_pairs(
            &mut ft,
            &store,
            SimTime::ZERO,
            &explicit_params(),
            capped,
            None,
        );
        assert_eq!(
            work,
            Eq2Work {
                capped_files: 1,
                pair_updates: 3
            }
        );
        assert_eq!(ft.nnz(), 6);
    }

    #[test]
    fn small_passes_stay_on_one_worker() {
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(8, MIN_PAIR_UPDATES_PER_WORKER - 1), 1);
        assert_eq!(workers(8, 3 * MIN_PAIR_UPDATES_PER_WORKER), 3);
        assert_eq!(workers(2, u64::MAX), 2);
    }

    #[test]
    fn state_apply_dirty_matches_batch_bitwise() {
        let params = explicit_params();
        let options = FileTrustOptions::default();
        let mut store = EvaluationStore::new();
        for file in 0..4 {
            vote(&mut store, u(0), f(file), 0.9);
            vote(&mut store, u(1), f(file), 0.7 + 0.05 * file as f64);
            vote(&mut store, u(2), f(file), 0.2);
        }
        let mut state = FileTrustState::new();
        state.full_rebuild(&store, SimTime::ZERO, &params, options);

        // User 1 re-votes file 2 → dirty all evaluators of file 2.
        vote(&mut store, u(1), f(2), 0.1);
        state.mark_dirty_many(store.evaluators_of(f(2)));
        let processed = state.apply_dirty(&store, SimTime::ZERO, &params, options);
        assert_eq!(processed, vec![u(0), u(1), u(2)]);
        assert_eq!(state.dirty().count(), 0);

        let batch = FileTrust::compute(&store, SimTime::ZERO, &params);
        for (r, c, v) in batch.raw().iter() {
            assert_eq!(state.raw().get(r, c), v, "entry ({r:?},{c:?})");
        }
        assert_eq!(state.raw().nnz(), batch.raw().nnz());
    }

    #[test]
    fn state_removed_user_pairs_are_dropped() {
        let params = explicit_params();
        let options = FileTrustOptions::default();
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 0.8);
        vote(&mut store, u(1), f(0), 0.8);
        vote(&mut store, u(2), f(0), 0.8);
        let mut state = FileTrustState::new();
        state.full_rebuild(&store, SimTime::ZERO, &params, options);
        assert!(state.raw().get(u(0), u(1)) > 0.0);

        store.remove_user(u(1));
        state.mark_user_removed(u(1));
        state.apply_dirty(&store, SimTime::ZERO, &params, options);
        assert_eq!(state.raw().get(u(0), u(1)), 0.0);
        assert_eq!(state.raw().get(u(1), u(0)), 0.0);
        assert!(state.raw().get(u(0), u(2)) > 0.0, "surviving pair kept");
    }

    #[test]
    fn state_apply_dirty_respects_evaluator_cap() {
        // With cap 2, only the two lowest-id evaluators of a file pair up.
        // A whitewash of a prefix member promotes the next user in — the
        // dirty rule (all evaluators of the file) must catch that.
        let params = explicit_params();
        let options = FileTrustOptions {
            max_evaluators_per_file: Some(2),
            ..Default::default()
        };
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 0.9);
        vote(&mut store, u(1), f(0), 0.9);
        vote(&mut store, u(2), f(0), 0.9);
        let mut state = FileTrustState::new();
        state.full_rebuild(&store, SimTime::ZERO, &params, options);
        assert_eq!(state.raw().get(u(0), u(2)), 0.0, "u2 beyond the cap");

        state.mark_dirty_many(store.evaluators_of(f(0)));
        state.mark_user_removed(u(1));
        store.remove_user(u(1));
        state.apply_dirty(&store, SimTime::ZERO, &params, options);
        let batch = FileTrust::compute_with(&store, SimTime::ZERO, &params, options);
        assert!(state.raw().get(u(0), u(2)) > 0.0, "u2 enters the prefix");
        for (r, c, v) in batch.raw().iter() {
            assert_eq!(state.raw().get(r, c), v);
        }
        assert_eq!(state.raw().nnz(), batch.raw().nnz());
    }

    #[test]
    fn implicit_evaluations_build_trust_without_votes() {
        // Both users download the same file and keep it → similar implicit
        // evaluations → trust edge, with zero votes cast. This is the
        // paper's central argument for implicit evaluation coverage.
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(0), f(0));
        store.record_download(SimTime::ZERO, u(1), f(0));
        let later = SimTime::ZERO + mdrep_types::SimDuration::from_days(3);
        let t = FileTrust::compute(&store, later, &params);
        assert_eq!(
            t.raw().get(u(0), u(1)),
            1.0,
            "same retention → same opinion"
        );
    }
}
