//! Evaluation storage and Equation 1: blending implicit (retention-time)
//! and explicit (vote) evaluations.
//!
//! > *"A file can be evaluated explicitly and implicitly. […] Our work
//! > calculates a file's evaluation by an integration of the two."*
//!
//! The **implicit** evaluation is derived from how long the user retained
//! the file: fakes are deleted quickly, keepers are kept. It saturates at 1
//! once the retention reaches [`Params::retention_saturation`]. Because
//! retention exists for *every* download, implicit evaluation gives 100%
//! evaluation coverage — the key to the >80% request coverage of Figure 1.
//!
//! The **explicit** evaluation is the user's vote. When present, Equation 1
//! blends the two: `E = η·IE + ρ·EE`.

use crate::params::Params;
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Everything known about one user's interaction with one file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationRecord {
    downloaded_at: SimTime,
    deleted_at: Option<SimTime>,
    vote: Option<Evaluation>,
    last_activity: SimTime,
}

impl EvaluationRecord {
    /// When the user obtained the file.
    #[must_use]
    pub fn downloaded_at(&self) -> SimTime {
        self.downloaded_at
    }

    /// When the user deleted it, if they did.
    #[must_use]
    pub fn deleted_at(&self) -> Option<SimTime> {
        self.deleted_at
    }

    /// The explicit vote, if one was cast.
    #[must_use]
    pub fn vote(&self) -> Option<Evaluation> {
        self.vote
    }

    /// The implicit evaluation at `now`, derived from retention time.
    ///
    /// Two regimes, both saturating at [`Params::retention_saturation`]:
    ///
    /// * **Still held** — retention is an ongoing observation: a file
    ///   downloaded five minutes ago carries no information either way, so
    ///   the signal ramps from the neutral value 0.5 toward 1 with age:
    ///   `IE = 0.5 + 0.5 · min(age / saturation, 1)`.
    /// * **Deleted** — the observation is over and the verdict is frozen:
    ///   `IE = min(retention / saturation, 1)`. A quick deletion reads as
    ///   ≈ 0 (the paper's Eq 4 needs fake downloads to contribute
    ///   nothing), a deletion after long retention still reads as ≈ 1, and
    ///   the value no longer drifts with the evaluation time.
    #[must_use]
    pub fn implicit(&self, now: SimTime, params: &Params) -> Evaluation {
        let saturation = params.retention_saturation().as_ticks() as f64;
        match self.deleted_at {
            Some(deleted_at) => {
                let end = deleted_at.max(self.downloaded_at);
                let retention = (end - self.downloaded_at).as_ticks() as f64;
                Evaluation::clamped((retention / saturation).min(1.0))
            }
            None => {
                let now = now.max(self.downloaded_at);
                let age = (now - self.downloaded_at).as_ticks() as f64;
                let confidence = (age / saturation).min(1.0);
                Evaluation::clamped(0.5 + 0.5 * confidence)
            }
        }
    }

    /// Equation 1: the integrated evaluation at `now`.
    #[must_use]
    pub fn evaluation(&self, now: SimTime, params: &Params) -> Evaluation {
        let ie = self.implicit(now, params);
        match self.vote {
            None => ie,
            Some(ee) => ie.blend(ee, params.eta()).expect("eta validated"),
        }
    }
}

/// Per-user evaluation records with an inverted file index.
///
/// # Examples
///
/// ```
/// use mdrep::{EvaluationStore, Params};
/// use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
///
/// let params = Params::default();
/// let mut store = EvaluationStore::new();
/// let (u, f) = (UserId::new(1), FileId::new(1));
/// store.record_download(SimTime::ZERO, u, f);
/// store.record_vote(SimTime::ZERO, u, f, Evaluation::BEST);
///
/// // Immediately after download the implicit part is neutral (0.5), so
/// // Equation 1 gives η·0.5 + (1 − η)·1.
/// let now = SimTime::ZERO;
/// let e = store.evaluation(u, f, now, &params).unwrap();
/// let expected = params.eta() * 0.5 + (1.0 - params.eta());
/// assert!((e.value() - expected).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvaluationStore {
    records: HashMap<UserId, BTreeMap<FileId, EvaluationRecord>>,
    /// Inverted index, ordered so [`files`](Self::files) iterates in
    /// ascending file order — the batch and dirty-row trust builders rely on
    /// this shared order to accumulate pair distances bit-identically.
    evaluators: BTreeMap<FileId, BTreeSet<UserId>>,
    /// Conservative per-user maximum record-creation time, feeding the
    /// time-dirtying rule: a user whose newest record had not yet saturated
    /// at the previous recompute still has drifting implicit evaluations.
    latest_start: HashMap<UserId, SimTime>,
}

impl EvaluationStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `user` obtained `file` at `time` (download or own
    /// publication — both start the retention clock).
    pub fn record_download(&mut self, time: SimTime, user: UserId, file: FileId) {
        let record = EvaluationRecord {
            downloaded_at: time,
            deleted_at: None,
            vote: None,
            last_activity: time,
        };
        self.records.entry(user).or_default().insert(file, record);
        self.evaluators.entry(file).or_default().insert(user);
        self.touch_latest_start(user, time);
    }

    /// Records that `user` deleted `file` at `time`. Ignored when no
    /// download was recorded (deletions of unknown files carry no signal).
    pub fn record_delete(&mut self, time: SimTime, user: UserId, file: FileId) {
        if let Some(r) = self.records.get_mut(&user).and_then(|m| m.get_mut(&file)) {
            if r.deleted_at.is_none() {
                r.deleted_at = Some(time.max(r.downloaded_at));
                r.last_activity = time;
            }
        }
    }

    /// Records an explicit vote; replaces any earlier vote. A vote on a file
    /// the user never downloaded creates a record (a user may evaluate a
    /// file it obtained out of band).
    pub fn record_vote(&mut self, time: SimTime, user: UserId, file: FileId, value: Evaluation) {
        let entry = self
            .records
            .entry(user)
            .or_default()
            .entry(file)
            .or_insert(EvaluationRecord {
                downloaded_at: time,
                deleted_at: None,
                vote: None,
                last_activity: time,
            });
        entry.vote = Some(value);
        entry.last_activity = time;
        self.evaluators.entry(file).or_default().insert(user);
        self.touch_latest_start(user, time);
    }

    fn touch_latest_start(&mut self, user: UserId, time: SimTime) {
        let entry = self.latest_start.entry(user).or_insert(time);
        *entry = (*entry).max(time);
    }

    /// Forgets everything about `user` (whitewash handling).
    pub fn remove_user(&mut self, user: UserId) {
        self.latest_start.remove(&user);
        if let Some(files) = self.records.remove(&user) {
            for file in files.keys() {
                if let Some(set) = self.evaluators.get_mut(file) {
                    set.remove(&user);
                    if set.is_empty() {
                        self.evaluators.remove(file);
                    }
                }
            }
        }
    }

    /// Drops records whose last activity is older than the evaluation
    /// interval (Section 4.3: evaluations are only preserved within an
    /// interval). Returns how many records were dropped.
    pub fn expire(&mut self, now: SimTime, params: &Params) -> usize {
        self.expire_detailed(now, params).len()
    }

    /// [`expire`](Self::expire), but reports exactly which `(user, file)`
    /// records were dropped — the dirty-row recompute needs them to dirty
    /// the expired users and the remaining co-evaluators of those files.
    pub fn expire_detailed(&mut self, now: SimTime, params: &Params) -> Vec<(UserId, FileId)> {
        let cutoff = params.evaluation_interval();
        let mut emptied_files: Vec<(UserId, FileId)> = Vec::new();
        for (&user, files) in &mut self.records {
            files.retain(|&file, r| {
                let fresh = (now - r.last_activity) <= cutoff;
                if !fresh {
                    emptied_files.push((user, file));
                }
                fresh
            });
        }
        self.records.retain(|_, files| !files.is_empty());
        for (user, file) in &emptied_files {
            if let Some(set) = self.evaluators.get_mut(file) {
                set.remove(user);
                if set.is_empty() {
                    self.evaluators.remove(file);
                }
            }
        }
        emptied_files
    }

    /// The record for `(user, file)`, if any.
    #[must_use]
    pub fn record(&self, user: UserId, file: FileId) -> Option<&EvaluationRecord> {
        self.records.get(&user).and_then(|m| m.get(&file))
    }

    /// `user`'s live records, keyed by file in ascending order; `None` when
    /// the user has none.
    pub(crate) fn records_of(&self, user: UserId) -> Option<&BTreeMap<FileId, EvaluationRecord>> {
        self.records.get(&user)
    }

    /// Equation 1 for `(user, file)` at `now`; `None` when no record exists.
    #[must_use]
    pub fn evaluation(
        &self,
        user: UserId,
        file: FileId,
        now: SimTime,
        params: &Params,
    ) -> Option<Evaluation> {
        self.record(user, file).map(|r| r.evaluation(now, params))
    }

    /// All of `user`'s evaluations at `now`, keyed by file.
    #[must_use]
    pub fn evaluations_of(
        &self,
        user: UserId,
        now: SimTime,
        params: &Params,
    ) -> BTreeMap<FileId, Evaluation> {
        self.records
            .get(&user)
            .map(|files| {
                files
                    .iter()
                    .map(|(&f, r)| (f, r.evaluation(now, params)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The inverted file index: every file with at least one evaluator,
    /// ascending, with its evaluators in ascending (store) order.
    pub(crate) fn evaluator_index(&self) -> &BTreeMap<FileId, BTreeSet<UserId>> {
        &self.evaluators
    }

    /// Users who have evaluated `file` (the inverted index driving
    /// file-based trust).
    pub fn evaluators_of(&self, file: FileId) -> impl Iterator<Item = UserId> + '_ {
        self.evaluators
            .get(&file)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Iterates over all users with at least one record.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.records.keys().copied()
    }

    /// Number of users with at least one record.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.records.len()
    }

    /// The files `user` currently holds a record for, in ascending order.
    pub fn files_of(&self, user: UserId) -> impl Iterator<Item = FileId> + '_ {
        self.records
            .get(&user)
            .into_iter()
            .flat_map(|files| files.keys().copied())
    }

    /// Users whose implicit evaluations were still drifting at `at`: their
    /// newest record was created less than `saturation` before `at`, so at
    /// least one still-held record had not yet reached the frozen value 1.
    ///
    /// The tracker keeps the *maximum* record-creation time per user and is
    /// never decreased by deletions or expiry, so this may over-report
    /// (extra rows are recomputed to the same values) but never
    /// under-reports.
    #[must_use]
    pub fn users_with_unsaturated_records(
        &self,
        at: SimTime,
        saturation: SimDuration,
    ) -> Vec<UserId> {
        self.latest_start
            .iter()
            .filter(|&(user, &start)| self.records.contains_key(user) && start + saturation > at)
            .map(|(&user, _)| user)
            .collect()
    }

    /// Iterates over all files with at least one evaluator.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.evaluators.keys().copied()
    }

    /// Total number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.values().map(BTreeMap::len).sum()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::SimDuration;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn implicit_grows_with_retention() {
        let params = Params::default(); // saturation: 7 days
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));

        // A still-held file: held fraction 1, confidence age/7d.
        let t0 = store
            .evaluation(u(1), f(1), SimTime::ZERO, &params)
            .unwrap();
        assert_eq!(t0, Evaluation::NEUTRAL, "no age, no information");
        let day1 = SimTime::ZERO + SimDuration::from_days(1);
        let day7 = SimTime::ZERO + SimDuration::from_days(7);
        let day30 = SimTime::ZERO + SimDuration::from_days(30);
        let e1 = store.evaluation(u(1), f(1), day1, &params).unwrap();
        let e7 = store.evaluation(u(1), f(1), day7, &params).unwrap();
        let e30 = store.evaluation(u(1), f(1), day30, &params).unwrap();
        assert!((e1.value() - (0.5 + 0.5 / 7.0)).abs() < 1e-9, "got {e1}");
        assert_eq!(e7, Evaluation::BEST);
        assert_eq!(e30, Evaluation::BEST, "saturates at 1");
    }

    #[test]
    fn quick_deletion_reads_as_fake() {
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        let hour6 = SimTime::ZERO + SimDuration::from_hours(6);
        store.record_delete(hour6, u(1), f(1));
        // Contract: deletion freezes the implicit evaluation at
        // retention/saturation — 6h of the 7-day saturation window — and it
        // no longer depends on when it is evaluated.
        let later = SimTime::ZERO + SimDuration::from_days(10);
        let e = store.evaluation(u(1), f(1), later, &params).unwrap();
        let frozen = 6.0 / (7.0 * 24.0);
        assert!((e.value() - frozen).abs() < 1e-9, "got {e}");
        assert!(e.is_below(Evaluation::NEUTRAL));
        let much_later = SimTime::ZERO + SimDuration::from_days(60);
        assert_eq!(
            store.evaluation(u(1), f(1), much_later, &params).unwrap(),
            e
        );
    }

    #[test]
    fn second_delete_is_ignored() {
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        let t1 = SimTime::ZERO + SimDuration::from_hours(1);
        let t2 = SimTime::ZERO + SimDuration::from_hours(20);
        store.record_delete(t1, u(1), f(1));
        store.record_delete(t2, u(1), f(1));
        let e = store.evaluation(u(1), f(1), t2, &params).unwrap();
        // Contract: only the first deletion counts, and it freezes the
        // implicit evaluation at retention/saturation = 1h/168h.
        let expected = 1.0 / 168.0;
        assert!((e.value() - expected).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn vote_blends_per_equation_one() {
        let params = Params::builder().eta(0.4).build().unwrap();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        store.record_vote(SimTime::ZERO, u(1), f(1), Evaluation::WORST);
        // At saturation the implicit part is 1, vote is 0:
        // E = 0.4·1 + 0.6·0 = 0.4.
        let later = SimTime::ZERO + SimDuration::from_days(30);
        let e = store.evaluation(u(1), f(1), later, &params).unwrap();
        assert!((e.value() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn vote_without_download_creates_record() {
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_vote(SimTime::ZERO, u(2), f(3), Evaluation::BEST);
        assert!(store
            .evaluation(u(2), f(3), SimTime::ZERO, &params)
            .is_some());
        assert_eq!(store.evaluators_of(f(3)).collect::<Vec<_>>(), vec![u(2)]);
    }

    #[test]
    fn revote_replaces() {
        let params = Params::builder().eta(0.0).build().unwrap(); // pure explicit
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        store.record_vote(SimTime::ZERO, u(1), f(1), Evaluation::WORST);
        store.record_vote(SimTime::ZERO, u(1), f(1), Evaluation::BEST);
        let e = store
            .evaluation(u(1), f(1), SimTime::ZERO, &params)
            .unwrap();
        assert_eq!(e, Evaluation::BEST);
    }

    #[test]
    fn delete_of_unknown_file_is_noop() {
        let mut store = EvaluationStore::new();
        store.record_delete(SimTime::ZERO, u(1), f(1));
        assert!(store.is_empty());
    }

    #[test]
    fn remove_user_clears_indices() {
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        store.record_download(SimTime::ZERO, u(2), f(1));
        store.remove_user(u(1));
        assert_eq!(store.evaluators_of(f(1)).collect::<Vec<_>>(), vec![u(2)]);
        store.remove_user(u(2));
        assert!(store.is_empty());
        assert_eq!(store.files().count(), 0);
    }

    #[test]
    fn expire_drops_stale_records() {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(5))
            .build()
            .unwrap();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        let day3 = SimTime::ZERO + SimDuration::from_days(3);
        store.record_download(day3, u(1), f(2));

        let day7 = SimTime::ZERO + SimDuration::from_days(7);
        let dropped = store.expire(day7, &params);
        assert_eq!(dropped, 1);
        assert!(store.record(u(1), f(1)).is_none(), "stale record dropped");
        assert!(store.record(u(1), f(2)).is_some(), "fresh record kept");
        assert_eq!(store.evaluators_of(f(1)).count(), 0);
    }

    #[test]
    fn expire_keeps_recently_active_records() {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(5))
            .build()
            .unwrap();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        // A fresh vote refreshes the activity clock.
        let day4 = SimTime::ZERO + SimDuration::from_days(4);
        store.record_vote(day4, u(1), f(1), Evaluation::BEST);
        let day8 = SimTime::ZERO + SimDuration::from_days(8);
        assert_eq!(store.expire(day8, &params), 0);
    }

    #[test]
    fn evaluations_of_lists_all_files() {
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        store.record_download(SimTime::ZERO, u(1), f(2));
        let evals = store.evaluations_of(u(1), SimTime::ZERO, &params);
        assert_eq!(evals.len(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.users().count(), 1);
    }

    #[test]
    fn expire_detailed_reports_dropped_pairs() {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(5))
            .build()
            .unwrap();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        store.record_download(SimTime::ZERO, u(2), f(1));
        let day3 = SimTime::ZERO + SimDuration::from_days(3);
        store.record_download(day3, u(1), f(2));
        let day7 = SimTime::ZERO + SimDuration::from_days(7);
        let mut dropped = store.expire_detailed(day7, &params);
        dropped.sort();
        assert_eq!(dropped, vec![(u(1), f(1)), (u(2), f(1))]);
        assert_eq!(store.files_of(u(1)).collect::<Vec<_>>(), vec![f(2)]);
        assert_eq!(store.user_count(), 1, "user 2 fully expired");
    }

    #[test]
    fn unsaturated_tracking_follows_newest_record() {
        let params = Params::default(); // saturation: 7 days
        let saturation = params.retention_saturation();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(1));
        let day3 = SimTime::ZERO + SimDuration::from_days(3);
        let day8 = SimTime::ZERO + SimDuration::from_days(8);
        assert_eq!(
            store.users_with_unsaturated_records(day3, saturation),
            vec![u(1)],
            "record still ramping at day 3"
        );
        assert!(
            store
                .users_with_unsaturated_records(day8, saturation)
                .is_empty(),
            "saturated after a week"
        );
        // A fresh vote on a new file restarts the drift window.
        store.record_vote(day8, u(1), f(2), Evaluation::BEST);
        assert_eq!(
            store.users_with_unsaturated_records(day8, saturation),
            vec![u(1)]
        );
        store.remove_user(u(1));
        assert!(store
            .users_with_unsaturated_records(day8, saturation)
            .is_empty());
    }

    #[test]
    fn files_iterate_in_ascending_order() {
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(1), f(9));
        store.record_download(SimTime::ZERO, u(1), f(2));
        store.record_download(SimTime::ZERO, u(2), f(5));
        let files: Vec<FileId> = store.files().collect();
        assert_eq!(files, vec![f(2), f(5), f(9)]);
    }

    #[test]
    fn empty_store_queries() {
        let params = Params::default();
        let store = EvaluationStore::new();
        assert!(store
            .evaluation(u(1), f(1), SimTime::ZERO, &params)
            .is_none());
        assert!(store
            .evaluations_of(u(1), SimTime::ZERO, &params)
            .is_empty());
        assert_eq!(store.evaluators_of(f(1)).count(), 0);
    }
}
