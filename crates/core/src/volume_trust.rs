//! Download-volume-based direct trust: Equations 4 and 5.
//!
//! "If a user downloads some real file from another user, it means he can
//! trust this user" — so the *valid download volume*
//! `VD_ij = Σ_{k∈D_ij} E_ik·S_k` (Equation 4) weighs every file `i`
//! downloaded from `j` by its size and by `i`'s own evaluation of it (a
//! fake download contributes nothing because `E_ik ≈ 0`). Row-normalizing
//! gives the one-step matrix `DM` (Equation 5).

use crate::columns::ColumnCounts;
use crate::eval::EvaluationStore;
use crate::params::Params;
use mdrep_types::{FileId, FileSize, SimTime, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// One term of Equation 4 as a row rebuild collects it: the uploader, the
/// download's place in the download order, and `E_ik·S_k`.
pub(crate) type VolumeTerm = (UserId, u64, f64);

/// One logged download.
#[derive(Debug, Clone, Copy)]
struct Download {
    file: FileId,
    /// Its place in the order of every download the store has logged.
    seq: u64,
    uploader: UserId,
    size: FileSize,
}

/// One downloader's log: every download it made, in one array sorted by
/// file and then by download order, so a row rebuild finds the downloads
/// of each file it still holds a record for by binary search.
#[derive(Debug, Clone, Default)]
struct DownloadLog {
    entries: Vec<Download>,
    /// Per uploader, how many entries name it.
    uploads: BTreeMap<UserId, usize>,
}

impl DownloadLog {
    /// The distinct uploaders the log names, ascending.
    fn keys(&self) -> impl Iterator<Item = &UserId> + '_ {
        self.uploads.keys()
    }
}

/// Accumulates download records and computes `VD` (Equation 4), the rows
/// `DM` normalizes.
///
/// # Examples
///
/// ```
/// use mdrep::{EvaluationStore, Params, VolumeTrust};
/// use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
///
/// let params = Params::default();
/// let mut evals = EvaluationStore::new();
/// let mut volume = VolumeTrust::new();
/// let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
///
/// evals.record_download(SimTime::ZERO, a, f);
/// volume.record_download(a, b, f, FileSize::from_mib(100));
///
/// // After a week of retention the evaluation saturates at 1,
/// // so VD_ab = 1.0 · 100 MiB.
/// let week = SimTime::ZERO + SimDuration::from_days(7);
/// let vd_a = volume.vd_row(a, &evals, week, &params);
/// assert_eq!(vd_a.len(), 1);
/// assert_eq!(vd_a[0].0, b);
/// assert!((vd_a[0].1 - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VolumeTrust {
    /// `downloader → log`, row-major so a single downloader's `VD` row can
    /// be rebuilt without touching the rest. Nothing is pruned: a file
    /// downloaded again after its record expired counts its old downloads
    /// again.
    downloads: BTreeMap<UserId, DownloadLog>,
    /// The `seq` the next logged download gets.
    next_seq: u64,
    /// Downloaders whose `VD`/`DM` row must be rebuilt. A row depends only
    /// on the downloader's own evaluations and download log, so events only
    /// ever dirty single rows (plus, on user removal, every downloader that
    /// had the removed user as an uploader).
    dirty: BTreeSet<UserId>,
    /// Per uploader, how many downloaders' logs name it.
    uploaders: ColumnCounts,
}

impl VolumeTrust {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `downloader` fetched `file` (of `size`) from `uploader`.
    pub fn record_download(
        &mut self,
        downloader: UserId,
        uploader: UserId,
        file: FileId,
        size: FileSize,
    ) {
        let log = self.downloads.entry(downloader).or_default();
        let count = log.uploads.entry(uploader).or_default();
        if *count == 0 {
            self.uploaders.add(uploader);
        }
        *count += 1;
        // The newest download of `file` goes after its earlier ones.
        let at = log.entries.partition_point(|d| d.file <= file);
        log.entries.insert(
            at,
            Download {
                file,
                seq: self.next_seq,
                uploader,
                size,
            },
        );
        self.next_seq += 1;
        self.dirty.insert(downloader);
    }

    /// Forgets everything involving `user` (whitewash handling). Dirties
    /// `user` and every downloader that had `user` as an uploader.
    pub fn remove_user(&mut self, user: UserId) {
        for &uploader in self
            .downloads
            .remove(&user)
            .iter()
            .flat_map(DownloadLog::keys)
        {
            self.uploaders.remove(uploader);
        }
        for (&downloader, log) in &mut self.downloads {
            if log.uploads.remove(&user).is_some() {
                log.entries.retain(|d| d.uploader != user);
                self.dirty.insert(downloader);
            }
        }
        self.uploaders.forget(user);
        self.downloads.retain(|_, log| !log.entries.is_empty());
        self.dirty.insert(user);
    }

    /// Marks `downloader`'s row as needing a rebuild (the engine calls this
    /// when the downloader's evaluations change — votes, deletions, drift).
    pub fn mark_dirty(&mut self, downloader: UserId) {
        self.dirty.insert(downloader);
    }

    /// The currently dirty rows, in ascending order.
    pub fn dirty(&self) -> impl Iterator<Item = UserId> + '_ {
        self.dirty.iter().copied()
    }

    /// Drains the dirty set, returning the rows to rebuild (ascending).
    pub fn take_dirty(&mut self) -> Vec<UserId> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Number of downloaders with at least one recorded download.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.downloads.len()
    }

    /// The downloaders with at least one recorded download, ascending —
    /// every row `VD` can have.
    pub fn rows(&self) -> impl Iterator<Item = UserId> + '_ {
        self.downloads.keys().copied()
    }

    /// Every uploader the log names, ascending — every column `VD` can
    /// have.
    pub fn uploaders(&self) -> impl Iterator<Item = UserId> + '_ {
        self.uploaders.ids()
    }

    /// Distinct uploaders `downloader` fetched from — an upper bound on
    /// the length of its `VD` row.
    #[must_use]
    pub fn uploader_count(&self, downloader: UserId) -> usize {
        self.downloads
            .get(&downloader)
            .map_or(0, |log| log.uploads.len())
    }

    /// Each downloader's [`uploader_count`](Self::uploader_count), in
    /// ascending downloader order.
    pub(crate) fn uploader_counts(&self) -> impl Iterator<Item = (UserId, usize)> + '_ {
        self.downloads
            .iter()
            .map(|(&d, log)| (d, log.uploads.len()))
    }

    /// One row of Equation 4: `downloader`'s valid download volume per
    /// uploader at `now`, in ascending uploader order — the row every `DM`
    /// rebuild normalizes. Only files the downloader still holds a record
    /// for contribute; every download of such a file counts, with the
    /// record's evaluation, and each uploader's terms add up in download
    /// order.
    #[must_use]
    pub fn vd_row(
        &self,
        downloader: UserId,
        evals: &EvaluationStore,
        now: SimTime,
        params: &Params,
    ) -> Vec<(UserId, f64)> {
        let mut row = Vec::new();
        self.vd_row_into(downloader, evals, now, params, &mut Vec::new(), &mut row);
        row
    }

    /// [`vd_row`](Self::vd_row) into `row`, with `terms` as working space;
    /// both buffers are cleared first, so a worker reuses them for every
    /// row it builds. The cost follows the downloader's live records, not
    /// the length of its log.
    pub(crate) fn vd_row_into(
        &self,
        downloader: UserId,
        evals: &EvaluationStore,
        now: SimTime,
        params: &Params,
        terms: &mut Vec<VolumeTerm>,
        row: &mut Vec<(UserId, f64)>,
    ) {
        terms.clear();
        row.clear();
        let (Some(log), Some(records)) = (
            self.downloads.get(&downloader),
            evals.records_of(downloader),
        ) else {
            return;
        };
        // Both sides ascend by file: each record's downloads start where
        // the previous record's search left off.
        let mut rest = &log.entries[..];
        for (&file, record) in records {
            rest = &rest[rest.partition_point(|d| d.file < file)..];
            let len = rest.partition_point(|d| d.file == file);
            if len > 0 {
                let e = record.evaluation(now, params).value();
                terms.extend(
                    rest[..len]
                        .iter()
                        .map(|d| (d.uploader, d.seq, e * d.size.as_mib_f64())),
                );
                rest = &rest[len..];
            }
        }
        terms.sort_unstable_by_key(|&(uploader, seq, _)| (uploader, seq));
        for run in terms.chunk_by(|a, b| a.0 == b.0) {
            let volume = run.iter().fold(0.0, |sum, &(_, _, term)| sum + term);
            if volume > 0.0 {
                row.push((run[0].0, volume));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::SparseMatrix;
    use mdrep_types::{Evaluation, SimDuration};

    impl VolumeTrust {
        /// Equation 4: the raw `VD` matrix at `now`, every row a
        /// [`vd_row`](VolumeTrust::vd_row). File sizes enter in MiB so
        /// magnitudes stay well-conditioned; evaluations come from the
        /// store (files the downloader no longer has a record for
        /// contribute nothing).
        fn raw(&self, evals: &EvaluationStore, now: SimTime, params: &Params) -> SparseMatrix {
            let mut vd = SparseMatrix::new();
            for downloader in self.rows() {
                let row = self.vd_row(downloader, evals, now, params);
                vd.set_row(downloader, row.into_iter().collect())
                    .expect("volumes are finite and non-negative");
            }
            vd
        }
    }

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    /// Store + params where votes are taken verbatim (η = 0).
    fn setup() -> (EvaluationStore, Params) {
        (
            EvaluationStore::new(),
            Params::builder().eta(0.0).build().unwrap(),
        )
    }

    #[test]
    fn equation_four_hand_computed() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        // Two files from uploader 1: 100 MiB rated 1.0, 50 MiB rated 0.5.
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(100));
        evals.record_download(SimTime::ZERO, u(0), f(1));
        evals.record_vote(SimTime::ZERO, u(0), f(1), Evaluation::new(0.5).unwrap());
        vt.record_download(u(0), u(1), f(1), FileSize::from_mib(50));

        let vd = vt.raw(&evals, SimTime::ZERO, &params);
        assert!((vd.get(u(0), u(1)) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn fake_downloads_contribute_nothing() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::WORST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(700));
        let vd = vt.raw(&evals, SimTime::ZERO, &params);
        assert_eq!(vd.get(u(0), u(1)), 0.0);
        assert!(vd.is_empty());
    }

    #[test]
    fn dm_is_row_stochastic_and_proportional() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        for (i, uploader, mib) in [(0, 1, 300u64), (1, 2, 100u64)] {
            let file = f(i);
            evals.record_download(SimTime::ZERO, u(0), file);
            evals.record_vote(SimTime::ZERO, u(0), file, Evaluation::BEST);
            vt.record_download(u(0), u(uploader), file, FileSize::from_mib(mib));
        }
        let dm = vt.raw(&evals, SimTime::ZERO, &params).normalized_rows();
        assert!(dm.is_row_stochastic(1e-12));
        assert!((dm.get(u(0), u(1)) - 0.75).abs() < 1e-12);
        assert!((dm.get(u(0), u(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deleted_files_weigh_by_frozen_retention() {
        // With default params and no vote, the implicit evaluation is the
        // held fraction (confidence 1 after a week); a quick delete → tiny
        // volume credit to the uploader.
        let params = Params::default();
        let mut evals = EvaluationStore::new();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_delete(SimTime::ZERO + SimDuration::from_hours(1), u(0), f(0));
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(100));

        let week = SimTime::ZERO + SimDuration::from_days(7);
        let vd = vt.raw(&evals, week, &params);
        let expected = (1.0 / (7.0 * 24.0)) * 100.0; // held 1h of 7 days
        assert!(
            (vd.get(u(0), u(1)) - expected).abs() < 1e-6,
            "got {}",
            vd.get(u(0), u(1))
        );
    }

    #[test]
    fn remove_user_clears_both_directions() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        vt.record_download(u(1), u(0), f(0), FileSize::from_mib(10));
        assert_eq!((vt.uploader_count(u(0)), vt.uploader_count(u(1))), (1, 1));
        vt.remove_user(u(1));
        assert_eq!((vt.uploader_count(u(0)), vt.uploader_count(u(1))), (0, 0));
        assert!(vt.raw(&evals, SimTime::ZERO, &params).is_empty());
    }

    #[test]
    fn repeat_downloads_accumulate() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        let vd = vt.raw(&evals, SimTime::ZERO, &params);
        assert!((vd.get(u(0), u(1)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dirty_tracking_follows_events() {
        let mut vt = VolumeTrust::new();
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        assert_eq!(vt.take_dirty(), vec![u(0)]);
        assert_eq!(vt.dirty().count(), 0);

        vt.record_download(u(2), u(1), f(1), FileSize::from_mib(10));
        vt.mark_dirty(u(0)); // e.g. user 0 voted on a file
        assert_eq!(vt.take_dirty(), vec![u(0), u(2)]);

        // Removing uploader 1 dirties both downloaders that used it.
        vt.remove_user(u(1));
        assert_eq!(vt.take_dirty(), vec![u(0), u(1), u(2)]);
        assert_eq!(vt.row_count(), 0, "rows left empty are dropped");
    }

    #[test]
    fn rows_and_vd_rows_make_up_raw() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        for i in 0..20u64 {
            let file = f(i);
            evals.record_download(SimTime::ZERO, u(i % 5), file);
            evals.record_vote(
                SimTime::ZERO,
                u(i % 5),
                file,
                Evaluation::new(0.3 + 0.03 * i as f64).unwrap(),
            );
            vt.record_download(u(i % 5), u(10 + i % 3), file, FileSize::from_mib(5 + i));
        }
        let raw = vt.raw(&evals, SimTime::ZERO, &params);
        assert_eq!(
            vt.rows().collect::<Vec<_>>(),
            (0..5).map(u).collect::<Vec<_>>()
        );
        for r in vt.rows() {
            let row = vt.vd_row(r, &evals, SimTime::ZERO, &params);
            let stored: Vec<(UserId, f64)> =
                raw.row(r).unwrap().iter().map(|(&c, &v)| (c, v)).collect();
            assert_eq!(
                stored, row,
                "vd_row ascends, and raw is the vd_row of every row"
            );
            assert_eq!(
                vt.uploader_count(r),
                3,
                "every downloader used three uploaders"
            );
        }
        assert_eq!(vt.uploader_count(u(10)), 0, "uploaders have no row");
    }

    #[test]
    fn uploaders_track_the_log_through_removals() {
        let mut vt = VolumeTrust::new();
        let mut state = 7u64;
        for step in 0..400u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let (a, b) = (u((state >> 33) % 12), u((state >> 45) % 12));
            if step % 9 == 8 {
                vt.remove_user(a);
            } else {
                vt.record_download(a, b, f(step % 5), FileSize::from_mib(1));
            }
            let named: BTreeSet<UserId> = vt
                .downloads
                .values()
                .flat_map(|uploads| uploads.keys().copied())
                .collect();
            assert_eq!(
                vt.uploaders().collect::<Vec<_>>(),
                named.into_iter().collect::<Vec<_>>(),
                "step {step}"
            );
        }
    }

    #[test]
    fn a_redownload_counts_the_old_download_again() {
        // Votes taken verbatim; records live one day.
        let params = Params::builder()
            .eta(0.0)
            .evaluation_interval(SimDuration::from_days(1))
            .build()
            .unwrap();
        let mut evals = EvaluationStore::new();
        let mut vt = VolumeTrust::new();
        let day = |d: u64| SimTime::ZERO + SimDuration::from_days(d);
        let half = Evaluation::new(0.5).unwrap();
        let row =
            |vt: &VolumeTrust, evals: &EvaluationStore, now| vt.vd_row(u(0), evals, now, &params);

        // Day 0: 100 MiB of file 0 from uploader 1, rated 0.5.
        evals.record_download(day(0), u(0), f(0));
        evals.record_vote(day(0), u(0), f(0), half);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(100));
        assert_eq!(row(&vt, &evals, day(0)), vec![(u(1), 50.0)]);

        // Day 2: the record has expired, so the download weighs nothing,
        // though the log keeps it.
        assert_eq!(evals.expire(day(2), &params), 1);
        assert!(row(&vt, &evals, day(2)).is_empty());
        assert_eq!(vt.uploader_count(u(0)), 1);

        // Day 2: file 0 again, from uploader 2, rated 1; then 40 MiB of
        // file 1 from uploader 1, rated 0.5. The old download of file 0
        // counts again with the new record's evaluation, and uploader 1's
        // terms add up in download order: 100·1 + 40·0.5.
        evals.record_download(day(2), u(0), f(0));
        evals.record_vote(day(2), u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(2), f(0), FileSize::from_mib(100));
        evals.record_download(day(2), u(0), f(1));
        evals.record_vote(day(2), u(0), f(1), half);
        vt.record_download(u(0), u(1), f(1), FileSize::from_mib(40));
        assert_eq!(row(&vt, &evals, day(2)), vec![(u(1), 120.0), (u(2), 100.0)]);

        // Removing uploader 1 drops both its downloads from the log and
        // keeps uploader 2's download of the same file.
        vt.take_dirty();
        vt.remove_user(u(1));
        assert_eq!(vt.take_dirty(), vec![u(0), u(1)]);
        assert_eq!(row(&vt, &evals, day(2)), vec![(u(2), 100.0)]);
        assert_eq!(vt.uploader_count(u(0)), 1);
        assert_eq!(vt.uploaders().collect::<Vec<_>>(), vec![u(2)]);

        // A log left empty drops its row.
        vt.remove_user(u(2));
        assert_eq!(vt.row_count(), 0);
        assert!(row(&vt, &evals, day(2)).is_empty());
    }

    #[test]
    fn terms_add_up_in_download_order() {
        // Rounding tells the orders apart: (0.1 + 0.2) + 0.6 in download
        // order, (0.6 + 0.1) + 0.2 in file order.
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        for (file, value) in [(1, 0.1), (2, 0.2), (0, 0.6)] {
            evals.record_download(SimTime::ZERO, u(0), f(file));
            evals.record_vote(
                SimTime::ZERO,
                u(0),
                f(file),
                Evaluation::new(value).unwrap(),
            );
            vt.record_download(u(0), u(1), f(file), FileSize::from_mib(1));
        }
        let download_order = (0.1 + 0.2) + 0.6;
        assert_ne!(download_order, (0.6 + 0.1) + 0.2);
        assert_eq!(
            vt.vd_row(u(0), &evals, SimTime::ZERO, &params),
            vec![(u(1), download_order)]
        );
    }

    #[test]
    fn unevaluated_downloads_are_skipped() {
        // The volume store knows about the download but the evaluation
        // store does not (e.g. expired record) → no trust contribution.
        let (evals, params) = setup();
        let mut vt = VolumeTrust::new();
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        assert!(vt.raw(&evals, SimTime::ZERO, &params).is_empty());
    }
}
