//! User-based direct trust: Equation 6.
//!
//! Users can rate each other directly — through explicit values, friend
//! lists (high trust), and blacklists (zero trust). The latest rating per
//! ordered pair is kept as `UT_ij`, and row-normalization yields the
//! one-step matrix `UM` (Equation 6).

use crate::columns::ColumnCounts;
use mdrep_types::{Evaluation, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// Accumulates user-to-user ratings and computes the `UT` rows `UM`
/// normalizes.
///
/// # Examples
///
/// ```
/// use mdrep::UserTrust;
/// use mdrep_types::{Evaluation, UserId};
///
/// let mut ut = UserTrust::new();
/// let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// ut.add_friend(a, b);          // friend list → trust 1
/// ut.add_blacklist(a, c);       // blacklist → trust 0
/// let um_a = mdrep_matrix::normalized_entries(ut.ut_row(a));
/// assert_eq!(um_a, vec![(b, 1.0)]); // c's zero is absent
/// ```
#[derive(Debug, Clone, Default)]
pub struct UserTrust {
    /// `rater → target → rating`, row-major so a single rater's `UM` row
    /// can be rebuilt without touching the rest.
    ratings: BTreeMap<UserId, BTreeMap<UserId, Evaluation>>,
    /// Raters whose `UM` row must be rebuilt.
    dirty: BTreeSet<UserId>,
    /// Per target, how many raters rated it.
    targets: ColumnCounts,
}

impl UserTrust {
    /// Creates an empty rating store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `rater`'s rating of `target`, replacing any earlier one.
    /// Self-ratings are ignored (they would let users seed their own rows).
    pub fn rate(&mut self, rater: UserId, target: UserId, value: Evaluation) {
        if rater != target {
            let given = self.ratings.entry(rater).or_default();
            if given.insert(target, value).is_none() {
                self.targets.add(target);
            }
            self.dirty.insert(rater);
        }
    }

    /// Friend-list shortcut: rate `friend` with the maximum value.
    pub fn add_friend(&mut self, rater: UserId, friend: UserId) {
        self.rate(rater, friend, Evaluation::BEST);
    }

    /// Blacklist shortcut: rate `target` with zero.
    pub fn add_blacklist(&mut self, rater: UserId, target: UserId) {
        self.rate(rater, target, Evaluation::WORST);
    }

    /// The current rating of `target` by `rater`, if any.
    #[must_use]
    pub fn rating(&self, rater: UserId, target: UserId) -> Option<Evaluation> {
        self.ratings
            .get(&rater)
            .and_then(|r| r.get(&target))
            .copied()
    }

    /// Forgets every rating involving `user` — both the ratings it gave and
    /// the ones it received (whitewash handling). Dirties `user` plus every
    /// rater that had rated it.
    pub fn remove_user(&mut self, user: UserId) {
        for &target in self.ratings.remove(&user).iter().flat_map(BTreeMap::keys) {
            self.targets.remove(target);
        }
        for (&rater, targets) in &mut self.ratings {
            if targets.remove(&user).is_some() {
                self.dirty.insert(rater);
            }
        }
        self.targets.forget(user);
        self.ratings.retain(|_, targets| !targets.is_empty());
        self.dirty.insert(user);
    }

    /// The currently dirty rows, in ascending order.
    pub fn dirty(&self) -> impl Iterator<Item = UserId> + '_ {
        self.dirty.iter().copied()
    }

    /// Drains the dirty set, returning the rows to rebuild (ascending).
    pub fn take_dirty(&mut self) -> Vec<UserId> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Number of raters with at least one stored rating.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.ratings.len()
    }

    /// The raters with at least one stored rating, ascending — every row
    /// `UT` can have.
    pub fn rows(&self) -> impl Iterator<Item = UserId> + '_ {
        self.ratings.keys().copied()
    }

    /// Every rated target, ascending — every column `UT` can have.
    pub fn targets(&self) -> impl Iterator<Item = UserId> + '_ {
        self.targets.ids()
    }

    /// Ratings `rater` has stored — an upper bound on the length of its
    /// `UT` row.
    #[must_use]
    pub fn rating_count(&self, rater: UserId) -> usize {
        self.ratings.get(&rater).map_or(0, BTreeMap::len)
    }

    /// Whether no ratings are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// One row of the raw `UT` matrix: `rater`'s positive ratings, in
    /// ascending target order. Zero ratings (blacklist entries) are absent
    /// from the sparse form — exactly their Equation 6 semantics, since a
    /// zero contributes nothing to the normalized row. Every `UM` rebuild
    /// normalizes this row.
    #[must_use]
    pub fn ut_row(&self, rater: UserId) -> Vec<(UserId, f64)> {
        let mut row = Vec::new();
        self.ut_row_into(rater, &mut row);
        row
    }

    /// [`ut_row`](Self::ut_row) into `row`, which is cleared first, so a
    /// worker reuses it for every row it builds.
    pub(crate) fn ut_row_into(&self, rater: UserId, row: &mut Vec<(UserId, f64)>) {
        row.clear();
        if let Some(targets) = self.ratings.get(&rater) {
            row.extend(
                targets
                    .iter()
                    .filter(|(_, v)| v.value() > 0.0)
                    .map(|(&t, v)| (t, v.value())),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{normalized_row, SparseMatrix};

    /// Equation 6 assembled row by row, the way the engine builds `UM`.
    fn um(ut: &UserTrust) -> SparseMatrix {
        let mut m = SparseMatrix::new();
        for rater in ut.rows() {
            if let Some(row) = normalized_row(&ut.ut_row(rater).into_iter().collect()) {
                m.set_row(rater, row).expect("normalized rows are valid");
            }
        }
        m
    }

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn ratings_round_trip() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.8).unwrap());
        assert_eq!(ut.rating(u(0), u(1)).unwrap().value(), 0.8);
        assert_eq!(ut.rating(u(1), u(0)), None);
        assert_eq!(ut.rating_count(u(0)), 1);
    }

    #[test]
    fn re_rating_replaces() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::BEST);
        ut.rate(u(0), u(1), Evaluation::new(0.2).unwrap());
        assert_eq!(ut.rating(u(0), u(1)).unwrap().value(), 0.2);
        assert_eq!(ut.rating_count(u(0)), 1);
    }

    #[test]
    fn self_ratings_ignored() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(0), Evaluation::BEST);
        ut.add_friend(u(1), u(1));
        assert!(ut.is_empty());
    }

    #[test]
    fn um_normalizes_rows() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.6).unwrap());
        ut.rate(u(0), u(2), Evaluation::new(0.2).unwrap());
        let um = um(&ut);
        assert!(um.is_row_stochastic(1e-12));
        assert!((um.get(u(0), u(1)) - 0.75).abs() < 1e-12);
        assert!((um.get(u(0), u(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn blacklisted_users_get_nothing_after_normalization() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_blacklist(u(0), u(2));
        let um = um(&ut);
        assert_eq!(um.get(u(0), u(1)), 1.0);
        assert_eq!(um.get(u(0), u(2)), 0.0);
    }

    #[test]
    fn blacklist_overrides_friendship() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_blacklist(u(0), u(1));
        assert_eq!(um(&ut).get(u(0), u(1)), 0.0);
    }

    #[test]
    fn remove_user_clears_given_and_received() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_friend(u(1), u(2));
        ut.add_friend(u(2), u(0));
        ut.remove_user(u(1));
        assert_eq!((ut.rating_count(u(0)), ut.rating_count(u(2))), (0, 1));
        assert!(ut.rating(u(2), u(0)).is_some());
    }

    #[test]
    fn dirty_tracking_follows_ratings_and_removals() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::BEST);
        ut.rate(u(2), u(1), Evaluation::BEST);
        assert_eq!(ut.take_dirty(), vec![u(0), u(2)]);
        assert_eq!(ut.dirty().count(), 0);

        // Removing a rated user dirties every rater that pointed at it.
        ut.remove_user(u(1));
        assert_eq!(ut.take_dirty(), vec![u(0), u(1), u(2)]);
        assert_eq!(ut.row_count(), 0);

        ut.rate(u(0), u(0), Evaluation::BEST);
        assert_eq!(ut.dirty().count(), 0, "ignored self-rating does not dirty");
    }

    #[test]
    fn ut_row_skips_blacklist_entries() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.6).unwrap());
        ut.rate(u(0), u(2), Evaluation::new(0.2).unwrap());
        ut.add_blacklist(u(0), u(3));
        let row = ut.ut_row(u(0));
        assert_eq!(row.len(), 2, "blacklist entry absent");
        assert_eq!(
            ut.rating_count(u(0)),
            3,
            "the blacklist entry is still a rating"
        );
        assert_eq!(ut.rating_count(u(1)), 0);
        assert_eq!(row, vec![(u(1), 0.6), (u(2), 0.2)], "ascending targets");
        assert_eq!(ut.rows().collect::<Vec<_>>(), vec![u(0)]);
    }

    #[test]
    fn targets_track_the_ratings_through_removals() {
        let mut ut = UserTrust::new();
        let mut state = 11u64;
        for step in 0..400u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let (a, b) = (u((state >> 33) % 12), u((state >> 45) % 12));
            match step % 7 {
                6 => ut.remove_user(a),
                5 => ut.add_blacklist(a, b),
                _ => ut.rate(a, b, Evaluation::new((step % 4) as f64 / 3.0).unwrap()),
            }
            let rated: BTreeSet<UserId> = ut
                .ratings
                .values()
                .flat_map(|targets| targets.keys().copied())
                .collect();
            assert_eq!(
                ut.targets().collect::<Vec<_>>(),
                rated.into_iter().collect::<Vec<_>>(),
                "step {step}"
            );
        }
    }

    #[test]
    fn all_blacklist_row_is_empty() {
        let mut ut = UserTrust::new();
        ut.add_blacklist(u(0), u(1));
        ut.add_blacklist(u(0), u(2));
        let um = um(&ut);
        assert!(um.is_empty());
    }
}
