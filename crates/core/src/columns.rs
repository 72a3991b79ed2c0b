//! Reference counts of the column ids a row-major store holds, so a
//! rebuild of every row interns the distinct columns instead of walking
//! every entry.

use mdrep_types::UserId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How many rows of a store hold each column id.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnCounts(BTreeMap<UserId, usize>);

impl ColumnCounts {
    /// One more row holds `column`.
    pub(crate) fn add(&mut self, column: UserId) {
        *self.0.entry(column).or_default() += 1;
    }

    /// One row fewer holds `column`.
    pub(crate) fn remove(&mut self, column: UserId) {
        if let Entry::Occupied(mut count) = self.0.entry(column) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
    }

    /// No row holds `column` any more.
    pub(crate) fn forget(&mut self, column: UserId) {
        self.0.remove(&column);
    }

    /// The held columns, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.0.keys().copied()
    }
}
