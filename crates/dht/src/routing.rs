//! Per-node k-bucket routing tables with last-seen tracking.

use crate::id::{DistanceKey, Key, NodeId};
use mdrep_types::{SimDuration, SimTime};
use std::ops::Range;

/// Number of entries per bucket (Kademlia's `k`).
pub const BUCKET_SIZE: usize = 8;

/// One known peer, the bucket it falls into, and when it was last
/// observed alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    last_seen: SimTime,
    id: NodeId,
    bucket: u8,
}

/// A node's view of the overlay: 160 LRU buckets of known peers, each
/// entry stamped with the last time the peer was observed alive so that
/// departed nodes age out ([`expire_stale`](Self::expire_stale)) instead
/// of lingering forever.
///
/// The buckets live in one contiguous `Vec`, grouped by bucket index
/// (ascending) and, within a bucket, least recently seen first. Most of a
/// table's 160 buckets are empty, so one flat array is both smaller than
/// 160 separate lists and cheaper to scan for [`closest`](Self::closest).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    own: NodeId,
    entries: Vec<Entry>,
}

impl RoutingTable {
    /// Creates an empty table for the node with id `own`.
    #[must_use]
    pub fn new(own: NodeId) -> Self {
        Self {
            own,
            entries: Vec::new(),
        }
    }

    /// The owning node's id.
    #[must_use]
    pub fn own_id(&self) -> NodeId {
        self.own
    }

    /// Observes a peer alive at `now`: moves it to the back (most-recent)
    /// of its bucket with a fresh timestamp, inserting if the bucket has
    /// room. Full buckets drop the *oldest* entry — a simplification of
    /// Kademlia's ping-before-evict that keeps the simulation
    /// deterministic. Returns whether the peer is now in the table.
    pub fn observe(&mut self, peer: NodeId, now: SimTime) -> bool {
        let Some(bucket) = self.bucket_of(&peer) else {
            return false; // never store ourselves
        };
        let range = self.bucket_range(bucket);
        let entry = Entry {
            last_seen: now,
            id: peer,
            bucket,
        };
        let slots = &mut self.entries[range.clone()];
        // The slot that leaves: the peer's own, or the oldest when full.
        let leaving = slots
            .iter()
            .position(|e| e.id == peer)
            .or((slots.len() == BUCKET_SIZE).then_some(0));
        match leaving {
            Some(pos) => {
                slots[pos..].rotate_left(1);
                slots[slots.len() - 1] = entry;
            }
            None => self.entries.insert(range.end, entry),
        }
        true
    }

    /// Removes a peer (e.g. observed offline).
    pub fn remove(&mut self, peer: &NodeId) {
        if let Some(index) = self.position(peer) {
            self.entries.remove(index);
        }
    }

    /// Drops every entry not observed within `max_age` of `now`; returns
    /// how many were evicted. Departed nodes are never re-observed, so
    /// after one expiry pass at `departure + max_age` they are guaranteed
    /// gone from every table.
    pub fn expire_stale(&mut self, now: SimTime, max_age: SimDuration) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.last_seen + max_age > now);
        before - self.entries.len()
    }

    /// When `peer` was last observed alive, if it is in the table.
    #[must_use]
    pub fn last_seen(&self, peer: &NodeId) -> Option<SimTime> {
        self.position(peer).map(|i| self.entries[i].last_seen)
    }

    /// The `count` known peers closest to `target`, ordered by XOR
    /// distance.
    #[must_use]
    pub fn closest(&self, target: &Key, count: usize) -> Vec<NodeId> {
        self.closest_keyed(target, count)
            .into_iter()
            .map(|(_, id)| id)
            .collect()
    }

    /// [`closest`](Self::closest) with each peer's distance to `target`,
    /// nearest first. Distinct ids have distinct distances, so the order is
    /// total.
    ///
    /// The buckets are walked nearest group first, and the walk stops once
    /// `count` peers are found. Relative to `own`, the target's bucket `b`
    /// holds every peer closer than 2^b; the buckets below `b` all lie in
    /// [2^b, 2^(b+1)) and come next, as one group; then each bucket above
    /// `b` in turn, bucket `j` lying in [2^j, 2^(j+1)). A distance is
    /// computed only for the groups walked, and each group is sorted on
    /// its own. The target `own` itself has no bucket: every bucket is its
    /// own group, ascending.
    pub(crate) fn closest_keyed(&self, target: &Key, count: usize) -> Vec<(DistanceKey, NodeId)> {
        let mut out = Vec::with_capacity(count.min(self.entries.len()));
        let (low, high) = match self.bucket_of(target) {
            Some(b) => (
                self.entries.partition_point(|e| e.bucket < b),
                self.entries.partition_point(|e| e.bucket <= b),
            ),
            None => (0, 0),
        };
        let mut groups = [&self.entries[low..high], &self.entries[..low]]
            .into_iter()
            .chain(self.entries[high..].chunk_by(|a, b| a.bucket == b.bucket));
        while out.len() < count {
            let Some(group) = groups.next() else { break };
            let start = out.len();
            out.extend(group.iter().map(|e| (e.id.distance_key(target), e.id)));
            out[start..].sort_unstable_by_key(|&(d, _)| d);
        }
        out.truncate(count);
        out
    }

    /// Total peers known.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table knows no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `peer` is present.
    #[must_use]
    pub fn contains(&self, peer: &NodeId) -> bool {
        self.position(peer).is_some()
    }

    /// The bucket `peer` falls into, or `None` for our own id.
    fn bucket_of(&self, peer: &NodeId) -> Option<u8> {
        self.own
            .bucket_index(peer)
            .map(|i| u8::try_from(i).expect("160 buckets"))
    }

    /// Where `bucket`'s entries sit in `entries` (empty when it has none).
    fn bucket_range(&self, bucket: u8) -> Range<usize> {
        let start = self.entries.partition_point(|e| e.bucket < bucket);
        let len = self.entries[start..]
            .iter()
            .take_while(|e| e.bucket == bucket)
            .count();
        start..start + len
    }

    /// `peer`'s index in `entries`, if present.
    fn position(&self, peer: &NodeId) -> Option<usize> {
        let range = self.bucket_range(self.bucket_of(peer)?);
        let start = range.start;
        self.entries[range]
            .iter()
            .position(|e| e.id == *peer)
            .map(|i| start + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ID_BYTES;
    use mdrep_types::UserId;

    fn node(i: u64) -> NodeId {
        Key::for_user(UserId::new(i))
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn observe_and_contains() {
        let mut rt = RoutingTable::new(node(0));
        assert!(rt.is_empty());
        assert!(rt.observe(node(1), T0));
        assert!(rt.contains(&node(1)));
        assert!(!rt.contains(&node(2)));
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.last_seen(&node(1)), Some(T0));
        assert_eq!(rt.last_seen(&node(2)), None);
    }

    #[test]
    fn never_stores_self() {
        let mut rt = RoutingTable::new(node(0));
        assert!(!rt.observe(node(0), T0));
        assert!(rt.is_empty());
    }

    #[test]
    fn duplicate_observation_keeps_single_entry_and_refreshes() {
        let mut rt = RoutingTable::new(node(0));
        rt.observe(node(1), T0);
        let later = SimTime::from_ticks(100);
        rt.observe(node(1), later);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.last_seen(&node(1)), Some(later));
    }

    #[test]
    fn full_bucket_evicts_oldest() {
        let own = Key::from_bytes([0; ID_BYTES]);
        let mut rt = RoutingTable::new(own);
        // Fill one specific bucket with synthetic ids sharing the top bit.
        let mut ids = Vec::new();
        for i in 0..=BUCKET_SIZE as u8 {
            let mut raw = [0u8; ID_BYTES];
            raw[0] = 0x80;
            raw[ID_BYTES - 1] = i + 1;
            ids.push(Key::from_bytes(raw));
        }
        for id in &ids {
            rt.observe(*id, T0);
        }
        assert!(!rt.contains(&ids[0]), "oldest evicted");
        assert!(rt.contains(&ids[BUCKET_SIZE]), "newest kept");
        assert_eq!(rt.len(), BUCKET_SIZE);
    }

    #[test]
    fn closest_orders_by_distance() {
        let mut rt = RoutingTable::new(node(0));
        for i in 1..30 {
            rt.observe(node(i), T0);
        }
        let target = Key::for_content(b"target");
        let closest = rt.closest(&target, 5);
        assert_eq!(closest.len(), 5);
        for pair in closest.windows(2) {
            assert!(pair[0].distance(&target) <= pair[1].distance(&target));
        }
        // The closest list is a subset of known peers.
        for n in &closest {
            assert!(rt.contains(n));
        }
    }

    #[test]
    fn remove_deletes_entry() {
        let mut rt = RoutingTable::new(node(0));
        rt.observe(node(1), T0);
        rt.remove(&node(1));
        assert!(!rt.contains(&node(1)));
        // Removing an unknown peer is a no-op.
        rt.remove(&node(9));
    }

    #[test]
    fn stale_entries_expire_fresh_ones_survive() {
        let mut rt = RoutingTable::new(node(0));
        rt.observe(node(1), T0);
        rt.observe(node(2), SimTime::from_ticks(500));
        let max_age = SimDuration::from_ticks(600);
        let evicted = rt.expire_stale(SimTime::from_ticks(700), max_age);
        assert_eq!(evicted, 1, "only the entry older than max_age goes");
        assert!(!rt.contains(&node(1)));
        assert!(rt.contains(&node(2)));
        // Exactly at the boundary the entry is stale (exclusive survival).
        let evicted = rt.expire_stale(SimTime::from_ticks(500 + 600), max_age);
        assert_eq!(evicted, 1);
        assert!(rt.is_empty());
    }

    #[test]
    fn refresh_resets_the_expiry_clock() {
        let mut rt = RoutingTable::new(node(0));
        rt.observe(node(1), T0);
        rt.observe(node(1), SimTime::from_ticks(1000));
        let max_age = SimDuration::from_ticks(600);
        assert_eq!(rt.expire_stale(SimTime::from_ticks(1100), max_age), 0);
        assert!(rt.contains(&node(1)));
    }
}
