//! A single DHT node: routing table plus TTL-bounded key/value storage.

use crate::id::{Key, NodeId};
use crate::routing::RoutingTable;
use mdrep_types::{SimTime, UserId};
use std::collections::HashMap;

/// One stored value with its expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredValue {
    /// The opaque value bytes (e.g. an encoded `EvaluationInfo`).
    pub data: Vec<u8>,
    /// The publisher, kept so republication can replace stale versions.
    pub publisher: UserId,
    /// When the value expires unless republished.
    pub expires_at: SimTime,
}

/// A DHT node owned by a user. Whether it is online is the overlay's
/// state, not the node's: see [`Dht::is_online`](crate::Dht::is_online).
#[derive(Debug, Clone)]
pub struct Node {
    user: UserId,
    routing: RoutingTable,
    storage: HashMap<Key, Vec<StoredValue>>,
}

impl Node {
    /// Creates a node for `user`.
    #[must_use]
    pub fn new(user: UserId) -> Self {
        let id = Key::for_user(user);
        Self {
            user,
            routing: RoutingTable::new(id),
            storage: HashMap::new(),
        }
    }

    /// The owning user.
    #[must_use]
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The node's overlay id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.routing.own_id()
    }

    /// Mutable access to the routing table.
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Read access to the routing table.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Stores a value under `key`, replacing any earlier value from the
    /// same publisher (that is how republication refreshes TTLs).
    pub fn store(&mut self, key: Key, value: StoredValue) {
        let values = self.storage.entry(key).or_default();
        values.retain(|v| v.publisher != value.publisher);
        values.push(value);
    }

    /// The live values under `key` at `now`.
    #[must_use]
    pub fn get(&self, key: &Key, now: SimTime) -> Vec<&StoredValue> {
        self.storage
            .get(key)
            .map(|values| values.iter().filter(|v| v.expires_at > now).collect())
            .unwrap_or_default()
    }

    /// Drops expired values; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        self.storage.retain(|_, values| {
            let before = values.len();
            values.retain(|v| v.expires_at > now);
            dropped += before - values.len();
            !values.is_empty()
        });
        dropped
    }

    /// Iterates over every stored (key, value) pair (for republication).
    pub fn stored(&self) -> impl Iterator<Item = (&Key, &StoredValue)> {
        self.storage
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (k, v)))
    }

    /// Number of stored values.
    #[must_use]
    pub fn stored_len(&self) -> usize {
        self.storage.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::SimDuration;

    fn value(publisher: u64, data: &[u8], expires: u64) -> StoredValue {
        StoredValue {
            data: data.to_vec(),
            publisher: UserId::new(publisher),
            expires_at: SimTime::from_ticks(expires),
        }
    }

    #[test]
    fn store_and_get() {
        let mut node = Node::new(UserId::new(1));
        let key = Key::for_content(b"k");
        node.store(key, value(2, b"hello", 100));
        let got = node.get(&key, SimTime::from_ticks(50));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, b"hello");
    }

    #[test]
    fn expired_values_are_invisible_and_collectable() {
        let mut node = Node::new(UserId::new(1));
        let key = Key::for_content(b"k");
        node.store(key, value(2, b"old", 100));
        assert!(
            node.get(&key, SimTime::from_ticks(100)).is_empty(),
            "expiry is exclusive"
        );
        assert_eq!(node.expire(SimTime::from_ticks(100)), 1);
        assert_eq!(node.stored_len(), 0);
    }

    #[test]
    fn republication_replaces_same_publisher() {
        let mut node = Node::new(UserId::new(1));
        let key = Key::for_content(b"k");
        node.store(key, value(2, b"v1", 100));
        node.store(key, value(2, b"v2", 200));
        node.store(key, value(3, b"other", 200));
        let got = node.get(&key, SimTime::from_ticks(50));
        assert_eq!(got.len(), 2, "one per publisher");
        assert!(got.iter().any(|v| v.data == b"v2"));
        assert!(!got.iter().any(|v| v.data == b"v1"));
    }

    #[test]
    fn id_is_derived_from_user() {
        let node = Node::new(UserId::new(7));
        assert_eq!(node.id(), Key::for_user(UserId::new(7)));
        assert_eq!(node.user(), UserId::new(7));
    }

    #[test]
    fn stored_iterates_everything() {
        let mut node = Node::new(UserId::new(1));
        node.store(Key::for_content(b"a"), value(2, b"x", 100));
        node.store(Key::for_content(b"b"), value(2, b"y", 100));
        let _ = SimDuration::ZERO;
        assert_eq!(node.stored().count(), 2);
    }
}
