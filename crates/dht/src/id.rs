//! 160-bit XOR identifiers for nodes and keys.

use mdrep_crypto::Sha256;
use mdrep_types::{FileId, UserId};
use std::fmt;

/// The identifier length in bytes (160 bits, as in Kademlia).
pub const ID_BYTES: usize = 20;

/// A point in the 160-bit XOR metric space.
///
/// Both node ids and content keys live in the same space; lookups find the
/// nodes whose ids are XOR-closest to a key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key([u8; ID_BYTES]);

/// A DHT node's identifier (derived from the owning user's id).
pub type NodeId = Key;

/// An XOR distance as `(high 128 bits, low 32 bits)`; see
/// [`Key::distance_key`].
pub(crate) type DistanceKey = (u128, u32);

impl Key {
    /// Wraps raw bytes.
    #[must_use]
    pub const fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Self(bytes)
    }

    /// The raw bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// Derives a node id for a user (SHA-256 truncated to 160 bits, with
    /// domain separation).
    #[must_use]
    pub fn for_user(user: UserId) -> Self {
        let mut h = Sha256::new();
        h.update(b"mdrep/dht/node/v1");
        h.update(&user.as_u64().to_be_bytes());
        Self::truncate(h)
    }

    /// Derives the index key of a file.
    #[must_use]
    pub fn for_file(file: FileId) -> Self {
        let mut h = Sha256::new();
        h.update(b"mdrep/dht/file/v1");
        h.update(&file.as_u64().to_be_bytes());
        Self::truncate(h)
    }

    /// Derives a key for arbitrary content bytes.
    #[must_use]
    pub fn for_content(content: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"mdrep/dht/content/v1");
        h.update(content);
        Self::truncate(h)
    }

    fn truncate(h: Sha256) -> Self {
        let digest = h.finalize();
        let mut out = [0u8; ID_BYTES];
        out.copy_from_slice(&digest.as_bytes()[..ID_BYTES]);
        Self(out)
    }

    /// The XOR distance to another key.
    #[must_use]
    pub fn distance(&self, other: &Self) -> Distance {
        let mut out = [0u8; ID_BYTES];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.0[i] ^ other.0[i];
        }
        Distance(out)
    }

    /// The XOR distance to `other` as big-endian integers: the first 16
    /// bytes, then the last 4. It orders exactly like [`distance`]
    /// (lexicographic on big-endian bytes is numeric), but compares in two
    /// integer comparisons, so sorts keyed on it are cheap.
    ///
    /// [`distance`]: Self::distance
    pub(crate) fn distance_key(&self, other: &Self) -> DistanceKey {
        let (hi, lo) = self.words();
        let (other_hi, other_lo) = other.words();
        (hi ^ other_hi, lo ^ other_lo)
    }

    fn words(&self) -> DistanceKey {
        let (hi, lo) = self.0.split_at(16);
        (
            u128::from_be_bytes(hi.try_into().expect("16 bytes")),
            u32::from_be_bytes(lo.try_into().expect("4 bytes")),
        )
    }

    /// The index of the k-bucket this key falls into relative to `self`:
    /// `159 − leading_zero_bits(distance)`, or `None` for the key itself.
    #[must_use]
    pub fn bucket_index(&self, other: &Self) -> Option<usize> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == ID_BYTES * 8 {
            None
        } else {
            Some(ID_BYTES * 8 - 1 - lz)
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Key({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in &self.0[..4] {
            write!(f, "{byte:02x}")?;
        }
        f.write_str("…")
    }
}

/// An XOR distance between two keys; ordered lexicographically (which is
/// numeric order for big-endian byte strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Distance([u8; ID_BYTES]);

impl Distance {
    /// Number of leading zero bits.
    #[must_use]
    pub fn leading_zeros(&self) -> usize {
        let mut count = 0;
        for &byte in &self.0 {
            if byte == 0 {
                count += 8;
            } else {
                count += byte.leading_zeros() as usize;
                break;
            }
        }
        count
    }

    /// Whether this is the zero distance (identical keys).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_distinct() {
        assert_eq!(Key::for_user(UserId::new(1)), Key::for_user(UserId::new(1)));
        assert_ne!(Key::for_user(UserId::new(1)), Key::for_user(UserId::new(2)));
        assert_ne!(
            Key::for_user(UserId::new(1)),
            Key::for_file(FileId::new(1)),
            "domain separation keeps user and file spaces apart"
        );
        assert_ne!(Key::for_content(b"a"), Key::for_content(b"b"));
    }

    #[test]
    fn distance_is_a_xor_metric() {
        let a = Key::for_user(UserId::new(1));
        let b = Key::for_user(UserId::new(2));
        let c = Key::for_user(UserId::new(3));
        assert!(a.distance(&a).is_zero());
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(!a.distance(&b).is_zero());
        // XOR triangle equality: d(a,c) = d(a,b) XOR d(b,c); ordering-wise,
        // d(a,c) <= max is not generally true for XOR, but identity and
        // symmetry are what the routing relies on.
        let _ = c;
    }

    #[test]
    fn bucket_index_matches_highest_differing_bit() {
        let zero = Key::from_bytes([0; ID_BYTES]);
        let mut one = [0u8; ID_BYTES];
        one[ID_BYTES - 1] = 1;
        assert_eq!(zero.bucket_index(&Key::from_bytes(one)), Some(0));

        let mut top = [0u8; ID_BYTES];
        top[0] = 0x80;
        assert_eq!(zero.bucket_index(&Key::from_bytes(top)), Some(159));
        assert_eq!(zero.bucket_index(&zero), None);
    }

    #[test]
    fn distance_ordering_is_numeric() {
        let zero = Key::from_bytes([0; ID_BYTES]);
        let mut small = [0u8; ID_BYTES];
        small[ID_BYTES - 1] = 2;
        let mut big = [0u8; ID_BYTES];
        big[0] = 1;
        assert!(zero.distance(&Key::from_bytes(small)) < zero.distance(&Key::from_bytes(big)));
    }

    #[test]
    fn distance_key_orders_like_distance() {
        let target = Key::for_content(b"target");
        let mut ids: Vec<Key> = (0..200).map(|i| Key::for_user(UserId::new(i))).collect();
        // Ids that differ only in the low 4 bytes exercise the second word.
        let mut near = *target.as_bytes();
        for b in 0..8u8 {
            near[ID_BYTES - 1] = b;
            ids.push(Key::from_bytes(near));
        }
        let mut by_distance = ids.clone();
        by_distance.sort_by_key(|k| k.distance(&target));
        ids.sort_by_key(|k| k.distance_key(&target));
        assert_eq!(ids, by_distance);
        assert_eq!(target.distance_key(&target), (0, 0));
    }

    #[test]
    fn leading_zeros_counts() {
        let zero = Key::from_bytes([0; ID_BYTES]);
        assert_eq!(zero.distance(&zero).leading_zeros(), 160);
        let mut x = [0u8; ID_BYTES];
        x[1] = 0x10;
        assert_eq!(zero.distance(&Key::from_bytes(x)).leading_zeros(), 11);
    }

    #[test]
    fn display_and_debug_are_abbreviated() {
        let k = Key::for_user(UserId::new(5));
        assert!(k.to_string().ends_with('…'));
        assert!(format!("{k:?}").starts_with("Key("));
    }
}
