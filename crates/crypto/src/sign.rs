//! Keyed signatures over evaluation records, with a trusted key registry.
//!
//! See the crate docs for why a keyed-hash scheme stands in for PKI
//! signatures in this reproduction.

use crate::hmac::HmacSha256;
use crate::sha256::{self, Sha256, LANES};
use mdrep_types::UserId;
use std::collections::HashMap;
use std::fmt;

/// Domain-separation prefix so signatures cannot be confused with other
/// HMAC uses of the same key.
const SIGN_DOMAIN: &[u8] = b"mdrep/evaluation-signature/v1";

/// The longest message whose inner hash input (the domain, the message,
/// the `0x80` pad byte and the 8-byte length) fits one block after the
/// key pad: 26 bytes. An evaluation record's 24 bytes fit.
const ONE_BLOCK_MESSAGE: usize = 64 - SIGN_DOMAIN.len() - 1 - 8;

/// The smallest chunk [`KeyRegistry::verify_batch`] runs through the
/// lanes. A laned chunk always pays for all [`LANES`] lanes, which costs
/// about what 6 records cost one at a time; below 8 the records are
/// checked one at a time, so short owner lists keep the scalar cost.
const MIN_LANED: usize = 8;

/// The inner hash's last block for a message of at most
/// [`ONE_BLOCK_MESSAGE`] bytes, as words: the domain, the message and the
/// padding of a 64-byte key pad plus both.
fn inner_block(message: &[u8]) -> Option<[u32; 16]> {
    if message.len() > ONE_BLOCK_MESSAGE {
        return None;
    }
    let end = SIGN_DOMAIN.len() + message.len();
    let mut block = [0u8; 64];
    block[..SIGN_DOMAIN.len()].copy_from_slice(SIGN_DOMAIN);
    block[SIGN_DOMAIN.len()..end].copy_from_slice(message);
    block[end] = 0x80;
    let bits = (64 + end as u64) * 8;
    block[56..].copy_from_slice(&bits.to_be_bytes());
    Some(sha256::block_words(&block))
}

/// The outer hash's last block: the inner digest and the padding of a
/// 64-byte key pad plus 32 digest bytes.
fn outer_block(inner: &[u32; 8]) -> [u32; 16] {
    let mut block = [0u32; 16];
    block[..8].copy_from_slice(inner);
    block[8] = 0x8000_0000;
    block[15] = (64 + 32) * 8;
    block
}

/// Whether two signatures are equal, read without an early exit.
fn same(expected: &[u8; 32], signature: &Signature) -> bool {
    // Constant-time-ish comparison; timing is irrelevant in simulation
    // but the pattern is kept for fidelity.
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(signature.0.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// A signature over a message, produced by [`SigningKey::sign`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature([u8; 32]);

impl Signature {
    /// The raw signature bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a signature from raw bytes (e.g. received over the wire).
    #[must_use]
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

/// A user's secret signing key.
///
/// Keys are derived deterministically from a seed so that simulations are
/// reproducible; the derivation mixes the seed through SHA-256 so key bytes
/// are well distributed.
///
/// # Examples
///
/// ```
/// use mdrep_crypto::SigningKey;
///
/// let key = SigningKey::from_seed(7);
/// let sig = key.sign(b"payload");
/// assert!(key.verify(b"payload", &sig));
/// assert!(!key.verify(b"payload!", &sig));
/// ```
///
/// A key keeps the two HMAC chaining states, after its inner and its
/// outer key-pad block, so a record's signature costs two compressions.
/// Those states are as good as the secret for forging signatures: they
/// never leave the key, and `Debug` shows neither.
#[derive(Clone)]
pub struct SigningKey {
    secret: [u8; 32],
    /// SHA-256 state after `secret ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after `secret ⊕ opad`.
    outer: [u32; 8],
}

impl SigningKey {
    /// Derives a key from a numeric seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"mdrep/signing-key/v1");
        h.update(&seed.to_be_bytes());
        let secret = h.finalize().into_bytes();
        let (inner, outer) = HmacSha256::new(&secret).chaining_states();
        Self {
            secret,
            inner,
            outer,
        }
    }

    /// Signs a message.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let Some(block) = inner_block(message) else {
            let mut inner = Sha256::resume(self.inner);
            inner.update(SIGN_DOMAIN);
            inner.update(message);
            let mut outer = Sha256::resume(self.outer);
            outer.update(inner.finalize().as_bytes());
            return Signature(outer.finalize().into_bytes());
        };
        let mut inner = self.inner;
        sha256::compress(&mut inner, &block);
        let mut outer = self.outer;
        sha256::compress(&mut outer, &outer_block(&inner));
        Signature(sha256::state_bytes(&outer))
    }

    /// Verifies a signature over a message under this key.
    #[must_use]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        same(&self.sign(message).0, signature)
    }
}

/// Keys are equal when their secrets are; the keyed state follows from the
/// secret.
impl PartialEq for SigningKey {
    fn eq(&self, other: &Self) -> bool {
        self.secret == other.secret
    }
}

impl Eq for SigningKey {}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak key material through Debug.
        f.write_str("SigningKey(…)")
    }
}

/// The trusted key registry standing in for a PKI.
///
/// Index peers and downloaders resolve a publisher's verification key here
/// before accepting an `EvaluationInfo` record (Fig. 2, steps 1 and 3).
///
/// # Examples
///
/// ```
/// use mdrep_crypto::KeyRegistry;
/// use mdrep_types::UserId;
///
/// let mut registry = KeyRegistry::new();
/// let u = UserId::new(9);
/// let key = registry.register(u, 1234);
/// let sig = key.sign(b"rating");
/// assert!(registry.verify(u, b"rating", &sig));
/// // Unknown users never verify.
/// assert!(!registry.verify(UserId::new(10), b"rating", &sig));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<UserId, SigningKey>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `user`'s key, derived from `seed`, and returns
    /// a copy of the signing key for the user to hold.
    pub fn register(&mut self, user: UserId, seed: u64) -> SigningKey {
        let key = SigningKey::from_seed(seed ^ user.as_u64().rotate_left(17));
        self.keys.insert(user, key.clone());
        key
    }

    /// Returns the key registered for `user`, if any.
    #[must_use]
    pub fn key_of(&self, user: UserId) -> Option<&SigningKey> {
        self.keys.get(&user)
    }

    /// Verifies `signature` over `message` as coming from `user`.
    /// Unregistered users always fail verification.
    #[must_use]
    pub fn verify(&self, user: UserId, message: &[u8], signature: &Signature) -> bool {
        self.keys
            .get(&user)
            .is_some_and(|k| k.verify(message, signature))
    }

    /// Verifies each `(user, message, signature)` of `records` as
    /// [`verify`](Self::verify) does, returning one flag per record in
    /// order.
    ///
    /// Records go through in chunks of 16. A chunk of at least 8 checks
    /// its one-block messages (up to 26 bytes, which an evaluation record's
    /// 24 fit) in 16 SHA-256 lanes side by side, an inner and an outer
    /// compression each; a shorter chunk, an unknown user and a longer
    /// message are checked one at a time.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdrep_crypto::KeyRegistry;
    /// use mdrep_types::UserId;
    ///
    /// let mut registry = KeyRegistry::new();
    /// let u = UserId::new(3);
    /// let sig = registry.register(u, 5).sign(b"rating");
    /// let records = [(u, b"rating", sig), (u, b"RATING", sig)];
    /// assert_eq!(registry.verify_batch(&records), [true, false]);
    /// ```
    #[must_use]
    pub fn verify_batch<M: AsRef<[u8]>>(&self, records: &[(UserId, M, Signature)]) -> Vec<bool> {
        let mut valid = Vec::with_capacity(records.len());
        for chunk in records.chunks(LANES) {
            if chunk.len() < MIN_LANED {
                valid.extend(
                    chunk
                        .iter()
                        .map(|(user, message, sig)| self.verify(*user, message.as_ref(), sig)),
                );
            } else {
                self.verify_lanes(chunk, &mut valid);
            }
        }
        valid
    }

    /// Verifies up to [`LANES`] records, appending their flags to `valid`.
    fn verify_lanes<M: AsRef<[u8]>>(
        &self,
        chunk: &[(UserId, M, Signature)],
        valid: &mut Vec<bool>,
    ) {
        let mut inner = [[0u32; LANES]; 8];
        let mut outer = [[0u32; LANES]; 8];
        let mut block = [[0u32; LANES]; 16];
        // Each record's key, and whether its message takes a lane.
        let mut keys = [None; LANES];
        let mut laned = [false; LANES];
        for (lane, (user, message, _)) in chunk.iter().enumerate() {
            keys[lane] = self.keys.get(user);
            let (Some(key), Some(words)) = (keys[lane], inner_block(message.as_ref())) else {
                continue;
            };
            laned[lane] = true;
            for j in 0..8 {
                inner[j][lane] = key.inner[j];
                outer[j][lane] = key.outer[j];
            }
            for (word, value) in block.iter_mut().zip(words) {
                word[lane] = value;
            }
        }
        sha256::compress_lanes(&mut inner, &block);
        // The outer block: each lane's inner digest, then the padding
        // every lane shares.
        let padding = outer_block(&[0; 8]);
        for (j, word) in block.iter_mut().enumerate() {
            *word = if j < 8 { inner[j] } else { [padding[j]; LANES] };
        }
        sha256::compress_lanes(&mut outer, &block);
        for (lane, (_, message, sig)) in chunk.iter().enumerate() {
            valid.push(match keys[lane] {
                None => false,
                Some(key) if !laned[lane] => key.verify(message.as_ref(), sig),
                Some(_) => {
                    let state: [u32; 8] = std::array::from_fn(|j| outer[j][lane]);
                    same(&sha256::state_bytes(&state), sig)
                }
            });
        }
    }

    /// Number of registered users.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry has no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let key = SigningKey::from_seed(1);
        let sig = key.sign(b"hello");
        assert!(key.verify(b"hello", &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::from_seed(1);
        let sig = key.sign(b"hello");
        assert!(!key.verify(b"hellO", &sig));
        assert!(!key.verify(b"", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(1);
        let sig = key.sign(b"hello");
        let mut raw = *sig.as_bytes();
        raw[0] ^= 0x01;
        assert!(!key.verify(b"hello", &Signature::from_bytes(raw)));
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = SigningKey::from_seed(1);
        let k2 = SigningKey::from_seed(2);
        let sig = k1.sign(b"hello");
        assert!(!k2.verify(b"hello", &sig));
    }

    #[test]
    fn key_derivation_is_deterministic() {
        assert_eq!(SigningKey::from_seed(42), SigningKey::from_seed(42));
        assert_ne!(SigningKey::from_seed(42), SigningKey::from_seed(43));
    }

    #[test]
    fn registry_resolves_users() {
        let mut reg = KeyRegistry::new();
        assert!(reg.is_empty());
        let alice = UserId::new(1);
        let bob = UserId::new(2);
        let ka = reg.register(alice, 100);
        let _kb = reg.register(bob, 100); // same seed, different user → different key
        assert_eq!(reg.len(), 2);

        let sig = ka.sign(b"m");
        assert!(reg.verify(alice, b"m", &sig));
        // Bob's registered key differs even though the seed matched.
        assert!(!reg.verify(bob, b"m", &sig));
        assert!(reg.key_of(alice).is_some());
        assert!(reg.key_of(UserId::new(3)).is_none());
    }

    #[test]
    fn reregistration_replaces_key() {
        let mut reg = KeyRegistry::new();
        let u = UserId::new(5);
        let old = reg.register(u, 1);
        let sig = old.sign(b"m");
        assert!(reg.verify(u, b"m", &sig));
        let _new = reg.register(u, 2);
        // The old signature no longer verifies after key rotation.
        assert!(!reg.verify(u, b"m", &sig));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = SigningKey::from_seed(9);
        assert_eq!(format!("{key:?}"), "SigningKey(…)");
    }

    #[test]
    fn keyed_state_signs_like_a_fresh_mac() {
        // Up to 26 message bytes, the domain and the message fit the inner
        // hash's one block after its key pad, and `sign` compresses that
        // block directly; longer messages resume a hasher. Past that, the
        // inner hash's length field stops fitting the last block at 91
        // message bytes, and blocks fill at 35 and 99. Both sides of each,
        // plus the block-size lengths of the message alone.
        assert_eq!(SIGN_DOMAIN.len(), 29);
        assert_eq!(ONE_BLOCK_MESSAGE, 26);
        let key = SigningKey::from_seed(3);
        let lengths = [
            0, 23, 24, 25, 26, 27, 34, 35, 36, 55, 56, 63, 64, 65, 90, 91, 99, 100, 119, 200,
        ];
        for len in lengths {
            let message: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(inner_block(&message).is_some(), len <= 26, "len {len}");
            let fresh = HmacSha256::mac(&key.secret, &[SIGN_DOMAIN, &message].concat());
            assert_eq!(key.sign(&message).as_bytes(), fresh.as_bytes(), "len {len}");
            assert!(key.verify(&message, &key.sign(&message)));
        }
    }

    #[test]
    fn debug_never_shows_the_keyed_state() {
        // The chaining states' words, in decimal and hex: any of them in a
        // key's or registry's Debug is a leak.
        let mut registry = KeyRegistry::new();
        let key = registry.register(UserId::new(4), 77);
        let words: Vec<String> = key
            .inner
            .iter()
            .chain(&key.outer)
            .flat_map(|word| [word.to_string(), format!("{word:x}")])
            .filter(|word| word.len() >= 6)
            .collect();
        assert!(words.len() >= 16, "state words found: {words:?}");
        for shown in [format!("{registry:?}"), format!("{key:?}")] {
            for word in &words {
                assert!(!shown.contains(word.as_str()), "{shown} leaks {word}");
            }
        }
    }
}
