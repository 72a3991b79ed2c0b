//! Keyed signatures over evaluation records, with a trusted key registry.
//!
//! See the crate docs for why a keyed-hash scheme stands in for PKI
//! signatures in this reproduction.

use crate::hmac::HmacSha256;
use crate::sha256::Sha256;
use mdrep_types::UserId;
use std::collections::HashMap;
use std::fmt;

/// Domain-separation prefix so signatures cannot be confused with other
/// HMAC uses of the same key.
const SIGN_DOMAIN: &[u8] = b"mdrep/evaluation-signature/v1";

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
/// A key keeps its HMAC state with the key pads and the signature domain
/// already absorbed, so signing and verifying hash only the message. That
/// state is as good as the secret for forging signatures: it never leaves
/// the key, and `Debug` shows neither.
#[derive(Clone)]
pub struct SigningKey {
    secret: [u8; 32],
    /// `HMAC(secret, SIGN_DOMAIN ‖ ·)` before the message.
    keyed: HmacSha256,
}

impl SigningKey {
    /// Derives a key from a numeric seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"mdrep/signing-key/v1");
        h.update(&seed.to_be_bytes());
        let secret = h.finalize().into_bytes();
        let mut keyed = HmacSha256::new(&secret);
        keyed.update(SIGN_DOMAIN);
        Self { secret, keyed }
    }

    /// Signs a message.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut mac = self.keyed.clone();
        mac.update(message);
        Signature(mac.finalize().into_bytes())
    }

    /// Verifies a signature over a message under this key.
    #[must_use]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        // Constant-time-ish comparison; timing is irrelevant in simulation
        // but the pattern is kept for fidelity.
        let expected = self.sign(message);
        let mut diff = 0u8;
        for (a, b) in expected.0.iter().zip(signature.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
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
        // The inner hash buffers the 29-byte domain and the message after
        // its key-pad block: its length field stops fitting the last block
        // at 27 and 91 message bytes, and blocks fill at 35 and 99. Both
        // sides of each, plus the block-size lengths of the message alone.
        assert_eq!(SIGN_DOMAIN.len(), 29);
        let key = SigningKey::from_seed(3);
        let lengths = [
            0, 23, 24, 26, 27, 34, 35, 36, 55, 56, 63, 64, 65, 90, 91, 99, 100, 119, 200,
        ];
        for len in lengths {
            let message: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let fresh = HmacSha256::mac(&key.secret, &[SIGN_DOMAIN, &message].concat());
            assert_eq!(key.sign(&message).as_bytes(), fresh.as_bytes(), "len {len}");
            assert!(key.verify(&message, &key.sign(&message)));
        }
    }

    #[test]
    fn debug_never_shows_the_keyed_state() {
        // The pad states' words, as the HMAC context's own Debug prints
        // them: any of them in a key's or registry's Debug is a leak.
        let mut registry = KeyRegistry::new();
        let key = registry.register(UserId::new(4), 77);
        let state = format!("{:?}", key.keyed);
        let words: Vec<&str> = state
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| w.len() >= 6)
            .collect();
        assert!(words.len() >= 8, "state words found: {words:?}");
        for shown in [format!("{registry:?}"), format!("{key:?}")] {
            for word in &words {
                assert!(!shown.contains(word), "{shown} leaks {word}");
            }
        }
    }
}
