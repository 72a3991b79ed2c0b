//! HMAC-SHA-256 (RFC 2104) built on the local SHA-256.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Keyed-hash message authentication code over SHA-256.
///
/// # Examples
///
/// ```
/// use mdrep_crypto::HmacSha256;
///
/// let mac = HmacSha256::mac(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     mac.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context for the given key. Keys longer than the SHA-256
    /// block size are hashed first, per RFC 2104.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            key_block[..32].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ IPAD));

        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ OPAD));

        Self { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC computation.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let inner_digest = self.inner.finalize();
        self.outer.update(inner_digest.as_bytes());
        self.outer.finalize()
    }

    /// The inner and outer hashes' chaining states after their key-pad
    /// blocks, before any message byte.
    pub(crate) fn chaining_states(&self) -> ([u32; 8], [u32; 8]) {
        (self.inner.chaining_state(), self.outer.chaining_state())
    }

    /// One-shot convenience: `HMAC(key, message)`.
    #[must_use]
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        let mut ctx = Self::new(key);
        ctx.update(message);
        ctx.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_vectors() {
        // Test case 1.
        let mac = HmacSha256::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
        // Test case 2.
        let mac = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
        // Test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
        let mac = HmacSha256::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
        // Test case 6: key larger than the block size.
        let mac = HmacSha256::mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"secret";
        let mut ctx = HmacSha256::new(key);
        ctx.update(b"part one ");
        ctx.update(b"part two");
        assert_eq!(ctx.finalize(), HmacSha256::mac(key, b"part one part two"));
    }

    #[test]
    fn different_keys_give_different_macs() {
        let m = b"message";
        assert_ne!(HmacSha256::mac(b"k1", m), HmacSha256::mac(b"k2", m));
    }

    #[test]
    fn different_messages_give_different_macs() {
        let k = b"key";
        assert_ne!(HmacSha256::mac(k, b"a"), HmacSha256::mac(k, b"b"));
    }

    #[test]
    fn exact_block_size_key() {
        // A 64-byte key is used verbatim, not hashed.
        let key = [0x42u8; 64];
        let mac1 = HmacSha256::mac(&key, b"msg");
        let mac2 = HmacSha256::mac(&key, b"msg");
        assert_eq!(mac1, mac2);
        // A 65-byte key is hashed first and must differ from a 64-byte one.
        let long = [0x42u8; 65];
        assert_ne!(HmacSha256::mac(&long, b"msg"), mac1);
    }
}
