//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The implementation offers both an incremental ([`Sha256::update`] /
//! [`Sha256::finalize`]) and a one-shot ([`Sha256::digest`]) API and is
//! validated against the NIST example vectors in the unit tests.

use std::fmt;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// A finalized 256-bit digest.
///
/// # Examples
///
/// ```
/// use mdrep_crypto::Sha256;
///
/// let d = Sha256::digest(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The raw digest bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    #[must_use]
    pub const fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lower-case hex rendering.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for byte in self.0 {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }

    /// The first 8 bytes of the digest as a big-endian `u64` — handy as a
    /// well-mixed key for simulation-level hashing (DHT ids etc.).
    #[must_use]
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// Incremental hashing produces the same digest as one-shot hashing:
///
/// ```
/// use mdrep_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix of the padding).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hashes `data` in a single call.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64 bytes"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // in a second block when the first has no room for the length.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        Digest(state_bytes(&self.state))
    }

    /// Absorbs one 512-bit block.
    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.state, &block_words(block));
    }

    /// A hasher that has absorbed one block and reached `state`: an HMAC
    /// key pad's chaining state, resumed for a longer message.
    pub(crate) fn resume(state: [u32; 8]) -> Self {
        Self {
            state,
            len: 64,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// The chaining state after whole blocks only.
    pub(crate) fn chaining_state(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "a chaining state follows whole blocks");
        self.state
    }
}

/// A block's 16 big-endian words.
pub(crate) fn block_words(block: &[u8; 64]) -> [u32; 16] {
    let mut words = [0u32; 16];
    for (word, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    words
}

/// The big-endian bytes of eight state words.
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The compression function (FIPS 180-4 §6.2.2) over one 512-bit block,
/// given as its 16 big-endian words.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let sigma1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(sigma1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let sigma0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = sigma0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Independent compressions that [`compress_lanes`] runs side by side:
/// four 128-bit registers of `u32` lanes on the default x86-64 target
/// (SSE2). With 8 lanes LLVM unrolls each round's lane loop fully and
/// leaves it scalar, so 8 lanes cost what 8 scalar compressions cost;
/// 32 lanes cost the same per compression as 16 and need batches twice
/// as long.
pub(crate) const LANES: usize = 16;

/// One state or block word across every lane.
type Lanes = [u32; LANES];

/// One round of [`compress`] in every lane. The working variables are
/// passed in their roles for this round: the caller rotates the roles
/// instead of moving the variables, so only `d` and `h` change. Each
/// round is one loop over the lanes with the whole round in its body,
/// which LLVM's loop vectorizer widens to vector instructions.
#[inline(always)]
fn round(
    [a, b, c]: [&Lanes; 3],
    d: &mut Lanes,
    [e, f, g]: [&Lanes; 3],
    h: &mut Lanes,
    w: &[Lanes; 64],
    t: usize,
) {
    let (k, w) = (K[t], &w[t]);
    for lane in 0..LANES {
        let (a, b, c, e, f, g) = (a[lane], b[lane], c[lane], e[lane], f[lane], g[lane]);
        let sigma1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h[lane]
            .wrapping_add(sigma1)
            .wrapping_add(ch)
            .wrapping_add(k)
            .wrapping_add(w[lane]);
        let sigma0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (c & (a ^ b));
        d[lane] = d[lane].wrapping_add(t1);
        h[lane] = t1.wrapping_add(sigma0.wrapping_add(maj));
    }
}

/// [`compress`] run on [`LANES`] independent (state, block) pairs at
/// once: `state[j][lane]` is word `j` of one lane's state, and
/// `block[j][lane]` word `j` of its block.
pub(crate) fn compress_lanes(state: &mut [Lanes; 8], block: &[Lanes; 16]) {
    let mut w = [[0u32; LANES]; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        let (done, rest) = w.split_at_mut(t);
        let (w2, w7, w15, w16) = (&done[t - 2], &done[t - 7], &done[t - 15], &done[t - 16]);
        for (lane, out) in rest[0].iter_mut().enumerate() {
            let (x15, x2) = (w15[lane], w2[lane]);
            let s0 = x15.rotate_right(7) ^ x15.rotate_right(18) ^ (x15 >> 3);
            let s1 = x2.rotate_right(17) ^ x2.rotate_right(19) ^ (x2 >> 10);
            *out = w16[lane]
                .wrapping_add(s0)
                .wrapping_add(w7[lane])
                .wrapping_add(s1);
        }
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in (0..64).step_by(8) {
        round([&a, &b, &c], &mut d, [&e, &f, &g], &mut h, &w, t);
        round([&h, &a, &b], &mut c, [&d, &e, &f], &mut g, &w, t + 1);
        round([&g, &h, &a], &mut b, [&c, &d, &e], &mut f, &w, t + 2);
        round([&f, &g, &h], &mut a, [&b, &c, &d], &mut e, &w, t + 3);
        round([&e, &f, &g], &mut h, [&a, &b, &c], &mut d, &w, t + 4);
        round([&d, &e, &f], &mut g, [&h, &a, &b], &mut c, &w, t + 5);
        round([&c, &d, &e], &mut f, [&g, &h, &a], &mut b, &w, t + 6);
        round([&b, &c, &d], &mut e, [&f, &g, &h], &mut a, &w, t + 7);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for (word, add) in word.iter_mut().zip(add) {
            *word = word.wrapping_add(add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;

    /// One lane's words.
    fn lane_of<const N: usize>(words: &[Lanes; N], lane: usize) -> [u32; N] {
        std::array::from_fn(|j| words[j][lane])
    }

    /// NIST FIPS 180-4 / NESSIE standard vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                b"hello world",
                "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(&Sha256::digest(input).to_hex(), expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_split_points_agree() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let expected = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_agrees() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), Sha256::digest(data));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all be
        // distinct and deterministic.
        let mut seen = std::collections::HashSet::new();
        for len in 0..200usize {
            let data = vec![0x5a_u8; len];
            let d1 = Sha256::digest(&data);
            let d2 = Sha256::digest(&data);
            assert_eq!(d1, d2);
            assert!(seen.insert(d1.into_bytes()), "collision at length {len}");
        }
    }

    #[test]
    fn padding_boundary_known_answers() {
        // 0x5a repeated: either side of the point where the length no
        // longer fits the last block (55/56) and of the block edges.
        let cases: &[(usize, &str)] = &[
            (
                55,
                "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44",
            ),
            (
                56,
                "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a",
            ),
            (
                57,
                "30ab35131f9b368e840dc65fc1eb832706e748e3c5e44ec40bc19cd1ce5c0dc2",
            ),
            (
                63,
                "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333",
            ),
            (
                64,
                "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282",
            ),
            (
                119,
                "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e",
            ),
            (
                120,
                "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee",
            ),
        ];
        for (len, expected) in cases {
            let data = vec![0x5a_u8; *len];
            assert_eq!(&Sha256::digest(&data).to_hex(), expected, "length {len}");
        }
    }

    #[test]
    fn digest_accessors() {
        let d = Sha256::digest(b"abc");
        assert_eq!(d.as_bytes().len(), 32);
        assert_eq!(d.as_ref().len(), 32);
        assert_eq!(
            d.prefix_u64(),
            u64::from_be_bytes(d.as_bytes()[..8].try_into().unwrap())
        );
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
        assert_eq!(d.to_string().len(), 64);
    }

    #[test]
    fn every_lane_equals_the_scalar_compression() {
        let mut rng = TestRng::for_test("every_lane_equals_the_scalar_compression");
        for _ in 0..64 {
            let mut state = [[0u32; LANES]; 8];
            let mut block = [[0u32; LANES]; 16];
            for word in state.iter_mut().chain(block.iter_mut()).flatten() {
                *word = rng.next_u64() as u32;
            }
            let mut lanes = state;
            compress_lanes(&mut lanes, &block);
            for lane in 0..LANES {
                let mut scalar = lane_of(&state, lane);
                compress(&mut scalar, &lane_of(&block, lane));
                assert_eq!(lane_of(&lanes, lane), scalar, "lane {lane}");
            }
        }
    }

    #[test]
    fn each_lane_position_gives_the_nist_abc_digest() {
        // "abc" padded to its one block, in one lane among copies of
        // another block.
        let mut padded = [0u8; 64];
        padded[..3].copy_from_slice(b"abc");
        padded[3] = 0x80;
        padded[63] = 24;
        let abc = block_words(&padded);
        let other = block_words(&[0x5a; 64]);
        for position in 0..LANES {
            let mut state = H0.map(|word| [word; LANES]);
            let mut block = other.map(|word| [word; LANES]);
            for (word, value) in block.iter_mut().zip(abc) {
                word[position] = value;
            }
            compress_lanes(&mut state, &block);
            for lane in 0..LANES {
                let digest = Digest(state_bytes(&lane_of(&state, lane)));
                let is_abc = digest.to_hex()
                    == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
                assert_eq!(is_abc, lane == position, "abc at {position}, lane {lane}");
            }
        }
    }
}
