//! SHA-1, implemented from scratch (FIPS 180-4).
//!
//! The paper hashes every sampled 64 B chunk with SHA-1 before inserting
//! it into the fingerprint registry. SHA-1 is cryptographically broken
//! for signatures, but for content-addressing memory chunks (with a
//! byte-verify on match, as Medes does) it is exactly what the original
//! system used, so we reproduce it faithfully.
//!
//! Every chunk the fingerprint scan hashes is exactly 64 bytes, so
//! [`Sha1::digest64`] is the hot path: two compressions, the chunk and
//! the padding block of a 64-byte message. That second block is the same
//! for every chunk, so its 80 schedule words are constants: they are
//! computed at compile time with the round constants already added
//! (`PAD64_KW`), and the second compression runs the 80 rounds
//! without loading a block or updating a schedule. Both compressions go
//! through the one round body, `rounds`.

/// Incremental SHA-1 digest.
///
/// # Examples
///
/// ```
/// use medes_hash::Sha1;
///
/// // Standard test vector: SHA1("abc").
/// let d = Sha1::digest(b"abc");
/// assert_eq!(
///     hex(&d),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh digest.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of exactly one 64-byte block — the dedup hot
    /// path (every sampled chunk is 64 B). Skips all incremental
    /// buffering: two compressions, the data block and the constant
    /// padding block (0x80, zeros, bit length 512), whose schedule is
    /// precomputed. Bit-identical to `Sha1::digest` on the same bytes.
    pub fn digest64(block: &[u8; 64]) -> [u8; 20] {
        let mut state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        compress_block(&mut state, block);
        rounds(&mut state, |_, t| PAD64_KW[t]);
        let mut out = [0u8; 20];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            } else {
                // Call consumed entirely by the partial buffer.
                return;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            let arr: [u8; 64] = block.try_into().expect("exact chunk");
            self.compress(&arr);
        }
        let rem = blocks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Completes the digest and returns the 20-byte hash.
    pub fn finalize(mut self) -> [u8; 20] {
        let len_bits = self.length_bits;
        // Padding: 0x80, zeros, then 64-bit big-endian bit length.
        self.update_padding(&[0x80]);
        while self.buffered != 56 {
            self.update_padding(&[0x00]);
        }
        self.update_padding(&len_bits.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` without advancing the message length (for padding only).
    fn update_padding(&mut self, data: &[u8]) {
        for &b in data {
            self.buffer[self.buffered] = b;
            self.buffered += 1;
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// The round constants of rounds 0–19, 20–39, 40–59 and 60–79.
const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];

/// `K[t / 20] + W[t]` for the padding block of a 64-byte message: 0x80,
/// zeros, and the bit length 512 in the last word.
const PAD64_KW: [u32; 80] = {
    let mut w = [0u32; 80];
    w[0] = 0x8000_0000;
    w[15] = 512;
    let mut t = 16;
    while t < 80 {
        w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        t += 1;
    }
    t = 0;
    while t < 80 {
        w[t] = w[t].wrapping_add(K[t / 20]);
        t += 1;
    }
    w
};

/// The 80 rounds of one SHA-1 compression: four constant-f loops of 20
/// rounds each instead of a per-round `(f, k)` branch. `kw(k, t)` yields
/// `k + W[t]` for round `t`, whose round constant is `k`. Same math as
/// FIPS 180-4 §6.1.2 — the round-function identities used below
/// (`Ch(b,c,d) = d ^ (b & (c ^ d))`, `Maj(b,c,d) = (b & c) | (d &
/// (b | c))`) are bitwise-equal to the spec's and cost one op less.
#[inline(always)]
fn rounds(state: &mut [u32; 5], mut kw: impl FnMut(u32, usize) -> u32) {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! round {
        ($f:expr, $kw:expr) => {{
            let temp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($kw);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }};
    }
    // The first loop is split where a data block's schedule starts to
    // recur, so a `t < 16` test in `kw` folds away in both halves.
    for t in 0..16 {
        round!(d ^ (b & (c ^ d)), kw(K[0], t));
    }
    for t in 16..20 {
        round!(d ^ (b & (c ^ d)), kw(K[0], t));
    }
    for t in 20..40 {
        round!(b ^ c ^ d, kw(K[1], t));
    }
    for t in 40..60 {
        round!((b & c) | (d & (b | c)), kw(K[2], t));
    }
    for t in 60..80 {
        round!(b ^ c ^ d, kw(K[3], t));
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// One SHA-1 compression of a data block, over a 16-word circular
/// schedule instead of an 80-word array.
#[inline]
fn compress_block(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    rounds(state, |k, t| {
        let i = t & 15;
        if t >= 16 {
            // W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), indices
            // taken mod 16.
            w[i] = (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i]).rotate_left(1);
        }
        k.wrapping_add(w[i])
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&block);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise messages straddling the 56-byte padding boundary.
        for len in 50..=70 {
            let data = vec![0xAAu8; len];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn digest64_matches_general_path() {
        // The one-block fast path must be bit-identical to the
        // incremental path on every 64-byte input we throw at it.
        let mut rng = 0x5EEDu64;
        for _ in 0..64 {
            let mut block = [0u8; 64];
            for b in &mut block {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (rng >> 56) as u8;
            }
            assert_eq!(Sha1::digest64(&block), Sha1::digest(&block));
        }
        assert_eq!(Sha1::digest64(&[0u8; 64]), Sha1::digest(&[0u8; 64]));
        assert_eq!(Sha1::digest64(&[0xFF; 64]), Sha1::digest(&[0xFF; 64]));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let a = Sha1::digest(b"chunk-a");
        let b = Sha1::digest(b"chunk-b");
        assert_ne!(a, b);
    }
}
