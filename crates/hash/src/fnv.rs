//! FNV-1a 64-bit — a cheap non-cryptographic hash.
//!
//! Used where hash quality only needs to be "good enough for a hash
//! table": interning library names, weak chunk pre-filters, digests of
//! benchmark output. Unlike SHA-1 it costs ~1 ns per byte — one
//! dependent multiply each, which is why the delta encoder's block
//! index no longer uses it: `medes_delta::encode_with` keys its 16-byte
//! seeds with a word-wise mix, and only the `encode_reference` oracle
//! still seeds with [`fnv1a`], so that comparing the two checks the
//! new hash against the old one.

/// FNV-1a offset basis.
pub const OFFSET_BASIS: u64 = 0xCBF29CE484222325;
/// FNV-1a prime.
pub const PRIME: u64 = 0x100000001B3;

/// One-shot FNV-1a over `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = OFFSET_BASIS;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Creates a hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds bytes.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        // Reference values for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xCBF29CE484222325);
        assert_eq!(fnv1a(b"a"), 0xAF63DC4C8601EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello fnv world";
        let mut h = Fnv1a::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finish(), fnv1a(data));
    }

    #[test]
    fn sensitivity_to_each_byte() {
        let base = fnv1a(b"0123456789");
        for i in 0..10 {
            let mut v = b"0123456789".to_vec();
            v[i] ^= 1;
            assert_ne!(fnv1a(&v), base, "byte {i}");
        }
    }
}
