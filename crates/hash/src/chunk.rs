//! Fixed-offset chunking for the §2.1 redundancy measurement.
//!
//! The measurement study samples a chunk of `K` bytes at regular fixed
//! offsets of `2K` bytes, hashes sandbox A's chunks into a table, probes
//! with sandbox B's chunks, and on a (byte-verified) match extends both
//! chunks to a maximum of `2K` bytes. These helpers implement the
//! chunk-enumeration half; the matching/extension logic lives in
//! `medes-mem::redundancy` where both memory images are visible.

/// Iterates `(offset, chunk)` pairs of `k` bytes at stride `2k`.
pub fn fixed_offset_chunks(data: &[u8], k: usize) -> impl Iterator<Item = (usize, &[u8])> + '_ {
    assert!(k > 0, "chunk size must be positive");
    let stride = 2 * k;
    (0..)
        .map(move |i| i * stride)
        .take_while(move |&off| off + k <= data.len())
        .map(move |off| (off, &data[off..off + k]))
}

/// Longest common extension: grows a match at `a[a_off..]` / `b[b_off..]`
/// symmetrically left and right, up to `max_total` matched bytes, and
/// returns the matched byte count. Used to credit the non-hashed bytes
/// around a matched chunk, per §2.1.
pub fn extend_match(
    a: &[u8],
    b: &[u8],
    a_off: usize,
    b_off: usize,
    seed_len: usize,
    max_total: usize,
) -> usize {
    debug_assert!(a[a_off..a_off + seed_len] == b[b_off..b_off + seed_len]);
    let mut total = seed_len;
    // Extend right.
    let mut ar = a_off + seed_len;
    let mut br = b_off + seed_len;
    while total < max_total && ar < a.len() && br < b.len() && a[ar] == b[br] {
        ar += 1;
        br += 1;
        total += 1;
    }
    // Extend left.
    let mut al = a_off;
    let mut bl = b_off;
    while total < max_total && al > 0 && bl > 0 && a[al - 1] == b[bl - 1] {
        al -= 1;
        bl -= 1;
        total += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_enumeration() {
        let data = vec![0u8; 1000];
        let chunks: Vec<(usize, &[u8])> = fixed_offset_chunks(&data, 64).collect();
        // Offsets 0, 128, 256, ... while off+64 <= 1000 -> 0..=896 step 128.
        assert_eq!(chunks.len(), 8);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[1].0, 128);
        assert!(chunks.iter().all(|(_, c)| c.len() == 64));
    }

    #[test]
    fn chunk_count_edges() {
        let count = |len| fixed_offset_chunks(&vec![0; len], 64).count();
        assert_eq!(count(0), 0);
        assert_eq!(count(63), 0);
        assert_eq!(count(64), 1);
        assert_eq!(count(128), 1);
        assert_eq!(count(192), 2);
    }

    #[test]
    fn extension_grows_both_directions() {
        let a = b"....MATCHseed-tail....";
        let b = b"XXXXMATCHseed-tail-YYY";
        // Seed: "seed" at a[9], b[9].
        let n = extend_match(a, b, 9, 9, 4, 100);
        // Left extension: "MATCH" (5 bytes); right: "-tail" (5 bytes).
        assert_eq!(n, 4 + 5 + 5);
    }

    #[test]
    fn extension_respects_cap() {
        let a = vec![7u8; 256];
        let b = vec![7u8; 256];
        let n = extend_match(&a, &b, 100, 100, 16, 128);
        assert_eq!(n, 128);
    }

    #[test]
    fn extension_stops_at_boundaries() {
        let a = b"abc";
        let b = b"abc";
        let n = extend_match(a, b, 0, 0, 3, 100);
        assert_eq!(n, 3);
    }
}
