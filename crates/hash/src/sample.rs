//! Value-sampled page fingerprints (paper §4.1.2).
//!
//! For every 4 KiB page under consideration, the dedup agent conducts a
//! single linear scan with a rolling 64 B window and selects a chunk as a
//! fingerprint candidate when its **last two bytes match a fixed
//! pattern**. Here that pattern has its high byte masked out, so the
//! rule is one byte: the window's byte `w − 2` equals `0x5A`, which one
//! window in 256 satisfies. The unordered set of (at most)
//! `cardinality` selected chunk hashes is the page's fingerprint.
//! Sampling *by value* (rather than by position) makes the fingerprint
//! robust to insertions/shifts in the page — the property that lets Medes
//! match similar-but-not-identical pages, unlike Difference Engine's
//! random-offset fingerprints.
//!
//! When more than `cardinality` positions match, we keep the chunks with
//! the numerically smallest *distinct* hashes (equal hashes collapse
//! before the top-k cut, so repeated content cannot shrink the
//! fingerprint below `cardinality` while distinct candidates remain).
//! This "bottom-k" rule is content-defined (independent of position), so
//! two similar pages select the same surviving chunks with high
//! probability.

use crate::{chunk_hash, ChunkHash};

/// One sampled chunk: where it starts in the page, and its hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledChunk {
    /// Byte offset of the chunk within the page.
    pub offset: u32,
    /// SHA-1-derived 64-bit chunk hash.
    pub hash: ChunkHash,
}

/// A page fingerprint: the unordered set of sampled chunk hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageFingerprint {
    chunks: Vec<SampledChunk>,
}

impl PageFingerprint {
    /// The sampled chunks (sorted by hash value, ascending).
    pub fn chunks(&self) -> &[SampledChunk] {
        &self.chunks
    }

    /// Number of sampled chunks (≤ configured cardinality).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the scan selected no chunks at all (rare; such pages fall
    /// back to being stored verbatim).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Number of chunk hashes shared with another fingerprint — a
    /// similarity estimate. Base-page election does not use it: it
    /// counts registry votes per candidate page.
    pub fn overlap(&self, other: &PageFingerprint) -> usize {
        // Both sides are sorted by hash: merge-count.
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].hash.cmp(&other.chunks[j].hash) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

/// Configuration for fingerprint extraction.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintConfig {
    /// RSC size in bytes (64 in the paper).
    pub chunk_size: usize,
    /// Maximum number of sampled chunks per page (5 in the paper;
    /// §7.8 sweeps 5/10/20).
    pub cardinality: usize,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig {
            chunk_size: 64,
            cardinality: 5,
        }
    }
}

/// The sampling rule: a window is selected when its byte `w − 2` equals
/// this value. It is the paper's fixed two-byte pattern with the high
/// (last) byte masked out, so one window value in 256 matches: ≈ 15
/// candidates per 4 KiB page, comfortably above the default cardinality
/// of 5.
const SAMPLE_BYTE: u8 = 0x5A;

/// Extracts the value-sampled fingerprint of `page`.
///
/// Single linear scan; the only per-position work is a one-byte load and
/// compare, the paper's "single linear scan and a lightweight equality
/// check over two bytes" with one of the two bytes masked out. SHA-1 is
/// computed only for the selected chunks.
/// Selected chunks never overlap (the scan skips `chunk_size` after a
/// hit) so a single repeated byte run cannot dominate the fingerprint.
///
/// The scan itself runs 32 bytes per step (SWAR over `u64` lanes, see
/// `scan_candidates`); debug builds cross-check every result against
/// the byte-at-a-time [`page_fingerprint_scalar`] reference.
pub fn page_fingerprint(page: &[u8], cfg: &FingerprintConfig) -> PageFingerprint {
    pages_fingerprints(&[page], cfg)
        .pop()
        .expect("one page in, one fingerprint out")
}

/// The byte-at-a-time reference scan — the pre-optimization
/// implementation of [`page_fingerprint`], kept as the comparator the
/// wide path is checked against (a debug assertion in
/// [`page_fingerprint`], plus tests).
pub fn page_fingerprint_scalar(page: &[u8], cfg: &FingerprintConfig) -> PageFingerprint {
    let w = cfg.chunk_size;
    if page.len() < w || w < 2 || cfg.cardinality == 0 {
        return PageFingerprint::default();
    }
    let mut selected: Vec<SampledChunk> = Vec::with_capacity(cfg.cardinality * 4);
    let mut off = 0usize;
    while off + w <= page.len() {
        if page[off + w - 2] == SAMPLE_BYTE {
            selected.push(SampledChunk {
                offset: off as u32,
                hash: chunk_hash(&page[off..off + w]),
            });
            off += w; // non-overlapping selections
        } else {
            off += 1;
        }
    }
    bottom_k(&mut selected, cfg.cardinality);
    PageFingerprint { chunks: selected }
}

/// Fingerprints a batch of pages in one call, reusing the candidate
/// scratch buffer across pages so a dedup scan amortizes per-page
/// setup. Result order matches input order; [`page_fingerprint`] is
/// the one-page batch.
pub fn pages_fingerprints(pages: &[&[u8]], cfg: &FingerprintConfig) -> Vec<PageFingerprint> {
    let mut out = Vec::with_capacity(pages.len());
    let mut selected: Vec<SampledChunk> = Vec::with_capacity(cfg.cardinality * 4);
    for &page in pages {
        if page.len() < cfg.chunk_size || cfg.chunk_size < 2 || cfg.cardinality == 0 {
            out.push(PageFingerprint::default());
            continue;
        }
        selected.clear();
        scan_candidates(page, cfg, &mut selected);
        bottom_k(&mut selected, cfg.cardinality);
        let fp = PageFingerprint {
            chunks: selected.clone(),
        };
        debug_assert_eq!(
            fp,
            page_fingerprint_scalar(page, cfg),
            "batch scan must match the scalar reference"
        );
        out.push(fp);
    }
    out
}

/// Bottom-k by hash: content-defined survivor selection. Equal hashes
/// are deduplicated *before* truncating to `cardinality`, so a page
/// with repeated content still yields up to `cardinality` distinct
/// hashes when enough distinct candidates exist (the pre-PR-8 code
/// truncated first, silently shrinking such fingerprints).
fn bottom_k(selected: &mut Vec<SampledChunk>, cardinality: usize) {
    selected.sort_unstable_by_key(|c| (c.hash, c.offset));
    selected.dedup_by_key(|c| c.hash);
    selected.truncate(cardinality);
}

const LANE_MSB: u64 = 0x8080_8080_8080_8080;
const LANE_LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Broadcasts one byte into all eight lanes of a `u64`.
#[inline]
fn bcast(b: u8) -> u64 {
    (b as u64) * 0x0101_0101_0101_0101
}

/// Returns `0x80` in every byte lane of `word` whose byte equals the
/// matching lane of `want` (pre-broadcast). Uses the exact per-lane zero
/// test `!(((v & 0x7F..) + 0x7F..) | v) & 0x80..` — unlike the cheaper
/// `(v - 0x01..) & !v & 0x80..` idiom, it has no cross-lane borrow false
/// positives.
#[inline]
fn match_lanes(word: u64, want: u64) -> u64 {
    let v = word ^ want;
    !(((v & LANE_LOW7) + LANE_LOW7) | v) & LANE_MSB
}

#[inline]
fn load_u64(page: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(page[i..i + 8].try_into().expect("8 bytes"))
}

/// The wide candidate scan behind [`page_fingerprint`]: walks the page
/// in 32-byte strides, testing all 32 window-tail positions at once
/// with SWAR lane matches against `SAMPLE_BYTE`, and only touches
/// per-position code for strides that contain a match. Candidate
/// positions come out in ascending order, so the paper's greedy
/// skip-`chunk_size`-after-a-hit rule is replayed exactly by the
/// `next_allowed` cursor; SHA-1 runs only for selected chunks.
///
/// Callers guarantee `page.len() >= cfg.chunk_size >= 2`.
fn scan_candidates(page: &[u8], cfg: &FingerprintConfig, selected: &mut Vec<SampledChunk>) {
    let w = cfg.chunk_size;
    let n = page.len();
    // `i` indexes the sampled byte, the window's second-to-last; the
    // window itself is `off..=i + 1` with `off = i - (w - 2)`.
    let min_i = w - 2;
    let want = bcast(SAMPLE_BYTE);
    let mut next_allowed = 0usize;
    let mut s = 0usize;
    while s + 32 <= n {
        let l0 = match_lanes(load_u64(page, s), want);
        let l1 = match_lanes(load_u64(page, s + 8), want);
        let l2 = match_lanes(load_u64(page, s + 16), want);
        let l3 = match_lanes(load_u64(page, s + 24), want);
        if l0 | l1 | l2 | l3 != 0 {
            for (word_idx, lanes) in [l0, l1, l2, l3].into_iter().enumerate() {
                let mut m = lanes;
                while m != 0 {
                    let lane = (m.trailing_zeros() >> 3) as usize;
                    m &= m - 1;
                    let i = s + word_idx * 8 + lane;
                    // The window must start and end inside the page.
                    if i < min_i || i + 1 >= n {
                        continue;
                    }
                    let off = i - min_i;
                    if off < next_allowed {
                        continue;
                    }
                    selected.push(SampledChunk {
                        offset: off as u32,
                        hash: chunk_hash(&page[off..off + w]),
                    });
                    next_allowed = off + w;
                }
            }
        }
        s += 32;
    }
    // Scalar tail: the last few positions that don't fill a stride.
    let mut i = s;
    while i + 2 <= n {
        if page[i] == SAMPLE_BYTE && i >= min_i {
            let off = i - min_i;
            if off >= next_allowed {
                selected.push(SampledChunk {
                    offset: off as u32,
                    hash: chunk_hash(&page[off..off + w]),
                });
                next_allowed = off + w;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with_markers(len: usize, marker_offsets: &[usize]) -> Vec<u8> {
        // Position-dependent filler (so planted chunks differ in content)
        // that can never match accidentally: the rule requires the byte
        // SAMPLE_BYTE (0x5A = 90), and values mod 89 never reach 90.
        let mut p = vec![0u8; len];
        for (i, b) in p.iter_mut().enumerate() {
            *b = ((i * 131) % 89) as u8;
        }
        for &off in marker_offsets {
            // Plant the pattern at the *end* of the chunk starting at off.
            p[off + 62] = SAMPLE_BYTE;
            p[off + 63] = 0x00;
        }
        p
    }

    #[test]
    fn selects_planted_chunks() {
        let cfg = FingerprintConfig::default();
        let page = page_with_markers(4096, &[100, 900, 2000]);
        let fp = page_fingerprint(&page, &cfg);
        let mut offsets: Vec<u32> = fp.chunks().iter().map(|c| c.offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![100, 900, 2000]);
    }

    #[test]
    fn respects_cardinality() {
        let cfg = FingerprintConfig {
            cardinality: 2,
            ..Default::default()
        };
        let page = page_with_markers(4096, &[0, 200, 400, 600, 800, 1000]);
        let fp = page_fingerprint(&page, &cfg);
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn identical_pages_identical_fingerprints() {
        let cfg = FingerprintConfig::default();
        let mut rng = 1234567u64;
        let mut page = vec![0u8; 4096];
        for b in &mut page {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (rng >> 56) as u8;
        }
        let a = page_fingerprint(&page, &cfg);
        let b = page_fingerprint(&page, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.overlap(&b), a.len());
    }

    #[test]
    fn similar_pages_share_most_chunks() {
        let cfg = FingerprintConfig::default();
        let mut rng = 42u64;
        let mut page = vec![0u8; 4096];
        for b in &mut page {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (rng >> 56) as u8;
        }
        let a = page_fingerprint(&page, &cfg);
        // Flip a handful of bytes in one corner of the page.
        let mut page2 = page.clone();
        for b in &mut page2[3000..3010] {
            *b ^= 0xFF;
        }
        let b = page_fingerprint(&page2, &cfg);
        assert!(
            a.overlap(&b) >= a.len().saturating_sub(1).max(1),
            "overlap {} of {}",
            a.overlap(&b),
            a.len()
        );
    }

    #[test]
    fn random_pages_rarely_collide() {
        let cfg = FingerprintConfig::default();
        let mut rng = 7u64;
        let mut gen_page = || {
            let mut page = vec![0u8; 4096];
            for b in &mut page {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (rng >> 56) as u8;
            }
            page
        };
        let a = page_fingerprint(&gen_page(), &cfg);
        let b = page_fingerprint(&gen_page(), &cfg);
        assert_eq!(a.overlap(&b), 0);
    }

    #[test]
    fn degenerate_inputs() {
        let cfg = FingerprintConfig::default();
        assert!(page_fingerprint(&[], &cfg).is_empty());
        assert!(page_fingerprint(&[0u8; 10], &cfg).is_empty());
        let zero_card = FingerprintConfig {
            cardinality: 0,
            ..Default::default()
        };
        assert!(page_fingerprint(&[0u8; 4096], &zero_card).is_empty());
    }

    #[test]
    fn uniform_page_yields_single_chunk() {
        // An all-0x5A page matches everywhere, but selections do not
        // overlap and identical chunks dedup to one hash.
        let cfg = FingerprintConfig::default();
        let page = vec![0x5Au8; 4096];
        let fp = page_fingerprint(&page, &cfg);
        assert_eq!(fp.len(), 1, "identical chunks must dedup");
    }

    /// Regression test for the PR 8 bottom-k bug: truncating to
    /// `cardinality` *before* deduplicating equal hashes shrank the
    /// fingerprint of repeated-content pages below `cardinality` even
    /// when enough distinct candidates existed.
    #[test]
    fn duplicate_chunks_do_not_crowd_out_distinct_candidates() {
        let cfg = FingerprintConfig::default(); // cardinality 5
                                                // 6 copies of one chunk plus 5 distinct chunks, spaced so every
                                                // planted chunk becomes a candidate. Chunk bytes stay below 89
                                                // (never 0x5A) except the planted marker, so no stray matches.
        let chunk_at = |seed: u8| {
            let mut c = [0u8; 64];
            for (j, b) in c.iter_mut().enumerate() {
                *b = ((j * 7 + seed as usize * 13) % 89) as u8;
            }
            c[62] = 0x5A;
            c[63] = 0x00;
            c
        };
        // Search a salt for the duplicated chunk so its hash is the
        // smallest of the six hashes in play: then the pre-fix code
        // (sort, truncate to 5, dedup) kept five copies of the
        // duplicate and collapsed the fingerprint to a single hash.
        let distinct_hashes: Vec<ChunkHash> = (1..=5).map(|s| chunk_hash(&chunk_at(s))).collect();
        let salt = (6..=255u8)
            .find(|&s| {
                let h = chunk_hash(&chunk_at(s));
                distinct_hashes.iter().all(|&d| h < d)
            })
            .expect("some salt must give the duplicate the smallest hash");
        let dup_hash = chunk_hash(&chunk_at(salt));

        let mut page = page_with_markers(4096, &[]);
        for (k, off) in (0..11).map(|k| (k, k * 128)) {
            let seed = if k < 6 { salt } else { (k - 5) as u8 };
            page[off..off + 64].copy_from_slice(&chunk_at(seed));
        }
        let fp = page_fingerprint(&page, &cfg);
        assert_eq!(fp.len(), 5, "distinct candidates must fill cardinality");
        let hashes: Vec<ChunkHash> = fp.chunks().iter().map(|c| c.hash).collect();
        let mut dedup = hashes.clone();
        dedup.dedup();
        assert_eq!(hashes, dedup, "fingerprint hashes must be distinct");
        assert!(hashes.contains(&dup_hash), "smallest hash must survive");
    }

    #[test]
    fn wide_scan_matches_scalar_reference() {
        // Random pages across lengths (including non-multiples of the
        // 32-byte stride) and chunk sizes. Release builds skip the debug
        // assertion inside page_fingerprint, so this comparison is
        // load-bearing there.
        let mut rng = 0xF00Du64;
        let mut fill = |len: usize| {
            let mut p = vec![0u8; len];
            for b in &mut p {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (rng >> 56) as u8;
            }
            p
        };
        for len in [64, 65, 95, 96, 97, 1000, 4096, 4097] {
            for chunk_size in [2, 3, 32, 64] {
                let cfg = FingerprintConfig {
                    chunk_size,
                    cardinality: 5,
                };
                let page = fill(len);
                assert_eq!(
                    page_fingerprint(&page, &cfg),
                    page_fingerprint_scalar(&page, &cfg),
                    "len {len} chunk {chunk_size}"
                );
                // Dense matches, the page's last byte among them (a
                // window there would end past the page): low-entropy
                // pages exercise the greedy skip and the bounds.
                let mut page = fill(len);
                for b in page.iter_mut().step_by(3) {
                    *b = SAMPLE_BYTE;
                }
                page[len - 1] = SAMPLE_BYTE;
                assert_eq!(
                    page_fingerprint(&page, &cfg),
                    page_fingerprint_scalar(&page, &cfg),
                    "dense, len {len} chunk {chunk_size}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_singles() {
        let cfg = FingerprintConfig::default();
        let mut rng = 0xBA7Cu64;
        let mut pages: Vec<Vec<u8>> = Vec::new();
        for len in [0usize, 10, 64, 4096, 4096, 2048] {
            let mut p = vec![0u8; len];
            for b in &mut p {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (rng >> 56) as u8;
            }
            pages.push(p);
        }
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let batch = pages_fingerprints(&refs, &cfg);
        assert_eq!(batch.len(), pages.len());
        for (page, fp) in pages.iter().zip(&batch) {
            assert_eq!(*fp, page_fingerprint(page, &cfg));
        }
    }

    #[test]
    fn selectivity_math() {
        // One sampled byte: on random bytes about one window in 256 is a
        // candidate (2-byte windows, so a hit only skips the next one).
        let mut rng = 0x5E1Eu64;
        let mut page = vec![0u8; 1 << 18];
        for b in &mut page {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (rng >> 56) as u8;
        }
        let cfg = FingerprintConfig {
            chunk_size: 2,
            cardinality: 5,
        };
        let mut candidates = Vec::new();
        scan_candidates(&page, &cfg, &mut candidates);
        let expected = page.len() / 256;
        assert!(
            candidates.len().abs_diff(expected) < expected / 8,
            "{} candidates, expected about {expected}",
            candidates.len()
        );
    }
}
