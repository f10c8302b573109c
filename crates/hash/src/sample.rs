//! Value-sampled page fingerprints (paper §4.1.2).
//!
//! For every 4 KiB page under consideration, the dedup agent conducts a
//! single linear scan with a rolling 64 B window and selects a chunk as a
//! fingerprint candidate when its **last two bytes match a fixed
//! pattern**. The unordered set of (at most) `cardinality` selected chunk
//! hashes is the page's fingerprint. Sampling *by value* (rather than by
//! position) makes the fingerprint robust to insertions/shifts in the
//! page — the property that lets Medes match similar-but-not-identical
//! pages, unlike Difference Engine's random-offset fingerprints.
//!
//! When more than `cardinality` positions match, we keep the chunks with
//! the numerically smallest *distinct* hashes (equal hashes collapse
//! before the top-k cut, so repeated content cannot shrink the
//! fingerprint below `cardinality` while distinct candidates remain).
//! This "bottom-k" rule is content-defined (independent of position), so
//! two similar pages select the same surviving chunks with high
//! probability.

use crate::{chunk_hash, ChunkHash};

/// The value-sampling pattern: a chunk is selected when
/// `last_two_bytes & mask == pattern`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePattern {
    /// Bits of the trailing 16-bit word that participate in the match.
    pub mask: u16,
    /// Required value of the masked bits.
    pub pattern: u16,
}

impl SamplePattern {
    /// The default pattern: 8 low bits must equal `0x5A`, i.e. an
    /// expected one match per 256 window positions (≈ 15 candidates per
    /// 4 KiB page — comfortably above the default cardinality of 5).
    pub const DEFAULT: SamplePattern = SamplePattern {
        mask: 0x00FF,
        pattern: 0x005A,
    };

    /// Whether the 2-byte value matches.
    #[inline]
    pub fn matches(&self, last_two: u16) -> bool {
        last_two & self.mask == self.pattern
    }

    /// Expected fraction of window positions selected.
    pub fn selectivity(&self) -> f64 {
        1.0 / (1u32 << self.mask.count_ones()) as f64
    }
}

impl Default for SamplePattern {
    fn default() -> Self {
        SamplePattern::DEFAULT
    }
}

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

    /// Number of chunk hashes shared with another fingerprint — the
    /// similarity estimate used for base-page election.
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
    /// The value-sampling pattern.
    pub pattern: SamplePattern,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig {
            chunk_size: 64,
            cardinality: 5,
            pattern: SamplePattern::DEFAULT,
        }
    }
}

/// Extracts the value-sampled fingerprint of `page`.
///
/// Single linear scan; the only per-position work is a two-byte load and
/// masked compare, exactly as the paper describes ("computationally
/// lightweight... a single linear scan and a lightweight equality check
/// over two bytes"). SHA-1 is computed only for the selected chunks.
/// Selected chunks never overlap (the scan skips `chunk_size` after a
/// hit) so a single repeated byte run cannot dominate the fingerprint.
///
/// The scan itself runs 32 bytes per step (SWAR over `u64` lanes, see
/// `scan_candidates`); debug builds cross-check every result against
/// the byte-at-a-time [`page_fingerprint_scalar`] reference.
pub fn page_fingerprint(page: &[u8], cfg: &FingerprintConfig) -> PageFingerprint {
    if page.len() < cfg.chunk_size || cfg.chunk_size < 2 || cfg.cardinality == 0 {
        return PageFingerprint::default();
    }
    let mut selected: Vec<SampledChunk> = Vec::with_capacity(cfg.cardinality * 4);
    scan_candidates(page, cfg, &mut selected);
    bottom_k(&mut selected, cfg.cardinality);
    let fp = PageFingerprint { chunks: selected };
    debug_assert_eq!(
        fp,
        page_fingerprint_scalar(page, cfg),
        "wide scan must match the scalar reference"
    );
    fp
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
        let last_two = u16::from_le_bytes([page[off + w - 2], page[off + w - 1]]);
        if cfg.pattern.matches(last_two) {
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
/// scratch buffer across pages so pipeline workers (PR 4) amortize
/// per-page setup. Result order matches input order; each element is
/// exactly `page_fingerprint(pages[i], cfg)`.
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

/// Returns `0x80` in every byte lane of `word` whose byte satisfies
/// `(byte & mask) == want` (`mask`/`want` pre-broadcast). Uses the
/// exact per-lane zero test `!(((v & 0x7F..) + 0x7F..) | v) & 0x80..`
/// — unlike the cheaper `(v - 0x01..) & !v & 0x80..` idiom, it has no
/// cross-lane borrow false positives.
#[inline]
fn match_lanes(word: u64, mask: u64, want: u64) -> u64 {
    let v = (word & mask) ^ want;
    !(((v & LANE_LOW7) + LANE_LOW7) | v) & LANE_MSB
}

#[inline]
fn load_u64(page: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(page[i..i + 8].try_into().expect("8 bytes"))
}

/// The wide candidate scan behind [`page_fingerprint`]: walks the page
/// in 32-byte strides, testing all 32 window-tail positions at once
/// with SWAR lane matches (low tail byte against `word`, high tail
/// byte against the same word shifted by one), and only touches
/// per-position code for strides that contain a match. Candidate
/// positions come out in ascending order, so the paper's greedy
/// skip-`chunk_size`-after-a-hit rule is replayed exactly by the
/// `next_allowed` cursor; SHA-1 runs only for selected chunks.
///
/// Callers guarantee `page.len() >= cfg.chunk_size >= 2`.
fn scan_candidates(page: &[u8], cfg: &FingerprintConfig, selected: &mut Vec<SampledChunk>) {
    let w = cfg.chunk_size;
    let n = page.len();
    if cfg.pattern.pattern & !cfg.pattern.mask != 0 {
        return; // unsatisfiable pattern: no window can ever match
    }
    // `i` indexes the first of the window's two tail bytes; the window
    // itself starts at `off = i - (w - 2)`.
    let min_i = w - 2;
    let mlo = bcast((cfg.pattern.mask & 0xFF) as u8);
    let plo = bcast((cfg.pattern.pattern & 0xFF) as u8);
    let mhi = bcast((cfg.pattern.mask >> 8) as u8);
    let phi = bcast((cfg.pattern.pattern >> 8) as u8);
    let mut next_allowed = 0usize;
    let mut s = 0usize;
    // 32-byte strides: four lane words, plus one carry byte to build
    // the one-byte-shifted view of the last word.
    while s + 33 <= n {
        let w0 = load_u64(page, s);
        let w1 = load_u64(page, s + 8);
        let w2 = load_u64(page, s + 16);
        let w3 = load_u64(page, s + 24);
        let sh0 = (w0 >> 8) | (w1 << 56);
        let sh1 = (w1 >> 8) | (w2 << 56);
        let sh2 = (w2 >> 8) | (w3 << 56);
        let sh3 = (w3 >> 8) | ((page[s + 32] as u64) << 56);
        let l0 = match_lanes(w0, mlo, plo) & match_lanes(sh0, mhi, phi);
        let l1 = match_lanes(w1, mlo, plo) & match_lanes(sh1, mhi, phi);
        let l2 = match_lanes(w2, mlo, plo) & match_lanes(sh2, mhi, phi);
        let l3 = match_lanes(w3, mlo, plo) & match_lanes(sh3, mhi, phi);
        if l0 | l1 | l2 | l3 != 0 {
            for (word_idx, lanes) in [l0, l1, l2, l3].into_iter().enumerate() {
                let mut m = lanes;
                while m != 0 {
                    let lane = (m.trailing_zeros() >> 3) as usize;
                    m &= m - 1;
                    let i = s + word_idx * 8 + lane;
                    if i < min_i {
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
        let last_two = u16::from_le_bytes([page[i], page[i + 1]]);
        if cfg.pattern.matches(last_two) && i >= min_i {
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
        // that can never match DEFAULT accidentally: DEFAULT requires the
        // low byte 0x5A (= 90), and values mod 89 never reach 90.
        let mut p = vec![0u8; len];
        for (i, b) in p.iter_mut().enumerate() {
            *b = ((i * 131) % 89) as u8;
        }
        for &off in marker_offsets {
            // Plant the pattern at the *end* of the chunk starting at off.
            p[off + 62] = 0x5A;
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
        // 32-byte stride), chunk sizes, and patterns with high-byte
        // mask bits. Release builds skip the debug assertion inside
        // page_fingerprint, so this comparison is load-bearing there.
        let mut rng = 0xF00Du64;
        let mut fill = |len: usize| {
            let mut p = vec![0u8; len];
            for b in &mut p {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (rng >> 56) as u8;
            }
            p
        };
        let patterns = [
            SamplePattern::DEFAULT,
            SamplePattern {
                mask: 0x01FF,
                pattern: 0x015A,
            },
            SamplePattern {
                mask: 0xFFFF,
                pattern: 0x5A5A,
            },
            // Unsatisfiable: pattern bits outside the mask.
            SamplePattern {
                mask: 0x00FF,
                pattern: 0x015A,
            },
        ];
        for len in [64, 65, 95, 96, 97, 1000, 4096, 4097] {
            for chunk_size in [2, 3, 32, 64] {
                for pattern in patterns {
                    let cfg = FingerprintConfig {
                        chunk_size,
                        cardinality: 5,
                        pattern,
                    };
                    let page = fill(len);
                    assert_eq!(
                        page_fingerprint(&page, &cfg),
                        page_fingerprint_scalar(&page, &cfg),
                        "len {len} chunk {chunk_size} pattern {pattern:?}"
                    );
                }
            }
        }
        // Dense matches: low-entropy pages exercise the greedy skip.
        for len in [4096, 4100] {
            let mut page = fill(len);
            for b in page.iter_mut().step_by(3) {
                *b = 0x5A;
            }
            let cfg = FingerprintConfig::default();
            assert_eq!(
                page_fingerprint(&page, &cfg),
                page_fingerprint_scalar(&page, &cfg)
            );
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
        assert!((SamplePattern::DEFAULT.selectivity() - 1.0 / 256.0).abs() < 1e-12);
        let p = SamplePattern {
            mask: 0x01FF,
            pattern: 0,
        };
        assert!((p.selectivity() - 1.0 / 512.0).abs() < 1e-12);
    }
}
