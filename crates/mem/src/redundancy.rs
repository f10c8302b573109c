//! The §2.1 redundancy measurement methodology.
//!
//! To compute the redundancy of sandbox B with respect to sandbox A:
//! sample a chunk of `K` bytes at fixed offsets of `2K`, insert the
//! SHA-1 hashes of A's chunks into a table, probe with B's chunks,
//! byte-verify every hash match, then extend each verified match over
//! the non-hashed neighbouring bytes up to a maximum of `2K`. The
//! redundancy of B w.r.t. A is the fraction of B's bytes covered by
//! verified matches.
//!
//! We additionally keep a per-page coverage bitmap on B so overlapping
//! extensions are never double-counted (the fraction is exact and can
//! never exceed 1.0).

use crate::image::MemoryImage;
use medes_hash::chunk::{extend_match, fixed_offset_chunks};
use medes_hash::chunk_hash;
use std::collections::HashMap;

/// Cap on stored locations per chunk hash: low-entropy chunks (zeros)
/// would otherwise accumulate unbounded candidate lists. One verified
/// location is enough to credit a match.
const MAX_LOCS_PER_HASH: usize = 4;

/// Result of a redundancy measurement.
#[derive(Debug, Clone, Copy)]
pub struct RedundancyReport {
    /// Chunk size `K` used for identification.
    pub chunk_size: usize,
    /// Total bytes in the probed image (B).
    pub total_bytes: usize,
    /// Bytes of B covered by verified duplicate chunks (extended).
    pub duplicate_bytes: usize,
}

impl RedundancyReport {
    /// Duplicate fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.duplicate_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Measures the redundancy of `b` with respect to `a` at chunk size `k`.
pub fn redundancy(a: &MemoryImage, b: &MemoryImage, k: usize) -> RedundancyReport {
    assert!(k > 0, "chunk size must be positive");
    // Index A's chunks.
    let mut table: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    for (page_idx, page) in a.pages() {
        for (off, chunk) in fixed_offset_chunks(page, k) {
            let locs = table.entry(chunk_hash(chunk)).or_default();
            if locs.len() < MAX_LOCS_PER_HASH {
                locs.push((page_idx as u32, off as u32));
            }
        }
    }

    // Probe with B's chunks; extend verified matches; count coverage.
    let mut duplicate_bytes = 0usize;
    let mut covered = vec![false; crate::page::PAGE_SIZE];
    for (_, b_page) in b.pages() {
        covered.fill(false);
        for (b_off, chunk) in fixed_offset_chunks(b_page, k) {
            let Some(locs) = table.get(&chunk_hash(chunk)) else {
                continue;
            };
            // Try every stored copy and credit the best extension: a
            // common chunk (e.g. zeros) has several copies, and only the
            // one whose *neighbourhood* also matches extends to 2K.
            let mut best: Option<(usize, usize)> = None;
            for &(a_page_idx, a_off) in locs {
                let a_page = a.page(a_page_idx as usize);
                let a_off = a_off as usize;
                if &a_page[a_off..a_off + k] != chunk {
                    continue; // hash collision
                }
                let matched = extend_match(a_page, b_page, a_off, b_off, k, 2 * k);
                let span = locate_extension(a_page, b_page, a_off, b_off, k, matched);
                if best.is_none_or(|(_, len)| span.1 > len) {
                    best = Some(span);
                }
                if matched == 2 * k {
                    break; // cannot do better
                }
            }
            if let Some((start, len)) = best {
                for c in &mut covered[start..start + len] {
                    *c = true;
                }
            }
        }
        duplicate_bytes += covered.iter().filter(|&&c| c).count();
    }

    RedundancyReport {
        chunk_size: k,
        total_bytes: b.total_bytes(),
        duplicate_bytes,
    }
}

/// Recomputes the extension span on B exactly as [`extend_match`] did:
/// grow right to the cap, then left.
fn locate_extension(
    a: &[u8],
    b: &[u8],
    a_off: usize,
    b_off: usize,
    k: usize,
    total: usize,
) -> (usize, usize) {
    let mut right = 0usize;
    while k + right < total
        && a_off + k + right < a.len()
        && b_off + k + right < b.len()
        && a[a_off + k + right] == b[b_off + k + right]
    {
        right += 1;
    }
    let left = total - k - right;
    (b_off - left, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::spec::FunctionSpec;

    /// Pairwise redundancy matrix: `matrix[i][j]` is the redundancy of
    /// `images[i]` w.r.t. `images[j]` (the layout of Fig 1c).
    fn redundancy_matrix(images: &[MemoryImage], k: usize) -> Vec<Vec<f64>> {
        let row = |b| {
            images
                .iter()
                .map(|a| redundancy(a, b, k).fraction())
                .collect()
        };
        images.iter().map(row).collect()
    }

    fn image(name: &str, instance: u64) -> MemoryImage {
        // Heap-dominant spec so cross-function comparisons are not
        // trivially dominated by the shared runtime mapping.
        ImageBuilder::new(FunctionSpec::new(name, 24 << 20, &["json"]))
            .with_scale(16)
            .build(instance)
    }

    #[test]
    fn identical_images_fully_redundant() {
        let a = image("F", 1);
        let r = redundancy(&a, &a, 64);
        assert!(r.fraction() > 0.97, "self redundancy {}", r.fraction());
        assert!(r.fraction() <= 1.0);
    }

    #[test]
    fn same_function_highly_redundant() {
        let a = image("F", 1);
        let b = image("F", 2);
        let r = redundancy(&a, &b, 64);
        assert!(
            r.fraction() > 0.75,
            "same-function redundancy {}",
            r.fraction()
        );
    }

    #[test]
    fn redundancy_decreases_with_chunk_size() {
        let a = image("F", 1);
        let b = image("F", 2);
        let r64 = redundancy(&a, &b, 64).fraction();
        let r1024 = redundancy(&a, &b, 1024).fraction();
        assert!(
            r64 > r1024,
            "64B ({r64}) should beat 1024B ({r1024}) per Fig 1a"
        );
    }

    #[test]
    fn unrelated_streams_have_pattern_level_redundancy() {
        // Different functions share the runtime and the pattern pool but
        // not heap streams: redundancy is high but below same-function.
        let a = image("F", 1);
        let b = image("G", 1);
        let same = redundancy(&a, &image("F", 2), 64).fraction();
        let cross = redundancy(&a, &b, 64).fraction();
        assert!(cross > 0.5, "cross-function redundancy {cross}");
        assert!(cross <= same + 0.02, "cross {cross} vs same {same}");
    }

    #[test]
    fn report_fraction_handles_empty() {
        let r = RedundancyReport {
            chunk_size: 64,
            total_bytes: 0,
            duplicate_bytes: 0,
        };
        assert_eq!(r.fraction(), 0.0);
    }

    #[test]
    fn matrix_shape_and_diagonal() {
        let imgs = vec![image("F", 1), image("G", 1)];
        let m = redundancy_matrix(&imgs, 64);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert!(m[0][0] > 0.97);
        assert!(m[1][1] > 0.97);
    }
}
