//! The tile-based content model.
//!
//! Region content is assembled from fixed-size tiles (256 B by default).
//! Each tile is one of:
//!
//! * **Pattern** — drawn from a small universal pool of low-entropy
//!   patterns (zeros, fill bytes, strided machine words). Real memory
//!   dumps are dominated by such content, which is why the paper finds
//!   84–90 % redundancy even across unrelated functions (Fig 1c).
//! * **Shared** — high-entropy content deterministic in
//!   `(stream_seed, tile_index)`; identical for every sandbox that uses
//!   the same stream (same library, or same function for heap streams).
//! * **Unique** — high-entropy content salted with the instance seed;
//!   never deduplicable.
//!
//! Per-instance divergence is *clustered*: bursts of modified bytes with
//! geometric lengths. Clustered (rather than i.i.d.) noise reproduces
//! the measured redundancy-vs-chunk-size slope of Fig 1a: a 64 B chunk
//! rarely intersects a burst, a 1 KiB chunk often does.

use crate::region::RegionKind;
use medes_sim::DetRng;

/// Per-region entropy-mixture weights ("region hints", after the ETH
/// page-merging paper): what fraction of a region's tiles come from the
/// low-entropy pattern pool, the medium-entropy pool, and the
/// instance-unique high-entropy pool. The remainder is stream-shared
/// high-entropy content. `dispersed_noise` is a per-byte, per-instance
/// i.i.d. mutation probability layered over the whole region —
/// unlike the clustered bursts of [`ContentModel::apply_noise`], it is
/// visible to fingerprint sampling at every chunk size, which is what
/// un-flattens the fig 14/16 sensitivity sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionMix {
    /// Fraction of tiles from the low-entropy pattern pool.
    pub low_frac: f64,
    /// Fraction of tiles from the medium-entropy pool (stream-shared,
    /// ~4 bits/byte from a 16-symbol alphabet).
    pub medium_frac: f64,
    /// Fraction of instance-unique high-entropy tiles.
    pub unique_frac: f64,
    /// Per-byte per-instance dispersed mutation probability.
    pub dispersed_noise: f64,
}

impl RegionMix {
    /// True when the fractions are probabilities summing to ≤ 1.
    pub fn is_valid(&self) -> bool {
        let fr = [self.low_frac, self.medium_frac, self.unique_frac];
        fr.iter().all(|f| (0.0..=1.0).contains(f))
            && fr.iter().sum::<f64>() <= 1.0 + 1e-9
            && self.dispersed_noise >= 0.0
            && self.dispersed_noise < 1.0
    }
}

/// Configuration of the entropy-mixture content model. Default-off: with
/// `enabled == false` (and version 0) every byte produced by
/// [`ContentModel`] is identical to the legacy single-mixture model, so
/// existing experiments (fig7/fig9/chaos) replay byte-for-byte.
///
/// `version_mutation_frac` applies even when the mixture is disabled: a
/// rolling-deploy version epoch remaps that fraction of stream-shared
/// and medium tiles to fresh content, modelling a code/data update that
/// invalidates previously demarcated base pages.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentModelConfig {
    /// Master switch for the per-region mixture + dispersed noise.
    pub enabled: bool,
    /// Mixture for the runtime region (interpreter text/data; heavily
    /// dirtied in practice by refcount/GC writes).
    pub runtime: RegionMix,
    /// Mixture for shared-library regions.
    pub library: RegionMix,
    /// Mixture for file-backed mappings.
    pub filemap: RegionMix,
    /// Mixture for the heap.
    pub heap: RegionMix,
    /// Mixture for the stack.
    pub stack: RegionMix,
    /// Fraction of shared/medium tiles remapped per version epoch.
    pub version_mutation_frac: f64,
}

impl ContentModelConfig {
    /// The mixture switched off (legacy byte-identical model); version
    /// epochs still remap `version_mutation_frac` of shared tiles.
    pub fn disabled() -> Self {
        ContentModelConfig {
            enabled: false,
            ..Self::paper_calibrated()
        }
    }

    /// Region weights calibrated so that Table 3 per-function savings
    /// land inside the paper's 16–58 % band and the fig 14/16 sweeps
    /// regain their chunk-size / cardinality sensitivity (see
    /// `EXPERIMENTS.md`). Runtime pages carry the most dispersed noise
    /// (refcount dirtying), heap the most instance-unique content.
    pub fn paper_calibrated() -> Self {
        ContentModelConfig {
            enabled: true,
            runtime: RegionMix {
                low_frac: 0.40,
                medium_frac: 0.30,
                unique_frac: 0.0,
                dispersed_noise: 1.0 / 45.0,
            },
            library: RegionMix {
                low_frac: 0.42,
                medium_frac: 0.30,
                unique_frac: 0.0,
                dispersed_noise: 1.0 / 60.0,
            },
            filemap: RegionMix {
                low_frac: 0.45,
                medium_frac: 0.30,
                unique_frac: 0.0,
                dispersed_noise: 1.0 / 90.0,
            },
            heap: RegionMix {
                low_frac: 0.30,
                medium_frac: 0.30,
                unique_frac: 0.18,
                dispersed_noise: 1.0 / 150.0,
            },
            stack: RegionMix {
                low_frac: 0.32,
                medium_frac: 0.28,
                unique_frac: 0.15,
                dispersed_noise: 1.0 / 120.0,
            },
            version_mutation_frac: 0.35,
        }
    }

    /// The region weights for `kind`.
    pub fn mix_for(&self, kind: RegionKind) -> &RegionMix {
        match kind {
            RegionKind::Runtime => &self.runtime,
            RegionKind::Library => &self.library,
            RegionKind::FileMap => &self.filemap,
            RegionKind::Heap => &self.heap,
            RegionKind::Stack => &self.stack,
        }
    }

    /// True when every region mixture and the version fraction are
    /// valid probabilities.
    pub fn is_valid(&self) -> bool {
        [
            &self.runtime,
            &self.library,
            &self.filemap,
            &self.heap,
            &self.stack,
        ]
        .iter()
        .all(|m| m.is_valid())
            && (0.0..=1.0).contains(&self.version_mutation_frac)
    }
}

impl Default for ContentModelConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Tunable knobs of the synthetic content model. Defaults are calibrated
/// against the paper's Fig 1a/1c (see `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct ContentModel {
    /// Tile granularity in bytes.
    pub tile_size: usize,
    /// Number of distinct low-entropy patterns in the universal pool.
    pub pattern_pool: usize,
    /// Fraction of tiles drawn from the pattern pool.
    pub low_entropy_frac: f64,
    /// Fraction of tiles that are instance-unique.
    pub unique_frac: f64,
    /// Expected clustered-divergence bursts per byte (per instance).
    pub noise_rate: f64,
    /// Mean burst length in bytes (geometric).
    pub noise_len: usize,
    /// Probability that an 8-byte word of a *shared* tile is a pointer
    /// (whose value depends on the region base, and therefore on ASLR).
    pub ptr_per_word: f64,
    /// Heap layout jitter: per-*page* probability of inserting a page of
    /// instance-unique tiles (allocation-order divergence). Jitter is
    /// page-granular because large allocations are mmap-backed and
    /// page-aligned, so divergence shifts content by whole pages.
    pub heap_insert_prob: f64,
    /// Heap layout jitter: per-page probability of skipping one shared
    /// page of the stream.
    pub heap_skip_prob: f64,
    /// Entropy-mixture configuration (default-off; see
    /// [`ContentModelConfig`]).
    pub mixture: ContentModelConfig,
}

impl Default for ContentModel {
    fn default() -> Self {
        ContentModel {
            tile_size: 256,
            pattern_pool: 512,
            low_entropy_frac: 0.82,
            unique_frac: 0.03,
            noise_rate: 1.0 / 6000.0,
            noise_len: 192,
            ptr_per_word: 0.05,
            heap_insert_prob: 0.05,
            heap_skip_prob: 0.05,
            mixture: ContentModelConfig::disabled(),
        }
    }
}

/// What a tile slot contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKind {
    /// Universal low-entropy pattern `pid`.
    Pattern(u32),
    /// Stream-shared high-entropy content.
    Shared,
    /// Instance-unique content.
    Unique,
    /// Stream-shared medium-entropy content (~4 bits/byte), only
    /// produced when the entropy mixture is enabled.
    Medium,
}

const KIND_SALT: u64 = 0x7EA5_0001;
const SHARED_SALT: u64 = 0x7EA5_0002;
const UNIQUE_SALT: u64 = 0x7EA5_0003;
const PTR_SALT: u64 = 0x7EA5_0004;
const PATTERN_SALT: u64 = 0x7EA5_0005;
const MEDIUM_SALT: u64 = 0x7EA5_0006;
const VERSION_SALT: u64 = 0x7EA5_0007;
const DISPERSED_SALT: u64 = 0xD15E;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.rotate_left(23) ^ 0x9E3779B97F4A7C15u64.wrapping_mul(b.wrapping_add(1));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl ContentModel {
    /// Decides the kind of tile `idx` in stream `stream_seed`.
    pub fn tile_kind(&self, stream_seed: u64, idx: u64) -> TileKind {
        self.tile_kind_for(stream_seed, idx, true)
    }

    /// Like [`ContentModel::tile_kind`], but with unique tiles disabled
    /// for read-only file-backed regions (runtime, libraries, file
    /// mappings): their bytes are identical in every process that maps
    /// them, so instance-unique content would be unphysical there.
    pub fn tile_kind_for(&self, stream_seed: u64, idx: u64, allow_unique: bool) -> TileKind {
        let h = mix(mix(stream_seed, KIND_SALT), idx);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if allow_unique && u < self.unique_frac {
            TileKind::Unique
        } else if u < self.unique_frac + self.low_entropy_frac {
            // Skewed pattern choice: low pattern ids (zeros and common
            // fills) carry most of the probability mass, like real dumps.
            let v = mix(h, PATTERN_SALT);
            let uu = (v >> 11) as f64 / (1u64 << 53) as f64;
            let pid = ((uu * uu * uu) * self.pattern_pool as f64) as u32;
            TileKind::Pattern(pid.min(self.pattern_pool as u32 - 1))
        } else {
            TileKind::Shared
        }
    }

    /// Region-aware tile-kind decision. With the mixture disabled this
    /// is exactly [`ContentModel::tile_kind_for`] (byte-identical hash
    /// path); with it enabled, the per-region [`RegionMix`] weights pick
    /// between the low/medium/high-entropy pools.
    pub fn tile_kind_region(
        &self,
        stream_seed: u64,
        idx: u64,
        region: RegionKind,
        allow_unique: bool,
    ) -> TileKind {
        if !self.mixture.enabled {
            return self.tile_kind_for(stream_seed, idx, allow_unique);
        }
        let w = self.mixture.mix_for(region);
        let h = mix(mix(stream_seed, KIND_SALT), idx);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < w.unique_frac {
            TileKind::Unique
        } else if u < w.unique_frac + w.low_frac {
            let v = mix(h, PATTERN_SALT);
            let uu = (v >> 11) as f64 / (1u64 << 53) as f64;
            let pid = ((uu * uu * uu) * self.pattern_pool as f64) as u32;
            TileKind::Pattern(pid.min(self.pattern_pool as u32 - 1))
        } else if u < w.unique_frac + w.low_frac + w.medium_frac {
            TileKind::Medium
        } else {
            TileKind::Shared
        }
    }

    /// The salt a version epoch applies to shared/medium tile content:
    /// 0 when the tile is untouched by every epoch up to `version`
    /// (including always at version 0), otherwise a value derived from
    /// the last epoch that remapped it. Each epoch independently remaps
    /// `version_mutation_frac` of the stream's shared tiles.
    pub fn epoch_salt(&self, stream_seed: u64, idx: u64, version: u64) -> u64 {
        if version == 0 {
            return 0;
        }
        let f = self.mixture.version_mutation_frac;
        if f <= 0.0 {
            return 0;
        }
        let mut salt = 0u64;
        for e in 1..=version {
            let h = mix(mix(stream_seed, VERSION_SALT), mix(idx, e));
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < f {
                salt = mix(VERSION_SALT, e);
            }
        }
        salt
    }

    /// Materializes one tile into `out` (`out.len() == tile_size`).
    ///
    /// `region_base`/`region_len` parameterize pointer values planted in
    /// shared tiles; with ASLR, `region_base` differs per instance and
    /// the pointers' upper bytes diverge.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_tile(
        &self,
        out: &mut [u8],
        kind: TileKind,
        stream_seed: u64,
        idx: u64,
        instance_seed: u64,
        region_base: u64,
        region_len: u64,
    ) {
        self.fill_tile_v(
            out,
            kind,
            stream_seed,
            idx,
            instance_seed,
            region_base,
            region_len,
            0,
        );
    }

    /// Version-aware [`ContentModel::fill_tile`]: at `version > 0`,
    /// shared/medium tiles remapped by an epoch (see
    /// [`ContentModel::epoch_salt`]) get fresh content; pattern and
    /// unique tiles are version-invariant. `version == 0` is
    /// byte-identical to `fill_tile`.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_tile_v(
        &self,
        out: &mut [u8],
        kind: TileKind,
        stream_seed: u64,
        idx: u64,
        instance_seed: u64,
        region_base: u64,
        region_len: u64,
        version: u64,
    ) {
        debug_assert_eq!(out.len(), self.tile_size);
        match kind {
            TileKind::Pattern(pid) => self.fill_pattern(out, pid),
            TileKind::Shared => {
                let vsalt = self.epoch_salt(stream_seed, idx, version);
                let mut rng = DetRng::new(mix(mix(stream_seed, SHARED_SALT), idx) ^ vsalt);
                rng.fill_bytes(out);
                self.plant_pointers(out, stream_seed, idx, region_base, region_len);
            }
            TileKind::Unique => {
                let mut rng =
                    DetRng::new(mix(mix(stream_seed, UNIQUE_SALT), mix(instance_seed, idx)));
                rng.fill_bytes(out);
            }
            TileKind::Medium => {
                let vsalt = self.epoch_salt(stream_seed, idx, version);
                let mut rng = DetRng::new(mix(mix(stream_seed, MEDIUM_SALT), idx) ^ vsalt);
                // 16-symbol alphabet -> ~4 bits/byte of Shannon entropy:
                // compressible, but far from the pattern pool's motifs.
                let mut alphabet = [0u8; 16];
                rng.fill_bytes(&mut alphabet);
                for b in out.iter_mut() {
                    // What `below(16)` returns, without its rejection
                    // test: 16 divides 2^64, so no draw is rejected.
                    *b = alphabet[(rng.next_u64() >> 60) as usize];
                }
            }
        }
    }

    /// Writes the universal pattern `pid`: pattern 0 is all zeros (the
    /// overwhelmingly most common page content in real dumps); others
    /// repeat a short motif from a small byte alphabet.
    pub fn fill_pattern(&self, out: &mut [u8], pid: u32) {
        write_motif(out, &self.pattern_motif(pid));
    }

    /// The 16 bytes pattern `pid` repeats.
    pub fn pattern_motif(&self, pid: u32) -> [u8; 16] {
        let mut motif = [0u8; 16];
        if pid != 0 {
            let mut rng = DetRng::new(mix(pid as u64, PATTERN_SALT));
            // A 4-symbol alphabet -> low entropy.
            let alphabet = [0x00u8, 0xFF, rng.next_u8(), rng.next_u8()];
            for b in &mut motif {
                *b = alphabet[rng.below(4) as usize];
            }
        }
        motif
    }

    fn plant_pointers(
        &self,
        out: &mut [u8],
        stream_seed: u64,
        idx: u64,
        region_base: u64,
        region_len: u64,
    ) {
        if self.ptr_per_word <= 0.0 || region_len == 0 {
            return;
        }
        let mut rng = DetRng::new(mix(mix(stream_seed, PTR_SALT), idx));
        let words = out.len() / 8;
        for w in 0..words {
            if rng.chance(self.ptr_per_word) {
                let target = region_base + rng.below(region_len);
                out[w * 8..w * 8 + 8].copy_from_slice(&target.to_le_bytes());
            } else {
                // Burn the draw so slot positions stay aligned across
                // instances (the rng consumption must not depend on the
                // pointer value).
                let _ = rng.next_u64();
            }
        }
    }

    /// Overlays per-instance clustered divergence on a region buffer.
    pub fn apply_noise(&self, data: &mut [u8], region_seed: u64, instance_seed: u64) {
        if self.noise_rate <= 0.0 || data.is_empty() {
            return;
        }
        let mut rng = DetRng::new(mix(mix(region_seed, instance_seed), 0xD1CE));
        let mean_gap = 1.0 / self.noise_rate;
        let mut pos = rng.exponential(mean_gap) as usize;
        while pos < data.len() {
            let len = (rng.geometric(1.0 / self.noise_len as f64) + 1) as usize;
            let end = (pos + len).min(data.len());
            for b in &mut data[pos..end] {
                *b = rng.next_u8();
            }
            pos = end + rng.exponential(mean_gap) as usize + 1;
        }
    }

    /// Overlays per-instance *dispersed* (i.i.d. per-byte) divergence at
    /// `rate`, modelling working-set dirtying such as interpreter
    /// refcount writes. Unlike [`ContentModel::apply_noise`] the
    /// mutations are spread out, so every fingerprint chunk has an
    /// independent chance of being touched — that restores the
    /// chunk-size and cardinality sensitivity of fig 14/16. Only called
    /// when the mixture is enabled.
    pub fn apply_dispersed_noise(
        &self,
        data: &mut [u8],
        region_seed: u64,
        instance_seed: u64,
        rate: f64,
    ) {
        if rate <= 0.0 || data.is_empty() {
            return;
        }
        let mut rng = DetRng::new(mix(mix(region_seed, instance_seed), DISPERSED_SALT));
        let mean_gap = 1.0 / rate;
        let mut pos = rng.exponential(mean_gap) as usize;
        while pos < data.len() {
            data[pos] = rng.next_u8();
            pos += rng.exponential(mean_gap) as usize + 1;
        }
    }
}

/// Repeats `motif` over `out`, starting at its first byte.
pub(crate) fn write_motif(out: &mut [u8], motif: &[u8; 16]) {
    let mut chunks = out.chunks_exact_mut(16);
    for chunk in &mut chunks {
        chunk.copy_from_slice(motif);
    }
    let rem = chunks.into_remainder();
    rem.copy_from_slice(&motif[..rem.len()]);
}

/// Exposes the internal mixer for modules that need consistent derived
/// seeds (image builder, ASLR).
pub(crate) fn mix_seed(a: u64, b: u64) -> u64 {
    mix(a, b)
}

/// The pre-tuning tile fills, kept as the oracle the tuned `Medium` and
/// pattern fills (and the image builder's template) are compared with.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// `fill_tile_v` with the `below(16)` and `motif[i % 16]` loops.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_tile_v(
        m: &ContentModel,
        out: &mut [u8],
        kind: TileKind,
        stream_seed: u64,
        idx: u64,
        instance_seed: u64,
        region_base: u64,
        region_len: u64,
        version: u64,
    ) {
        match kind {
            TileKind::Pattern(0) => out.fill(0),
            TileKind::Pattern(pid) => {
                let mut rng = DetRng::new(mix(pid as u64, PATTERN_SALT));
                let alphabet = [0x00u8, 0xFF, rng.next_u8(), rng.next_u8()];
                let mut motif = [0u8; 16];
                for b in &mut motif {
                    *b = alphabet[rng.below(4) as usize];
                }
                for (i, b) in out.iter_mut().enumerate() {
                    *b = motif[i % 16];
                }
            }
            TileKind::Medium => {
                let vsalt = m.epoch_salt(stream_seed, idx, version);
                let mut rng = DetRng::new(mix(mix(stream_seed, MEDIUM_SALT), idx) ^ vsalt);
                let mut alphabet = [0u8; 16];
                rng.fill_bytes(&mut alphabet);
                for b in out.iter_mut() {
                    *b = alphabet[rng.below(16) as usize];
                }
            }
            TileKind::Shared | TileKind::Unique => m.fill_tile_v(
                out,
                kind,
                stream_seed,
                idx,
                instance_seed,
                region_base,
                region_len,
                version,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ContentModel {
        ContentModel::default()
    }

    #[test]
    fn tuned_medium_and_pattern_fills_match_the_reference_loops() {
        // 250 is not a multiple of 16: the motif's tail chunk is partial.
        for tile_size in [256usize, 250, 4096] {
            let m = ContentModel {
                tile_size,
                ..mixture_model()
            };
            let mut tuned = vec![0xAAu8; tile_size];
            let mut oracle = vec![0x55u8; tile_size];
            let kinds = (0..m.pattern_pool as u32)
                .map(TileKind::Pattern)
                .chain(std::iter::repeat_n(TileKind::Medium, 300));
            for (idx, kind) in kinds.enumerate() {
                let (idx, version) = (idx as u64, idx as u64 % 3);
                m.fill_tile_v(&mut tuned, kind, 77, idx, 5, 0x5000, 1 << 20, version);
                reference::fill_tile_v(&m, &mut oracle, kind, 77, idx, 5, 0x5000, 1 << 20, version);
                assert_eq!(tuned, oracle, "{kind:?} tile {idx} at size {tile_size}");
            }
        }
    }

    #[test]
    fn tile_kind_is_deterministic() {
        let m = model();
        for idx in 0..100 {
            assert_eq!(m.tile_kind(42, idx), m.tile_kind(42, idx));
        }
    }

    #[test]
    fn tile_kind_fractions_roughly_match() {
        let m = model();
        let n = 50_000u64;
        let mut pattern = 0;
        let mut unique = 0;
        for idx in 0..n {
            match m.tile_kind(7, idx) {
                TileKind::Pattern(_) => pattern += 1,
                TileKind::Unique => unique += 1,
                TileKind::Shared | TileKind::Medium => {}
            }
        }
        let pf = pattern as f64 / n as f64;
        let uf = unique as f64 / n as f64;
        assert!((pf - m.low_entropy_frac).abs() < 0.02, "pattern frac {pf}");
        assert!((uf - m.unique_frac).abs() < 0.01, "unique frac {uf}");
    }

    #[test]
    fn shared_tiles_identical_across_instances() {
        let m = model();
        let mut a = vec![0u8; m.tile_size];
        let mut b = vec![0u8; m.tile_size];
        m.fill_tile(&mut a, TileKind::Shared, 11, 5, 111, 0x5000, 1 << 20);
        m.fill_tile(&mut b, TileKind::Shared, 11, 5, 222, 0x5000, 1 << 20);
        assert_eq!(a, b, "shared tiles must not depend on the instance");
    }

    #[test]
    fn shared_tiles_depend_on_region_base() {
        // With a different base (ASLR), planted pointers change bytes.
        let m = ContentModel {
            ptr_per_word: 0.5,
            ..model()
        };
        let mut a = vec![0u8; m.tile_size];
        let mut b = vec![0u8; m.tile_size];
        m.fill_tile(&mut a, TileKind::Shared, 11, 5, 0, 0x5000_0000, 1 << 20);
        m.fill_tile(&mut b, TileKind::Shared, 11, 5, 0, 0x7000_0000, 1 << 20);
        assert_ne!(a, b);
        // But non-pointer bytes stay identical.
        let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(diff < m.tile_size / 2, "only pointer words should differ");
    }

    #[test]
    fn unique_tiles_differ_across_instances() {
        let m = model();
        let mut a = vec![0u8; m.tile_size];
        let mut b = vec![0u8; m.tile_size];
        m.fill_tile(&mut a, TileKind::Unique, 11, 5, 111, 0, 0);
        m.fill_tile(&mut b, TileKind::Unique, 11, 5, 222, 0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn pattern_zero_is_zeros_and_patterns_are_low_entropy() {
        let m = model();
        let mut t = vec![0xAAu8; m.tile_size];
        m.fill_pattern(&mut t, 0);
        assert!(t.iter().all(|&b| b == 0));
        m.fill_pattern(&mut t, 17);
        // Motif repeats every 16 bytes.
        for i in 16..t.len() {
            assert_eq!(t[i], t[i - 16]);
        }
    }

    #[test]
    fn noise_is_clustered_and_deterministic() {
        let m = model();
        let mut a = vec![0u8; 1 << 20];
        let mut b = vec![0u8; 1 << 20];
        m.apply_noise(&mut a, 1, 2);
        m.apply_noise(&mut b, 1, 2);
        assert_eq!(a, b);
        let dirty = a.iter().filter(|&&x| x != 0).count();
        // Expected dirty bytes ~ len * burst_len/(gap+burst) ≈ 1MiB * 192/6192 ≈ 32KB.
        // (Some burst bytes randomly equal zero, so accept a wide band.)
        assert!(
            (15_000..70_000).contains(&dirty),
            "dirty byte count {dirty}"
        );
        let mut c = vec![0u8; 1 << 20];
        m.apply_noise(&mut c, 1, 3);
        assert_ne!(a, c, "different instances get different noise");
    }

    fn mixture_model() -> ContentModel {
        ContentModel {
            mixture: ContentModelConfig::paper_calibrated(),
            ..model()
        }
    }

    /// Shannon entropy of a byte slice, in bits per byte.
    fn shannon_bits(data: &[u8]) -> f64 {
        let mut counts = [0u64; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let n = data.len() as f64;
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    #[test]
    fn mixture_disabled_is_byte_identical_to_legacy() {
        let legacy = model();
        let off = ContentModel {
            mixture: ContentModelConfig::disabled(),
            ..model()
        };
        let mut a = vec![0u8; legacy.tile_size];
        let mut b = vec![0u8; legacy.tile_size];
        for idx in 0..200 {
            let ka = legacy.tile_kind_for(42, idx, true);
            let kb = off.tile_kind_region(42, idx, RegionKind::Heap, true);
            assert_eq!(ka, kb, "tile {idx}");
            legacy.fill_tile(&mut a, ka, 42, idx, 7, 0x5000, 1 << 20);
            off.fill_tile_v(&mut b, kb, 42, idx, 7, 0x5000, 1 << 20, 0);
            assert_eq!(a, b, "tile {idx}");
        }
    }

    #[test]
    fn mixture_entropy_buckets_match_region_weights() {
        let m = mixture_model();
        let w = *m.mixture.mix_for(RegionKind::Heap);
        let n = 20_000u64;
        let mut buf = vec![0u8; m.tile_size];
        let (mut low, mut medium, mut high) = (0u64, 0u64, 0u64);
        for idx in 0..n {
            let kind = m.tile_kind_region(99, idx, RegionKind::Heap, true);
            m.fill_tile_v(&mut buf, kind, 99, idx, 1234, 0x5000, 1 << 20, 0);
            // Bucket by *measured* entropy, not by the kind label: the
            // pools must be separable in the produced bytes themselves.
            let bits = shannon_bits(&buf);
            if bits < 2.5 {
                low += 1;
            } else if bits < 6.0 {
                medium += 1;
            } else {
                high += 1;
            }
        }
        let lf = low as f64 / n as f64;
        let mf = medium as f64 / n as f64;
        let hf = high as f64 / n as f64;
        let want_high = 1.0 - w.low_frac - w.medium_frac;
        assert!((lf - w.low_frac).abs() < 0.05, "low bucket {lf}");
        assert!((mf - w.medium_frac).abs() < 0.05, "medium bucket {mf}");
        assert!((hf - want_high).abs() < 0.05, "high bucket {hf}");
    }

    #[test]
    fn version_epoch_remaps_configured_tile_fraction() {
        let m = mixture_model();
        let frac = m.mixture.version_mutation_frac;
        let n = 10_000u64;
        let mut v0 = vec![0u8; m.tile_size];
        let mut v1 = vec![0u8; m.tile_size];
        let (mut shared, mut changed) = (0u64, 0u64);
        for idx in 0..n {
            let kind = m.tile_kind_region(7, idx, RegionKind::Heap, true);
            if !matches!(kind, TileKind::Shared | TileKind::Medium) {
                continue;
            }
            shared += 1;
            m.fill_tile_v(&mut v0, kind, 7, idx, 1, 0x5000, 1 << 20, 0);
            m.fill_tile_v(&mut v1, kind, 7, idx, 1, 0x5000, 1 << 20, 1);
            if v0 != v1 {
                changed += 1;
            }
        }
        assert!(shared > 1000, "need a meaningful shared-tile sample");
        let cf = changed as f64 / shared as f64;
        assert!(
            cf >= 0.8 * frac && cf <= 1.2 * frac,
            "epoch changed {cf:.3} of shared tiles, configured {frac}"
        );
        // Version 0 must be byte-identical to the unversioned fill.
        for idx in 0..50 {
            let kind = m.tile_kind_region(7, idx, RegionKind::Heap, true);
            m.fill_tile(&mut v0, kind, 7, idx, 1, 0x5000, 1 << 20);
            m.fill_tile_v(&mut v1, kind, 7, idx, 1, 0x5000, 1 << 20, 0);
            assert_eq!(v0, v1);
        }
    }

    #[test]
    fn dispersed_noise_is_deterministic_and_spread() {
        let m = mixture_model();
        let mut a = vec![0u8; 1 << 18];
        let mut b = vec![0u8; 1 << 18];
        m.apply_dispersed_noise(&mut a, 1, 2, 1.0 / 64.0);
        m.apply_dispersed_noise(&mut b, 1, 2, 1.0 / 64.0);
        assert_eq!(a, b);
        let dirty = a.iter().filter(|&&x| x != 0).count();
        // ~ len/64 mutations, minus ~1/256 that draw zero.
        let expected = (1 << 18) / 64;
        assert!(
            dirty > expected / 2 && dirty < expected * 2,
            "dirty {dirty} vs expected {expected}"
        );
        // Unlike clustered bursts, mutations should rarely be adjacent.
        let adjacent = a.windows(2).filter(|w| w[0] != 0 && w[1] != 0).count();
        assert!(
            adjacent < dirty / 10,
            "dispersed noise should not cluster: {adjacent} adjacent of {dirty}"
        );
        let mut c = vec![0u8; 1 << 18];
        m.apply_dispersed_noise(&mut c, 1, 3, 1.0 / 64.0);
        assert_ne!(a, c);
    }

    #[test]
    fn mixture_config_validation() {
        assert!(ContentModelConfig::disabled().is_valid());
        assert!(ContentModelConfig::paper_calibrated().is_valid());
        let mut bad = ContentModelConfig::paper_calibrated();
        bad.heap.low_frac = 0.9;
        bad.heap.medium_frac = 0.5;
        assert!(!bad.is_valid());
    }

    #[test]
    fn noise_rate_zero_is_noop() {
        let m = ContentModel {
            noise_rate: 0.0,
            ..model()
        };
        let mut a = vec![7u8; 4096];
        m.apply_noise(&mut a, 1, 2);
        assert!(a.iter().all(|&b| b == 7));
    }
}
