//! Delta encoding: greedy hash-chain matching against the base.
//!
//! The encoder indexes the base buffer at `seed_step`-aligned positions
//! with a cheap 64-bit block hash over `SEED_LEN` bytes, then scans the
//! target greedily: at each position it probes the index, extends every
//! candidate match in both directions (eight bytes at a time), and
//! emits the best one as a COPY if it clears the minimum-match
//! threshold. Compression levels 0–9 mirror Xdelta3's knob:
//!
//! | level | seed step | chain probes | effect |
//! |-------|-----------|--------------|--------|
//! | 0     | —         | —            | store (single ADD) |
//! | 1     | 16        | 4            | fast, what Medes uses |
//! | 5     | 8         | 16           | |
//! | 9     | 4         | 64           | smallest patches |
//!
//! Batch callers (the dedup scan encodes one patch per candidate page)
//! should hold an [`EncodeScratch`] and call [`encode_with`]: the index
//! arenas and the builder's buffers are then reused across pages
//! instead of being reallocated per call, and the only allocation an
//! encode makes is the patch's own, of its exact size. [`encode`] is the
//! convenience one-shot form. [`encode_reference`] preserves the
//! original `HashMap`-based implementation as the comparator the fast
//! path is verified against (property tests); both produce
//! bit-identical patches.
//!
//! ## Seed hash
//!
//! The scan hashes `SEED_LEN` bytes at every target position it cannot
//! match, so the seed hash is the encoder's inner loop. [`encode_with`]
//! reads the seed as two `u64` words and mixes them (two multiplies);
//! [`encode_reference`] keeps byte-serial FNV-1a (sixteen dependent
//! multiplies). A patch depends on the hash only through *collisions*:
//! a candidate with the target's key but other bytes uses up one of
//! the `max_probes`. Both keys are 64 bits wide and depend on every
//! seed bit, so two of a page's at most 4 096 distinct seeds share a
//! key with probability about 2⁻⁴⁰ under either hash; without a
//! collision both encoders walk the same candidates in the same order.
//! The oracle keeping the old hash is what makes the `encode_with ==
//! encode_reference` tests a check that patches did not change.
//!
//! ## Seed prefilter
//!
//! Most target positions match no indexed seed, and for those even the
//! two-multiply hash and the bucket walk are wasted. [`encode_with`] therefore keeps a 2 KiB
//! bitmap beside the index: indexing a base seed sets the bit chosen by
//! one multiply of the seed's *first* word, and the scan tests that bit
//! before it hashes anything. A target seed equal to an indexed seed
//! has the same first word and so finds its bit set — the filter has no
//! false negatives. A clear bit means no indexed seed equals the target
//! seed, which is exactly the case in which the bucket walk would have
//! found no candidate; a set bit falls through to the unfiltered walk.
//! Candidates, their order and the probe budget are untouched, so the
//! patch is the same patch. [`encode_reference`] has no filter.

use crate::format::{push_add, push_copy, Instr, Patch};
use medes_hash::fnv::fnv1a;
use std::collections::HashMap;

/// Bytes hashed to seed a match.
const SEED_LEN: usize = 16;
/// Minimum profitable COPY length (COPY costs ~1+2·varint ≈ 7 bytes max
/// for 4 KiB pages, so 8 is the break-even point with margin).
const MIN_MATCH: usize = 8;
/// Words of the seed prefilter: 2 KiB, 16 384 bits.
const FILTER_WORDS: usize = 256;

/// Encoder tuning derived from a compression level. The fields are
/// private so that [`EncodeConfig::with_level`] is the only constructor:
/// a matching configuration always has a seed step of at least 1.
#[derive(Debug, Clone, Copy)]
pub struct EncodeConfig {
    /// Distance between indexed base positions.
    seed_step: usize,
    /// How many index candidates to try per target position.
    max_probes: usize,
    /// Level 0 disables matching entirely.
    store_only: bool,
}

impl EncodeConfig {
    /// Maps an Xdelta3-style level (0–9, clamped) to tuning parameters.
    pub fn with_level(level: u8) -> Self {
        let level = level.min(9);
        if level == 0 {
            return EncodeConfig {
                seed_step: 0,
                max_probes: 0,
                store_only: true,
            };
        }
        // Level 1 -> step 16, probes 4; level 9 -> step 4, probes 64,
        // exactly the module doc table. (An earlier shift-based formula
        // gave level 9 128 probes and level 5 64, contradicting the
        // documented knob.)
        let (seed_step, max_probes) = match level {
            1..=2 => (16, 4),
            3..=5 => (8, 16),
            _ => (4, 64),
        };
        EncodeConfig {
            seed_step,
            max_probes,
            store_only: false,
        }
    }
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig::with_level(1)
    }
}

/// The first of a seed's two little-endian words.
#[inline]
fn first_word(data: &[u8]) -> u64 {
    u64::from_le_bytes(data[..8].try_into().expect("8 bytes"))
}

/// The seed key of [`encode_with`]: `mix(a) ^ b` for the seed's two
/// little-endian words `a`, `b`, with `mix` a bijection. Two seeds
/// collide only if `b ^ b' == mix(a) ^ mix(a')`.
#[inline]
fn seed_hash(data: &[u8]) -> u64 {
    let a = first_word(data);
    let b = u64::from_le_bytes(data[8..SEED_LEN].try_into().expect("8 bytes"));
    let mut h = (a ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    h ^ b
}

/// The seed key of [`encode_reference`]: FNV-1a, as before the
/// word-wise hash.
fn seed_hash_fnv(data: &[u8]) -> u64 {
    fnv1a(&data[..SEED_LEN])
}

/// Reusable encoder workspace: the base hash index plus the patch
/// builder's buffers. Holding one of these per worker and calling
/// [`encode_with`] amortizes every allocation the encoder makes across
/// pages except the patch's own; a fresh scratch is equivalent to (and
/// used by) plain [`encode`].
#[derive(Debug, Default)]
pub struct EncodeScratch {
    index: SeedIndex,
    out: PatchBuilder,
}

impl EncodeScratch {
    /// Creates an empty scratch (allocates lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The base's indexed seeds: flat chained buckets and the prefilter.
#[derive(Debug, Default)]
struct SeedIndex {
    /// Bucket heads: 1-based entry index of the newest entry, 0 = empty.
    heads: Vec<u32>,
    /// Per-entry link to the next-older entry in the same bucket.
    links: Vec<u32>,
    /// Per-entry full 64-bit seed hash. Chains are per *bucket*, so a
    /// probe must skip entries whose key differs — without counting
    /// them against `max_probes`, exactly as the reference `HashMap`
    /// (which only ever yields exact-key candidates) behaves.
    keys: Vec<u64>,
    /// Per-entry base position.
    positions: Vec<u32>,
    /// Right-shift mapping a mixed hash to a bucket index.
    bucket_shift: u32,
    /// One bit per [`SeedIndex::filter_bit`] of an indexed seed.
    filter: Vec<u64>,
}

impl SeedIndex {
    /// (Re)builds the index over `base` at `seed_step` positions.
    fn build(&mut self, base: &[u8], seed_step: usize) {
        let n_entries = (base.len() - SEED_LEN) / seed_step + 1;
        let buckets = (n_entries * 2).next_power_of_two().max(16);
        self.bucket_shift = 64 - buckets.trailing_zeros();
        self.heads.clear();
        self.heads.resize(buckets, 0);
        self.links.clear();
        self.keys.clear();
        self.positions.clear();
        self.filter.clear();
        self.filter.resize(FILTER_WORDS, 0);
        let mut pos = 0usize;
        while pos + SEED_LEN <= base.len() {
            let (word, bit) = Self::filter_bit(first_word(&base[pos..]));
            self.filter[word] |= bit;
            let h = seed_hash(&base[pos..]);
            let b = self.bucket(h);
            // Prepend: heads always point at the newest entry, so a
            // chain walk visits positions newest-first like the
            // reference's `cands.iter().rev()`.
            self.links.push(self.heads[b]);
            self.heads[b] = self.links.len() as u32;
            self.keys.push(h);
            self.positions.push(pos as u32);
            pos += seed_step;
        }
    }

    /// Fibonacci-hash bucket of a seed hash.
    #[inline]
    fn bucket(&self, h: u64) -> usize {
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.bucket_shift) as usize
    }

    /// The filter word and mask of a seed, from its first word alone.
    #[inline]
    fn filter_bit(first: u64) -> (usize, u64) {
        let bit = first.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 6 - FILTER_WORDS.ilog2());
        ((bit >> 6) as usize, 1 << (bit & 63))
    }

    /// False only if no indexed seed starts with the word `first`.
    #[inline]
    fn may_hold(&self, first: u64) -> bool {
        let (word, bit) = Self::filter_bit(first);
        self.filter[word] & bit != 0
    }
}

/// Length of the longest common prefix of `a` and `b`, eight bytes at
/// a time.
#[inline]
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let d = x ^ y;
        if d != 0 {
            return i + (d.trailing_zeros() >> 3) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`, capped at
/// `cap`, eight bytes at a time.
#[inline]
fn common_suffix_len(a: &[u8], b: &[u8], cap: usize) -> usize {
    let n = cap.min(a.len()).min(b.len());
    let (la, lb) = (a.len(), b.len());
    let mut i = 0usize;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[la - i - 8..la - i].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[lb - i - 8..lb - i].try_into().expect("8 bytes"));
        let d = x ^ y;
        if d != 0 {
            // The byte nearest the suffix end is the most significant
            // one under little-endian loads of a trailing window.
            return i + (d.leading_zeros() >> 3) as usize;
        }
        i += 8;
    }
    while i < n && a[la - i - 1] == b[lb - i - 1] {
        i += 1;
    }
    i
}

/// Computes a patch reconstructing `target` from `base`.
pub fn encode(base: &[u8], target: &[u8], cfg: &EncodeConfig) -> Patch {
    encode_with(base, target, cfg, &mut EncodeScratch::new())
}

/// The patch of an input too short (or a level too low) to match: the
/// target as one literal, or nothing for an empty target.
fn stored(base: &[u8], target: &[u8]) -> Patch {
    let literal = [Instr::Add(target)];
    let instrs = if target.is_empty() { &[][..] } else { &literal };
    Patch::from_instrs(base.len() as u32, target.len() as u32, instrs)
}

/// [`encode`] with a caller-held [`EncodeScratch`]: identical output,
/// no per-call index/arena allocations once the scratch is warm.
pub fn encode_with(
    base: &[u8],
    target: &[u8],
    cfg: &EncodeConfig,
    scratch: &mut EncodeScratch,
) -> Patch {
    if cfg.store_only || base.len() < SEED_LEN || target.len() < SEED_LEN {
        return stored(base, target);
    }

    let EncodeScratch { index, out } = scratch;
    index.build(base, cfg.seed_step);
    let mut t = 0usize;
    // (tail bytes, including any pending no-match bytes, are added
    // after the loop)
    while t + SEED_LEN <= target.len() {
        if !index.may_hold(first_word(&target[t..])) {
            t += 1; // no indexed seed starts like this one: no candidate
            continue;
        }
        let h = seed_hash(&target[t..]);
        let mut best: Option<(usize, usize, usize)> = None; // (b_start, t_start, len)
        let mut probes = 0usize;
        let mut entry = index.heads[index.bucket(h)];
        while entry != 0 && probes < cfg.max_probes {
            let idx = (entry - 1) as usize;
            entry = index.links[idx];
            if index.keys[idx] != h {
                continue; // different key sharing the bucket: not a probe
            }
            probes += 1;
            let b = index.positions[idx] as usize;
            if base[b..b + SEED_LEN] != target[t..t + SEED_LEN] {
                continue; // hash collision
            }
            // Extend forward, then backward only into bytes not yet
            // emitted.
            let len = SEED_LEN + common_prefix_len(&base[b + SEED_LEN..], &target[t + SEED_LEN..]);
            let back = common_suffix_len(&base[..b], &target[..t], t - out.emitted_until());
            let total = len + back;
            if best.is_none_or(|(_, _, blen)| total > blen) {
                best = Some((b - back, t - back, total));
            }
        }
        match best {
            Some((b_start, t_start, len)) if len >= MIN_MATCH => {
                out.add(&target[out.emitted_until()..t_start]);
                out.copy(b_start as u32, len as u32);
                t = t_start + len;
            }
            _ => {
                // No profitable match here; the pending literal grows.
                t += 1;
            }
        }
    }
    out.add(&target[out.emitted_until()..]);
    out.finish(base.len() as u32, target.len() as u32)
}

/// The pre-optimization encoder — fresh `HashMap` index, byte-wise
/// match extension, no prefilter — kept as the comparator
/// [`encode_with`] is verified against (property tests and the
/// `hot_path` integration test). Produces bit-identical patches to
/// [`encode`]/[`encode_with`].
pub fn encode_reference(base: &[u8], target: &[u8], cfg: &EncodeConfig) -> Patch {
    if cfg.store_only || base.len() < SEED_LEN || target.len() < SEED_LEN {
        return stored(base, target);
    }

    // Index the base: block hash -> positions (most recent first, capped).
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut pos = 0usize;
    while pos + SEED_LEN <= base.len() {
        index
            .entry(seed_hash_fnv(&base[pos..]))
            .or_default()
            .push(pos as u32);
        pos += cfg.seed_step;
    }

    let mut out = PatchBuilder::default();
    let mut t = 0usize;
    while t < target.len() {
        if t + SEED_LEN > target.len() {
            break; // tail (including any pending no-match bytes) added below
        }
        let h = seed_hash_fnv(&target[t..]);
        let mut best: Option<(usize, usize, usize)> = None; // (b_start, t_start, len)
        if let Some(cands) = index.get(&h) {
            for &cand in cands.iter().rev().take(cfg.max_probes) {
                let b = cand as usize;
                if base[b..b + SEED_LEN] != target[t..t + SEED_LEN] {
                    continue; // hash collision
                }
                // Extend forward.
                let mut len = SEED_LEN;
                while b + len < base.len()
                    && t + len < target.len()
                    && base[b + len] == target[t + len]
                {
                    len += 1;
                }
                // Extend backward only into bytes not yet emitted.
                let mut back = 0usize;
                while back < b
                    && back < t - out.emitted_until()
                    && base[b - back - 1] == target[t - back - 1]
                {
                    back += 1;
                }
                let total = len + back;
                if best.is_none_or(|(_, _, blen)| total > blen) {
                    best = Some((b - back, t - back, total));
                }
            }
        }
        match best {
            Some((b_start, t_start, len)) if len >= MIN_MATCH => {
                out.add(&target[out.emitted_until()..t_start]);
                out.copy(b_start as u32, len as u32);
                t = t_start + len;
            }
            _ => {
                // No profitable match here; the pending literal grows.
                t += 1;
            }
        }
    }
    let tail_from = out.emitted_until();
    if tail_from < target.len() {
        out.add(&target[tail_from..]);
    }
    out.finish(base.len() as u32, target.len() as u32)
}

/// Writes a patch's instruction stream, merging adjacent ADDs and
/// coalescing contiguous COPYs. The newest instruction is held back
/// (a COPY as its two numbers, an ADD as its bytes) until one that
/// cannot merge with it arrives, because merging changes the length
/// varint in front of it. [`PatchBuilder::finish`] copies the stream
/// out into the patch's own exact-size allocation and leaves the
/// builder empty, its buffers' capacity kept for the next patch.
#[derive(Debug, Default)]
struct PatchBuilder {
    /// Serialized instructions, all but the pending one.
    stream: Vec<u8>,
    /// The pending ADD's bytes; empty when no ADD is pending.
    literal: Vec<u8>,
    /// The pending COPY; never set while `literal` holds bytes.
    pending_copy: Option<(u32, u32)>,
    /// Target bytes covered so far.
    emitted: usize,
}

impl PatchBuilder {
    /// Target bytes already covered by emitted/pending instructions.
    fn emitted_until(&self) -> usize {
        self.emitted
    }

    fn add(&mut self, data: &[u8]) {
        if data.is_empty() {
            return; // an empty ADD is no instruction, and parts no COPYs
        }
        if let Some((offset, len)) = self.pending_copy.take() {
            push_copy(&mut self.stream, offset, len);
        }
        self.literal.extend_from_slice(data);
        self.emitted += data.len();
    }

    fn copy(&mut self, offset: u32, len: u32) {
        self.emitted += len as usize;
        self.flush_add();
        match &mut self.pending_copy {
            Some((po, pl)) if *po + *pl == offset => *pl += len,
            pending => {
                if let Some((po, pl)) = pending.replace((offset, len)) {
                    push_copy(&mut self.stream, po, pl);
                }
            }
        }
    }

    fn flush_add(&mut self) {
        if !self.literal.is_empty() {
            push_add(&mut self.stream, &self.literal);
            self.literal.clear();
        }
    }

    fn finish(&mut self, base_len: u32, target_len: u32) -> Patch {
        self.flush_add();
        if let Some((offset, len)) = self.pending_copy.take() {
            push_copy(&mut self.stream, offset, len);
        }
        let patch = Patch::from_stream(base_len, target_len, &self.stream);
        self.stream.clear();
        self.emitted = 0;
        patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;

    fn pseudo_random(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn identical_buffers_tiny_patch() {
        let base = pseudo_random(1, 4096);
        let patch = encode(&base, &base, &EncodeConfig::default());
        assert_eq!(apply(&base, &patch).unwrap(), base);
        assert!(
            patch.serialized_size() < 32,
            "patch for identical page should be a handful of bytes, got {}",
            patch.serialized_size()
        );
    }

    #[test]
    fn small_edit_small_patch() {
        let base = pseudo_random(2, 4096);
        let mut target = base.clone();
        for b in &mut target[1000..1016] {
            *b ^= 0xFF;
        }
        let patch = encode(&base, &target, &EncodeConfig::default());
        assert_eq!(apply(&base, &patch).unwrap(), target);
        assert!(
            patch.serialized_size() < 128,
            "16-byte edit should cost well under 128 B, got {}",
            patch.serialized_size()
        );
    }

    #[test]
    fn unrelated_buffers_fall_back_to_add() {
        let base = pseudo_random(3, 4096);
        let target = pseudo_random(4, 4096);
        let patch = encode(&base, &target, &EncodeConfig::default());
        assert_eq!(apply(&base, &patch).unwrap(), target);
        // Overhead over plain storage must stay small.
        assert!(patch.serialized_size() < target.len() + 64);
    }

    #[test]
    fn insertion_shifts_are_found() {
        // Target = base with 7 bytes inserted in the middle: the encoder
        // must still COPY both halves.
        let base = pseudo_random(5, 4096);
        let mut target = Vec::with_capacity(4103);
        target.extend_from_slice(&base[..2000]);
        target.extend_from_slice(b"INSERT!");
        target.extend_from_slice(&base[2000..]);
        let patch = encode(&base, &target, &EncodeConfig::default());
        assert_eq!(apply(&base, &patch).unwrap(), target);
        assert!(
            patch.serialized_size() < 100,
            "got {}",
            patch.serialized_size()
        );
    }

    #[test]
    fn level_zero_stores() {
        let base = pseudo_random(6, 1024);
        let patch = encode(&base, &base, &EncodeConfig::with_level(0));
        assert_eq!(patch.instrs().count(), 1);
        assert!(matches!(patch.instrs().next(), Some(Instr::Add(_))));
        assert_eq!(apply(&base, &patch).unwrap(), base);
    }

    #[test]
    fn higher_levels_never_larger_much() {
        // Construct a target with scattered small edits; deeper search
        // should find at least as much redundancy.
        let base = pseudo_random(7, 8192);
        let mut target = base.clone();
        let mut s = 99u64;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pos = (s % 8000) as usize;
            target[pos] ^= 0x5A;
        }
        let p1 = encode(&base, &target, &EncodeConfig::with_level(1));
        let p9 = encode(&base, &target, &EncodeConfig::with_level(9));
        assert_eq!(apply(&base, &p1).unwrap(), target);
        assert_eq!(apply(&base, &p9).unwrap(), target);
        assert!(
            p9.serialized_size() <= p1.serialized_size() + 64,
            "level 9 ({}) should not be much larger than level 1 ({})",
            p9.serialized_size(),
            p1.serialized_size()
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let patch = encode(b"", b"", &EncodeConfig::default());
        assert_eq!(apply(b"", &patch).unwrap(), b"");
        let patch = encode(b"short", b"tiny", &EncodeConfig::default());
        assert_eq!(apply(b"short", &patch).unwrap(), b"tiny");
        let patch = encode(b"", b"target-bytes-here", &EncodeConfig::default());
        assert_eq!(apply(b"", &patch).unwrap(), b"target-bytes-here");
    }

    /// Pins the level→(seed_step, max_probes) mapping for every level.
    /// Regression test for the PR 8 probe-budget bug: the old formula
    /// `1 << (level + 1).min(7)` gave level 9 128 probes and level 5
    /// 64, while the module doc table promises 64 and 16.
    #[test]
    fn with_level_matches_doc_table() {
        let expected: [(usize, usize, bool); 10] = [
            (0, 0, true),   // level 0: store
            (16, 4, false), // level 1
            (16, 4, false), // level 2
            (8, 16, false), // level 3
            (8, 16, false), // level 4
            (8, 16, false), // level 5
            (4, 64, false), // level 6
            (4, 64, false), // level 7
            (4, 64, false), // level 8
            (4, 64, false), // level 9
        ];
        for (level, &(step, probes, store)) in expected.iter().enumerate() {
            let cfg = EncodeConfig::with_level(level as u8);
            assert_eq!(
                (cfg.seed_step, cfg.max_probes, cfg.store_only),
                (step, probes, store),
                "level {level}"
            );
        }
        // Out-of-range levels clamp to 9.
        let cfg = EncodeConfig::with_level(200);
        assert_eq!((cfg.seed_step, cfg.max_probes), (4, 64));
    }

    /// The scratch-reusing fast path must emit bit-identical patches to
    /// the original HashMap encoder, including across reuses of one
    /// scratch.
    #[test]
    fn encode_with_matches_reference() {
        let mut scratch = EncodeScratch::new();
        let base = pseudo_random(21, 4096);
        let mut cases: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        // Near-duplicate, insertion-shifted, unrelated, identical.
        let mut t1 = base.clone();
        for b in &mut t1[600..640] {
            *b ^= 0xA5;
        }
        cases.push((base.clone(), t1));
        let mut t2 = Vec::new();
        t2.extend_from_slice(&base[..1000]);
        t2.extend_from_slice(b"odd-len-insert");
        t2.extend_from_slice(&base[1000..]);
        cases.push((base.clone(), t2));
        cases.push((base.clone(), pseudo_random(22, 4096)));
        cases.push((base.clone(), base.clone()));
        // Pages of one repeated 16-byte motif: each seed recurs 256
        // times, so the probe budget binds and candidate order matters.
        let motif = |seed: u64| -> Vec<u8> {
            let unit = pseudo_random(seed, 16);
            unit.iter().map(|b| b & 0xC0).cycle().take(4096).collect()
        };
        let mut t3 = motif(23);
        t3.rotate_left(5);
        t3[2000] ^= 0xFF;
        cases.push((motif(23), t3));
        cases.push((motif(23), motif(24)));
        cases.push((vec![0u8; 4096], vec![0u8; 4096]));
        cases.push((vec![0u8; 4096], base.clone()));
        cases.push((base.clone(), vec![0u8; 4096]));
        cases.push((motif(23), vec![0u8; 4096]));
        // Pages built to defeat the prefilter. Every indexed seed of
        // `halves` starts with the one word an all-0xAA target shows at
        // every position, and none equals a target seed: the filter
        // passes everything and nothing matches. Then the same first
        // words in front of other second words.
        let aa_halves = |seed: u64| {
            let mut page = pseudo_random(seed, 4096);
            for block in page.chunks_exact_mut(16) {
                block[..8].fill(0xAA);
            }
            page
        };
        let halves = aa_halves(25);
        cases.push((halves.clone(), vec![0xAA; 4096]));
        cases.push((halves.clone(), aa_halves(26)));
        // Base seeds recurring in the target only where no level
        // indexes them: 18-byte snippets hold the seeds at offsets
        // 4j+1..=4j+3 and no other.
        let mut off_grid = Vec::new();
        for j in 0..200usize {
            let at = 4 * (j * 7 % 1000) + 1;
            off_grid.extend_from_slice(&base[at..at + 18]);
            off_grid.extend_from_slice(&[j as u8, 0x5A]);
        }
        cases.push((base.clone(), off_grid));
        for level in [0u8, 1, 5, 9] {
            let cfg = EncodeConfig::with_level(level);
            for (base, target) in &cases {
                let fast = encode_with(base, target, &cfg, &mut scratch);
                let slow = encode_reference(base, target, &cfg);
                assert_eq!(fast, slow, "level {level}");
                assert_eq!(fast.to_bytes(), slow.to_bytes(), "level {level}");
                assert_eq!(apply(base, &fast).unwrap(), *target);
            }
        }
        // The all-0xAA target really is all false positives.
        let target = vec![0xAA; 4096];
        let patch = encode_with(&halves, &target, &EncodeConfig::with_level(1), &mut scratch);
        assert!(
            (0..=target.len() - SEED_LEN).all(|t| scratch.index.may_hold(first_word(&target[t..])))
        );
        assert_eq!(patch.instrs().collect::<Vec<_>>(), [Instr::Add(&target)]);
    }

    /// The pre-wire-format builder: an owned instruction tree with the
    /// merge rules `PatchBuilder` must reproduce.
    #[derive(Default)]
    struct TreeBuilder {
        instrs: Vec<(u32, u32, Vec<u8>)>, // COPY (offset, len, []) or ADD (0, 0, bytes)
        pending_add: Vec<u8>,
    }

    impl TreeBuilder {
        fn add(&mut self, data: &[u8]) {
            self.pending_add.extend_from_slice(data);
        }

        fn copy(&mut self, offset: u32, len: u32) {
            self.flush_add();
            if let Some((po, pl, literal)) = self.instrs.last_mut() {
                if literal.is_empty() && *po + *pl == offset {
                    *pl += len;
                    return;
                }
            }
            self.instrs.push((offset, len, Vec::new()));
        }

        fn flush_add(&mut self) {
            if !self.pending_add.is_empty() {
                self.instrs
                    .push((0, 0, std::mem::take(&mut self.pending_add)));
            }
        }

        fn finish(mut self, base_len: u32, target_len: u32) -> Patch {
            self.flush_add();
            let instrs: Vec<Instr<'_>> = self
                .instrs
                .iter()
                .map(|(offset, len, literal)| match literal.as_slice() {
                    [] => Instr::Copy {
                        offset: *offset,
                        len: *len,
                    },
                    bytes => Instr::Add(bytes),
                })
                .collect();
            Patch::from_instrs(base_len, target_len, &instrs)
        }
    }

    /// Random `add`/`copy` sequences — empty ADDs, ADD after ADD,
    /// contiguous and scattered COPYs, ADD after COPY after ADD — must
    /// serialize exactly as the owned tree did, across reuses of one
    /// builder.
    #[test]
    fn patch_builder_matches_the_tree_builder() {
        use medes_sim::DetRng;
        let mut wire = PatchBuilder::default();
        for case in 0..256u64 {
            let mut rng = DetRng::new(0xB01D_0000 + case);
            let mut tree = TreeBuilder::default();
            let (mut emitted, mut next_contiguous) = (0usize, 0u32);
            for _ in 0..rng.below(40) {
                match rng.below(5) {
                    0 => {
                        tree.add(&[]);
                        wire.add(&[]);
                    }
                    1 | 2 => {
                        let mut literal = vec![0u8; rng.range(1, 200) as usize];
                        rng.fill_bytes(&mut literal);
                        tree.add(&literal);
                        wire.add(&literal);
                        emitted += literal.len();
                    }
                    kind => {
                        let offset = if kind == 3 {
                            next_contiguous
                        } else {
                            rng.below(1 << 20) as u32
                        };
                        let len = rng.below(300) as u32;
                        tree.copy(offset, len);
                        wire.copy(offset, len);
                        emitted += len as usize;
                        next_contiguous = offset + len;
                    }
                }
                assert_eq!(wire.emitted_until(), emitted, "case {case}");
            }
            let want = tree.finish(1 << 21, emitted as u32);
            let got = wire.finish(1 << 21, emitted as u32);
            assert_eq!(got.to_bytes(), want.to_bytes(), "case {case}");
            assert_eq!(got, want, "case {case}");
        }
    }

    /// The wire format, byte for byte: a drift in the magic, the varints,
    /// the opcodes or the builder's merging fails here by name. The
    /// bytes were produced by the encoder that still held patches as
    /// instruction trees.
    #[test]
    fn golden_patch_bytes() {
        let base = pseudo_random(31, 4096);
        let mut target = base.clone();
        target[100..104].copy_from_slice(b"GOLD");
        target.splice(3000..3000, *b"medes!!");
        let patch = encode(&base, &target, &EncodeConfig::default());
        let hex: String = patch
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(patch.serialized_size(), GOLDEN.len() / 2);
        assert_eq!(apply(&base, &patch).unwrap(), target);
    }

    const GOLDEN: &str = "4d447031802087200100640204474f4c440168d01602076d65646573212101b817c808";

    #[test]
    fn adjacent_copies_coalesce() {
        let base = pseudo_random(8, 4096);
        let patch = encode(&base, &base, &EncodeConfig::default());
        // A perfectly matching page should be a single COPY.
        assert_eq!(
            patch
                .instrs()
                .filter(|i| matches!(i, Instr::Copy { .. }))
                .count(),
            1
        );
    }
}
