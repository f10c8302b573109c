//! Property tests: encode→apply must be the identity for *any* pair of
//! buffers, at every compression level, and serialization must roundtrip.
//!
//! Driven by [`DetRng`] loops rather than a property-testing framework
//! so the workspace builds offline; failures print the seed of the
//! offending case, which reproduces it exactly.

use medes_delta::{
    apply, apply_into, diff, encode_reference, encode_with, format::Patch, DeltaError,
    EncodeConfig, EncodeScratch, PatchRef,
};
use medes_sim::DetRng;

fn random_vec(rng: &mut DetRng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn random_vec_min(rng: &mut DetRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = rng.range(min_len as u64, max_len as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn encode_apply_roundtrip() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD1FF_0000 + case);
        let base = random_vec(&mut rng, 2048);
        let target = random_vec(&mut rng, 2048);
        let level = rng.below(10) as u8;
        let patch = diff(&base, &target, level);
        let out = apply(&base, &patch).expect("apply must succeed");
        assert_eq!(out, target, "case {case} (level {level})");
    }
}

#[test]
fn related_buffers_roundtrip() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD1FF_1000 + case);
        let base = random_vec_min(&mut rng, 64, 2048);
        // Target = base with point edits: the common case for pages.
        let mut target = base.clone();
        let edits = rng.below(32);
        for _ in 0..edits {
            let i = rng.below(target.len() as u64) as usize;
            target[i] = rng.next_u8();
        }
        let level = rng.range(1, 10) as u8;
        let patch = diff(&base, &target, level);
        let out = apply(&base, &patch).expect("apply must succeed");
        assert_eq!(out, target, "case {case} (level {level})");
        // A patch never needs to be much larger than storing the target.
        assert!(
            patch.serialized_size() <= target.len() + 64,
            "case {case}: patch {} vs target {}",
            patch.serialized_size(),
            target.len()
        );
    }
}

#[test]
fn serialization_roundtrip() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD1FF_2000 + case);
        let base = random_vec(&mut rng, 1024);
        let target = random_vec(&mut rng, 1024);
        let level = rng.below(10) as u8;
        let patch = diff(&base, &target, level);
        let bytes = patch.to_bytes();
        assert_eq!(bytes.len(), patch.serialized_size(), "case {case}");
        let parsed = Patch::from_bytes(&bytes).expect("parse must succeed");
        assert_eq!(parsed, patch, "case {case}");
    }
}

#[test]
fn parser_never_panics_on_garbage() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD1FF_3000 + case);
        let data = random_vec(&mut rng, 512);
        let _ = Patch::from_bytes(&data); // must not panic
    }
}

#[test]
fn apply_never_panics_on_parsed_garbage() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD1FF_4000 + case);
        let mut data = random_vec_min(&mut rng, 4, 512);
        let base = random_vec(&mut rng, 256);
        data[..4].copy_from_slice(b"MDp1");
        if let Ok(patch) = Patch::from_bytes(&data) {
            let _ = apply(&base, &patch); // must not panic
        }
    }
}

/// Pathological-content generators for the PR 8 hot-path work: shapes
/// where the greedy matcher, wide extension, and skip logic all hit
/// their edge cases.
fn pathological_cases(rng: &mut DetRng) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut cases: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    // All-same-byte buffers (maximal self-similarity).
    let b = rng.next_u8();
    let len = rng.range(1, 3000) as usize;
    cases.push((vec![b; len], vec![b; rng.range(1, 3000) as usize]));
    // Short-period repeating content (every seed hash collides).
    let period = rng.range(1, 24) as usize;
    let unit: Vec<u8> = (0..period).map(|_| rng.next_u8()).collect();
    let repeat =
        |unit: &[u8], n: usize| -> Vec<u8> { unit.iter().cycle().take(n).copied().collect() };
    cases.push((
        repeat(&unit, rng.range(64, 4096) as usize),
        repeat(&unit, rng.range(64, 4096) as usize),
    ));
    // A page of one 16-byte motif over a 4-symbol alphabet (the content
    // model's pattern tiles: every seed recurs 256 times, so the probe
    // budget binds), against the same motif rotated and point-edited.
    let alphabet = [0x00u8, 0xFF, rng.next_u8(), rng.next_u8()];
    let motif: Vec<u8> = (0..16).map(|_| alphabet[rng.below(4) as usize]).collect();
    let base = repeat(&motif, 4096);
    let mut target = base.clone();
    target.rotate_left(rng.below(16) as usize);
    for _ in 0..rng.below(6) {
        let at = rng.below(target.len() as u64) as usize;
        target[at] = rng.next_u8();
    }
    cases.push((base, target));
    // Near-duplicate with insertions.
    let base = random_vec_min(rng, 256, 4096);
    let mut target = base.clone();
    for _ in 0..rng.range(1, 5) {
        let at = rng.below(target.len() as u64 + 1) as usize;
        let ins = random_vec_min(rng, 1, 32);
        target.splice(at..at, ins);
    }
    cases.push((base, target));
    // Pages built to defeat the encoder's seed prefilter, which knows a
    // seed by its first 8 bytes. (1) Every 16-byte block of both pages
    // starts with the same word, so the filter passes every aligned
    // target seed and the second words decide: equal in a few blocks,
    // different in the rest. (2) The same base against a page of that
    // word's byte alone: every position passes, nothing matches.
    let word = rng.next_u8();
    let halves = |rng: &mut DetRng| {
        let mut page = random_vec_min(rng, 4096, 4096);
        for block in page.chunks_exact_mut(16) {
            block[..8].fill(word);
        }
        page
    };
    let base = halves(rng);
    let mut target = halves(rng);
    for _ in 0..rng.below(8) {
        let at = 16 * rng.below(250) as usize;
        let len = 16 * rng.range(1, 6) as usize;
        target[at..at + len].copy_from_slice(&base[at..at + len]);
    }
    cases.push((base.clone(), target));
    cases.push((base, vec![word; 4096]));
    // (3) Base seeds recurring in the target only at offsets no level
    // indexes: an 18-byte snippet from 4j+1 holds the seeds at
    // 4j+1..=4j+3 and no other.
    let base = random_vec_min(rng, 4096, 4096);
    let mut target = Vec::new();
    while target.len() < 4000 {
        let at = 4 * rng.below(1000) as usize + 1;
        target.extend_from_slice(&base[at..at + 18]);
        target.push(rng.next_u8());
        target.push(rng.next_u8());
    }
    cases.push((base.clone(), target));
    // (4) All-zero and single-motif pages against content.
    cases.push((vec![0u8; 4096], base.clone()));
    cases.push((base.clone(), vec![0u8; 4096]));
    cases.push((repeat(&motif, 4096), base));
    // Empty and tiny buffers on either side.
    cases.push((Vec::new(), random_vec(rng, 8)));
    cases.push((random_vec(rng, 8), Vec::new()));
    cases.push((random_vec(rng, 20), random_vec(rng, 20)));
    cases
}

/// Round-trips `encode`/`encode_with`/`apply`/`apply_into`/`PatchRef`
/// over pathological inputs at levels 0/1/5/9, asserting the fast
/// paths are bit-identical to the reference encoder.
#[test]
fn pathological_inputs_roundtrip_all_paths() {
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xD1FF_5000 + case);
        for (base, target) in pathological_cases(&mut rng) {
            for level in [0u8, 1, 5, 9] {
                let cfg = EncodeConfig::with_level(level);
                let patch = encode_with(&base, &target, &cfg, &mut scratch);
                let reference = encode_reference(&base, &target, &cfg);
                assert_eq!(patch, reference, "case {case} level {level}");
                assert_eq!(
                    patch.to_bytes(),
                    reference.to_bytes(),
                    "case {case} level {level}"
                );
                let alloc = apply(&base, &patch).expect("apply");
                assert_eq!(alloc, target, "case {case} level {level}");
                apply_into(&base, &patch, &mut out).expect("apply_into");
                assert_eq!(out, target, "case {case} level {level}");
                let bytes = patch.to_bytes();
                let view = PatchRef::from_bytes(&bytes).expect("view parse");
                view.apply_into(&base, &mut out).expect("ref apply_into");
                assert_eq!(out, target, "case {case} level {level}");
                let parsed = Patch::from_bytes(&bytes).expect("owned parse");
                assert_eq!(parsed, patch, "case {case} level {level}");
            }
        }
    }
}

/// The encoder's word-wise seed hash against the FNV-seeded reference
/// on the pages the platform encodes: instances of `paper_calibrated`
/// images paired page by page (same function, and across functions
/// sharing a library), at levels 1/5/9.
#[test]
fn content_model_page_pairs_match_reference() {
    use medes_mem::{ContentModel, ContentModelConfig, FunctionSpec, ImageBuilder};
    let build = |name: &str, libs: &[&str], seed: u64, version: u64| {
        ImageBuilder::new(FunctionSpec::new(name, 16 << 20, libs))
            .with_scale(16)
            .with_model(ContentModel {
                mixture: ContentModelConfig::paper_calibrated(),
                ..ContentModel::default()
            })
            .build_versioned(seed, version)
    };
    let a1 = build("PairA", &["numpy"], 1, 0);
    let images = [
        build("PairA", &["numpy"], 2, 0),
        build("PairA", &["numpy"], 3, 1),
        build("PairB", &["numpy", "json"], 4, 0),
        build("PairA", &["numpy"], 5, 0),
        build("PairB", &["numpy", "json"], 6, 2),
    ];
    let mut scratch = EncodeScratch::new();
    let mut pairs = 0usize;
    for (n, other) in images.iter().enumerate() {
        let level = [1u8, 5, 9][n % 3];
        let cfg = EncodeConfig::with_level(level);
        // Same-index pairs, then pairs one page apart (heap jitter
        // shifts content by whole pages).
        for shift in [0usize, 1] {
            for i in 0..a1.page_count().min(other.page_count()) - shift {
                let (base, target) = (a1.page(i + shift), other.page(i));
                let patch = encode_with(base, target, &cfg, &mut scratch);
                let reference = encode_reference(base, target, &cfg);
                assert_eq!(
                    patch.to_bytes(),
                    reference.to_bytes(),
                    "image {n} page {i} shift {shift} level {level}"
                );
                assert_eq!(apply(base, &patch).expect("apply"), target);
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 2000, "only {pairs} page pairs");
}

/// Corrupted instruction streams must come back as `DeltaError`s —
/// never a panic, and never a buffer reservation driven by the
/// unvalidated `target_len` header field.
#[test]
fn corrupted_streams_error_without_overallocating() {
    let mut out;
    for case in 0..512u64 {
        let mut rng = DetRng::new(0xD1FF_6000 + case);
        let base = random_vec_min(&mut rng, 64, 1024);
        let target = random_vec_min(&mut rng, 64, 1024);
        let mut bytes = diff(&base, &target, 1).to_bytes();
        // Corrupt 1..8 bytes anywhere past the magic.
        for _ in 0..rng.range(1, 8) {
            let i = rng.range(4, bytes.len() as u64) as usize;
            bytes[i] = rng.next_u8();
        }
        if let Ok(patch) = Patch::from_bytes(&bytes) {
            out = Vec::new(); // fresh buffer: observe reservations
            match apply_into(&base, &patch, &mut out) {
                Ok(()) => assert_eq!(out.len(), patch.target_len() as usize, "case {case}"),
                Err(_) => assert_eq!(
                    out.capacity(),
                    0,
                    "case {case}: rejected patch must not have grown the buffer"
                ),
            }
            let _ = apply(&base, &patch); // must not panic either
        }
        if let Ok(view) = PatchRef::from_bytes(&bytes) {
            out = Vec::new();
            match view.apply_into(&base, &mut out) {
                Ok(()) => assert_eq!(out.len(), view.target_len() as usize, "case {case}"),
                Err(_) => assert_eq!(out.capacity(), 0, "case {case}"),
            }
        }
    }
    // A directly forged header with an absurd target_len must be
    // rejected before any reservation.
    let patch = Patch::from_instrs(4, u32::MAX, &[medes_delta::Instr::Add(&[1, 2, 3])]);
    let mut fresh = Vec::new();
    assert!(matches!(
        apply_into(b"base", &patch, &mut fresh),
        Err(DeltaError::OutputLengthMismatch { .. })
    ));
    assert_eq!(fresh.capacity(), 0, "no reservation for a bogus header");
}
