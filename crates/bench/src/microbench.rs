//! `microbench` — p50/p95/p99 latency per hot-path op (renacer style).
//!
//! Criterion-compatible micro-benchmarks for the three compute-bound
//! ops the PR 8 hot-path work targets: fingerprint scan, delta encode,
//! and patch apply. Each op is sampled individually (one `Instant`
//! window per call, percentiles over the sorted samples — medians hide
//! tail behavior, which is exactly what the restore path cares about)
//! on a checkpoint-shaped corpus, for both the legacy path and the
//! optimized path:
//!
//! | op | legacy | optimized |
//! |----|--------|-----------|
//! | fingerprint | `page_fingerprint_scalar` | `page_fingerprint` (wide scan) / `pages_fingerprints` (batch) |
//! | encode | `encode_reference` (per-call `HashMap`) | `encode_with` (reused [`EncodeScratch`]) |
//! | apply | `apply` (allocating) | `apply_into` / `PatchRef::apply_into` (zero-copy) |
//!
//! Image materialisation has three rows of its own: `image_build_first`
//! (a fresh [`ImageBuilder`]: fills the file-backed template, then the
//! instance), `image_build` (the same builder warm: template copy +
//! heap/stack fill + noise) and `page_count` (what a spawn pays).
//!
//! The experiment is self-checking: every optimized-path result is
//! asserted bit-identical to its legacy counterpart on the whole
//! corpus, and a deterministic FNV digest over all fingerprints and
//! patch bytes is written to `<results>/microbench.digest` so CI can
//! double-run the experiment and `diff` the digests. In full mode the
//! speedup gates (≥1.5× fingerprint p50, ≥1.3× encode+apply pair) are
//! asserted too; quick mode only reports them, since smoke machines
//! are noisy. Per-op p50s are appended to `perf_history.jsonl` as
//! `microbench/<op>` records.

use crate::common::ExpConfig;
use crate::perf_history;
use crate::report::{f, Report};
use medes_ckpt::{CheckpointImage, ProcessSpec};
use medes_delta::{
    apply, apply_into, encode_reference, encode_with, EncodeConfig, EncodeScratch, Patch, PatchRef,
};
use medes_hash::fnv::fnv1a;
use medes_hash::sample::{
    page_fingerprint, page_fingerprint_scalar, pages_fingerprints, FingerprintConfig,
    PageFingerprint,
};
use medes_mem::{ContentModel, ContentModelConfig, FunctionSpec, ImageBuilder};
use medes_obs::json::{Json, JsonMap};
use medes_sim::DetRng;
use std::time::Instant;

/// Percentile summary of one op's samples, nanoseconds.
#[derive(Debug, Clone, Copy)]
struct OpStats {
    p50: f64,
    p95: f64,
    p99: f64,
    samples: usize,
}

impl OpStats {
    /// Nearest-rank percentiles over the sorted samples.
    fn from_samples(mut ns: Vec<f64>) -> OpStats {
        assert!(!ns.is_empty());
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pick = |q: f64| {
            let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
            ns[rank - 1]
        };
        OpStats {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            samples: ns.len(),
        }
    }
}

/// Times `op` once per sample; the `u64` return value is folded into a
/// sink so the optimizer cannot elide the work.
fn measure<F: FnMut(usize) -> u64>(samples: usize, mut op: F) -> OpStats {
    let mut ns = Vec::with_capacity(samples);
    let mut sink = 0u64;
    for i in 0..samples {
        let t0 = Instant::now();
        sink = sink.wrapping_add(op(i));
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    OpStats::from_samples(ns)
}

/// The benchmark corpus: checkpoint pages plus near-duplicate
/// (base, target) page pairs — the shapes the dedup scan actually
/// encodes. Fully deterministic.
struct Corpus {
    pages: Vec<Vec<u8>>,
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

fn build_corpus(quick: bool) -> Corpus {
    let ckpt = |name: &str, mb: usize, libs: &[&str], seed: u64| {
        let img = ImageBuilder::new(FunctionSpec::new(name, mb << 20, libs))
            .with_scale(16)
            .build(seed);
        CheckpointImage::from_image(&img, ProcessSpec::default())
    };
    let images = [
        ckpt("mb-json", 2, &["libc", "librt"], 1),
        ckpt("mb-ml", 4, &["libc", "libml"], 2),
    ];
    let mut pages: Vec<Vec<u8>> = Vec::new();
    for img in &images {
        pages.extend(img.page_slices().map(<[u8]>::to_vec));
    }
    let cap = if quick { 64 } else { 256 };
    pages.truncate(cap);
    // Near-duplicate pairs: point edits and a small insertion-style
    // splat, mirroring warm sandbox pages drifting from their base.
    let mut rng = DetRng::new(0x00B5_EED5);
    let mut pairs = Vec::new();
    for (i, page) in pages.iter().enumerate().take(cap / 2) {
        let base = page.clone();
        let mut target = base.clone();
        for _ in 0..rng.range(1, 6) {
            let at = rng.below(target.len() as u64 - 32) as usize;
            let len = rng.range(4, 32) as usize;
            for b in &mut target[at..at + len] {
                *b = rng.next_u8();
            }
        }
        if i % 4 == 3 {
            // Every fourth pair diffs against an unrelated page.
            rng.fill_bytes(&mut target);
        }
        pairs.push((base, target));
    }
    Corpus { pages, pairs }
}

/// The builder the image rows time: a mid-sized two-library function
/// under the `paper_calibrated` mixture (what the platform experiments
/// and the repository benchmark materialise), 128 pages at 1/64.
fn image_builder() -> ImageBuilder {
    ImageBuilder::new(FunctionSpec::new("mb-image", 32 << 20, &["numpy", "time"]))
        .with_scale(64)
        .with_model(ContentModel {
            mixture: ContentModelConfig::paper_calibrated(),
            ..ContentModel::default()
        })
}

/// Folds bytes into a running FNV-chain digest.
fn fold(acc: u64, bytes: &[u8]) -> u64 {
    acc.rotate_left(1) ^ fnv1a(bytes)
}

fn digest_fingerprints(fps: &[PageFingerprint]) -> u64 {
    let mut acc = 0xD16E_5700u64;
    for fp in fps {
        for c in fp.chunks() {
            acc = fold(acc, &c.offset.to_le_bytes());
            acc = fold(acc, &c.hash.to_le_bytes());
        }
    }
    acc
}

/// Digest of what the image rows produce: a cold and a warm build of
/// two instances (asserted equal) and the page count.
fn digest_images() -> u64 {
    let warm = image_builder();
    let mut acc = fold(0xD16E_5702u64, &(warm.page_count() as u64).to_le_bytes());
    for (seed, version) in [(1u64, 0u64), (2, 0), (2, 1)] {
        let cold = image_builder().build_versioned(seed, version);
        let img = warm.build_versioned(seed, version);
        assert_eq!(img.page_count(), warm.page_count(), "page_count drifted");
        for (i, page) in img.pages() {
            assert!(page == cold.page(i), "templated build diverged from first");
            acc = fold(acc, page);
        }
    }
    acc
}

fn digest_patches(patches: &[Patch]) -> u64 {
    let mut acc = 0xD16E_5701u64;
    for p in patches {
        acc = fold(acc, &p.to_bytes());
    }
    acc
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("microbench", "hot-path op latency (p50/p95/p99 per op)");
    let corpus = build_corpus(cfg.quick);
    let fp_cfg = FingerprintConfig::default();
    let enc_cfg = EncodeConfig::with_level(1); // what the platform uses
    let n_pages = corpus.pages.len();
    let n_pairs = corpus.pairs.len();
    report.line(&format!(
        "corpus: {n_pages} checkpoint pages, {n_pairs} encode pairs (level 1){}",
        if cfg.quick { ", quick sizes" } else { "" }
    ));

    // --- Correctness gates first: the fast paths must be bit-identical
    // to the legacy paths on the whole corpus before timing them.
    let wide_fps: Vec<PageFingerprint> = corpus
        .pages
        .iter()
        .map(|p| page_fingerprint(p, &fp_cfg))
        .collect();
    let scalar_fps: Vec<PageFingerprint> = corpus
        .pages
        .iter()
        .map(|p| page_fingerprint_scalar(p, &fp_cfg))
        .collect();
    assert_eq!(wide_fps, scalar_fps, "wide scan diverged from scalar");
    let slices: Vec<&[u8]> = corpus.pages.iter().map(Vec::as_slice).collect();
    assert_eq!(
        pages_fingerprints(&slices, &fp_cfg),
        wide_fps,
        "batch scan diverged from per-page scan"
    );
    let mut scratch = EncodeScratch::new();
    let mut patches = Vec::with_capacity(n_pairs);
    let mut out = Vec::new();
    for (base, target) in &corpus.pairs {
        let fast = encode_with(base, target, &enc_cfg, &mut scratch);
        let reference = encode_reference(base, target, &enc_cfg);
        assert_eq!(
            fast.to_bytes(),
            reference.to_bytes(),
            "scratch encoder diverged from reference"
        );
        assert_eq!(apply(base, &fast).expect("apply"), *target);
        apply_into(base, &fast, &mut out).expect("apply_into");
        assert_eq!(out, *target, "apply_into diverged from apply");
        let bytes = fast.to_bytes();
        let view = PatchRef::from_bytes(&bytes).expect("patch view");
        view.apply_into(base, &mut out).expect("zero-copy apply");
        assert_eq!(out, *target, "PatchRef::apply_into diverged");
        patches.push(fast);
    }
    // --- Determinism digest (for the CI double-run diff).
    let fp_digest = digest_fingerprints(&wide_fps);
    let patch_digest = digest_patches(&patches);
    let image_digest = digest_images();
    report.line(
        "equality gates: wide==scalar, batch==single, scratch==reference, into==alloc, \
         templated==first ok",
    );

    // --- Timed sections.
    let samples = if cfg.quick { 300 } else { 3000 };
    let fp_scalar = measure(samples, |i| {
        page_fingerprint_scalar(&corpus.pages[i % n_pages], &fp_cfg).len() as u64
    });
    let fp_wide = measure(samples, |i| {
        page_fingerprint(&corpus.pages[i % n_pages], &fp_cfg).len() as u64
    });
    // Batch: one sample = one whole-corpus call, reported per page.
    let batch_samples = if cfg.quick { 20 } else { 60 };
    let fp_batch_total = measure(batch_samples, |_| {
        pages_fingerprints(&slices, &fp_cfg).len() as u64
    });
    let fp_batch = OpStats {
        p50: fp_batch_total.p50 / n_pages as f64,
        p95: fp_batch_total.p95 / n_pages as f64,
        p99: fp_batch_total.p99 / n_pages as f64,
        samples: batch_samples * n_pages,
    };
    let enc_samples = if cfg.quick { 200 } else { 2000 };
    let enc_reference = measure(enc_samples, |i| {
        let (base, target) = &corpus.pairs[i % n_pairs];
        encode_reference(base, target, &enc_cfg).serialized_size() as u64
    });
    let enc_scratch = measure(enc_samples, |i| {
        let (base, target) = &corpus.pairs[i % n_pairs];
        encode_with(base, target, &enc_cfg, &mut scratch).serialized_size() as u64
    });
    let apply_samples = if cfg.quick { 2000 } else { 20000 };
    let apply_alloc = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        apply(base, &patches[i % n_pairs]).expect("apply").len() as u64
    });
    let apply_into_stats = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        apply_into(base, &patches[i % n_pairs], &mut out).expect("apply_into");
        out.len() as u64
    });
    let patch_bytes: Vec<Vec<u8>> = patches.iter().map(Patch::to_bytes).collect();
    let apply_ref = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        let view = PatchRef::from_bytes(&patch_bytes[i % n_pairs]).expect("view");
        view.apply_into(base, &mut out).expect("zero-copy apply");
        out.len() as u64
    });

    let image_samples = if cfg.quick { 40 } else { 400 };
    let image_first = measure(image_samples, |i| {
        image_builder().build(i as u64).page_count() as u64
    });
    let warm_builder = image_builder();
    let image_warm = measure(image_samples, |i| {
        warm_builder.build(i as u64).page_count() as u64
    });
    let page_count = measure(apply_samples, |_| {
        std::hint::black_box(&warm_builder).page_count() as u64
    });

    let ops: [(&str, OpStats); 11] = [
        ("fingerprint/scalar", fp_scalar),
        ("fingerprint/wide", fp_wide),
        ("fingerprint/batch", fp_batch),
        ("encode/reference", enc_reference),
        ("encode/scratch", enc_scratch),
        ("apply/alloc", apply_alloc),
        ("apply/into", apply_into_stats),
        ("apply/ref-into", apply_ref),
        ("image_build_first", image_first),
        ("image_build", image_warm),
        ("page_count", page_count),
    ];
    let us = |ns: f64| f(ns / 1000.0, 3);
    report.section("per-op latency (us)");
    report.table(
        &["op", "p50", "p95", "p99", "samples"],
        &ops.iter()
            .map(|(name, s)| {
                vec![
                    name.to_string(),
                    us(s.p50),
                    us(s.p95),
                    us(s.p99),
                    s.samples.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- Speedup gates.
    let fp_speedup = fp_scalar.p50 / fp_wide.p50;
    let pair_speedup =
        (enc_reference.p50 + apply_alloc.p50) / (enc_scratch.p50 + apply_into_stats.p50);
    report.section("speedups vs pre-PR path (p50)");
    report.line(&format!(
        "fingerprint scan: {}x (gate >= 1.5x)",
        f(fp_speedup, 2)
    ));
    report.line(&format!(
        "encode+apply pair: {}x (gate >= 1.3x)",
        f(pair_speedup, 2)
    ));
    if !cfg.quick {
        assert!(
            fp_speedup >= 1.5,
            "fingerprint speedup gate failed: {fp_speedup:.2}x < 1.5x"
        );
        assert!(
            pair_speedup >= 1.3,
            "encode+apply speedup gate failed: {pair_speedup:.2}x < 1.3x"
        );
    }
    report.line(&format!(
        "determinism digest: fingerprints {fp_digest:016x}, patches {patch_digest:016x}, \
         images {image_digest:016x}"
    ));

    // --- Artifacts: JSON record, digest file, per-op perf history.
    let mut op_objs = Vec::new();
    for (name, s) in &ops {
        let mut m = JsonMap::new();
        m.insert("op", *name);
        m.insert("p50_ns", s.p50);
        m.insert("p95_ns", s.p95);
        m.insert("p99_ns", s.p99);
        m.insert("samples", s.samples as u64);
        op_objs.push(Json::Object(m));
    }
    report.json_set("ops", Json::Array(op_objs));
    report.json_set("fingerprint_speedup_p50", Json::from(fp_speedup));
    report.json_set("encode_apply_pair_speedup_p50", Json::from(pair_speedup));
    report.json_set(
        "fingerprint_digest",
        Json::from(format!("{fp_digest:016x}")),
    );
    report.json_set("patch_digest", Json::from(format!("{patch_digest:016x}")));
    report.json_set("image_digest", Json::from(format!("{image_digest:016x}")));
    let digest_path = cfg.results_dir.join("microbench.digest");
    let digest_body = format!(
        "fingerprints {fp_digest:016x}\npatches {patch_digest:016x}\nimages {image_digest:016x}\n"
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.results_dir)
        .and_then(|()| std::fs::write(&digest_path, &digest_body))
    {
        eprintln!("warning: failed to write {}: {e}", digest_path.display());
    }
    for (name, s) in &ops {
        perf_history::append(
            &cfg.results_dir,
            &perf_history::PerfRecord {
                experiment: format!("microbench/{name}"),
                quick: cfg.quick,
                wall_s: s.p50 / 1e9,
                peak_rss_bytes: perf_history::peak_rss_bytes(),
            },
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = OpStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.samples, 100);
        let one = OpStats::from_samples(vec![7.0]);
        assert_eq!((one.p50, one.p95, one.p99), (7.0, 7.0, 7.0));
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(true);
        let b = build_corpus(true);
        assert_eq!(a.pages, b.pages);
        assert_eq!(a.pairs, b.pairs);
        assert!(!a.pairs.is_empty());
    }
}
