//! End-to-end equivalence for the PR 8 hot-path rework: the wide
//! fingerprint scan, the scratch-arena encoder, and the zero-copy
//! apply path must be bit-identical to their reference counterparts
//! on real pipeline output — not just on synthetic unit-test buffers.

use medes::hash::sample::{
    page_fingerprint, page_fingerprint_scalar, pages_fingerprints, FingerprintConfig,
};
use medes::mem::{FunctionSpec, ImageBuilder};
use medes::net::{Fabric, NetConfig};
use medes::platform::config::PlatformConfig;
use medes::platform::dedup::{dedup_op, index_base_sandbox};
use medes::platform::ids::{FnId, NodeId, SandboxId};
use medes::platform::registry::RegistryClient;
use medes_delta::{apply, apply_into, encode_reference, EncodeConfig, PatchRef};
use std::sync::Arc;

fn config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.mem_scale = 512;
    cfg
}

fn image(name: &str, inst: u64, scale: usize) -> Arc<medes::mem::MemoryImage> {
    Arc::new(
        ImageBuilder::new(FunctionSpec::new(name, 16 << 20, &["numpy"]))
            .with_scale(scale)
            .build(inst),
    )
}

/// Every patch the dedup op emits must match a recomputation with the
/// pre-optimization reference encoder, byte for byte, and all three
/// apply paths must reconstruct the original page.
#[test]
fn pipeline_patches_match_reference_encoder() {
    let cfg = config();
    let base = image("HotFn", 1, cfg.mem_scale);
    let target = image("HotFn", 2, cfg.mem_scale);
    let registry = RegistryClient::new();
    let mut fabric = Fabric::new(cfg.nodes, NetConfig);
    index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
    let b = Arc::clone(&base);
    let outcome = dedup_op(
        &cfg,
        &registry,
        &mut fabric,
        NodeId(1),
        FnId(0),
        &target,
        &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0))),
    )
    .expect("dedup op");
    assert!(outcome.table.patched_pages() > 0, "corpus must dedup");

    let encode_cfg = EncodeConfig::with_level(cfg.delta_level);
    let mut out = Vec::new();
    let mut checked = 0usize;
    for (idx, entry) in outcome.table.entries.iter().enumerate() {
        if let medes::platform::sandbox::PageEntry::Patched {
            base_page, patch, ..
        } = entry
        {
            let base_bytes = base.page(*base_page as usize);
            let reference = encode_reference(base_bytes, target.page(idx), &encode_cfg);
            assert_eq!(
                patch.to_bytes(),
                reference.to_bytes(),
                "page {idx}: emitted patch diverged from reference encoder"
            );
            let alloc = apply(base_bytes, patch).expect("apply");
            assert_eq!(alloc, target.page(idx), "page {idx}");
            apply_into(base_bytes, patch, &mut out).expect("apply_into");
            assert_eq!(out, target.page(idx), "page {idx} (apply_into)");
            let bytes = patch.to_bytes();
            let view = PatchRef::from_bytes(&bytes).expect("patch view");
            view.apply_into(base_bytes, &mut out)
                .expect("ref apply_into");
            assert_eq!(out, target.page(idx), "page {idx} (PatchRef)");
            checked += 1;
        }
    }
    assert!(checked > 0);
}

/// The wide scan and the batch API agree with the scalar reference on
/// every page of a real image (not just synthetic buffers).
#[test]
fn image_fingerprints_match_scalar_reference() {
    let fp_cfg = FingerprintConfig::default();
    for inst in [1u64, 2, 7] {
        let img = image("FpFn", inst, 512);
        let slices: Vec<&[u8]> = img.pages().map(|(_, p)| p).collect();
        let batch = pages_fingerprints(&slices, &fp_cfg);
        assert_eq!(batch.len(), slices.len());
        for (i, page) in slices.iter().enumerate() {
            let wide = page_fingerprint(page, &fp_cfg);
            let scalar = page_fingerprint_scalar(page, &fp_cfg);
            assert_eq!(wide, scalar, "inst {inst} page {i}");
            assert_eq!(batch[i], scalar, "inst {inst} page {i} (batch)");
        }
    }
}
