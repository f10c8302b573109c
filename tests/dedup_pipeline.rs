//! Integration tests for the dedup → restore pipeline across crates,
//! plus property tests on its invariants.

use medes::hash::sample::{page_fingerprint, FingerprintConfig};
use medes::mem::{AslrConfig, FunctionSpec, ImageBuilder};
use medes::net::{Fabric, NetConfig};
use medes::platform::config::PlatformConfig;
use medes::platform::dedup::{dedup_op, index_base_sandbox};
use medes::platform::ids::{FnId, NodeId, SandboxId};
use medes::platform::registry::RegistryClient;
use medes::platform::restore::restore_op_cached;
use medes_delta::apply;
use std::sync::Arc;

fn config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.mem_scale = 512;
    cfg
}

fn image(
    name: &str,
    mem_mb: usize,
    libs: &[&str],
    scale: usize,
    inst: u64,
) -> Arc<medes::mem::MemoryImage> {
    Arc::new(
        ImageBuilder::new(FunctionSpec::new(name, mem_mb << 20, libs))
            .with_scale(scale)
            .build(inst),
    )
}

#[test]
fn full_pipeline_reconstructs_every_page() {
    let cfg = config();
    let base = image("PipeFn", 16, &["numpy"], cfg.mem_scale, 1);
    let target = image("PipeFn", 16, &["numpy"], cfg.mem_scale, 2);
    let registry = RegistryClient::new();
    let mut fabric = Fabric::new(cfg.nodes, NetConfig);
    index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);

    let b = Arc::clone(&base);
    let resolver = move |id: SandboxId| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0)));
    let outcome = dedup_op(
        &cfg,
        &registry,
        &mut fabric,
        NodeId(1),
        FnId(0),
        &target,
        &resolver,
    )
    .expect("dedup op");
    assert!(outcome.table.patched_pages() > 0);

    // Manually reconstruct every patched page and compare bytes.
    for (idx, entry) in outcome.table.entries.iter().enumerate() {
        if let medes::platform::sandbox::PageEntry::Patched {
            base_page, patch, ..
        } = entry
        {
            let rebuilt = apply(base.page(*base_page as usize), patch).expect("patch applies");
            assert_eq!(rebuilt, target.page(idx), "page {idx}");
        }
    }

    // And the restore op agrees.
    let b2 = Arc::clone(&base);
    let resolver2 = move |id: SandboxId| (id == SandboxId(1)).then(|| (Arc::clone(&b2), FnId(0)));
    restore_op_cached(
        &cfg,
        &mut fabric,
        NodeId(1),
        &outcome.table,
        &resolver2,
        None,
        Some(&target),
    )
    .expect("verified restore");
}

#[test]
fn dedup_footprint_is_always_smaller_when_pages_patch() {
    let cfg = config();
    let base = image("SizeFn", 24, &["pandas"], cfg.mem_scale, 5);
    let target = image("SizeFn", 24, &["pandas"], cfg.mem_scale, 6);
    let registry = RegistryClient::new();
    let mut fabric = Fabric::new(cfg.nodes, NetConfig);
    index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
    let b = Arc::clone(&base);
    let outcome = dedup_op(
        &cfg,
        &registry,
        &mut fabric,
        NodeId(0),
        FnId(0),
        &target,
        &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0))),
    )
    .expect("dedup op");
    let resident = outcome.table.resident_model_bytes();
    assert!(resident < target.total_bytes());
    // patch_max_frac guarantees each patched page beats a verbatim page.
    let verbatim_only = outcome.table.verbatim_pages * medes::mem::PAGE_SIZE;
    assert!(resident >= verbatim_only);
}

#[test]
fn aslr_reduces_dedup_effectiveness_but_not_correctness() {
    let mut cfg = config();
    let build = |aslr: AslrConfig, inst: u64| {
        Arc::new(
            ImageBuilder::new(FunctionSpec::new("AslrFn", 16 << 20, &["json"]))
                .with_scale(cfg.mem_scale)
                .with_aslr(aslr)
                .build(inst),
        )
    };
    cfg.aslr = AslrConfig::LINUX;
    let registry_off = RegistryClient::new();
    let registry_on = RegistryClient::new();
    let mut fabric = Fabric::new(cfg.nodes, NetConfig);

    let base_off = build(AslrConfig::DISABLED, 1);
    let tgt_off = build(AslrConfig::DISABLED, 2);
    index_base_sandbox(&cfg, &registry_off, NodeId(0), SandboxId(1), &base_off);
    let b = Arc::clone(&base_off);
    let off = dedup_op(
        &cfg,
        &registry_off,
        &mut fabric,
        NodeId(0),
        FnId(0),
        &tgt_off,
        &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0))),
    )
    .expect("dedup op");

    let base_on = build(AslrConfig::LINUX, 1);
    let tgt_on = build(AslrConfig::LINUX, 2);
    index_base_sandbox(&cfg, &registry_on, NodeId(0), SandboxId(1), &base_on);
    let b = Arc::clone(&base_on);
    let resolver_on = move |id: SandboxId| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0)));
    let on = dedup_op(
        &cfg,
        &registry_on,
        &mut fabric,
        NodeId(0),
        FnId(0),
        &tgt_on,
        &resolver_on,
    )
    .expect("dedup op");

    assert!(
        on.saved_model_bytes() <= off.saved_model_bytes(),
        "ASLR must not increase savings (on {} vs off {})",
        on.saved_model_bytes(),
        off.saved_model_bytes()
    );
    // Restores remain byte-correct with ASLR on.
    restore_op_cached(
        &cfg,
        &mut fabric,
        NodeId(0),
        &on.table,
        &resolver_on,
        None,
        Some(&tgt_on),
    )
    .expect("ASLR restore verifies");
}

/// Fingerprints of identical pages always collide; the registry
/// must therefore elect a same-content base page whenever one is
/// indexed, regardless of seed.
#[test]
fn identical_pages_always_elect_a_base() {
    let cfg = FingerprintConfig::default();
    let mut seed_rng = medes::sim::DetRng::new(0xBA5E);
    for case in 0..16 {
        let seed = seed_rng.below(1_000_000);
        let mut rng = medes::sim::DetRng::new(seed);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let fp = page_fingerprint(&page, &cfg);
        if fp.is_empty() {
            continue;
        }
        let reg = RegistryClient::new();
        reg.insert_page(
            &fp,
            medes::platform::registry::ChunkLoc {
                node: NodeId(0),
                sandbox: SandboxId(1),
                page: 0,
            },
        );
        let cands = reg.lookup(&fp);
        assert!(!cands.is_empty(), "case {case} (seed {seed})");
        assert_eq!(
            cands[0].votes as usize,
            fp.len(),
            "case {case} (seed {seed})"
        );
    }
}

/// The dedup table's resident bytes plus saved bytes must equal the
/// original image size (modulo metadata), for any instance pair.
#[test]
fn savings_accounting_is_consistent() {
    let mut pair_rng = medes::sim::DetRng::new(0xACC0);
    for case in 0..16 {
        let a = pair_rng.below(10_000);
        let b = pair_rng.below(10_000);
        if a == b {
            continue;
        }
        let cfg = config();
        let base = image("PropFn", 8, &[], cfg.mem_scale, a);
        let target = image("PropFn", 8, &[], cfg.mem_scale, b);
        let registry = RegistryClient::new();
        let mut fabric = Fabric::new(cfg.nodes, NetConfig);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
        let bb = Arc::clone(&base);
        let outcome = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(0),
            &target,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&bb), FnId(0))),
        )
        .expect("dedup op");
        let full = target.total_bytes();
        let resident = outcome.table.resident_model_bytes();
        let saved = outcome.saved_model_bytes();
        assert_eq!(
            saved,
            full.saturating_sub(resident),
            "case {case} ({a},{b})"
        );
        assert!(
            outcome.table.verbatim_pages + outcome.table.patched_pages() == target.page_count(),
            "case {case} ({a},{b})"
        );
    }
}
