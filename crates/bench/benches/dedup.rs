//! Micro-benchmarks for the platform primitives: registry lookups (the
//! controller's hot path, ~80 µs/page in the paper) and full
//! dedup/restore ops over one sandbox image.

use medes_bench::harness::Criterion;
use medes_core::config::PlatformConfig;
use medes_core::dedup::{dedup_op, index_base_sandbox};
use medes_core::ids::{FnId, NodeId, SandboxId};
use medes_core::images::ImageFactory;
use medes_core::registry::RegistryClient;
use medes_core::restore::restore_op_cached;
use medes_hash::sample::{page_fingerprint, FingerprintConfig};
use medes_mem::{AslrConfig, ContentModel};
use medes_net::Fabric;
use medes_trace::functionbench_suite;
use std::sync::Arc;

fn bench_registry_lookup(c: &mut Criterion) {
    let cfg = FingerprintConfig::default();
    let reg = RegistryClient::new();
    let mut rng = medes_sim::DetRng::new(7);
    let mut pages = Vec::new();
    for i in 0..2000u64 {
        let mut p = vec![0u8; 4096];
        rng.fill_bytes(&mut p);
        let fp = page_fingerprint(&p, &cfg);
        reg.insert_page(
            &fp,
            medes_core::registry::ChunkLoc {
                node: NodeId(0),
                sandbox: SandboxId(i / 100),
                page: (i % 100) as u32,
            },
        );
        pages.push(fp);
    }
    c.bench_function("registry_lookup_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % pages.len();
            reg.lookup(&pages[i])
        })
    });
}

type Setup = (
    PlatformConfig,
    RegistryClient,
    Fabric,
    Arc<medes_mem::MemoryImage>,
    Arc<medes_mem::MemoryImage>,
);

fn pipeline_setup() -> Setup {
    let mut cfg = PlatformConfig::paper_default();
    cfg.mem_scale = 256;
    let mut factory = ImageFactory::new(
        &functionbench_suite()[..1],
        ContentModel::default(),
        AslrConfig::DISABLED,
        cfg.mem_scale,
    );
    let registry = RegistryClient::new();
    let fabric = Fabric::new(cfg.nodes, cfg.net.clone());
    let base = factory.pin(FnId(0), 1);
    index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
    let target = factory.image(FnId(0), 2);
    (cfg, registry, fabric, base, target)
}

fn bench_dedup_op(c: &mut Criterion) {
    let (cfg, registry, mut fabric, base, target) = pipeline_setup();
    let base2 = Arc::clone(&base);
    c.bench_function("dedup_op_vanilla_sandbox", |b| {
        b.iter(|| {
            dedup_op(
                &cfg,
                &registry,
                &mut fabric,
                NodeId(1),
                FnId(0),
                &target,
                &|id| (id == SandboxId(1)).then(|| (Arc::clone(&base2), FnId(0))),
            )
            .expect("dedup op")
        })
    });
}

fn bench_restore_op(c: &mut Criterion) {
    let (cfg, registry, mut fabric, base, target) = pipeline_setup();
    let base2 = Arc::clone(&base);
    let outcome = dedup_op(
        &cfg,
        &registry,
        &mut fabric,
        NodeId(1),
        FnId(0),
        &target,
        &|id| (id == SandboxId(1)).then(|| (Arc::clone(&base2), FnId(0))),
    )
    .expect("dedup op");
    let base3 = Arc::clone(&base);
    c.bench_function("restore_op_vanilla_sandbox", |b| {
        b.iter(|| {
            restore_op_cached(
                &cfg,
                &mut fabric,
                NodeId(1),
                &outcome.table,
                &|id| (id == SandboxId(1)).then(|| (Arc::clone(&base3), FnId(0))),
                None,
                None,
            )
            .unwrap()
        })
    });
}

medes_bench::bench_group!(
    benches,
    bench_registry_lookup,
    bench_dedup_op,
    bench_restore_op
);
medes_bench::bench_main!(benches);
