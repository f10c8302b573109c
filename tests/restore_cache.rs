//! Cross-crate tests for the restore read path and the per-node
//! base-page cache: locality of the read cost model, cache
//! behaviour under chaos replay, and invalidation when a node holding
//! base sandboxes crashes.

use medes::mem::{FunctionSpec, ImageBuilder, MemoryImage};
use medes::net::{Fabric, NetConfig};
use medes::platform::config::{PlatformConfig, PolicyKind, RestoreReadConfig};
use medes::platform::dedup::{dedup_op, index_base_sandbox};
use medes::platform::ids::{FnId, NodeId, SandboxId};
use medes::platform::metrics::RunReport;
use medes::platform::registry::RegistryClient;
use medes::platform::restore::restore_op_cached;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
use std::sync::Arc;

fn image(name: &str, scale: usize, inst: u64) -> Arc<MemoryImage> {
    Arc::new(
        ImageBuilder::new(FunctionSpec::new(name, 16 << 20, &["numpy"]))
            .with_scale(scale)
            .build(inst),
    )
}

/// Same-node base pages go through `LOCAL_MEM_BPS`, not the RDMA NIC:
/// restoring next to the base sandbox must be strictly faster than
/// restoring across the fabric.
#[test]
fn local_base_restore_beats_remote() {
    let mut cfg = PlatformConfig::small_test();
    cfg.mem_scale = 512;
    let base = image("LocalFn", cfg.mem_scale, 1);
    let target = image("LocalFn", cfg.mem_scale, 2);
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

    // Same table, same bases — only the restoring node differs.
    let local = restore_op_cached(
        &cfg,
        &mut fabric,
        NodeId(0),
        &outcome.table,
        &resolver,
        None,
        Some(&target),
    )
    .expect("local restore");
    let remote = restore_op_cached(
        &cfg,
        &mut fabric,
        NodeId(1),
        &outcome.table,
        &resolver,
        None,
        Some(&target),
    )
    .expect("remote restore");
    assert!(
        local.timing.base_read < remote.timing.base_read,
        "local base read {:?} must beat remote {:?}",
        local.timing.base_read,
        remote.timing.base_read,
    );
    // Everything after the read is location-independent.
    assert_eq!(local.timing.page_compute, remote.timing.page_compute);
    assert_eq!(local.timing.ckpt_restore, remote.timing.ckpt_restore);
}

fn pressured_trace(secs: u64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale: 10.0,
            seed: 7,
        },
    );
    (suite, trace)
}

/// A memory-pressured config with a per-node base-page cache.
/// `small_test` keeps `verify_restores` on, so every restore — cache
/// hit or not — is byte-checked against the expected image.
fn cached_config(page_cache_bytes: usize) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.read_path = RestoreReadConfig::cached(page_cache_bytes);
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg
}

fn run_with_cache(page_cache_bytes: usize, plan: &FaultPlan) -> RunReport {
    let (suite, trace) = pressured_trace(600);
    let mut cfg = cached_config(page_cache_bytes);
    cfg.faults = plan.clone();
    Platform::new(cfg, suite).run(&trace).report
}

fn run_cached(plan: &FaultPlan) -> RunReport {
    run_with_cache(32 << 20, plan)
}

/// Restore count and restore-count-weighted mean restore time (us):
/// each function's mean base-read + patch + checkpoint-restore time.
fn restores_and_mean_us(r: &RunReport) -> (u64, f64) {
    let n: u64 = r.dedup_stats.iter().map(|s| s.restores).sum();
    let total_us: f64 = r
        .dedup_stats
        .iter()
        .map(|s| {
            let (base, patch, ckpt) = s.mean_restore_us;
            s.restores as f64 * (base + patch + ckpt)
        })
        .sum();
    (n, total_us / n.max(1) as f64)
}

/// Repeat restores on the same node must be served from the cache, and
/// every served page must be byte-correct: with `verify_restores` on
/// and no faults injected, a stale cache entry would surface as a
/// restore corruption (which the fault-free platform treats as a hard
/// error) instead of a silent fallback.
#[test]
fn pressured_run_hits_cache_and_serves_correct_bytes() {
    let report = run_cached(&FaultPlan::default());
    assert!(report.cache_misses > 0, "restores must populate the cache");
    assert!(report.cache_hits > 0, "repeat restores must hit the cache");
    assert!(report.cache_bytes_saved > 0);
    assert_eq!(
        report.fallback_cold_starts, 0,
        "a fault-free cached run must never fall back"
    );
    // Base sandboxes are purged under memory pressure; every purge must
    // sweep the caches so later restores cannot see dead pages.
    assert!(
        report.cache_invalidations > 0,
        "base purges must invalidate cached pages"
    );

    // What the cache buys, against the same run without one: node
    // memory is large against the cache (1 GiB vs 32 MiB), so the
    // cache trades nothing for its bytes and must win on both axes.
    let uncached = run_with_cache(0, &FaultPlan::default());
    assert_eq!(
        uncached.cache_hits + uncached.cache_misses,
        0,
        "capacity 0 is no cache"
    );
    let ((n, mean_us), (n0, mean0_us)) = (
        restores_and_mean_us(&report),
        restores_and_mean_us(&uncached),
    );
    assert!(n > 0 && n0 > 0, "both runs need restores to compare");
    assert!(
        mean_us <= mean0_us,
        "cached mean restore time must not exceed uncached ({mean_us} us vs {mean0_us} us)"
    );
    assert!(
        report.rdma_bytes < uncached.rdma_bytes,
        "the cached run must move fewer RDMA bytes ({} vs {})",
        report.rdma_bytes,
        uncached.rdma_bytes
    );
}

/// The chaos plan from the fault-recovery suite, replayed with the
/// cache enabled: the whole run — cache counters included, since they
/// are part of `RunReport`'s `PartialEq` — must be bit-identical
/// across executions.
#[test]
fn cached_chaos_replay_is_bit_identical() {
    let plan = FaultPlan {
        seed: 0xFA17,
        crashes: vec![
            NodeCrash {
                node: 0,
                at: SimTime::from_secs(200),
                restart: None,
            },
            NodeCrash {
                node: 1,
                at: SimTime::from_secs(380),
                restart: Some(SimTime::from_secs(450)),
            },
        ],
        links: vec![
            LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::from_secs(250),
                until: SimTime::from_secs(320),
                kind: LinkFaultKind::Error { drop_prob: 1.0 },
            },
            LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::from_secs(450),
                until: SimTime::from_secs(500),
                kind: LinkFaultKind::LatencySpike { factor: 8.0 },
            },
        ],
        rpc_drop_prob: 0.02,
    };
    let r1 = run_cached(&plan);
    let r2 = run_cached(&plan);
    assert_eq!(r1, r2, "cached chaos run must replay bit-identically");
    assert!(
        r1.cache_misses > 0,
        "the cache must see traffic under chaos"
    );
}

/// Killing a node that holds base sandboxes must invalidate those
/// bases from every node's cache — no restore may be served a page of
/// a dead base — and the dead node's own cache must be dropped with it.
#[test]
fn node_crash_invalidates_cached_bases() {
    let plan = FaultPlan {
        seed: 0xCACE,
        crashes: vec![NodeCrash {
            node: 0,
            at: SimTime::from_secs(200),
            restart: None,
        }],
        links: vec![],
        rpc_drop_prob: 0.0,
    };
    let report = run_cached(&plan);
    assert_eq!(report.node_crashes, 1, "the planned crash must fire");
    assert!(
        report.cache_invalidations > 0,
        "crash-purged bases must be swept from the caches"
    );
    // The registry invariant from the fault-recovery suite still holds
    // with the cache in the restore path.
    assert_eq!(
        report.registry_dead_node_locs, 0,
        "registry must not reference chunks on dead nodes"
    );
    assert!(!report.requests.is_empty(), "the run must complete");
}
