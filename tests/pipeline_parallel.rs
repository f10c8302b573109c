//! Differential tests for the registry + batch-parallel dedup pipeline:
//! the `RunReport` must be bit-identical at every shard count and every
//! worker count, because scans are pure (the registry's read lock, no
//! fabric access) and commits merge serially in first-enqueued order
//! (DESIGN.md §10). Above one shard the registry is placed on three
//! owners, so concurrent lookups also price their RPCs through the
//! placement, and the chaos grid re-demarcates shards of crashed
//! owners while workers scan. The grid runs both clean and under a chaos
//! fault plan — the fault schedule consumes RNG per fabric op, so any
//! reordering of fabric traffic across worker counts would surface
//! here as a diverged report. Beside the report, the host-work counts
//! of the scans (`RunOutcome::dedup_work`: pages fingerprinted, encoded,
//! reused from a sandbox's last scan) must be identical too: a memo
//! moves into whichever worker scans its sandbox. The one host-time
//! claim — parallel scans beat serial ones — is `#[ignore]`d: CI runs
//! it in `--release` with `-- --ignored`.

use medes::platform::config::{DedupPipelineConfig, PlatformConfig, PolicyKind};
use medes::platform::dedup::ScanWork;
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

const SHARDS: &[usize] = &[1, 4, 16];
const WORKERS: &[usize] = &[1, 8];
const SEEDS: &[u64] = &[7, 11, 42];

fn pressured_trace(secs: u64, seed: u64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale: 10.0,
            seed,
        },
    );
    (suite, trace)
}

/// Memory-pressured Medes config at the given shard/worker counts,
/// through the validating builder (no harness flag sets either). Above
/// one shard the registry is placed on three owners: shards only route
/// a placed registry's RPCs.
fn pipelined_config(shards: usize, workers: usize) -> PlatformConfig {
    let mut builder = PlatformConfig::test_builder();
    if shards > 1 {
        builder = builder.registry_owners(3);
    }
    builder
        .tweak(|cfg| {
            if let PolicyKind::Medes(m) = &mut cfg.policy {
                m.idle_period = SimDuration::from_secs(5);
                m.objective = Objective::MemoryBudget {
                    budget_bytes: 100e6,
                };
            }
        })
        .pipeline(DedupPipelineConfig {
            shards,
            workers,
            flush_interval: SimDuration::from_secs(5),
        })
        .build()
        .expect("valid pipeline config")
}

/// The chaos plan from the fault-recovery suite: a permanent crash, a
/// bounce, a total link-error window, and background RPC drops.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
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
    }
}

fn run_grid_point(
    shards: usize,
    workers: usize,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> (RunReport, ScanWork) {
    let (suite, trace) = pressured_trace(400, seed);
    let mut cfg = pipelined_config(shards, workers);
    if let Some(plan) = faults {
        cfg.faults = plan.clone();
    }
    let out = Platform::new(cfg, suite).run(&trace);
    (out.report, out.dedup_work)
}

/// The core grid: every shard count × worker count must reproduce the
/// (1 shard, 1 worker) report exactly, across three trace seeds.
#[test]
fn report_is_invariant_across_shards_and_workers() {
    for &seed in SEEDS {
        let reference = run_grid_point(1, 1, seed, None);
        assert!(
            reference.0.sandboxes_deduped > 0,
            "seed {seed}: the grid must exercise real dedup work"
        );
        assert!(
            reference.0.dedup_batches > 0,
            "seed {seed}: the pipeline must form batches"
        );
        assert!(
            reference.0.dedup_batch_peak >= 2,
            "seed {seed}: the flush interval never accumulated a multi-sandbox batch (peak {})",
            reference.0.dedup_batch_peak
        );
        // The reference must replay before anything compares against it.
        assert_eq!(
            run_grid_point(1, 1, seed, None),
            reference,
            "seed {seed}: the serial run must be deterministic"
        );
        // Sandboxes are scanned more than once, so workers also run
        // scans that reuse a sandbox's last one — and must count the
        // same work as the serial run.
        assert!(
            reference.1.pages_reused > 0,
            "seed {seed}: no scan reused its sandbox's last one"
        );
        for &shards in SHARDS {
            for &workers in WORKERS {
                if (shards, workers) == (1, 1) {
                    continue;
                }
                let r = run_grid_point(shards, workers, seed, None);
                assert_eq!(
                    r, reference,
                    "seed {seed}: report diverged at {shards} shards x {workers} workers"
                );
            }
        }
    }
}

/// Same grid under the chaos plan: fabric retries draw from the fault
/// schedule's RNG stream per operation, so this additionally proves the
/// commit order (and with it the RNG stream) is worker-independent even
/// while ops are failing and sandboxes are being crash-purged out of
/// the pending queue.
#[test]
fn chaos_report_is_invariant_across_shards_and_workers() {
    let plan = chaos_plan();
    let seed = SEEDS[0];
    let reference = run_grid_point(1, 1, seed, Some(&plan));
    assert!(reference.0.node_crashes > 0, "chaos plan must fire");
    assert!(
        reference.0.sandboxes_deduped > 0,
        "chaos grid must exercise real dedup work"
    );
    for &shards in SHARDS {
        for &workers in WORKERS {
            if (shards, workers) == (1, 1) {
                continue;
            }
            let r = run_grid_point(shards, workers, seed, Some(&plan));
            assert_eq!(
                r, reference,
                "chaos: report diverged at {shards} shards x {workers} workers"
            );
        }
    }
}

/// Worker counts above the batch size (and above the host's core
/// count) are clamped, not crashed — the degenerate configs still
/// reproduce the reference report.
#[test]
fn oversized_worker_pool_is_harmless() {
    let seed = SEEDS[1];
    let reference = run_grid_point(1, 1, seed, None);
    let r = run_grid_point(4, 64, seed, None);
    assert_eq!(r, reference, "64-worker run diverged");
}

/// The host-time gate: at 16 shards, 8 scan workers must beat 1 on
/// scan-phase wall time (`RunOutcome::dedup_scan_wall_us`, kept out of
/// the report and of every obs export). The grid above cannot show it —
/// its batches hold one or two sandboxes — so this is the harness's
/// full-scale fig7 cluster (12 nodes x 192 MiB, all ten functions,
/// 1800 s, P1 with a 2 s idle period: 32 batches, 30 sandboxes at the
/// peak) on images four times heavier than the harness builds, so chunk
/// hashing rather than thread spawn is what is timed. Best of three per
/// side: a shared runner is noisy and the claim is a structural
/// speedup, not a lucky one.
#[test]
#[ignore = "host-time gate"]
fn parallel_scans_beat_serial_on_a_multicore_host() {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 2 {
        eprintln!("single-core host: no parallel speed-up to measure, skipped");
        return;
    }
    let suite = functionbench_suite();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 1800,
            scale: 5.0,
            ..Default::default()
        },
    );
    let best_of_three = |workers: usize| -> u64 {
        let mut cfg = pipelined_config(16, workers);
        cfg.nodes = 12;
        cfg.node_mem_bytes = 192 << 20;
        cfg.mem_scale = 128 / 4;
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(2);
            m.objective = Objective::LatencyTarget { alpha: 2.5 };
        }
        (0..3)
            .map(|_| {
                Platform::new(cfg.clone(), suite.clone())
                    .run(&trace)
                    .dedup_scan_wall_us
            })
            .min()
            .expect("three runs")
    };
    let (ser_us, par_us) = (best_of_three(1), best_of_three(8));
    assert!(ser_us > 0, "serial scan wall time was not measured");
    assert!(
        par_us < ser_us,
        "parallel dedup scans must beat serial on a {hw}-core host \
         ({par_us} us at 8 workers vs {ser_us} us at 1)"
    );
}
