//! Pinned report digests: a change that claims to be host-only (a faster
//! encoder, a templated image build, another in-memory patch layout)
//! must leave every simulated quantity alone, and the cheapest witness
//! of that is the whole `RunReport` of a few small Medes runs hashed
//! against a committed constant.
//!
//! The hash is the one the repository benchmark prints as `digest
//! sub-run N` (`benchmark/src/api.rs`): requests field by field, then
//! the `Debug` rendering of everything else, FNV-1a. The constants were
//! recorded on the tree before PR 18's byte-path changes; a digest that
//! moves means patch sizes, election, memory accounting or event order
//! moved, and must be explained, not re-recorded in passing.
//!
//! Three more cases were recorded on the tree before `Cluster` was split
//! into owners (PR 20), for the paths no Medes-only run reaches: the two
//! baseline policies under memory pressure, and the page cache together
//! with a placed registry, crashes, link faults, RPC drops, version
//! bumps and unequal nodes.

use medes::hash::fnv::Fnv1a;
use medes::mem::ContentModelConfig;
use medes::platform::config::{PlatformConfig, PolicyKind, RestoreReadConfig};
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{
    azure_like_trace, functionbench_suite, DeploySchedule, FunctionProfile, Trace, TraceGenConfig,
    VersionBump,
};

fn digest(report: &mut RunReport) -> u64 {
    let requests = std::mem::take(&mut report.requests);
    let mut h = Fnv1a::new();
    for r in &requests {
        for v in [
            r.id,
            r.func as u64,
            r.arrival_us,
            r.startup_us,
            r.exec_us,
            r.e2e_us,
        ] {
            h.update(&v.to_le_bytes());
        }
        h.update(&[r.start as u8]);
    }
    h.update(format!("{report:?}").as_bytes());
    report.requests = requests;
    h.finish()
}

fn inputs_at(scale: f64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 600,
            scale,
            seed: 7,
        },
    );
    (suite, trace)
}

fn inputs() -> (Vec<FunctionProfile>, Trace) {
    inputs_at(10.0)
}

/// `small_test` (4 nodes, every restore verified) with the calibrated
/// entropy mixture the benchmark workloads run.
fn config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.content.mixture = ContentModelConfig::paper_calibrated();
    cfg.mem_scale = 64;
    assert!(cfg.verify_restores);
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
    }
    cfg
}

/// P2 with a budget far below the working set, so the policy dedups
/// whatever it can.
fn pressured() -> PlatformConfig {
    let mut cfg = config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.objective = Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg
}

/// Runs `cfg`, checks the run exercised the byte path (patches were
/// encoded and restores verified), and returns the report digest.
fn run(cfg: PlatformConfig) -> (u64, RunReport) {
    let (suite, trace) = inputs();
    let mut report = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(report.requests.len(), trace.len());
    assert!(report.same_fn_pages + report.cross_fn_pages > 0, "no patch");
    let restores: u64 = report.dedup_stats.iter().map(|s| s.restores).sum();
    assert!(restores > 0, "no verified restore");
    (digest(&mut report), report)
}

#[test]
fn p1_latency_target() {
    // α = 20: at the default 2.5 a trace this small dedups nothing.
    let mut cfg = config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.objective = Objective::LatencyTarget { alpha: 20.0 };
    }
    let (d, _) = run(cfg);
    assert_eq!(d, P1, "{d:#018x}");
}

/// Dedup ops that re-scanned a sandbox scanned before: the ops a
/// sandbox's memo of its last scan serves (`Sandbox::last_dedup`). Both
/// P2 runs must keep enough of them that the pinned digest covers
/// tables assembled from remembered patches.
fn assert_re_dedups(report: &RunReport) {
    let ops: u64 = report.dedup_stats.iter().map(|s| s.dedup_ops).sum();
    let again = ops - report.sandboxes_deduped;
    assert!(
        again >= 50,
        "{ops} ops over {} sandboxes",
        report.sandboxes_deduped
    );
}

#[test]
fn p2_under_memory_pressure() {
    let (d, report) = run(pressured());
    assert_re_dedups(&report);
    assert_eq!(d, P2_PRESSURED, "{d:#018x}");
}

#[test]
fn p2_with_a_crash_and_a_version_bump() {
    let mut cfg = pressured();
    cfg.faults = FaultPlan {
        seed: 0xFA17,
        crashes: vec![NodeCrash {
            node: 0,
            at: SimTime::from_secs(150),
            restart: Some(SimTime::from_secs(220)),
        }],
        ..FaultPlan::default()
    };
    cfg.deploys = DeploySchedule {
        bumps: vec![VersionBump {
            function: 1,
            at: SimTime::from_secs(250),
            version: 1,
        }],
    };
    let (d, report) = run(cfg);
    assert_eq!((report.node_crashes, report.version_bumps), (1, 1));
    assert!(report.version_purges > 0, "the bump purged nothing");
    assert_re_dedups(&report);
    assert_eq!(d, P2_CRASH_AND_BUMP, "{d:#018x}");
}

/// A baseline policy (no dedup state) on two 100 MiB nodes at 25×
/// arrivals: placement, eviction and expiry with `medes: None`.
fn baseline_under_pressure(policy: PolicyKind) -> u64 {
    let mut cfg = config().with_policy(policy);
    cfg.nodes = 2;
    cfg.node_mem_bytes = 100 << 20;
    let (suite, trace) = inputs_at(25.0);
    let mut report = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(report.requests.len(), trace.len());
    assert!(report.evictions > 0, "no pressure");
    assert!(report.expirations > 0, "no keep-alive expiry");
    assert_eq!(report.sandboxes_deduped, 0);
    digest(&mut report)
}

#[test]
fn fixed_keep_alive_under_memory_pressure() {
    let d = baseline_under_pressure(PolicyKind::FixedKeepAlive(SimDuration::from_secs(30)));
    assert_eq!(d, FIXED_PRESSURED, "{d:#018x}");
}

#[test]
fn adaptive_keep_alive_under_memory_pressure() {
    let d = baseline_under_pressure(PolicyKind::AdaptiveKeepAlive);
    assert_eq!(d, ADAPTIVE_PRESSURED, "{d:#018x}");
}

/// The shape of the benchmark's `churn` workload: page cache, placed
/// registry, crashes, a dead link, dropped RPCs, deploys, unequal nodes.
#[test]
fn p2_churn_with_cache_and_placed_registry() {
    let secs = SimTime::from_secs;
    let faults = FaultPlan {
        seed: 0xFA17,
        crashes: vec![
            NodeCrash {
                node: 0,
                at: secs(150),
                restart: Some(secs(220)),
            },
            NodeCrash {
                node: 3,
                at: secs(400),
                restart: None,
            },
        ],
        links: vec![LinkFaultWindow {
            src: None,
            dst: None,
            from: secs(300),
            until: secs(330),
            kind: LinkFaultKind::Error { drop_prob: 1.0 },
        }],
        rpc_drop_prob: 0.05,
    };
    let bump = |function, at| VersionBump {
        function,
        at: secs(at),
        version: 1,
    };
    let cfg = PlatformConfig::test_builder()
        .tweak(|c| *c = pressured())
        .read_path(RestoreReadConfig::cached(64 << 20))
        .shards(3)
        .registry_owners(3)
        .faults(faults)
        .deploys(DeploySchedule {
            bumps: vec![bump(1, 250), bump(2, 450)],
        })
        .node_mem_profile(vec![1 << 30, 512 << 20, 512 << 20, 256 << 20])
        .build()
        .expect("valid churn configuration");
    let (d, report) = run(cfg);
    assert_eq!(
        (
            report.node_crashes,
            report.node_restarts,
            report.version_bumps
        ),
        (2, 1, 2)
    );
    assert!(report.cache_hits > 0, "the cache served nothing");
    assert!(report.net_retries > 0, "no fabric retry");
    assert!(
        report.fallback_cold_starts + report.rescheduled_requests > 0,
        "no request lost its sandbox"
    );
    assert!(report.version_purges > 0, "the bumps purged nothing");
    assert_eq!(d, P2_CHURN, "{d:#018x}");
}

const P1: u64 = 0xba42_ef6f_7811_156c;
const P2_PRESSURED: u64 = 0x9939_cb87_6e1a_499f;
const P2_CRASH_AND_BUMP: u64 = 0xeaed_5b63_db5d_9dc4;
const FIXED_PRESSURED: u64 = 0x69aa_72b3_715d_9af1;
const ADAPTIVE_PRESSURED: u64 = 0xb8a1_e64d_cb78_247d;
const P2_CHURN: u64 = 0x842e_dcde_2b90_7127;
