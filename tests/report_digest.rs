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

use medes::hash::fnv::Fnv1a;
use medes::mem::ContentModelConfig;
use medes::platform::config::{PlatformConfig, PolicyKind};
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, NodeCrash};
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

fn inputs() -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 600,
            scale: 10.0,
            seed: 7,
            ..Default::default()
        },
    );
    (suite, trace)
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

const P1: u64 = 0x5d48_d9ba_e921_b981;
const P2_PRESSURED: u64 = 0x8a89_2bff_f525_de16;
const P2_CRASH_AND_BUMP: u64 = 0x7646_7cf0_abce_1e0a;
