//! Golden regression for the content model's default weights.
//!
//! [`ContentModelConfig::legacy`] is the default: every existing
//! experiment regime (fig7-style latency-target, fig9-style
//! memory-budget, chaos-style fault injection) given it explicitly must
//! produce a `RunReport` byte-identical to one from a config that never
//! mentions the content model at all. `RunReport` derives `PartialEq`
//! over every field — request records, memory series, per-function
//! stats, fault counters — so equality here is the byte-identical
//! guarantee. And the calibrated mixture must actually change the run,
//! proving the weights are live rather than ignored.

use medes::mem::{ContentModel, ContentModelConfig};
use medes::platform::config::{PlatformConfig, PolicyKind};
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

fn workload(secs: u64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale: 8.0,
            seed: 11,
        },
    );
    (suite, trace)
}

/// fig7-style: Medes under the latency-target objective (P1).
fn latency_target_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = Objective::LatencyTarget { alpha: 50.0 };
    }
    cfg
}

/// fig9-style: Medes under the memory-budget objective (P2).
fn memory_budget_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg
}

/// chaos-style: the memory-budget config plus a node crash mid-trace.
fn chaos_config() -> PlatformConfig {
    let mut cfg = memory_budget_config();
    cfg.faults = FaultPlan {
        seed: 0xFA17,
        crashes: vec![NodeCrash {
            node: 0,
            at: SimTime::from_secs(200),
            restart: Some(SimTime::from_secs(300)),
        }],
        links: Vec::new(),
        rpc_drop_prob: 0.01,
    };
    cfg
}

fn run(cfg: PlatformConfig) -> RunReport {
    let (suite, trace) = workload(420);
    Platform::new(cfg, suite).run(&trace).report
}

fn assert_legacy_is_the_default(make: fn() -> PlatformConfig, regime: &str) {
    let golden = run(make());

    // Naming the default weights must change nothing at all.
    let mut legacy = make();
    legacy.content.mixture = ContentModelConfig::legacy();
    assert_eq!(
        golden,
        run(legacy),
        "{regime}: explicit legacy weights must be byte-identical to the default"
    );

    // The calibrated weights must change the run — the knob is live.
    let mut calibrated = make();
    calibrated.content.mixture = ContentModelConfig::paper_calibrated();
    assert_ne!(
        golden,
        run(calibrated),
        "{regime}: the calibrated mixture must actually alter page content"
    );
}

#[test]
fn mixture_defaults_to_legacy() {
    assert_eq!(ContentModelConfig::default(), ContentModelConfig::legacy());
    assert_eq!(
        ContentModel::default().mixture,
        ContentModelConfig::legacy()
    );
    assert_eq!(
        PlatformConfig::paper_default().content.mixture,
        ContentModelConfig::legacy()
    );
}

#[test]
fn fig7_style_latency_target_is_mixture_invariant() {
    assert_legacy_is_the_default(latency_target_config, "fig7-style");
}

#[test]
fn fig9_style_memory_budget_is_mixture_invariant() {
    assert_legacy_is_the_default(memory_budget_config, "fig9-style");
}

#[test]
fn chaos_style_fault_run_is_mixture_invariant() {
    assert_legacy_is_the_default(chaos_config, "chaos-style");
}
