//! Cross-crate scenario tests: the adversarial scenario generators
//! driven end-to-end through the full platform. Every class must
//! regenerate and replay bit-identically, and a spot-preemption wave
//! composed as a plain `FaultPlan` must leave zero dead-node chunks in
//! the fingerprint registry; a
//! rolling-deploy schedule must register every bump and purge stale
//! sandboxes, while the empty schedule is a provable no-op; a
//! heterogeneous memory profile must actually change placement under
//! pressure.

use medes::platform::config::{PlatformConfig, PolicyKind};
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::SimDuration;
use medes::trace::{
    all_scenarios, functionbench_suite, hetero_memory_scenario, rolling_deploy_scenario,
    DeploySchedule, FunctionProfile, Scenario, ScenarioConfig, ScenarioKind,
};

fn suite() -> Vec<FunctionProfile> {
    functionbench_suite().into_iter().take(4).collect()
}

fn names(suite: &[FunctionProfile]) -> Vec<String> {
    suite.iter().map(|p| p.name.clone()).collect()
}

/// A config under enough memory pressure that the Medes policy dedups
/// aggressively — so base sandboxes exist for deploys and preemptions
/// to invalidate.
fn pressured_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg
}

fn scenario_cfg(base: &PlatformConfig) -> ScenarioConfig {
    ScenarioConfig {
        duration_secs: 600,
        scale: 3.0,
        seed: 0x5CE7,
        nodes: base.nodes,
        node_mem_bytes: base.node_mem_bytes,
        epochs: 2,
        waves: 2,
    }
}

fn run_scenario(sc: &Scenario) -> RunReport {
    let suite = suite();
    let mut cfg = pressured_config();
    cfg.deploys = sc.deploys.clone();
    cfg.faults = sc.faults.clone();
    cfg.node_mem_profile = sc.node_mem.clone();
    Platform::new(cfg, suite).run(&sc.trace).report
}

#[test]
fn every_scenario_replays_bit_identically() {
    let s = suite();
    let n = names(&s);
    // Half the usual length: ten debug runs stay near two seconds, and
    // every class still shows its mechanism (both waves preempt).
    let cfg = ScenarioConfig {
        duration_secs: 300,
        ..scenario_cfg(&pressured_config())
    };
    let scenarios = all_scenarios(&n, &cfg);
    assert_eq!(scenarios.len(), 5);
    // Regenerate every class from the seed and replay: trace, deploy
    // schedule, fault plan and memory profile are pure functions of it,
    // and a preemption wave's FaultPlan goes through the fault layer
    // bit-for-bit.
    for (sc, sc2) in scenarios.iter().zip(all_scenarios(&n, &cfg)) {
        let id = sc.kind.id();
        assert!(*sc == sc2, "{id} must regenerate identically");
        let r1 = run_scenario(sc);
        assert_eq!(r1, run_scenario(&sc2), "{id} must replay bit-identically");
        if sc.kind != ScenarioKind::PreemptionWave {
            continue;
        }
        // Every planned preemption fired and every spot node rejoined.
        assert_eq!(r1.node_crashes, sc.faults.crashes.len() as u64);
        assert_eq!(r1.node_crashes, r1.node_restarts, "spot nodes all rejoin");

        // The controller purged every preempted node's chunks from the
        // fingerprint registry via the reverse index.
        assert_eq!(
            r1.registry_dead_node_locs, 0,
            "registry must not reference chunks on preempted nodes"
        );
    }
}

#[test]
fn rolling_deploy_registers_bumps_and_purges() {
    let s = suite();
    let n = names(&s);
    let cfg = scenario_cfg(&pressured_config());
    let sc = rolling_deploy_scenario(&n, &cfg);
    assert!(!sc.deploys.is_empty());

    let r = run_scenario(&sc);
    assert_eq!(
        r.version_bumps,
        sc.deploys.bumps.len() as u64,
        "every deploy bump must register"
    );
    assert!(
        r.version_purges > 0,
        "epoch boundaries must purge stale sandboxes/bases"
    );
}

#[test]
fn empty_deploy_schedule_is_a_no_op() {
    let s = suite();
    let n = names(&s);
    let cfg = scenario_cfg(&pressured_config());
    let mut sc = rolling_deploy_scenario(&n, &cfg);
    sc.deploys = DeploySchedule::default();

    let without = run_scenario(&sc);
    let baseline = Platform::new(pressured_config(), suite())
        .run(&sc.trace)
        .report;
    assert_eq!(
        without, baseline,
        "an empty deploy schedule must change nothing"
    );
    assert_eq!(without.version_bumps, 0);
    assert_eq!(without.version_purges, 0);
}

#[test]
fn hetero_memory_profile_changes_the_run() {
    let s = suite();
    let n = names(&s);
    let cfg = scenario_cfg(&pressured_config());
    let sc = hetero_memory_scenario(&n, &cfg);
    assert_eq!(sc.node_mem.len(), cfg.nodes);

    let hetero = run_scenario(&sc);
    // Same trace on uniform nodes: the profile must actually be applied
    // (placement and eviction see per-node capacities).
    let mut uniform = sc.clone();
    uniform.node_mem.clear();
    let flat = run_scenario(&uniform);
    assert_ne!(
        hetero, flat,
        "heterogeneous memory must alter placement under pressure"
    );
}
