//! Cross-crate integration tests: the whole dedup pipeline, end to end.

use medes::platform::baselines::{catalyzer_profiles, run_comparison};
use medes::platform::config::{PlatformConfig, PolicyKind};
use medes::platform::metrics::StartType;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::policy::MedesPolicyConfig;
use medes::sim::SimDuration;
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

fn suite() -> Vec<FunctionProfile> {
    functionbench_suite().into_iter().take(5).collect()
}

fn trace(secs: u64, seed: u64) -> Trace {
    let s = suite();
    let names: Vec<String> = s.iter().map(|p| p.name.clone()).collect();
    azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale: 2.0,
            seed,
            ..Default::default()
        },
    )
}

fn pressured_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.nodes = 4;
    cfg.node_mem_bytes = 256 << 20;
    cfg
}

#[test]
fn restores_verify_byte_for_byte_under_load() {
    // verify_restores is on in small_test(): every dedup start
    // reconstructs pages and compares them with the regenerated image.
    let mut cfg = pressured_config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(10);
        m.objective = Objective::MemoryBudget { budget_bytes: 1.0 };
    }
    assert!(cfg.verify_restores);
    let t = trace(400, 11);
    let report = Platform::new(cfg, suite()).run(&t).report;
    assert_eq!(report.requests.len(), t.len());
    // The run must actually exercise the dedup path for the test to
    // mean anything.
    assert!(report.sandboxes_deduped > 0, "no dedups happened");
}

#[test]
fn medes_never_loses_requests_vs_baselines() {
    let t = trace(300, 5);
    let c = run_comparison(
        &pressured_config(),
        &suite(),
        &t,
        SimDuration::from_mins(10),
    );
    assert_eq!(c.medes.requests.len(), t.len());
    assert_eq!(c.fixed.requests.len(), t.len());
    assert_eq!(c.adaptive.requests.len(), t.len());
}

#[test]
fn medes_uses_less_memory_than_fixed_keepalive() {
    let t = trace(600, 6);
    let mut cfg = pressured_config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(20);
    }
    let c = run_comparison(&cfg, &suite(), &t, SimDuration::from_mins(10));
    assert!(
        c.medes.mem_mean_bytes <= c.fixed.mem_mean_bytes,
        "medes {} vs fixed {}",
        c.medes.mem_mean_bytes,
        c.fixed.mem_mean_bytes
    );
}

#[test]
fn dedup_starts_are_faster_than_cold_starts() {
    let mut cfg = pressured_config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(10);
        m.objective = Objective::MemoryBudget { budget_bytes: 1.0 };
    }
    let t = trace(400, 12);
    let s = suite();
    let report = Platform::new(cfg, s.clone()).run(&t).report;
    for r in &report.requests {
        match r.start {
            StartType::Dedup => {
                let cold = s[r.func].cold_start().as_micros();
                assert!(
                    r.startup_us < cold + 200_000,
                    "dedup start {}us should be near/below cold {}us ({})",
                    r.startup_us,
                    cold,
                    s[r.func].name
                );
            }
            StartType::Warm => {
                // Warm starts that didn't queue are milliseconds.
                if r.startup_us < 100_000 {
                    assert!(r.startup_us >= 1_000);
                }
            }
            StartType::Cold => {}
        }
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let t = trace(200, 9);
    let r1 = Platform::new(pressured_config(), suite()).run(&t).report;
    let r2 = Platform::new(pressured_config(), suite()).run(&t).report;
    assert_eq!(r1.requests.len(), r2.requests.len());
    for (a, b) in r1.requests.iter().zip(&r2.requests) {
        assert_eq!((a.id, a.e2e_us, a.start), (b.id, b.e2e_us, b.start));
    }
    assert_eq!(r1.sandboxes_deduped, r2.sandboxes_deduped);
    assert_eq!(r1.evictions, r2.evictions);
    assert!((r1.mem_mean_bytes - r2.mem_mean_bytes).abs() < 1e-6);
}

#[test]
fn catalyzer_preset_reduces_cold_penalty() {
    let plain =
        pressured_config().with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
    let t = trace(300, 13);
    let normal = Platform::new(plain.clone(), suite()).run(&t).report;
    let cata = Platform::new(plain, catalyzer_profiles(&suite()))
        .run(&t)
        .report;
    // Nearly the same cold-start count (faster spawns shift timing
    // slightly), far lower cold latency.
    let (a, b) = (normal.total_cold_starts(), cata.total_cold_starts());
    assert!(
        (a as f64 - b as f64).abs() <= 0.1 * a.max(1) as f64 + 2.0,
        "cold counts diverged: normal {a} vs catalyzer {b}"
    );
    let mean_cold = |r: &medes::platform::metrics::RunReport| {
        let colds: Vec<u64> = r
            .requests
            .iter()
            .filter(|q| q.start == StartType::Cold)
            .map(|q| q.startup_us)
            .collect();
        colds.iter().sum::<u64>() as f64 / colds.len().max(1) as f64
    };
    assert!(mean_cold(&cata) < mean_cold(&normal));
}

#[test]
fn policy_objectives_trade_memory_for_latency() {
    // A tighter memory budget must not use more memory than a looser one.
    let t = trace(400, 14);
    let mut tight = pressured_config();
    tight.policy = PolicyKind::Medes(MedesPolicyConfig {
        objective: Objective::MemoryBudget { budget_bytes: 50e6 },
        idle_period: SimDuration::from_secs(15),
        ..Default::default()
    });
    let mut loose = pressured_config();
    loose.policy = PolicyKind::Medes(MedesPolicyConfig {
        objective: Objective::MemoryBudget { budget_bytes: 2e9 },
        idle_period: SimDuration::from_secs(15),
        ..Default::default()
    });
    let rt = Platform::new(tight, suite()).run(&t).report;
    let rl = Platform::new(loose, suite()).run(&t).report;
    assert!(
        rt.mem_mean_bytes <= rl.mem_mean_bytes * 1.05,
        "tight {} vs loose {}",
        rt.mem_mean_bytes,
        rl.mem_mean_bytes
    );
    assert!(rt.sandboxes_deduped >= rl.sandboxes_deduped);
}
