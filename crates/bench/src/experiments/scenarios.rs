//! Scenarios — adversarial production scenarios (beyond the paper).
//!
//! The paper evaluates Medes on steady Azure-like traffic; this
//! experiment replays the five adversarial classes from
//! [`medes_trace::scenarios`] — rolling deploys, flash crowds on cold
//! functions, Zipf tenant skew, heterogeneous node memories, and spot
//! preemption waves — against Medes and the §7.2 keep-alive baselines.
//!
//! The experiment is **self-asserting**: every run replays
//! bit-identically, the preemption waves leave zero dead-node registry
//! chunks, rolling deploys collapse dedup savings relative to the same
//! trace without deploys, and Medes beats the fixed keep-alive baseline
//! on p99 startup latency in at least three of the five classes. A
//! regression in any gate aborts the run instead of silently emitting
//! worse numbers.

use crate::common::{run as run_platform, ExpConfig};
use crate::report::{f, mib, Report};
use medes_core::config::{PlatformConfig, PolicyKind};
use medes_core::metrics::RunReport;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;
use medes_trace::{all_scenarios, Scenario, ScenarioConfig, ScenarioKind};

/// p99 startup latency in ms (arrival → sandbox ready to execute).
fn p99_startup_ms(r: &RunReport) -> f64 {
    let mut v: Vec<u64> = r.requests.iter().map(|q| q.startup_us).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[(v.len() - 1) * 99 / 100] as f64 / 1e3
}

/// Total paper-scale bytes saved by dedup ops over a run.
fn total_saved_bytes(r: &RunReport) -> f64 {
    r.dedup_stats
        .iter()
        .map(|s| s.mean_saved_paper_bytes * s.dedup_ops as f64)
        .sum()
}

/// Mean paper-scale bytes saved per dedup op — the dedup *efficiency*.
/// Version bumps collapse it: ops right after an epoch boundary find no
/// matching base pages in the registry and store mostly verbatim.
fn saved_per_op(r: &RunReport) -> f64 {
    let ops: u64 = r.dedup_stats.iter().map(|s| s.dedup_ops).sum();
    if ops == 0 {
        return 0.0;
    }
    total_saved_bytes(r) / ops as f64
}

/// Applies a scenario's non-arrival knobs on top of the standard
/// platform: deploy schedule, fault plan, per-node memory profile.
fn apply(base: &PlatformConfig, sc: &Scenario) -> PlatformConfig {
    let mut cfg = base.clone();
    cfg.deploys = sc.deploys.clone();
    cfg.faults = sc.faults.clone();
    cfg.node_mem_profile = sc.node_mem.clone();
    cfg
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "scenarios",
        "adversarial production scenarios: Medes vs keep-alive baselines",
    );
    let suite = cfg.suite();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let base = cfg.platform();

    // The §7.3 latency objective (P1) with a loose alpha: the solver is
    // free to dedup every idle sandbox past the keep-alive horizon
    // (alpha * s_W > s_D, so the latency constraint never binds).
    // Retention windows scale with the trace length (quick traces are
    // 7.5x shorter than full ones), preserving the paper's shape: the
    // fixed keep-alive window expires inside the generators' burst
    // gaps, while keep_dedup spans them — dedup sandboxes are an order
    // of magnitude cheaper, so Medes affords the longer horizon.
    let mut policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 50.0 });
    let fixed_ka = if cfg.quick {
        policy.keep_alive = SimDuration::from_secs(45);
        policy.keep_dedup = SimDuration::from_secs(200);
        SimDuration::from_secs(45)
    } else {
        policy.keep_alive = SimDuration::from_secs(300);
        policy.keep_dedup = SimDuration::from_secs(900);
        SimDuration::from_secs(300)
    };

    let scfg = ScenarioConfig {
        duration_secs: cfg.trace_secs(),
        scale: if cfg.quick { 3.0 } else { 6.0 },
        seed: 20220405,
        nodes: base.nodes,
        node_mem_bytes: base.node_mem_bytes,
        epochs: if cfg.quick { 2 } else { 3 },
        waves: if cfg.quick { 2 } else { 3 },
    };

    report.section("Scenario sweep (p99 startup latency, ms)");
    report.line(&format!(
        "{} nodes, {}s traces, scale {}x, seed {:#x}",
        scfg.nodes, scfg.duration_secs, scfg.scale, scfg.seed
    ));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut medes_wins = 0usize;
    for sc in all_scenarios(&names, &scfg) {
        let id = sc.kind.id();
        let sc_cfg = apply(&base, &sc);
        let medes = run_platform(
            sc_cfg
                .clone()
                .with_policy(PolicyKind::Medes(policy.clone())),
            &suite,
            &sc.trace,
        );
        let fixed = run_platform(
            sc_cfg
                .clone()
                .with_policy(PolicyKind::FixedKeepAlive(fixed_ka)),
            &suite,
            &sc.trace,
        );
        let adaptive = run_platform(
            sc_cfg.with_policy(PolicyKind::AdaptiveKeepAlive),
            &suite,
            &sc.trace,
        );
        // Gate 1 — determinism: regenerating the scenario and replaying
        // must reproduce the run bit-for-bit (trace, deploy schedule,
        // fault plan and memory profile are all pure functions of the
        // seed).
        let sc2 = all_scenarios(&names, &scfg)
            .into_iter()
            .find(|s| s.kind == sc.kind)
            .expect("scenario class exists");
        assert!(sc.trace == sc2.trace, "{id} trace");
        let medes2 = run_platform(
            apply(&base, &sc2).with_policy(PolicyKind::Medes(policy.clone())),
            &suite,
            &sc2.trace,
        );
        assert_eq!(medes, medes2, "{id} must replay bit-identically");

        let (pm, pf, pa) = (
            p99_startup_ms(&medes),
            p99_startup_ms(&fixed),
            p99_startup_ms(&adaptive),
        );
        if pm < pf {
            medes_wins += 1;
        }

        // Gate 2 — per-class invariants.
        match sc.kind {
            ScenarioKind::PreemptionWave => {
                assert!(medes.node_crashes > 0, "waves must preempt nodes");
                assert_eq!(
                    medes.node_crashes, medes.node_restarts,
                    "every spot node rejoins"
                );
                assert_eq!(
                    medes.registry_dead_node_locs, 0,
                    "preemption must leave no dead-node registry chunks"
                );
            }
            ScenarioKind::RollingDeploy => {
                assert_eq!(
                    medes.version_bumps,
                    sc.deploys.bumps.len() as u64,
                    "every deploy bump must register"
                );
                assert!(medes.version_purges > 0, "deploys must purge sandboxes");
            }
            ScenarioKind::HeteroMemory => {
                assert!(!sc.node_mem.is_empty());
            }
            _ => {}
        }

        rows.push(vec![
            id.to_string(),
            f(pm, 1),
            f(pf, 1),
            f(pa, 1),
            medes.total_cold_starts().to_string(),
            fixed.total_cold_starts().to_string(),
            format!("{:.1}", 100.0 * medes.dedup_fraction()),
            mib(total_saved_bytes(&medes)),
        ]);
        json_rows.push(medes_obs::json!({
            "scenario": id,
            "p99_startup_ms": medes_obs::json!({
                "medes": pm, "fixed": pf, "adaptive": pa,
            }),
            "cold_starts": medes_obs::json!({
                "medes": medes.total_cold_starts(),
                "fixed": fixed.total_cold_starts(),
                "adaptive": adaptive.total_cold_starts(),
            }),
            "requests": medes.requests.len(),
            "dedup_fraction": medes.dedup_fraction(),
            "saved_paper_bytes": total_saved_bytes(&medes),
            "version_bumps": medes.version_bumps,
            "version_purges": medes.version_purges,
            "node_crashes": medes.node_crashes,
            "registry_dead_node_locs": medes.registry_dead_node_locs,
        }));
    }
    report.table(
        &[
            "scenario",
            "medes p99",
            "fixed p99",
            "adaptive p99",
            "cold medes",
            "cold fixed",
            "dedup %",
            "saved MiB",
        ],
        &rows,
    );

    // Gate 3 — the headline direction: Medes must beat fixed keep-alive
    // on p99 startup in at least 3 of the 5 classes.
    assert!(
        medes_wins >= 3,
        "Medes must win p99 startup in >=3/5 scenarios, won {medes_wins}"
    );
    report.line(&format!(
        "medes beats fixed keep-alive on p99 startup in {medes_wins}/5 scenarios"
    ));

    // Gate 4 — rolling deploys collapse dedup savings: on the same
    // trace without the deploy schedule, each dedup op must save
    // strictly more (epoch boundaries retire every demarcated base, so
    // post-epoch ops dedup against an empty registry and store mostly
    // verbatim until new bases are elected) and cold starts must be
    // strictly fewer (bumps purge the warm and dedup pools). The
    // collapse is a property of the epoch *mechanism*, not of scale —
    // over a long trace the post-epoch transient washes out of the
    // run-wide mean — so the gate runs on a pinned short configuration
    // in both modes.
    report.section("Rolling-deploy savings collapse (same trace, deploys on/off)");
    let collapse_cfg = ScenarioConfig {
        duration_secs: 240,
        scale: 3.0,
        epochs: 2,
        ..scfg.clone()
    };
    let mut collapse_policy = policy.clone();
    collapse_policy.keep_alive = SimDuration::from_secs(45);
    collapse_policy.keep_dedup = SimDuration::from_secs(200);
    let deploy_sc = all_scenarios(&names, &collapse_cfg)
        .into_iter()
        .find(|s| s.kind == ScenarioKind::RollingDeploy)
        .expect("rolling-deploy scenario exists");
    let with_deploys = run_platform(
        apply(&base, &deploy_sc).with_policy(PolicyKind::Medes(collapse_policy.clone())),
        &suite,
        &deploy_sc.trace,
    );
    let mut no_deploy_cfg = apply(&base, &deploy_sc);
    no_deploy_cfg.deploys = medes_trace::DeploySchedule::default();
    let without_deploys = run_platform(
        no_deploy_cfg.with_policy(PolicyKind::Medes(collapse_policy)),
        &suite,
        &deploy_sc.trace,
    );
    let (sw, so) = (saved_per_op(&with_deploys), saved_per_op(&without_deploys));
    assert!(
        sw < so,
        "deploys must collapse per-op dedup savings ({sw:.0} vs {so:.0} bytes/op)"
    );
    assert!(
        with_deploys.total_cold_starts() > without_deploys.total_cold_starts(),
        "deploys must cost cold starts ({} vs {})",
        with_deploys.total_cold_starts(),
        without_deploys.total_cold_starts()
    );
    report.line(&format!(
        "per-op savings: {} with deploys vs {} without ({:.0}% collapse); \
         cold starts {} vs {}; {} bumps purged {} sandboxes/bases",
        mib(sw),
        mib(so),
        100.0 * (1.0 - sw / so.max(1.0)),
        with_deploys.total_cold_starts(),
        without_deploys.total_cold_starts(),
        with_deploys.version_bumps,
        with_deploys.version_purges,
    ));
    report.json_set("sweep", medes_obs::Json::Array(json_rows));
    report.json_set(
        "rolling_deploy_collapse",
        medes_obs::json!({
            "saved_per_op_with_deploys": sw,
            "saved_per_op_without_deploys": so,
            "cold_with_deploys": with_deploys.total_cold_starts(),
            "cold_without_deploys": without_deploys.total_cold_starts(),
            "version_bumps": with_deploys.version_bumps,
            "version_purges": with_deploys.version_purges,
        }),
    );
    report.json_set("medes_wins", medes_obs::json!(medes_wins as u64));
    report
}
