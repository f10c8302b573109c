//! Fig 12 — sweep of fixed keep-alive windows vs Medes (§7.5).
//!
//! Representative workload {LinAlg, FeatureGen, ModelTrain} on a
//! constrained pool. The paper finds KA-10 the best fixed setting
//! (KA-15/KA-20 regress because long-lived idle sandboxes trigger
//! evictions), and Medes beating the best fixed window by ~38 %.

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_core::baselines::keep_alive_sweep;
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig12", "keep-alive window sweep vs Medes");
    let suite = cfg.representative_suite();
    let trace = cfg.representative_trace(&suite);
    let mut base = cfg.platform();
    // Every window, KA-5 included, overflows this pool (81–93 evictions),
    // so eviction, not the window, decides who is cold (ROADMAP item 21).
    base.nodes = 3;
    base.node_mem_bytes = 168 << 20;

    let windows: Vec<SimDuration> = [5u64, 10, 15, 20]
        .iter()
        .map(|&m| SimDuration::from_mins(m))
        .collect();
    let sweep = keep_alive_sweep(&base, &suite, &windows, |c, p| cfg.run(c, p, &trace));
    let medes = cfg.run(
        base.clone().with_policy(PolicyKind::Medes(
            cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }),
        )),
        &suite,
        &trace,
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut best_fixed = u64::MAX;
    for (w, r) in &sweep {
        let cold = r.total_cold_starts();
        best_fixed = best_fixed.min(cold);
        rows.push(vec![
            format!("KA-{}", w.as_secs_f64() as u64 / 60),
            cold.to_string(),
            r.evictions.to_string(),
        ]);
        json.push(medes_obs::json!({
            "policy": format!("KA-{}", w.as_secs_f64() as u64 / 60),
            "cold": cold, "evictions": r.evictions,
        }));
    }
    rows.push(vec![
        "Medes".to_string(),
        medes.total_cold_starts().to_string(),
        medes.evictions.to_string(),
    ]);
    json.push(medes_obs::json!({
        "policy": "Medes", "cold": medes.total_cold_starts(), "evictions": medes.evictions,
    }));
    report.table(&["policy", "cold starts", "evictions"], &rows);
    let gain = 100.0 * (1.0 - medes.total_cold_starts() as f64 / best_fixed.max(1) as f64);
    report.line("");
    report.line(&format!(
        "medes vs best fixed window: {:.1}% fewer cold starts (paper: 38.2% vs KA-10)",
        gain
    ));
    report.line("paper: KA-5 -> KA-10 improves ~9.4%; KA-15/KA-20 regress (evictions)");
    if cfg.content_model {
        let ok = medes.total_cold_starts() < best_fixed;
        report.line(&format!(
            "mixture on: medes beats the best fixed window on cold starts: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        report.json_set("mixture_verdict", medes_obs::json!(ok));
    }
    report.json_set("results", medes_obs::Json::Array(json));
    report.json_set("gain_vs_best_fixed_pct", medes_obs::json!(f(gain, 2)));
    report
}
