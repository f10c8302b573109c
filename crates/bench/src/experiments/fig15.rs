//! Fig 15 — sensitivity to the keep-dedup period (§7.8).
//!
//! Longer keep-dedup keeps restorable sandboxes around (10–38 % fewer
//! cold starts), but past a threshold stale dedup sandboxes occupy
//! memory and force evictions (the KA-20 analogue).

use crate::common::ExpConfig;
use crate::report::Report;
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig15", "sensitivity to the keep-dedup period");
    let suite = cfg.representative_suite();
    let trace = cfg.representative_trace(&suite);
    let mut base = cfg.platform();
    base.nodes = 3;
    base.node_mem_bytes = 168 << 20;

    let mut rows = Vec::new();
    let mut json = Vec::new();

    // "No dedup" reference: the fixed keep-alive platform.
    let nodedup = cfg.run(
        base.clone()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10))),
        &suite,
        &trace,
    );
    rows.push(vec![
        "No Dedup".to_string(),
        nodedup.total_cold_starts().to_string(),
    ]);
    json.push(medes_obs::json!({ "keep_dedup_min": 0, "cold": nodedup.total_cold_starts() }));

    let mut best_dedup = u64::MAX;
    for mins in [5u64, 10, 15, 20] {
        let mut policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
        policy.keep_dedup = SimDuration::from_mins(mins);
        let r = cfg.run(
            base.clone().with_policy(PolicyKind::Medes(policy)),
            &suite,
            &trace,
        );
        best_dedup = best_dedup.min(r.total_cold_starts());
        rows.push(vec![
            format!("Keep-Dedup {mins} min"),
            r.total_cold_starts().to_string(),
        ]);
        json.push(medes_obs::json!({ "keep_dedup_min": mins, "cold": r.total_cold_starts() }));
    }
    report.table(&["policy", "cold starts"], &rows);
    report.line("");
    report.line("paper: cold starts improve 10-38% as keep-dedup grows, then regress at 20 min (memory pressure)");
    if cfg.content_model {
        let ok = best_dedup < nodedup.total_cold_starts();
        report.line(&format!(
            "mixture on: some keep-dedup window beats the no-dedup baseline: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        report.json_set("mixture_verdict", medes_obs::json!(ok));
    }
    report.json_set("results", medes_obs::Json::Array(json));
    report
}
