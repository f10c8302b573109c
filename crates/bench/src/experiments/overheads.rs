//! §7.7 — Medes overheads at the dedup agent and the controller.
//!
//! Paper reference: dedup-op times of 2 s (Vanilla) to 3.3 s
//! (ModelTrain), driven by ~80 µs/page registry lookups (4 k–22 k
//! pages); agent metadata below 10 % of node memory; controller memory
//! up ~11.8 % from the fingerprint registry and policy metadata.

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("overheads", "dedup agent and controller overheads");
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let mut base = cfg.platform();
    base.nodes = 8; // enough pressure for steady dedup traffic
    base.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));
    let r = cfg.run(base.clone(), &suite, &trace);

    report.section("dedup-op wall time per function (background work)");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (i, name) in r.functions.iter().enumerate() {
        let s = &r.dedup_stats[i];
        if s.dedup_ops == 0 {
            continue;
        }
        rows.push(vec![
            name.clone(),
            s.dedup_ops.to_string(),
            f(s.mean_dedup_op_us / 1e6, 2),
            f(s.mean_dedup_footprint / (1 << 20) as f64, 1),
        ]);
        json.push(medes_obs::json!({
            "function": name,
            "dedup_ops": s.dedup_ops,
            "mean_dedup_op_secs": s.mean_dedup_op_us / 1e6,
            "mean_dedup_footprint_mb": s.mean_dedup_footprint / (1 << 20) as f64,
        }));
    }
    report.table(
        &[
            "function",
            "dedup ops",
            "mean dedup time (s)",
            "dedup footprint (MB)",
        ],
        &rows,
    );
    report
        .line("paper: 2s (Vanilla, 4k pages) to 3.3s (ModelTrain, 22k pages), ~80us/page lookups");

    report.section("controller overheads");
    report.line(&format!(
        "fingerprint registry: peak {} entries = {:.1} MiB; {} lookups served",
        r.registry_peak_entries,
        r.registry_peak_bytes as f64 / (1 << 20) as f64,
        r.registry_lookups
    ));
    report.line(&format!(
        "RDMA traffic: {:.1} MiB moved for base-page reads",
        r.rdma_bytes as f64 / (1 << 20) as f64
    ));
    report.line(&format!(
        "dedup fraction: {:.1}% of {} sandboxes; evictions {}; expirations {}",
        100.0 * r.dedup_fraction(),
        r.sandboxes_spawned,
        r.evictions,
        r.expirations
    ));
    report.line("paper: registry+policy metadata grow controller memory by ~11.8%; agent metadata <10% of node memory");
    report.json_set(
        "controller",
        medes_obs::json!({
            "registry_peak_entries": r.registry_peak_entries,
            "registry_peak_bytes": r.registry_peak_bytes,
            "registry_lookups": r.registry_lookups,
            "rdma_bytes": r.rdma_bytes,
            "dedup_fraction": r.dedup_fraction(),
        }),
    );
    report.json_set("functions", medes_obs::Json::Array(json));
    report
}
