//! Fig 2 — possible memory savings on a real-world workload.
//!
//! The paper plots cluster memory usage of a keep-alive platform over a
//! 30-minute Azure trace against the usage after redundancy
//! elimination, showing up to ~30 % savings. We run the fixed keep-alive
//! baseline and an aggressively deduplicating Medes configuration over
//! the same trace and compare the memory time series.

use crate::common::ExpConfig;
use crate::report::{f, mib, Report};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "fig2",
        "memory savings from redundancy elimination over a 30-min trace",
    );
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let base = cfg.platform();

    let keepalive = cfg.run(
        base.clone()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10))),
        &suite,
        &trace,
    );

    // Aggressive dedup: tiny memory budget + short idle period.
    let mut medes_policy = cfg.medes_policy(Objective::MemoryBudget { budget_bytes: 1.0 });
    medes_policy.idle_period = SimDuration::from_secs(30);
    let dedup = cfg.run(
        base.clone().with_policy(PolicyKind::Medes(medes_policy)),
        &suite,
        &trace,
    );

    report.section("time series (sampled every 5 min)");
    let mut rows = Vec::new();
    let step = 30usize; // series sampled every 10 s -> 5-min rows
    let n = keepalive.mem_series.len().min(dedup.mem_series.len());
    let mut series_json = Vec::new();
    for i in (0..n).step_by(step) {
        let (t, ka) = keepalive.mem_series[i];
        let (_, dd) = dedup.mem_series[i];
        let pct = if ka > 0.0 {
            100.0 * (1.0 - dd / ka)
        } else {
            0.0
        };
        rows.push(vec![
            format!("{:.0}", t as f64 / 1e6),
            mib(ka),
            mib(dd),
            f(pct, 1),
        ]);
        series_json.push(medes_obs::json!({
            "t_secs": t as f64 / 1e6,
            "keepalive_bytes": ka,
            "dedup_bytes": dd,
        }));
    }
    report.table(
        &[
            "t (s)",
            "keep-alive (MiB)",
            "after dedup (MiB)",
            "savings %",
        ],
        &rows,
    );

    let savings = 100.0 * (1.0 - dedup.mem_mean_bytes / keepalive.mem_mean_bytes.max(1.0));
    report.line("");
    report.line(&format!(
        "mean usage: keep-alive {} MiB, after dedup {} MiB -> {:.1}% savings",
        mib(keepalive.mem_mean_bytes),
        mib(dedup.mem_mean_bytes),
        savings
    ));
    report.line("paper: up to ~30% savings relative to keep-alive usage");
    report.json_set("series", medes_obs::Json::Array(series_json));
    report.json_set("mean_savings_pct", medes_obs::json!(savings));
    report
}
