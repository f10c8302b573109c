//! Fig 9 — cluster memory usage while meeting latency targets (§7.3).
//!
//! Policy P2 (memory objective) with a loose latency bound (α = 2.5).
//! The paper reports Medes using 11.4 % less memory on average than the
//! fixed keep-alive policy while meeting the same targets, with the
//! adaptive policy using less memory but incurring ≥50 % more cold
//! starts.

use crate::common::ExpConfig;
use crate::report::{f, mib, Report};
use medes_core::baselines::{run_comparison, Comparison};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "fig9",
        "cluster memory usage under the memory objective (P2)",
    );
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let base = cfg.platform();
    // The memory budget asks for ~85% of what pure keep-alive would use;
    // the solver dedups just enough per function to get there.
    let capacity = (base.nodes * base.node_mem_bytes) as f64;
    let policy = cfg.medes_policy(Objective::MemoryBudget {
        budget_bytes: capacity * 0.5,
    });
    let Comparison {
        medes,
        fixed,
        adaptive,
    } = run_comparison(
        &base.with_policy(PolicyKind::Medes(policy)),
        &suite,
        SimDuration::from_mins(10),
        |c, p| cfg.run(c, p, &trace),
    );

    report.section("Fig 9a: cluster memory usage (paper-scale GiB)");
    let gib = |b: f64| b / (1u64 << 30) as f64;
    let mut rows = Vec::new();
    for (name, r) in [
        ("Medes", &medes),
        ("Fixed Keep-Alive", &fixed),
        ("Adaptive Keep-Alive", &adaptive),
    ] {
        rows.push(vec![
            name.to_string(),
            f(gib(r.mem_mean_bytes), 2),
            f(gib(r.mem_median_bytes), 2),
        ]);
    }
    report.table(&["policy", "mean (GiB)", "median (GiB)"], &rows);
    let saving = 100.0 * (1.0 - medes.mem_mean_bytes / fixed.mem_mean_bytes.max(1.0));
    report.line(&format!(
        "medes vs fixed keep-alive memory saving: {:.1}% (paper: 11.4% on average)",
        saving
    ));

    report.section("Fig 9b: cold starts per function");
    let (cm, cf, ca) = (
        medes.cold_starts(),
        fixed.cold_starts(),
        adaptive.cold_starts(),
    );
    let mut rows = Vec::new();
    let mut json_fns = Vec::new();
    for (i, name) in medes.functions.iter().enumerate() {
        rows.push(vec![
            name.clone(),
            cf[i].to_string(),
            ca[i].to_string(),
            cm[i].to_string(),
        ]);
        json_fns.push(medes_obs::json!({
            "function": name, "fixed": cf[i], "adaptive": ca[i], "medes": cm[i],
        }));
    }
    report.table(&["function", "fixed", "adaptive", "medes"], &rows);
    report.line(&format!(
        "totals: fixed {}, adaptive {}, medes {} — paper: adaptive incurs >=50% more cold starts than Medes",
        fixed.total_cold_starts(),
        adaptive.total_cold_starts(),
        medes.total_cold_starts()
    ));
    report.line(&format!(
        "cross-function dedup share: {:.1}% of deduplicated pages (paper: ~67%)",
        100.0 * medes.cross_fn_pages as f64
            / (medes.cross_fn_pages + medes.same_fn_pages).max(1) as f64
    ));
    report.line(&format!(
        "mean memory: medes {} MiB vs fixed {} MiB vs adaptive {} MiB",
        mib(medes.mem_mean_bytes),
        mib(fixed.mem_mean_bytes),
        mib(adaptive.mem_mean_bytes)
    ));
    report.json_set(
        "memory",
        medes_obs::json!({
            "medes_mean": medes.mem_mean_bytes, "medes_median": medes.mem_median_bytes,
            "fixed_mean": fixed.mem_mean_bytes, "fixed_median": fixed.mem_median_bytes,
            "adaptive_mean": adaptive.mem_mean_bytes, "adaptive_median": adaptive.mem_median_bytes,
            "saving_vs_fixed_pct": saving,
        }),
    );
    report.json_set("cold_starts", medes_obs::Json::Array(json_fns));
    report
}
