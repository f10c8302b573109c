//! Fig 10 & 11 — Medes under memory pressure (§7.4).
//!
//! The paper shrinks the cluster pool from 40 G to 30 G to 20 G and
//! observes the cold-start gap widening in Medes's favour (22 % → 37 %
//! → 40.7 % vs fixed keep-alive) and up to 3.8× better tail latencies.
//! Our testbed analogue shrinks the per-node software limit so the
//! cluster totals match the same ratios.

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_core::baselines::{run_comparison, Comparison};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment (covers Fig 10a, 10b and Fig 11).
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "fig10",
        "cold starts and tail latency under memory pressure (40G/30G/20G pools)",
    );
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let base = cfg.platform();
    // Shrink the pool by node count (12 -> 9 -> 6 in full mode), keeping
    // per-node capacity above the largest sandbox + restore overhead.
    let full_nodes = base.nodes;
    let pools = [
        ("40G", full_nodes),
        ("30G", full_nodes * 3 / 4),
        ("20G", full_nodes / 2),
    ];

    let mut total_rows = Vec::new();
    let mut json_pools = Vec::new();
    let mut per_fn_sections = Vec::new();
    let policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    for (label, nodes) in pools {
        let mut cfg_p = base.clone().with_policy(PolicyKind::Medes(policy.clone()));
        cfg_p.nodes = nodes.max(2);
        let Comparison {
            medes,
            fixed,
            adaptive,
        } = run_comparison(&cfg_p, &suite, &trace, SimDuration::from_mins(10));
        let reduction_fixed = 100.0
            * (1.0 - medes.total_cold_starts() as f64 / fixed.total_cold_starts().max(1) as f64);
        total_rows.push(vec![
            label.to_string(),
            fixed.total_cold_starts().to_string(),
            adaptive.total_cold_starts().to_string(),
            medes.total_cold_starts().to_string(),
            f(reduction_fixed, 1),
        ]);
        // Per-function breakdown + p99.9 for the pressured pools (Fig
        // 10b / Fig 11).
        if label != "40G" {
            let (cm, cf, ca) = (
                medes.cold_starts(),
                fixed.cold_starts(),
                adaptive.cold_starts(),
            );
            let mut rows = Vec::new();
            for (i, name) in medes.functions.iter().enumerate() {
                let p =
                    |r: &medes_core::metrics::RunReport| r.e2e_quantile_ms(i, 0.999).unwrap_or(0.0);
                rows.push(vec![
                    name.clone(),
                    cf[i].to_string(),
                    ca[i].to_string(),
                    cm[i].to_string(),
                    f(p(&fixed), 0),
                    f(p(&adaptive), 0),
                    f(p(&medes), 0),
                ]);
            }
            per_fn_sections.push((label.to_string(), rows));
        }
        json_pools.push(medes_obs::json!({
            "pool": label,
            "cold": medes_obs::json!({
                "fixed": fixed.total_cold_starts(),
                "adaptive": adaptive.total_cold_starts(),
                "medes": medes.total_cold_starts(),
            }),
            "mean_live_sandboxes": medes_obs::json!({
                "fixed": fixed.mean_live_sandboxes,
                "adaptive": adaptive.mean_live_sandboxes,
                "medes": medes.mean_live_sandboxes,
            }),
        }));
    }

    report.section("Fig 10a: total cold starts per pool size");
    report.table(
        &["pool", "fixed", "adaptive", "medes", "medes vs fixed (%)"],
        &total_rows,
    );
    report.line("paper: improvement grows with pressure: 22% -> 37% -> 40.7% vs fixed");

    for (label, rows) in per_fn_sections {
        report.section(&format!(
            "Fig 10b/11 ({label}): per-function cold starts and p99.9 (ms)"
        ));
        report.table(
            &[
                "function",
                "cold fixed",
                "cold adaptive",
                "cold medes",
                "p99.9 fixed",
                "p99.9 adaptive",
                "p99.9 medes",
            ],
            &rows,
        );
    }
    report.line("");
    report.line("paper: up to 3.8x tail-latency improvement under extreme pressure; Medes keeps 43-56% more sandboxes");
    report.json_set("pools", medes_obs::Json::Array(json_pools));
    report
}
