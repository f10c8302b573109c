//! Fig 7 — end-to-end improvement over the keep-alive baselines (§7.2).
//!
//! Policy P1 (latency target), oversubscribed cluster (2 GB/node). The
//! paper reports up to 2.25×/2.75× per-request improvements over fixed
//! and adaptive keep-alive, 1–2.3× better 99.9p latencies, and 10–50 %
//! fewer cold starts.

use crate::common::{per_fn_rows, ExpConfig, PER_FN_HEADERS};
use crate::report::{f, Report};
use medes_core::baselines::{run_comparison, Comparison};
use medes_core::config::PolicyKind;
use medes_core::metrics::RunReport;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig7", "end-to-end latencies vs keep-alive baselines (P1)");
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    let base = cfg.platform().with_policy(PolicyKind::Medes(policy));
    let Comparison {
        medes,
        fixed,
        adaptive,
    } = run_comparison(&base, &suite, SimDuration::from_mins(10), |c, p| {
        cfg.run(c, p, &trace)
    });

    // Fig 7a: distribution of per-request improvement factors.
    report.section("Fig 7a: improvement-factor distribution (paired by request)");
    let mut rows = Vec::new();
    let mut json_cdf = medes_obs::JsonMap::new();
    for (name, baseline) in [("fixed", &fixed), ("adaptive", &adaptive)] {
        let mut factors = medes.improvement_factors(baseline);
        factors.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let q = |p: f64| factors[((factors.len() - 1) as f64 * p) as usize];
        rows.push(vec![
            name.to_string(),
            f(q(0.01), 2),
            f(q(0.5), 2),
            f(q(0.95), 2),
            f(q(0.99), 2),
            f(q(0.999), 2),
            f(*factors.last().unwrap_or(&0.0), 2),
        ]);
        json_cdf.insert(
            format!("vs_{name}"),
            medes_obs::json!({
                "p50": q(0.5), "p95": q(0.95), "p99": q(0.99),
                "p999": q(0.999), "max": factors.last().copied().unwrap_or(0.0),
            }),
        );
    }
    report.table(
        &["vs baseline", "p1", "p50", "p95", "p99", "p99.9", "max"],
        &rows,
    );
    report
        .line("paper: up to 2.25x (fixed) / 2.75x (adaptive) in the tail; <1% of requests regress");

    // Fig 7b: per-function cold starts and 99.9p latencies.
    report.section("Fig 7b: per-function cold starts / 99.9p end-to-end latency (ms)");
    let (cm, cf, ca) = (
        medes.cold_starts(),
        fixed.cold_starts(),
        adaptive.cold_starts(),
    );
    let mut json_fns = Vec::new();
    for (i, name) in medes.functions.iter().enumerate() {
        let p999 = |r: &RunReport| r.e2e_quantile_ms(i, 0.999).unwrap_or(0.0);
        json_fns.push(medes_obs::json!({
            "function": name.clone(),
            "cold": medes_obs::json!({
                "fixed": cf[i], "adaptive": ca[i], "medes": cm[i],
            }),
            "p999_ms": medes_obs::json!({
                "fixed": p999(&fixed),
                "adaptive": p999(&adaptive),
                "medes": p999(&medes),
            }),
        }));
    }
    let rows = per_fn_rows(&medes, &fixed, &adaptive);
    report.table(&PER_FN_HEADERS, &rows);

    let reduction_fixed =
        100.0 * (1.0 - medes.total_cold_starts() as f64 / fixed.total_cold_starts().max(1) as f64);
    let reduction_adaptive = 100.0
        * (1.0 - medes.total_cold_starts() as f64 / adaptive.total_cold_starts().max(1) as f64);
    report.line("");
    report.line(&format!(
        "total cold starts: fixed {}, adaptive {}, medes {} (reductions: {:.1}% / {:.1}%)",
        fixed.total_cold_starts(),
        adaptive.total_cold_starts(),
        medes.total_cold_starts(),
        reduction_fixed,
        reduction_adaptive
    ));
    report.line(&format!(
        "medes deduplicated {:.1}% of sandboxes; mean live sandboxes: medes {:.1}, fixed {:.1}, adaptive {:.1}",
        100.0 * medes.dedup_fraction(),
        medes.mean_live_sandboxes,
        fixed.mean_live_sandboxes,
        adaptive.mean_live_sandboxes
    ));
    report.line(&format!(
        "evictions: medes {}, fixed {}, adaptive {}; medes restores {}; spawned: medes {}, fixed {}",
        medes.evictions,
        fixed.evictions,
        adaptive.evictions,
        medes.dedup_starts().iter().sum::<u64>(),
        medes.sandboxes_spawned,
        fixed.sandboxes_spawned,
    ));
    report.line("paper: ~39% of sandboxes deduplicated; 7.74%/37.7% more sandboxes in memory; 10-50% fewer cold starts");
    report.json_set("improvement", medes_obs::Json::Object(json_cdf));
    report.json_set("functions", medes_obs::Json::Array(json_fns));
    report.json_set(
        "cold_totals",
        medes_obs::json!({
            "fixed": fixed.total_cold_starts(),
            "adaptive": adaptive.total_cold_starts(),
            "medes": medes.total_cold_starts(),
        }),
    );
    report
}
