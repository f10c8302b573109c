//! Fig 16 — sensitivity to fingerprint-set cardinality (§7.8).
//!
//! Higher cardinality identifies more redundancy (28.8 → 31.5 →
//! 32.5 MB per-sandbox savings in the paper) but needs more base pages
//! per restore, inflating dedup-start latency (378 → 478 → 554 ms) and,
//! through slower reuse, the tail.

use crate::common::{dedup_mean, ExpConfig};
use crate::report::{f, Report};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "fig16",
        "sensitivity to fingerprint-set cardinality (5/10/20)",
    );
    let suite = cfg.representative_suite();
    let trace = cfg.representative_trace(&suite);
    let mut base = cfg.platform();
    base.nodes = 3;
    base.node_mem_bytes = 168 << 20;

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new();
    for card in [5usize, 10, 20] {
        let mut c = base.clone();
        c.fingerprint.cardinality = card;
        c.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));
        let r = cfg.run(c, &suite, &trace);
        let savings = dedup_mean(&r, |s| s.mean_saved_paper_bytes);
        let restore_ms: f64 = {
            let with = r.dedup_stats.iter().filter(|s| s.restores > 0);
            let n = with.clone().count().max(1) as f64;
            with.map(|s| (s.mean_restore_us.0 + s.mean_restore_us.1 + s.mean_restore_us.2) / 1e3)
                .sum::<f64>()
                / n
        };
        // Slowdown tail.
        let cdf = r.slowdown_cdf(200);
        let p999 = cdf
            .iter()
            .find(|&&(_, q)| q >= 0.999)
            .map(|&(v, _)| v)
            .unwrap_or(0.0);
        sweep.push((card, savings, restore_ms));
        rows.push(vec![
            card.to_string(),
            r.total_cold_starts().to_string(),
            f(savings / (1 << 20) as f64, 1),
            f(restore_ms, 0),
            f(p999, 2),
        ]);
        json.push(medes_obs::json!({
            "cardinality": card,
            "cold": r.total_cold_starts(),
            "mean_savings_mb": savings / (1 << 20) as f64,
            "mean_restore_ms": restore_ms,
            "slowdown_p999": p999,
            "slowdown_cdf": cdf.iter().map(|&(v, q)| medes_obs::json!([v, q])).collect::<Vec<_>>(),
        }));
    }
    report.table(
        &[
            "cardinality",
            "cold starts",
            "savings/sandbox (MB)",
            "restore (ms)",
            "slowdown p99.9",
        ],
        &rows,
    );
    report.line("");
    report.line("paper: savings 28.8->31.5->32.5MB but restores 378->478->554ms; tail inflates at high cardinality");
    if cfg.content_model && !cfg.quick {
        // Under the entropy mixture the sweep must recover the paper's
        // trade-off: more fingerprints per page identify more redundancy
        // but assemble restores from more bases, inflating their cost.
        // (Quick traces are too light to trigger any dedup ops here, so
        // the gate only runs at full length.)
        let (s5, s20) = (sweep[0].1, sweep[2].1);
        let (r5, r20) = (sweep[0].2, sweep[2].2);
        assert!(
            s20 > s5,
            "mixture on: cardinality 20 must out-save cardinality 5 ({s20:.0} vs {s5:.0})"
        );
        assert!(
            r20 > r5,
            "mixture on: cardinality 20 must pay more per restore ({r20:.0} vs {r5:.0} ms)"
        );
        report.line(&format!(
            "mixture on: savings rise {:.1} -> {:.1} MB and restores {:.0} -> {:.0} ms with cardinality, paper ordering holds",
            s5 / (1 << 20) as f64,
            s20 / (1 << 20) as f64,
            r5,
            r20,
        ));
    }
    report.json_set("results", medes_obs::Json::Array(json));
    report
}
