//! Fig 13 — Medes on top of optimized checkpoint-restore (§7.6).
//!
//! Emulates Catalyzer's sandbox-template method by replacing every cold
//! start with a fast snapshot restore, then runs the same setup with
//! Medes on top. The paper shows Medes still reduces cold starts
//! (~42.8 % of sandboxes deduplicated) because dedup shrinks resident
//! footprints, letting more sandboxes stay in memory.

use crate::common::ExpConfig;
use crate::report::Report;
use medes_core::baselines::catalyzer_comparison;
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig13", "emulated Catalyzer with and without Medes");
    let suite = cfg.representative_suite();
    let trace = cfg.representative_trace(&suite);
    let mut base = cfg.platform();
    base.nodes = 3;
    base.node_mem_bytes = 168 << 20; // same constrained regime as Fig 12
    base.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));

    let (plain, with_medes) = catalyzer_comparison(&base, &suite, |c, p| cfg.run(c, p, &trace));
    report.table(
        &["configuration", "cold starts", "dedup fraction %"],
        &[
            vec![
                "Emulated Catalyzer".to_string(),
                plain.total_cold_starts().to_string(),
                "0.0".to_string(),
            ],
            vec![
                "Emulated Catalyzer + Medes".to_string(),
                with_medes.total_cold_starts().to_string(),
                format!("{:.1}", 100.0 * with_medes.dedup_fraction()),
            ],
        ],
    );
    report.line("");
    report.line("paper: Medes further reduces cold starts on top of snapshot restores; ~42.8% of sandboxes deduplicated");
    report.json_set(
        "results",
        medes_obs::json!({
            "catalyzer_cold": plain.total_cold_starts(),
            "catalyzer_medes_cold": with_medes.total_cold_starts(),
            "dedup_fraction": with_medes.dedup_fraction(),
        }),
    );
    report
}
