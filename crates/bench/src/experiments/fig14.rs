//! Fig 14 — sensitivity to the RSC chunk size (§7.8).
//!
//! 32 B chunks collide in the fingerprint registry (dissimilar chunks
//! labelled similar → bigger patches); 128 B chunks identify less
//! redundancy (smaller savings → more evictions → more cold starts).
//! 64 B is the sweet spot the paper picks.

use crate::common::{dedup_mean, ExpConfig};
use crate::report::{f, Report};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig14", "sensitivity to RSC chunk size (32/64/128 B)");
    let suite = cfg.representative_suite();
    let trace = cfg.representative_trace(&suite);
    let mut base = cfg.platform();
    base.nodes = 3;
    base.node_mem_bytes = 168 << 20;
    base.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new();
    for chunk in [32usize, 64, 128] {
        let mut c = base.clone();
        c.fingerprint.chunk_size = chunk;
        let r = cfg.run(c, &suite, &trace);
        let savings = dedup_mean(&r, |s| s.mean_saved_paper_bytes);
        let patch = dedup_mean(&r, |s| s.mean_patch_bytes);
        sweep.push((chunk, savings, patch));
        rows.push(vec![
            format!("{chunk}B"),
            r.total_cold_starts().to_string(),
            f(savings / (1 << 20) as f64, 1),
            f(patch, 0),
        ]);
        json.push(medes_obs::json!({
            "chunk": chunk,
            "cold": r.total_cold_starts(),
            "mean_savings_mb": savings / (1 << 20) as f64,
            "mean_patch_bytes": patch,
        }));
    }
    report.table(
        &[
            "chunk size",
            "cold starts",
            "avg savings/sandbox (MB)",
            "avg patch (B)",
        ],
        &rows,
    );
    report.line("");
    report.line("paper: 64B best; 128B drops savings (28.8->22.8MB); 32B inflates patches (611->940B) via collisions");
    if cfg.content_model && !cfg.quick {
        // Under the entropy mixture the sweep must recover the paper's
        // shape instead of being flat: coarser chunks identify less
        // redundancy, and 32 B collisions inflate the patches. (Quick
        // traces are too light to trigger any dedup ops here, so the
        // gate only runs at full length.)
        let (s32, s64, s128) = (sweep[0].1, sweep[1].1, sweep[2].1);
        let (p32, p64) = (sweep[0].2, sweep[1].2);
        assert!(
            s128 < s64,
            "mixture on: 128B chunks must drop savings vs 64B ({s128:.0} vs {s64:.0})"
        );
        assert!(
            p32 > p64,
            "mixture on: 32B collisions must inflate patches vs 64B ({p32:.0} vs {p64:.0})"
        );
        report.line(&format!(
            "mixture on: savings non-flat across chunk sizes ({:.1} / {:.1} / {:.1} MB), paper ordering holds",
            s32 / (1 << 20) as f64,
            s64 / (1 << 20) as f64,
            s128 / (1 << 20) as f64,
        ));
    }
    report.json_set("results", medes_obs::Json::Array(json));
    report
}
