//! End-to-end: a traced quick-scale Medes run exports a JSONL trace
//! that `trace analyze` reconstructs into exact causal trees and
//! `trace attribute` drills into.

use medes_bench::analyze::{analyze, tree_self_sum, Forest};
use medes_bench::attribute::attribute;
use medes_bench::common::{run_outcome, ExpConfig};
use medes_core::config::PolicyKind;
use medes_obs::{parse_jsonl, parse_tail, ObsConfig};
use medes_policy::medes::Objective;

#[test]
fn traced_run_reconstructs_exact_request_trees() {
    let cfg = ExpConfig::quick();
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let mut platform = cfg.platform();
    let mut obs = ObsConfig::enabled().labeled();
    obs.span_buffer_cap = 1 << 21;
    platform.obs = obs;
    platform.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));
    let outcome = run_outcome(platform, &suite, &trace);
    let jsonl = outcome.obs.export_jsonl();
    let spans = parse_jsonl(&jsonl);
    let forest = Forest::build(&spans);

    // At least one restore happened and its tree is exact: every
    // request tree's per-node self times sum to the root duration.
    let mut restore_trees = 0usize;
    let mut request_trees = 0usize;
    for tree in &forest.trees {
        for &root in &tree.roots {
            if spans[root].name != "medes.platform.request" {
                continue;
            }
            request_trees += 1;
            assert_eq!(
                tree_self_sum(&forest, &spans, root),
                spans[root].dur_us(),
                "request tree self times must sum to the root duration"
            );
            let path = forest.critical_path(&spans, root);
            assert!(!path.is_empty());
            let has_restore = forest
                .children(root)
                .iter()
                .any(|&c| spans[c].name == "medes.restore.op");
            if has_restore {
                restore_trees += 1;
                // The critical path of a restored request descends
                // below the request span into the op's phases.
                assert!(path.len() >= 3, "restore critical path too shallow");
            }
        }
    }
    assert!(request_trees > 0, "no request trees in the trace");
    assert!(restore_trees > 0, "no restore trees in the trace");

    // The report renders and the folded-stacks output is non-empty
    // with multi-level stacks.
    let (report, folded) = analyze("e2e.jsonl", &jsonl, 2.0, 10);
    let text = report.text();
    assert!(text.contains("critical path"));
    assert!(text.contains("medes.platform.request"));
    assert!(folded.lines().any(|l| l.contains(';')), "no nested stacks");

    // SLO summary rides along on the outcome and in the export's tail.
    assert!(!outcome.slo.is_empty());
    let tail = parse_tail(&jsonl).expect("export ends in a tail");
    for row in &outcome.slo {
        assert_eq!(tail["slo"][row.func.as_str()]["count"], row.count as i64);
    }

    // The drill-down needs nothing but the same string: cold starts
    // break the α·s_W bound, so violators are retained, ranked by node
    // and resolved against the spans above the tail.
    let (drill, attributions) = attribute("e2e.jsonl", &jsonl, 5);
    assert!(attributions.iter().any(|a| a.kind == "slo-node"));
    let text = drill.text();
    assert!(text.contains("critical path of worst violation"), "{text}");
    assert!(!text.contains("trace not present"), "{text}");
}
