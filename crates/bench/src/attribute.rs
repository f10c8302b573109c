//! The attribution section of `trace report`: what a labeled run's
//! (`--obs --labels`) tail latency can be pinned on. It ranks nodes by
//! the SLO violations they served (the tail's `slo_violators`), ranks
//! labeled p99 series far above their flat aggregate (`labeled`), and
//! resolves the worst violation's and the worst exemplar's trace ids
//! against the spans above the tail to print their critical paths. A
//! label-off export carries neither violators nor labeled series, so it
//! never attributes anything.

use crate::analyze::critical_path_table;
use crate::report::{f, Report};
use crate::trace::{Export, TOP};
use medes_obs::parse_series_key;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A labeled p99 must run at least this factor above the flat p99 of
/// the same metric to be flagged as an outlier.
const OUTLIER_RATIO: f64 = 1.5;

/// Labeled p99s under this floor (µs) are never flagged: a 3 µs vs
/// 1 µs blip is not a tail-latency story.
const OUTLIER_FLOOR_US: f64 = 1_000.0;

/// One ranked attribution: something concrete the tail latency of this
/// run can be pinned on.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// `slo-node` (a node serving SLO violations) or `p99-outlier`
    /// (a labeled p99 far above its flat aggregate).
    pub kind: &'static str,
    /// The attributed dimension, e.g. `node 3` or
    /// `medes.restore.op_us{node=3}`.
    pub subject: String,
    /// Ranking weight (violation count, or p99 ratio).
    pub weight: f64,
}

/// Renders the attribution section and returns the ranked attributions
/// (empty = nothing to pin the tail on).
pub(crate) fn attribution(report: &mut Report, run: &Export) -> Vec<Attribution> {
    let mut attributions: Vec<Attribution> = Vec::new();

    // 1. SLO violations grouped by serving node:
    //    (count, total latency, worst latency).
    let mut by_node: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for v in &run.violators {
        let e = by_node.entry(v.node).or_default();
        e.0 += 1;
        e.1 += v.latency_us;
        e.2 = e.2.max(v.latency_us);
    }
    let mut nodes: Vec<(u64, (u64, u64, u64))> = by_node.into_iter().collect();
    nodes.sort_by_key(|&(node, (count, sum, _))| (Reverse((count, sum)), node));
    nodes.truncate(TOP);
    if nodes.is_empty() {
        report.line("\nno slo violations retained: nothing to attribute by node");
    } else {
        report.section("slo violation attribution (by node)");
        let total = run.violators.len() as f64;
        let rows = nodes.iter().map(|&(node, (count, sum, worst))| {
            vec![
                format!("node {node}"),
                count.to_string(),
                f(100.0 * count as f64 / total, 1),
                f(sum as f64 / count as f64, 1),
                worst.to_string(),
            ]
        });
        let header = ["node", "violations", "share_%", "mean_us", "worst_us"];
        report.table(&header, rows);
        attributions.extend(nodes.iter().map(|&(node, (count, _, _))| Attribution {
            kind: "slo-node",
            subject: format!("node {node}"),
            weight: count as f64,
        }));
    }

    // 2. Labeled p99s far above their flat aggregate.
    let mut outliers: Vec<(&str, f64, f64, f64)> = run
        .labeled_p99
        .iter()
        .filter_map(|(key, &p99)| {
            let (base, _) = parse_series_key(key)?;
            let flat = *run.hist_p99.get(base)?;
            if flat <= 0.0 || p99 < OUTLIER_FLOOR_US {
                return None;
            }
            let ratio = p99 / flat;
            (ratio >= OUTLIER_RATIO).then_some((key.as_str(), p99, flat, ratio))
        })
        .collect();
    outliers.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(b.0)));
    outliers.truncate(TOP);
    if !outliers.is_empty() {
        report.section("labeled p99 outliers (vs flat aggregate)");
        let rows = outliers
            .iter()
            .map(|&(key, p99, flat, ratio)| [key.to_string(), f(p99, 1), f(flat, 1), f(ratio, 2)]);
        report.table(&["series", "p99_us", "flat_p99_us", "ratio"], rows);
        attributions.extend(outliers.iter().map(|&(key, _, _, ratio)| Attribution {
            kind: "p99-outlier",
            subject: key.to_string(),
            weight: ratio,
        }));
    }

    // 3. The worst violator's critical path, and the worst exemplar's
    //    when it is another trace — the op-level view of the tail.
    let worst = run
        .violators
        .iter()
        .max_by_key(|v| (v.latency_us, v.trace_id));
    if let Some(v) = worst {
        report.section(&format!(
            "critical path of worst violation ({}: {} us on node {}, trace {:016x})",
            v.func, v.latency_us, v.node, v.trace_id
        ));
        trace_path(report, run, v.trace_id);
    }
    let exemplar = run
        .exemplars
        .iter()
        .filter(|e| worst.is_none_or(|v| e.trace_id != v.trace_id))
        .max_by_key(|e| (e.value, e.trace_id));
    if let Some(e) = exemplar {
        report.section(&format!(
            "critical path of worst exemplar ({} bucket {}: {} us, trace {:016x})",
            e.series, e.bucket, e.value, e.trace_id
        ));
        trace_path(report, run, e.trace_id);
    }
    attributions
}

/// Renders the critical path of `trace_id`'s tree, if the trace file
/// retained it — an in-memory export's ring eviction can drop trees.
fn trace_path(report: &mut Report, run: &Export, trace_id: u64) {
    let tree = run.forest.trees.iter().find(|t| t.trace_id == trace_id);
    match tree.and_then(|t| t.roots.first()) {
        Some(&root) => critical_path_table(report, &run.forest, root),
        None => report.line("trace not present in span file (evicted)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load, report};
    use medes_obs::{LabelSet, Obs, ObsConfig};
    use medes_sim::SimTime;

    fn attribute(trace: &str) -> (String, Vec<Attribution>) {
        let (report, findings) = report(&load("t", trace), None, None);
        (report.text().to_string(), findings.attributions)
    }

    /// The drill-down reads a hand-written tail: labeled keys resolve
    /// to their flat base through the shared series-key parser (escaped
    /// delimiters in a function name included), the ratio and floor
    /// gates apply, and malformed records are skipped.
    #[test]
    fn series_ref_parses_names_labels_and_escapes() {
        let trace = concat!(
            r#"{"metrics":{"medes.restore.op_us":{"count":9,"p99":1000},"medes.x.ops":3},"#,
            r#""labeled":{"medes.restore.op_us{func=a\\,b\\=c,node=3}":{"count":2,"p99":9000},"#,
            r#""medes.restore.op_us{func=ok,node=0}":{"count":7,"p99":1400},"#,
            r#""medes.tiny_us{node=3}":{"count":1,"p99":900},"medes.x.ops{node=3}":3},"#,
            r#""exemplars":[{"series":"medes.restore.op_us{func=a\\,b\\=c,node=3}","bucket":12,"#,
            r#""value":9000,"trace_id":"00000000000000ff"},{"series":"broken"}],"#,
            r#""slo":{},"#,
            r#""slo_violators":[{"func":"a,b=c","rank":1,"latency_us":9000,"node":3,"#,
            r#""trace_id":"00000000000000ff"},{"func":"no-latency","node":1}]}"#,
            "\n"
        );
        let (text, attributions) = attribute(trace);
        assert_eq!(
            attributions,
            [
                Attribution {
                    kind: "slo-node",
                    subject: "node 3".to_string(),
                    weight: 1.0,
                },
                Attribution {
                    kind: "p99-outlier",
                    subject: r"medes.restore.op_us{func=a\,b\=c,node=3}".to_string(),
                    weight: 9.0,
                },
            ]
        );
        assert!(text.contains("0 spans"), "{text}");
        assert!(
            text.contains("4 labeled series, 1 slo violation(s), 1 exemplar(s)"),
            "{text}"
        );
        assert!(text.contains("worst violation (a,b=c: 9000 us on node 3, trace 00000000000000ff)"));
        assert!(text.contains("trace not present in span file"), "{text}");
    }

    /// End to end on a synthetic run: the node serving the violations
    /// ranks first and the violator's critical path resolves from the
    /// spans of the same export.
    #[test]
    fn attribution_ranks_slow_node_and_resolves_critical_path() {
        let obs = Obs::new(ObsConfig::enabled().labeled());
        // Two requests on node 1 violate a 100 us bound; node 0 is clean.
        for (id, latency, node) in [(1u64, 50u64, 0u64), (2, 9_000, 1), (3, 8_000, 1)] {
            let root = obs.trace_root("request", 7, id);
            obs.span_in("medes.platform.request", SimTime::from_micros(0), root)
                .end(SimTime::from_micros(latency));
            obs.span_in(
                "medes.restore.op",
                SimTime::from_micros(10),
                root.child("medes.restore.op", 0),
            )
            .end(SimTime::from_micros(latency - 5));
            obs.slo_record("f", latency, 100, root.trace_id, node);
            obs.record_with("medes.restore.op_us", latency, Some(root.trace_id), || {
                LabelSet::new().with("node", node)
            });
        }
        let (text, attributions) = attribute(&obs.export_jsonl());
        // The flat p99 includes the slow samples, so node 1's p99 is no
        // outlier by the ratio gate — attribution fires from the SLO
        // records alone.
        assert_eq!(attributions.len(), 1);
        assert_eq!(attributions[0].kind, "slo-node");
        assert_eq!(attributions[0].subject, "node 1");
        assert_eq!(attributions[0].weight, 2.0);
        assert!(text.contains("slo violation attribution"), "{text}");
        assert!(text.contains("critical path of worst violation"), "{text}");
        assert!(text.contains("  medes.restore.op"), "{text}");
        assert!(text.contains("critical path of worst exemplar"), "{text}");
    }

    #[test]
    fn clean_run_yields_no_attributions() {
        let obs = Obs::new(ObsConfig::enabled().labeled());
        obs.slo_record("f", 50, 100, 1, 0);
        let (text, attributions) = attribute(&obs.export_jsonl());
        assert!(attributions.is_empty(), "{attributions:?}");
        assert!(text.contains("nothing to attribute"));
        // Neither does a label-off export, or no export at all.
        let off = Obs::new(ObsConfig::enabled());
        off.slo_record("f", 500, 100, 1, 0);
        assert!(attribute(&off.export_jsonl()).1.is_empty());
        assert!(attribute("").1.is_empty());
    }
}
