//! `trace attribute`: tail-latency drill-down over a run's `.jsonl`
//! trace export.
//!
//! A labeled run (`--obs --labels`) ends its trace with a tail line
//! carrying three things this module joins back to the spans above it:
//!
//! * **`labeled`** — per-node, per-function, per-link series of the
//!   flat aggregates under `metrics`, keyed `name{k=v,...}`;
//! * **`slo_violators`** — the SLO tracker's top violators per
//!   function, each a `(func, rank, latency_us, node, trace_id)`
//!   record;
//! * **`exemplars`** — per-bucket worst samples of every histogram,
//!   each carrying the deterministic trace id that produced the sample.
//!
//! Attribution then proceeds in three steps: rank nodes by the SLO
//! violations they served (the "which node is hurting the tail"
//! answer), rank labeled p99 series that run far above their flat
//! aggregate (the "which dimension is the outlier" answer), and
//! resolve the worst violator's trace id against the spans to print
//! the critical path with per-phase self times (the "what was it
//! doing" answer). The CLI exits nonzero when any attribution is
//! found, so the same invocation doubles as a CI gate.

use crate::analyze::Forest;
use crate::report::{f, Report};
use medes_obs::span::parse_id;
use medes_obs::{parse_jsonl, parse_series_key, parse_tail, Json};
use std::collections::BTreeMap;

/// A labeled p99 must run at least this factor above the flat p99 of
/// the same metric to be flagged as an outlier.
pub const OUTLIER_RATIO: f64 = 1.5;

/// Labeled p99s under this floor (µs) are never flagged: a 3 µs vs
/// 1 µs blip is not a tail-latency story.
pub const OUTLIER_FLOOR_US: f64 = 1_000.0;

/// One `slo_violators` record of the tail.
#[derive(Debug, Clone, PartialEq)]
struct Violation {
    func: String,
    latency_us: u64,
    node: u64,
    trace_id: u64,
}

/// One `exemplars` record of the tail.
#[derive(Debug, Clone, PartialEq)]
struct Exemplar {
    series: String,
    bucket: u64,
    value: u64,
    trace_id: u64,
}

/// The array under `key` in the tail, each record mapped through
/// `read`; records missing a field are skipped — the export is a
/// report, not a protocol.
fn records<T>(tail: &Json, key: &str, read: impl Fn(&Json) -> Option<T>) -> Vec<T> {
    tail.get(key)
        .and_then(Json::as_array)
        .map(|rs| rs.iter().filter_map(read).collect())
        .unwrap_or_default()
}

/// `name -> p99` for every histogram in the tail object under `key`
/// (`metrics` or `labeled`).
fn hist_p99s<'a>(tail: &'a Json, key: &str) -> Vec<(&'a str, f64)> {
    tail.get(key)
        .and_then(Json::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(name, v)| Some((name, v.get("p99")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

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

/// Builds the `trace attribute` report from a run's JSONL trace
/// export (spans plus tail). Returns the report and the ranked
/// attributions (empty = nothing to pin the tail on, the CLI exits 0).
pub fn attribute(name: &str, trace: &str, top: usize) -> (Report, Vec<Attribution>) {
    let tail = &parse_tail(trace).unwrap_or_else(Json::object);
    let violations = records(tail, "slo_violators", |r| {
        Some(Violation {
            func: r.get("func")?.as_str()?.to_string(),
            latency_us: r.get("latency_us")?.as_u64()?,
            node: r.get("node")?.as_u64()?,
            trace_id: parse_id(r.get("trace_id")),
        })
    });
    let exemplars = records(tail, "exemplars", |r| {
        Some(Exemplar {
            series: r.get("series")?.as_str()?.to_string(),
            bucket: r.get("bucket")?.as_u64()?,
            value: r.get("value")?.as_u64()?,
            trace_id: parse_id(r.get("trace_id")),
        })
    });
    let flat_p99: BTreeMap<&str, f64> = hist_p99s(tail, "metrics").into_iter().collect();
    let labeled_p99 = hist_p99s(tail, "labeled");
    let series = tail
        .get("labeled")
        .and_then(Json::as_object)
        .map_or(0, |m| m.len());
    let spans = parse_jsonl(trace);
    let forest = Forest::build(&spans);
    let mut report = Report::new("trace-attribute", name);
    report.line(&format!(
        "{series} labeled series, {} slo violation(s), {} exemplar(s), {} span(s)",
        violations.len(),
        exemplars.len(),
        spans.len()
    ));
    let mut attributions: Vec<Attribution> = Vec::new();

    // 1. SLO violations grouped by serving node.
    //    (count, total latency, worst latency, worst trace id)
    let mut by_node: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    for v in &violations {
        let e = by_node.entry(v.node).or_insert((0, 0, 0, 0));
        e.0 += 1;
        e.1 += v.latency_us;
        if v.latency_us > e.2 {
            e.2 = v.latency_us;
            e.3 = v.trace_id;
        }
    }
    let mut nodes: Vec<(u64, (u64, u64, u64, u64))> = by_node.into_iter().collect();
    nodes.sort_by(|a, b| (b.1 .0, b.1 .1).cmp(&(a.1 .0, a.1 .1)).then(a.0.cmp(&b.0)));
    if nodes.is_empty() {
        report.line("no slo violations retained: nothing to attribute by node");
    } else {
        report.section("slo violation attribution (by node)");
        let total: u64 = nodes.iter().map(|(_, (c, _, _, _))| c).sum();
        let rows: Vec<Vec<String>> = nodes
            .iter()
            .take(top)
            .map(|(node, (count, sum, worst, _))| {
                vec![
                    format!("node {node}"),
                    count.to_string(),
                    f(100.0 * *count as f64 / total as f64, 1),
                    f(*sum as f64 / *count as f64, 1),
                    worst.to_string(),
                ]
            })
            .collect();
        report.table(
            &["node", "violations", "share_%", "mean_us", "worst_us"],
            &rows,
        );
        for (node, (count, _, _, _)) in nodes.iter().take(top) {
            attributions.push(Attribution {
                kind: "slo-node",
                subject: format!("node {node}"),
                weight: *count as f64,
            });
        }
    }

    // 2. Labeled p99s far above their flat aggregate.
    let mut outliers: Vec<(&str, f64, f64, f64)> = labeled_p99
        .iter()
        .filter_map(|&(key, p99)| {
            let (base, _) = parse_series_key(key)?;
            let flat = *flat_p99.get(base)?;
            if flat <= 0.0 || p99 < OUTLIER_FLOOR_US {
                return None;
            }
            let ratio = p99 / flat;
            (ratio >= OUTLIER_RATIO).then_some((key, p99, flat, ratio))
        })
        .collect();
    outliers.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(b.0)));
    if !outliers.is_empty() {
        report.section("labeled p99 outliers (vs flat aggregate)");
        let rows: Vec<Vec<String>> = outliers
            .iter()
            .take(top)
            .map(|&(key, p99, flat, ratio)| {
                vec![key.to_string(), f(p99, 1), f(flat, 1), f(ratio, 2)]
            })
            .collect();
        report.table(&["series", "p99_us", "flat_p99_us", "ratio"], &rows);
        for &(key, _, _, ratio) in outliers.iter().take(top) {
            attributions.push(Attribution {
                kind: "p99-outlier",
                subject: key.to_string(),
                weight: ratio,
            });
        }
    }

    // 3. Resolve the worst violator's trace against the span file:
    //    critical path with per-phase self times.
    let worst = violations.iter().max_by_key(|v| (v.latency_us, v.trace_id));
    if let Some(v) = worst {
        report.section(&format!(
            "critical path of worst violation ({}: {} us on node {}, trace {:016x})",
            v.func, v.latency_us, v.node, v.trace_id
        ));
        report_trace(&mut report, &forest, &spans, v.trace_id);
    }
    // And the single worst exemplar not already covered by the worst
    // violation — the op-level view of the tail.
    if let Some(e) = exemplars
        .iter()
        .filter(|e| worst.is_none_or(|v| e.trace_id != v.trace_id))
        .max_by_key(|e| (e.value, e.trace_id))
    {
        report.section(&format!(
            "critical path of worst exemplar ({} bucket {}: {} us, trace {:016x})",
            e.series, e.bucket, e.value, e.trace_id
        ));
        report_trace(&mut report, &forest, &spans, e.trace_id);
    }

    report.json_set(
        "attributions",
        medes_obs::Json::Array(
            attributions
                .iter()
                .map(|a| {
                    medes_obs::json!({
                        "kind": a.kind,
                        "subject": a.subject.as_str(),
                        "weight": a.weight,
                    })
                })
                .collect(),
        ),
    );
    (report, attributions)
}

/// Renders the critical path of `trace_id`'s tree (if the trace file
/// retained it — head sampling and ring eviction can drop trees).
fn report_trace(
    report: &mut Report,
    forest: &Forest,
    spans: &[medes_obs::ParsedSpan],
    trace_id: u64,
) {
    let Some(tree) = forest.trees.iter().find(|t| t.trace_id == trace_id) else {
        report.line("trace not present in span file (sampled out or evicted)");
        return;
    };
    let Some(&root) = tree.roots.first() else {
        report.line("trace has no roots");
        return;
    };
    let path = forest.critical_path(spans, root);
    let rows: Vec<Vec<String>> = path
        .iter()
        .enumerate()
        .map(|(depth, &i)| {
            let s = &spans[i];
            vec![
                format!("{}{}", "  ".repeat(depth), s.name),
                s.start_us.to_string(),
                s.dur_us().to_string(),
                forest.self_time_us(spans, i).to_string(),
            ]
        })
        .collect();
    report.table(&["phase", "start_us", "dur_us", "self_us"], &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_obs::{LabelSet, Obs, ObsConfig};
    use medes_sim::SimTime;

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
        let (report, attributions) = attribute("t", trace, 5);
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
        let text = report.text();
        assert!(text.contains("4 labeled series, 1 slo violation(s), 1 exemplar(s), 0 span(s)"));
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
            obs.slo_record_traced("f", latency, 100, root.trace_id, node);
            obs.record_with("medes.restore.op_us", latency, Some(root.trace_id), || {
                LabelSet::new().with("node", node)
            });
        }
        let (report, attributions) = attribute("t", &obs.export_jsonl(), 5);
        // The flat p99 includes the slow samples, so node 1's p99 is no
        // outlier by the ratio gate — attribution fires from the SLO
        // records alone.
        assert_eq!(attributions.len(), 1);
        assert_eq!(attributions[0].kind, "slo-node");
        assert_eq!(attributions[0].subject, "node 1");
        assert_eq!(attributions[0].weight, 2.0);
        let text = report.text();
        assert!(text.contains("slo violation attribution"), "{text}");
        assert!(text.contains("critical path of worst violation"), "{text}");
        assert!(text.contains("  medes.restore.op"), "{text}");
        assert!(text.contains("critical path of worst exemplar"), "{text}");
        assert_eq!(report.json()["attributions"][0]["subject"], "node 1");
    }

    #[test]
    fn clean_run_yields_no_attributions() {
        let obs = Obs::new(ObsConfig::enabled().labeled());
        obs.slo_record_traced("f", 50, 100, 1, 0);
        let (report, attributions) = attribute("t", &obs.export_jsonl(), 5);
        assert!(attributions.is_empty(), "{attributions:?}");
        assert!(report.text().contains("nothing to attribute"));
        // Neither does a label-off export, or no export at all.
        let off = Obs::new(ObsConfig::enabled());
        off.slo_record_traced("f", 500, 100, 1, 0);
        assert!(attribute("t", &off.export_jsonl(), 5).1.is_empty());
        assert!(attribute("t", "", 5).1.is_empty());
    }
}
