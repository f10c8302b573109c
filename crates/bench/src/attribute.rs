//! The attribution section of `trace report`: what a run's tail
//! latency can be pinned on, folded from its spans. It ranks nodes by
//! the SLO violations they served among each function's slowest
//! ([`SloFold::tail`]), ranks per-(phase, node) p99s far above their
//! phase's, and prints the worst violation's critical path. A run with
//! no SLO bound and an even spread of latency attributes nothing.

use crate::analyze::{critical_path_table, Forest};
use crate::report::{f, Report};
use crate::slo::{NodeSlo, SloFold};
use crate::trace::{percentiles, uint_attr, Export, TOP};
use medes_obs::Json;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A (phase, node) p99 must run at least this factor above its phase's
/// p99 to be flagged as an outlier.
const OUTLIER_RATIO: f64 = 1.5;

/// (phase, node) p99s under this floor (µs) are never flagged: a 3 µs
/// vs 1 µs blip is not a tail-latency story.
const OUTLIER_FLOOR_US: f64 = 1_000.0;

/// The phase a request's startup is folded under.
const STARTUP: &str = "medes.platform.startup";

/// One ranked attribution: something concrete the tail latency of this
/// run can be pinned on.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// `slo-node` (a node serving SLO violations) or `p99-outlier`
    /// (a (phase, node) p99 far above its phase's).
    pub kind: &'static str,
    /// The attributed dimension, e.g. `node 3` or
    /// `medes.restore.op{node=3}`.
    pub subject: String,
    /// Ranking weight (tail violation count, or p99 ratio).
    pub weight: f64,
}

/// Renders the attribution section and returns the ranked attributions
/// (empty = nothing to pin the tail on).
pub(crate) fn attribution(report: &mut Report, run: &Export) -> Vec<Attribution> {
    let mut attributions = slo_nodes(report, &run.slo);
    attributions.extend(outliers(report, &run.forest));
    if let Some(v) = run.slo.worst(&run.forest) {
        let trace_id = run.forest.spans[v.span].trace_id;
        report.section(&format!(
            "critical path of worst violation ({}: {} us on node {}, trace {trace_id:016x})",
            v.func, v.latency_us, v.node
        ));
        critical_path_table(report, &run.forest, v.span);
    }
    attributions
}

/// Nodes ranked by the tail violations they served, then by their
/// summed latency.
fn slo_nodes(report: &mut Report, slo: &SloFold) -> Vec<Attribution> {
    let mut nodes: Vec<_> = slo
        .by_node()
        .into_iter()
        .filter(|(_, n)| n.tail > 0)
        .collect();
    if nodes.is_empty() {
        report.line("\nno slo violations: nothing to attribute by node");
        return Vec::new();
    }
    nodes.sort_by_key(|&(node, n)| (Reverse((n.tail, n.tail_us)), node));
    nodes.truncate(TOP);
    report.section("slo violation attribution (by node)");
    let tail: u64 = nodes.iter().map(|(_, n)| n.tail).sum();
    let rows = nodes.iter().map(|&(node, n)| {
        vec![
            format!("node {node}"),
            n.violations.to_string(),
            n.tail.to_string(),
            f(100.0 * n.tail as f64 / tail as f64, 1),
            f(n.tail_us as f64 / n.tail as f64, 1),
            n.worst_us.to_string(),
        ]
    });
    let header = [
        "node",
        "violations",
        "tail",
        "tail_share_%",
        "tail_mean_us",
        "worst_us",
    ];
    report.table(&header, rows);
    let attribution = |&(node, n): &(u64, NodeSlo)| Attribution {
        kind: "slo-node",
        subject: format!("node {node}"),
        weight: n.tail as f64,
    };
    nodes.iter().map(attribution).collect()
}

/// The node of every span: its own `node` attribute, else its nearest
/// ancestor's.
fn span_nodes(forest: &Forest) -> Vec<Option<u64>> {
    let own = |s| uint_attr(s, "node");
    let mut nodes: Vec<Option<u64>> = forest.spans.iter().map(own).collect();
    let roots = forest.trees.iter().flat_map(|t| t.roots.iter().copied());
    let mut stack: Vec<usize> = roots.collect();
    while let Some(i) = stack.pop() {
        for &c in &forest.children[i] {
            nodes[c] = nodes[c].or(nodes[i]);
            stack.push(c);
        }
    }
    nodes
}

/// `text` with the bytes that delimit a row key (`,`, `=`, `}`, `\`)
/// backslash-escaped, so no function name can pose as another label.
fn escaped(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if matches!(c, ',' | '=' | '}' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Per-(phase, node) p99s far above their phase's p99. A span that
/// names its function (`fn`) is grouped per function too, and a
/// request's startup (`startup_us`, what the SLO bounds) is folded as
/// the phase `medes.platform.startup` beside the request's duration.
fn outliers(report: &mut Report, forest: &Forest) -> Vec<Attribution> {
    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut groups: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for (s, node) in forest.spans.iter().zip(span_nodes(forest)) {
        let Some(node) = node else { continue };
        let labels = match s.attr("fn").and_then(Json::as_str) {
            Some(func) => format!("fn={},node={node}", escaped(func)),
            None => format!("node={node}"),
        };
        let startup = uint_attr(s, "startup_us").filter(|_| s.name == "medes.platform.request");
        let samples = [
            Some((s.name.as_str(), s.dur_us())),
            startup.map(|us| (STARTUP, us)),
        ];
        for (name, us) in samples.into_iter().flatten() {
            phases.entry(name).or_default().push(us as f64);
            let key = (name, format!("{name}{{{labels}}}"));
            groups.entry(key).or_default().push(us as f64);
        }
    }
    let p99 = |durs: &[f64]| percentiles(durs.iter().copied()).quantile(0.99);
    let phase_p99: BTreeMap<&str, f64> = phases
        .iter()
        .filter_map(|(&name, durs)| Some((name, p99(durs)?)))
        .collect();
    let mut out: Vec<(String, f64, f64, f64)> = groups
        .into_iter()
        .filter_map(|((name, key), durs)| {
            let (p, flat) = (p99(&durs)?, phase_p99[name]);
            let ratio = p / flat;
            (flat > 0.0 && p >= OUTLIER_FLOOR_US && ratio >= OUTLIER_RATIO)
                .then_some((key, p, flat, ratio))
        })
        .collect();
    out.sort_by(|a, b| b.3.total_cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    out.truncate(TOP);
    if out.is_empty() {
        return Vec::new();
    }
    report.section("(phase, node) p99 outliers (vs the phase's p99)");
    let rows = out
        .iter()
        .map(|(key, p, flat, ratio)| [key.clone(), f(*p, 1), f(*flat, 1), f(*ratio, 2)]);
    report.table(&["series", "p99_us", "phase_p99_us", "ratio"], rows);
    let attribution = |(key, _, _, ratio): (String, f64, f64, f64)| Attribution {
        kind: "p99-outlier",
        subject: key,
        weight: ratio,
    };
    out.into_iter().map(attribution).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load, report};
    use medes_obs::{Obs, ObsConfig};
    use medes_sim::SimTime;
    use std::rc::Rc;

    fn attribute(trace: &str) -> (String, Vec<Attribution>) {
        let (report, findings) = report(&load("t", trace), None);
        (report.text().to_string(), findings.attributions)
    }

    /// Records one request `(id, fn, node, startup, bound)` with a
    /// restore op under it that ends 5 µs before the request does.
    fn request(obs: &Rc<Obs>, (id, func, node, latency, bound): (u64, &str, u64, u64, u64)) {
        let root = obs.trace_root("request", 7, id);
        let t = SimTime::from_micros;
        let start = id * 100_000;
        obs.span_in("medes.platform.request", t(start), root)
            .attr("fn", func)
            .attr("startup_us", latency)
            .attr("node", node)
            .attr("bound_us", bound)
            .end(t(start + latency));
        let op = root.child("medes.restore.op", 0);
        obs.span_in("medes.restore.base_read", t(start + 10), op.child("b", 0))
            .end(t(start + latency - 5));
        obs.span_in("medes.restore.op", t(start + 10), op)
            .attr("node", node)
            .end(t(start + latency - 5));
    }

    /// (phase, node) p99s are folded from the spans, a phase span
    /// inheriting the node of the op above it and a request adding its
    /// startup; a hostile function name is escaped in the subject, and
    /// the floor and ratio gates apply.
    #[test]
    fn phase_node_outliers_inherit_the_op_node() {
        let obs = Obs::new(ObsConfig::enabled());
        for id in 0..200u64 {
            let slow = id == 199;
            let latency = if slow { 90_000 } else { 2_000 };
            request(&obs, (id, "a,b=c", id % 4 + u64::from(slow), latency, 0));
        }
        let (text, attributions) = attribute(&obs.export_jsonl());
        let subjects: Vec<&str> = attributions.iter().map(|a| a.subject.as_str()).collect();
        // Node 4 served only the slow request; every phase under it
        // inherits the node.
        assert_eq!(
            subjects,
            [
                "medes.restore.base_read{node=4}",
                "medes.restore.op{node=4}",
                r"medes.platform.request{fn=a\,b\=c,node=4}",
                r"medes.platform.startup{fn=a\,b\=c,node=4}",
            ]
        );
        assert!(attributions.iter().all(|a| a.kind == "p99-outlier"));
        assert!(text.contains("(phase, node) p99 outliers"), "{text}");
        assert!(text.contains("no slo violations"), "{text}");
        // Under the floor nothing is an outlier, however skewed.
        let obs = Obs::new(ObsConfig::enabled());
        for id in 0..20u64 {
            request(
                &obs,
                (
                    id,
                    "f",
                    u64::from(id == 19),
                    100 + 800 * u64::from(id == 19),
                    0,
                ),
            );
        }
        assert!(attribute(&obs.export_jsonl()).1.is_empty());
    }

    /// End to end on a synthetic run: the node serving the violations
    /// ranks first and the violation's critical path resolves from the
    /// spans of the same export.
    #[test]
    fn attribution_ranks_slow_node_and_resolves_critical_path() {
        let obs = Obs::new(ObsConfig::enabled());
        // Two requests on node 1 violate a 100 us bound; node 0 is clean.
        for (id, latency, node) in [(1u64, 50u64, 0u64), (2, 9_000, 1), (3, 8_000, 1)] {
            request(&obs, (id, "f", node, latency, 100));
        }
        let (text, attributions) = attribute(&obs.export_jsonl());
        // Node 1's p99 is the phase's own: no outlier, only the SLO.
        assert_eq!(attributions.len(), 1, "{attributions:?}");
        assert_eq!(attributions[0].kind, "slo-node");
        assert_eq!(attributions[0].subject, "node 1");
        assert_eq!(attributions[0].weight, 2.0);
        assert!(text.contains("slo violation attribution"), "{text}");
        assert!(
            text.contains("worst violation (f: 9000 us on node 1"),
            "{text}"
        );
        assert!(text.contains("  medes.restore.op"), "{text}");
    }

    #[test]
    fn clean_run_yields_no_attributions() {
        let obs = Obs::new(ObsConfig::enabled());
        request(&obs, (1, "f", 0, 50, 100));
        let (text, attributions) = attribute(&obs.export_jsonl());
        assert!(attributions.is_empty(), "{attributions:?}");
        assert!(text.contains("nothing to attribute"));
        // Neither does a run without bounds, or no export at all.
        let off = Obs::new(ObsConfig::enabled());
        request(&off, (1, "f", 0, 500, 0));
        assert!(attribute(&off.export_jsonl()).1.is_empty());
        assert!(attribute("").1.is_empty());
    }
}
