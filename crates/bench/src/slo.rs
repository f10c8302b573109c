//! The SLO fold of `trace report`. Every `medes.platform.request` span
//! carries its function (`fn`), node, startup latency (`startup_us`)
//! and the §5.2 bound in effect (`bound_us` = `α · s_W`, 0 = none). A
//! request violates when its startup exceeds a nonzero bound. The fold
//! counts violations per function and per node exactly, from the spans
//! alone — there is no second record of a request's latency.

use crate::analyze::Forest;
use crate::report::{f, Report};
use crate::trace::uint_attr;
use medes_sim::stats::Percentiles;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The slowest violations of each function that the node ranking
/// weighs: the tail, as opposed to every violation.
pub const TAIL: usize = 8;

/// One function's requests against its bound.
#[derive(Debug, Default)]
pub struct FnSlo {
    /// Request spans of the function.
    pub requests: u64,
    /// The last nonzero bound seen, µs (0 = none).
    pub bound_us: u64,
    /// Requests whose startup exceeded their bound.
    pub violations: u64,
    /// Startup latencies, µs.
    pub startup: Percentiles,
}

/// One violating request.
#[derive(Debug)]
pub struct Violation {
    /// Index of its request span in the forest.
    pub span: usize,
    /// Function name.
    pub func: String,
    /// Node it ran on.
    pub node: u64,
    /// Startup latency, µs.
    pub latency_us: u64,
}

/// Violations of one node.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeSlo {
    /// Every violation the node served.
    pub violations: u64,
    /// Of those, the ones among their function's [`TAIL`] slowest.
    pub tail: u64,
    /// Summed startup of the tail violations, µs.
    pub tail_us: u64,
    /// The node's slowest violation, µs.
    pub worst_us: u64,
}

/// The SLO fold of one export.
#[derive(Debug, Default)]
pub struct SloFold {
    /// Per function, name-sorted.
    pub by_fn: BTreeMap<String, FnSlo>,
    /// Every violation, in file order.
    pub violations: Vec<Violation>,
}

impl SloFold {
    /// Folds the request spans of `forest`.
    pub fn build(forest: &Forest) -> SloFold {
        let mut fold = SloFold::default();
        for (i, s) in forest.spans.iter().enumerate() {
            if s.name != "medes.platform.request" {
                continue;
            }
            let (Some(func), Some(startup)) = (s.attr("fn"), uint_attr(s, "startup_us")) else {
                continue;
            };
            let func = func
                .as_str()
                .map_or_else(|| func.to_string(), str::to_string);
            let bound = uint_attr(s, "bound_us").unwrap_or(0);
            let row = fold.by_fn.entry(func.clone()).or_default();
            row.requests += 1;
            row.startup.record(startup as f64);
            if bound == 0 {
                continue;
            }
            row.bound_us = bound;
            if let (true, Some(node)) = (startup > bound, uint_attr(s, "node")) {
                row.violations += 1;
                fold.violations.push(Violation {
                    span: i,
                    func,
                    node,
                    latency_us: startup,
                });
            }
        }
        fold
    }

    /// The violations among each function's [`TAIL`] slowest, slowest
    /// first within a function; ties keep the earlier request.
    pub fn tail(&self) -> Vec<&Violation> {
        let mut per_fn: BTreeMap<&str, Vec<&Violation>> = BTreeMap::new();
        for v in &self.violations {
            per_fn.entry(&v.func).or_default().push(v);
        }
        let mut tail = Vec::new();
        for mut vs in per_fn.into_values() {
            vs.sort_by_key(|v| Reverse(v.latency_us));
            tail.extend(vs.into_iter().take(TAIL));
        }
        tail
    }

    /// Violations per node.
    pub fn by_node(&self) -> BTreeMap<u64, NodeSlo> {
        let mut nodes: BTreeMap<u64, NodeSlo> = BTreeMap::new();
        for v in &self.violations {
            let n = nodes.entry(v.node).or_default();
            n.violations += 1;
            n.worst_us = n.worst_us.max(v.latency_us);
        }
        for v in self.tail() {
            let n = nodes
                .get_mut(&v.node)
                .expect("a tail violation is a violation");
            n.tail += 1;
            n.tail_us += v.latency_us;
        }
        nodes
    }

    /// The slowest violation (ties: the larger trace id).
    pub fn worst<'a>(&'a self, forest: &Forest) -> Option<&'a Violation> {
        let trace = |v: &Violation| forest.spans[v.span].trace_id;
        self.violations
            .iter()
            .max_by_key(|v| (v.latency_us, trace(v)))
    }
}

/// The per-function SLO table; nothing when the export has no request
/// spans.
pub(crate) fn section(report: &mut Report, slo: &SloFold) {
    if slo.by_fn.is_empty() {
        return;
    }
    report.section("slo per function (startup vs bound, from request spans)");
    let rows = slo.by_fn.iter().map(|(func, row)| {
        let mut startup = row.startup.clone();
        let mut cells = vec![func.clone(), row.requests.to_string()];
        cells.extend([row.bound_us, row.violations].map(|n| n.to_string()));
        cells.extend([0.50, 0.95, 0.99].map(|q| f(startup.quantile(q).unwrap_or(0.0), 1)));
        cells
    });
    let header = [
        "fn",
        "requests",
        "bound_us",
        "violations",
        "p50_us",
        "p95_us",
        "p99_us",
    ];
    report.table(&header, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load, report};
    use medes_obs::{Obs, ObsConfig};
    use medes_sim::SimTime;

    /// A hand-built export of request spans `(fn, node, startup,
    /// bound)`, each its own trace, laid out one per millisecond.
    fn export(requests: &[(&str, u64, u64, u64)]) -> String {
        let obs = Obs::new(ObsConfig::enabled());
        for (id, &(func, node, startup, bound)) in requests.iter().enumerate() {
            let start = id as u64 * 1_000;
            obs.span_in(
                "medes.platform.request",
                SimTime::from_micros(start),
                obs.trace_root("request", 1, id as u64),
            )
            .attr("id", id)
            .attr("fn", func)
            .attr("startup_us", startup)
            .attr("node", node)
            .attr("bound_us", bound)
            .end(SimTime::from_micros(start + startup + 10));
        }
        obs.export_jsonl()
    }

    fn fold(requests: &[(&str, u64, u64, u64)]) -> SloFold {
        load("t", &export(requests)).slo
    }

    /// Violations are counted exactly per function and per node.
    #[test]
    fn violations_count_per_function_and_node_exactly() {
        let slo = fold(&[
            ("a", 0, 50, 40),
            ("a", 1, 30, 40),
            ("a", 1, 90, 40),
            ("b", 1, 500, 100),
            ("b", 2, 100, 100),
            ("c", 2, 900, 0),
        ]);
        let per_fn: Vec<_> = slo
            .by_fn
            .iter()
            .map(|(f, r)| (f.as_str(), r.requests, r.violations))
            .collect();
        assert_eq!(per_fn, [("a", 3, 2), ("b", 2, 1), ("c", 1, 0)]);
        let per_node: Vec<_> = slo
            .by_node()
            .into_iter()
            .map(|(n, s)| (n, s.violations, s.worst_us))
            .collect();
        assert_eq!(per_node, [(0, 1, 50), (1, 2, 500)]);
        assert_eq!(slo.violations.len(), 3);
    }

    /// Pinned closed-form quantiles: 1..=20 µs against a 15 µs bound
    /// give 5 violations, and the startup percentiles are the exact
    /// interpolated ones of the sorted samples.
    #[test]
    fn quantiles_match_closed_form_on_known_samples() {
        let requests: Vec<_> = (1..=20).map(|v| ("f", 0, v, 15)).collect();
        let slo = fold(&requests);
        let row = &slo.by_fn["f"];
        assert_eq!((row.requests, row.bound_us, row.violations), (20, 15, 5));
        let mut startup = row.startup.clone();
        // Rank q·(n−1) between the sorted samples 1..=20.
        assert_eq!(startup.quantile(0.50), Some(10.5));
        assert_eq!(startup.quantile(0.95), Some(19.05));
        assert_eq!(startup.quantile(0.99), Some(19.81));
    }

    #[test]
    fn empty_function_never_appears() {
        let slo = fold(&[]);
        assert!(slo.by_fn.is_empty() && slo.violations.is_empty());
        // A span that is no request, or a request without its startup,
        // adds no row.
        let text = concat!(
            r#"{"span":"medes.platform.request","start_us":0,"end_us":5,"attrs":{"fn":"f"}}"#,
            "\n",
            r#"{"span":"medes.restore.op","start_us":0,"end_us":5,"attrs":{"fn":"g"}}"#,
            "\n"
        );
        assert!(load("t", text).slo.by_fn.is_empty());
        let (report, _) = report(&load("t", text), None);
        assert!(!report.text().contains("slo per function"));
    }

    #[test]
    fn single_sample_all_quantiles_equal_it() {
        let slo = fold(&[("solo", 0, 7, 0)]);
        let mut startup = slo.by_fn["solo"].startup.clone();
        let qs = [0.50, 0.95, 0.99].map(|q| startup.quantile(q));
        assert_eq!(qs, [Some(7.0); 3]);
        // bound 0 ⇒ no bound, no violation even though 7 > 0.
        assert_eq!(slo.by_fn["solo"].bound_us, 0);
        assert_eq!(slo.by_fn["solo"].violations, 0);
    }

    #[test]
    fn violation_is_strict_and_bound_updates() {
        let slo = fold(&[("f", 0, 10, 10), ("f", 0, 11, 10), ("f", 0, 11, 20)]);
        let row = &slo.by_fn["f"];
        assert_eq!((row.requests, row.violations, row.bound_us), (3, 1, 20));
    }

    /// The tail keeps each function's [`TAIL`] slowest violations,
    /// slowest first, ties keeping the earlier request; the node
    /// ranking weighs only those.
    #[test]
    fn traced_violators_keep_topk_latency_descending() {
        let mut requests = vec![
            ("f", 0, 5, 10), // under the bound
            ("f", 1, 30, 10),
            ("f", 2, 20, 10),
            ("f", 3, 30, 10), // tie with node 1's: stays behind it
        ];
        let slo = fold(&requests);
        let tail: Vec<_> = slo.tail().iter().map(|v| (v.node, v.latency_us)).collect();
        assert_eq!(tail, [(1, 30), (3, 30), (2, 20)]);
        // Flood node 4 with slower violations: only the top TAIL count.
        requests.extend((0..50).map(|i| ("f", 4, 100 + i, 10)));
        requests.push(("g", 5, 11, 10));
        let slo = fold(&requests);
        let tail = slo.tail();
        assert_eq!(tail.len(), TAIL + 1, "g's one violation is its tail");
        assert_eq!(tail[0].latency_us, 149);
        assert!(tail[..TAIL].iter().all(|v| v.latency_us >= 142));
        let nodes = slo.by_node();
        assert_eq!(nodes[&4].violations, 50);
        assert_eq!(nodes[&4].tail, TAIL as u64);
        assert_eq!((nodes[&1].violations, nodes[&1].tail), (1, 0));
        assert_eq!(nodes[&5].tail_us, 11);
    }

    /// Functions come out name-sorted, and the report's table mirrors
    /// the fold.
    #[test]
    fn functions_sort_by_name_and_json_mirrors_summary() {
        let run = load("t", &export(&[("zeta", 0, 5, 0), ("alpha", 0, 3, 2)]));
        let names: Vec<&str> = run.slo.by_fn.keys().map(String::as_str).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        let (report, _) = report(&run, None);
        let text = report.text();
        let table = text.split("from request spans) ---\n").nth(1).unwrap();
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(2)
            .take(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows[0][..4], ["alpha", "1", "2", "1"]);
        assert_eq!(rows[1][..4], ["zeta", "1", "0", "0"]);
    }
}
