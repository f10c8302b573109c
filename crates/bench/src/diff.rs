//! `trace diff`: regression detection between two run exports.
//!
//! A trace JSONL export is self-contained — spans, then one tail line
//! with the final metrics snapshot and per-function SLO summary — so
//! two of them (plus their optional `.timeseries.jsonl` siblings) are
//! enough to answer "did this change make the platform worse?". The
//! comparison covers four layers:
//!
//! * **run counters**: the curated higher-is-worse set (cold starts,
//!   fallback colds, queueing, rescheduling, evictions, dedup aborts,
//!   network retries/failures);
//! * **latency histograms**: p99 of every `*_us` histogram in the tail;
//! * **SLO violations**: the total across all functions;
//! * **per-phase self time** (from the causal-tree analyzer) and
//!   **time-series endpoints** (final value of every sampled gauge,
//!   hit-rates inverted).
//!
//! Everything is threshold-gated (relative + an absolute floor per
//! unit, so a 2 → 3 count blip doesn't fail a build) and the caller
//! exits nonzero when any regression survives the gate.

use crate::analyze::Forest;
use crate::report::{f, Report};
use medes_obs::json::Json;
use medes_obs::{parse_jsonl, parse_series_key, parse_tail, parse_timeseries, SeriesKind};
use std::collections::BTreeMap;

/// Counters where *more is strictly worse*. Compared whenever either
/// side has a nonzero value; a name absent from a side counts as 0.
const WORSE_COUNTERS: [&str; 10] = [
    "medes.platform.starts.cold",
    "medes.platform.starts.fallback_cold",
    "medes.platform.queued",
    "medes.platform.rescheduled",
    "medes.platform.evictions",
    "medes.platform.dedup_aborts",
    "medes.net.retries",
    "medes.net.retry_giveups",
    "medes.net.rdma_failures",
    "medes.net.rpc_failures",
];

/// Regression gates. A candidate value regresses when it exceeds
/// `base · (1 + rel)` *plus* the unit's absolute floor — both must be
/// cleared, so tiny absolute blips on tiny bases never fail a build.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Relative slack (0.10 = 10% worse allowed). `--threshold`.
    pub rel: f64,
    /// Absolute floor for event counts.
    pub abs_count: f64,
    /// Absolute floor for microsecond quantities (p99s, self times).
    pub abs_us: f64,
    /// Absolute floor for rates in `[0, 1]` (hit rates).
    pub abs_rate: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            rel: 0.10,
            abs_count: 5.0,
            abs_us: 500.0,
            abs_rate: 0.02,
        }
    }
}

impl DiffThresholds {
    /// `cand` regressed past `base` for a higher-is-worse metric.
    fn worse(&self, base: f64, cand: f64, abs: f64) -> bool {
        cand > base * (1.0 + self.rel) + abs
    }
}

/// One metric that regressed past the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric (or phase/series) name.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
}

/// One side of the comparison, loaded from a trace export (and its
/// optional `.timeseries.jsonl` sibling).
#[derive(Debug)]
pub struct TraceExport {
    /// Display label (usually the file name).
    pub label: String,
    /// Counters and gauges from the metrics tail.
    scalars: BTreeMap<String, f64>,
    /// p99 of every histogram in the metrics tail, µs.
    hist_p99: BTreeMap<String, f64>,
    /// Total SLO violations across functions.
    slo_violations: f64,
    /// Total self time per span name (causal-tree analyzer), µs.
    phase_self_us: BTreeMap<String, f64>,
    /// Final sampled value of every time-series gauge.
    series_last: BTreeMap<String, f64>,
    /// Labeled twins from the tail's `labeled` key
    /// (`name{k=v,...}` -> value), empty for label-off runs.
    labeled: BTreeMap<String, f64>,
}

impl TraceExport {
    /// Parses one run export. `timeseries` is the contents of the
    /// sibling `.timeseries.jsonl`, when one was exported.
    pub fn load(label: &str, trace: &str, timeseries: Option<&str>) -> TraceExport {
        let mut scalars = BTreeMap::new();
        let mut hist_p99 = BTreeMap::new();
        let mut slo_violations = 0.0;
        let mut labeled = BTreeMap::new();
        let tail = parse_tail(trace);
        if let Some(tail) = &tail {
            if let Some(Json::Object(m)) = tail.get("metrics") {
                for (name, v) in m.iter() {
                    match v {
                        Json::Num(x) => {
                            scalars.insert(name.to_string(), *x);
                        }
                        Json::Object(_) => {
                            if let Some(p99) = v.get("p99").and_then(Json::as_f64) {
                                hist_p99.insert(name.to_string(), p99);
                            }
                        }
                        _ => {}
                    }
                }
            }
            if let Some(Json::Object(l)) = tail.get("labeled") {
                for (name, v) in l.iter() {
                    // Histogram twins export as objects; only scalar
                    // twins are comparable endpoints here.
                    if let Json::Num(x) = v {
                        labeled.insert(name.to_string(), *x);
                    }
                }
            }
            if let Some(Json::Object(slo)) = tail.get("slo") {
                for (_, row) in slo.iter() {
                    slo_violations += row.get("violations").and_then(Json::as_f64).unwrap_or(0.0);
                }
            }
        }
        let spans = parse_jsonl(trace);
        let forest = Forest::build(&spans);
        let mut phase_self_us: BTreeMap<String, f64> = BTreeMap::new();
        for t in &forest.trees {
            for &r in &t.roots {
                let mut stack = vec![r];
                while let Some(i) = stack.pop() {
                    *phase_self_us.entry(spans[i].name.clone()).or_default() +=
                        forest.self_time_us(&spans, i) as f64;
                    stack.extend_from_slice(forest.children(i));
                }
            }
        }
        let mut series_last = BTreeMap::new();
        for s in parse_timeseries(timeseries.unwrap_or("")) {
            // Counters already surface through the metrics tail; only
            // gauge endpoints add signal here.
            if s.kind == SeriesKind::Gauge {
                if let Some(last) = s.last() {
                    series_last.insert(s.name, last);
                }
            }
        }
        TraceExport {
            label: label.to_string(),
            scalars,
            hist_p99,
            slo_violations,
            phase_self_us,
            series_last,
            labeled,
        }
    }
}

/// Compares `cand` against `base`, returning the rendered report and
/// every regression that cleared the thresholds (empty = clean).
pub fn diff(
    base: &TraceExport,
    cand: &TraceExport,
    th: &DiffThresholds,
) -> (Report, Vec<Regression>) {
    diff_by(base, cand, th, None)
}

/// [`diff`] with an optional `--group-by <label>`: labeled twins in
/// the tails carrying that label are aggregated per `(metric, label
/// value)` and compared side by side. Grouped rows only *gate* (flag a
/// regression) for metrics in the curated higher-is-worse set — a node
/// doing more RDMA reads is a shift, not a regression — but every
/// group is rendered so the shift is visible.
pub fn diff_by(
    base: &TraceExport,
    cand: &TraceExport,
    th: &DiffThresholds,
    group_by: Option<&str>,
) -> (Report, Vec<Regression>) {
    let mut report = Report::new("trace-diff", &format!("{} vs {}", base.label, cand.label));
    report.line(&format!(
        "thresholds: rel {:.0}%, floors: count {}, us {}, rate {}",
        th.rel * 100.0,
        th.abs_count,
        th.abs_us,
        th.abs_rate
    ));
    let mut regressions: Vec<Regression> = Vec::new();
    let mut compare_section =
        |report: &mut Report, title: &str, rows: Vec<(String, f64, f64, f64, bool)>| {
            if rows.is_empty() {
                return;
            }
            report.section(title);
            let rendered: Vec<Vec<String>> = rows
                .iter()
                .map(|(name, b, c, abs, lower_is_worse)| {
                    let (eff_b, eff_c) = if *lower_is_worse { (-b, -c) } else { (*b, *c) };
                    let bad = th.worse(eff_b, eff_c, *abs);
                    if bad {
                        regressions.push(Regression {
                            metric: name.clone(),
                            base: *b,
                            cand: *c,
                        });
                    }
                    let delta = if b.abs() > f64::EPSILON {
                        f(100.0 * (c - b) / b, 1)
                    } else {
                        "-".to_string()
                    };
                    vec![
                        name.clone(),
                        f(*b, 1),
                        f(*c, 1),
                        delta,
                        if bad { "REGRESSED" } else { "ok" }.to_string(),
                    ]
                })
                .collect();
            report.table(&["metric", "base", "cand", "delta_%", "verdict"], &rendered);
        };

    // Run counters (curated higher-is-worse set).
    let rows: Vec<_> = WORSE_COUNTERS
        .iter()
        .filter_map(|&name| {
            let b = base.scalars.get(name).copied().unwrap_or(0.0);
            let c = cand.scalars.get(name).copied().unwrap_or(0.0);
            (b != 0.0 || c != 0.0).then(|| (name.to_string(), b, c, th.abs_count, false))
        })
        .collect();
    compare_section(&mut report, "run counters", rows);

    // Latency histogram p99s (present in both tails).
    let rows: Vec<_> = base
        .hist_p99
        .iter()
        .filter_map(|(name, &b)| {
            let &c = cand.hist_p99.get(name)?;
            Some((format!("{name}.p99"), b, c, th.abs_us, false))
        })
        .collect();
    compare_section(&mut report, "latency histograms (p99, us)", rows);

    // SLO violations.
    compare_section(
        &mut report,
        "slo",
        vec![(
            "slo.violations_total".to_string(),
            base.slo_violations,
            cand.slo_violations,
            th.abs_count,
            false,
        )],
    );

    // Per-phase self time (phases present in both forests).
    let rows: Vec<_> = base
        .phase_self_us
        .iter()
        .filter_map(|(name, &b)| {
            let &c = cand.phase_self_us.get(name)?;
            Some((format!("self:{name}"), b, c, th.abs_us, false))
        })
        .collect();
    compare_section(&mut report, "per-phase self time (us)", rows);

    // Time-series gauge endpoints. Hit-rate-style gauges invert:
    // *lower* is worse.
    let rows: Vec<_> = base
        .series_last
        .iter()
        .filter_map(|(name, &b)| {
            let &c = cand.series_last.get(name)?;
            let inverted = name.contains("hit_rate");
            let abs = if inverted { th.abs_rate } else { th.abs_count };
            Some((format!("end:{name}"), b, c, abs, inverted))
        })
        .collect();
    compare_section(&mut report, "time-series endpoints", rows);

    // Labeled twins grouped by a dimension (`--group-by`). Rows whose
    // base metric is in the higher-is-worse set gate like any other
    // counter; the rest render as informational shift rows.
    if let Some(group) = group_by {
        let collect = |side: &TraceExport| {
            let mut g: BTreeMap<(String, String), f64> = BTreeMap::new();
            for (key, v) in &side.labeled {
                let Some((name, labels)) = parse_series_key(key) else {
                    continue;
                };
                if let Some((_, gv)) = labels.into_iter().find(|(k, _)| k == group) {
                    *g.entry((name.to_string(), gv)).or_default() += v;
                }
            }
            g
        };
        let (gb, gc) = (collect(base), collect(cand));
        let keys: Vec<&(String, String)> = gb.keys().chain(gc.keys()).collect();
        let mut gating = Vec::new();
        let mut info: Vec<Vec<String>> = Vec::new();
        let mut seen: Vec<&(String, String)> = Vec::new();
        for key in keys {
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let (name, gv) = key;
            let b = gb.get(key).copied().unwrap_or(0.0);
            let c = gc.get(key).copied().unwrap_or(0.0);
            let row_name = format!("{name}{{{group}={gv}}}");
            if WORSE_COUNTERS.contains(&name.as_str()) {
                gating.push((row_name, b, c, th.abs_count, false));
            } else {
                let delta = if b.abs() > f64::EPSILON {
                    f(100.0 * (c - b) / b, 1)
                } else {
                    "-".to_string()
                };
                info.push(vec![row_name, f(b, 1), f(c, 1), delta]);
            }
        }
        compare_section(
            &mut report,
            &format!("grouped by {group} (gated counters)"),
            gating,
        );
        if !info.is_empty() {
            report.section(&format!("grouped by {group} (informational)"));
            report.table(&["metric", "base", "cand", "delta_%"], &info);
        } else if seen.is_empty() {
            report.section(&format!("grouped by {group}"));
            report.line(&format!(
                "no labeled series carry a {group} label (labeled run required: --obs --labels)"
            ));
        }
    }

    if regressions.is_empty() {
        report.line("\nclean: no regressions past thresholds");
    } else {
        report.section(&format!("{} regression(s)", regressions.len()));
        for r in &regressions {
            report.line(&format!(
                "{}: {} -> {}",
                r.metric,
                f(r.base, 1),
                f(r.cand, 1)
            ));
        }
    }
    report.json_set(
        "regressions",
        Json::Array(
            regressions
                .iter()
                .map(|r| medes_obs::json!(r.metric.as_str()))
                .collect(),
        ),
    );
    (report, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_obs::{Obs, ObsConfig, SeriesStore};
    use medes_sim::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A tiny run export: one traced op, some counters, a hist, SLO.
    fn toy_export(cold_starts: u64, op_us: u64, latency_us: u64) -> String {
        let obs = Obs::new(ObsConfig::enabled());
        let root = obs.trace_root("request", 1, 1);
        obs.span_in("medes.platform.request", t(0), root)
            .end(t(op_us));
        obs.counter_add("medes.platform.starts.cold", cold_starts);
        obs.record("medes.platform.startup_us", op_us);
        for _ in 0..20 {
            obs.slo_record("f", latency_us, 100);
        }
        obs.export_jsonl()
    }

    #[test]
    fn identical_exports_diff_clean() {
        let a = toy_export(3, 500, 50);
        let base = TraceExport::load("a", &a, None);
        let cand = TraceExport::load("b", &a, None);
        let (report, regressions) = diff(&base, &cand, &DiffThresholds::default());
        assert!(regressions.is_empty(), "{:?}", regressions);
        assert!(report.text().contains("clean: no regressions"));
    }

    #[test]
    fn worse_counters_and_slo_regress() {
        let base = TraceExport::load("a", &toy_export(3, 500, 50), None);
        let cand = TraceExport::load("b", &toy_export(30, 500, 500), None);
        let (report, regressions) = diff(&base, &cand, &DiffThresholds::default());
        let names: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"medes.platform.starts.cold"), "{names:?}");
        assert!(names.contains(&"slo.violations_total"), "{names:?}");
        assert!(report.text().contains("REGRESSED"));
    }

    #[test]
    fn hist_p99_and_phase_self_regress() {
        let base = TraceExport::load("a", &toy_export(1, 1_000, 50), None);
        let cand = TraceExport::load("b", &toy_export(1, 20_000, 50), None);
        let (_, regressions) = diff(&base, &cand, &DiffThresholds::default());
        let names: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(
            names.contains(&"medes.platform.startup_us.p99"),
            "{names:?}"
        );
        assert!(names.contains(&"self:medes.platform.request"), "{names:?}");
    }

    #[test]
    fn thresholds_gate_small_blips() {
        // 3 -> 4 cold starts: past 10% relative but under the absolute
        // count floor — must NOT regress.
        let base = TraceExport::load("a", &toy_export(3, 500, 50), None);
        let cand = TraceExport::load("b", &toy_export(4, 500, 50), None);
        let (_, regressions) = diff(&base, &cand, &DiffThresholds::default());
        assert!(regressions.is_empty(), "{regressions:?}");
        // A zero relative threshold with zero floors flags it.
        let strict = DiffThresholds {
            rel: 0.0,
            abs_count: 0.0,
            abs_us: 0.0,
            abs_rate: 0.0,
        };
        let (_, regressions) = diff(&base, &cand, &strict);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "medes.platform.starts.cold");
    }

    #[test]
    fn series_endpoints_compare_and_hit_rate_inverts() {
        let mut base_ts = SeriesStore::new();
        let mut cand_ts = SeriesStore::new();
        for i in 0..5u64 {
            base_ts.point("medes.cache.hit_rate", SeriesKind::Gauge, i, 0.9);
            cand_ts.point("medes.cache.hit_rate", SeriesKind::Gauge, i, 0.5);
            base_ts.point("medes.platform.live_sandboxes", SeriesKind::Gauge, i, 10.0);
            cand_ts.point("medes.platform.live_sandboxes", SeriesKind::Gauge, i, 100.0);
        }
        let trace = toy_export(1, 500, 50);
        let base = TraceExport::load("a", &trace, Some(&base_ts.export_jsonl()));
        let cand = TraceExport::load("b", &trace, Some(&cand_ts.export_jsonl()));
        let (_, regressions) = diff(&base, &cand, &DiffThresholds::default());
        let names: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"end:medes.cache.hit_rate"), "{names:?}");
        assert!(
            names.contains(&"end:medes.platform.live_sandboxes"),
            "{names:?}"
        );
        // Swapped direction: a *rising* hit rate is an improvement.
        let (_, regressions) = diff(&cand, &base, &DiffThresholds::default());
        let names: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(!names.contains(&"end:medes.cache.hit_rate"), "{names:?}");
    }

    /// Tentpole: `--group-by` compares labeled twins per label value;
    /// only the higher-is-worse set gates, the rest is informational.
    #[test]
    fn group_by_compares_labeled_twins() {
        use medes_obs::LabelSet;
        let export = |retries: u64| {
            let obs = Obs::new(ObsConfig::enabled().labeled());
            obs.counter_add_with("medes.net.retries", retries, || {
                LabelSet::new().with("owner", 2u64)
            });
            obs.counter_add_with("medes.net.rdma_reads", 10, || {
                LabelSet::new().with("src", 1u64).with("dst", 0u64)
            });
            obs.export_jsonl()
        };
        let base = TraceExport::load("a", &export(2), None);
        let cand = TraceExport::load("b", &export(40), None);
        let (report, regressions) =
            diff_by(&base, &cand, &DiffThresholds::default(), Some("owner"));
        let names: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"medes.net.retries{owner=2}"), "{names:?}");
        let text = report.text();
        assert!(text.contains("grouped by owner (gated counters)"), "{text}");
        // rdma_reads has no owner label: grouping by src is informational.
        let (report, regressions) = diff_by(&base, &cand, &DiffThresholds::default(), Some("src"));
        assert!(
            !regressions
                .iter()
                .any(|r| r.metric.starts_with("medes.net.rdma_reads")),
            "{regressions:?}"
        );
        assert!(report.text().contains("grouped by src (informational)"));
        // Label-off exports degrade gracefully.
        let plain = TraceExport::load("p", &toy_export(1, 500, 50), None);
        let (report, _) = diff_by(&plain, &plain, &DiffThresholds::default(), Some("node"));
        assert!(report
            .text()
            .contains("no labeled series carry a node label"));
    }

    #[test]
    fn empty_inputs_diff_clean() {
        let base = TraceExport::load("a", "", None);
        let cand = TraceExport::load("b", "", None);
        let (report, regressions) = diff(&base, &cand, &DiffThresholds::default());
        assert!(regressions.is_empty());
        assert!(report.text().contains("clean"));
    }
}
