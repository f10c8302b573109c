//! The comparison section of `trace report --against <base>`: the
//! curated higher-is-worse counters, SLO violations, per-phase span
//! p99 and self time, and gauge endpoints of two run exports, each
//! gated by a relative threshold plus a per-unit absolute floor, so a
//! 2 → 3 count blip doesn't fail a build.

use crate::report::{f, Report};
use crate::summarize::Phase;
use crate::trace::Export;
use medes_obs::SeriesKind;
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

/// Regression gates. A higher-is-worse value regresses when it exceeds
/// `base · (1 + rel)` *plus* the unit's absolute floor; a lower-is-worse
/// one when it falls below `base · (1 − rel)` *minus* the floor. Both
/// margins must be cleared, so tiny absolute blips on tiny bases never
/// fail a build.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Relative slack (0.10 = 10% worse allowed).
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
    /// Whether a row's candidate regressed past its base.
    fn regressed(&self, &(_, b, c, abs, lower_is_worse): &Row) -> bool {
        if lower_is_worse {
            c < b * (1.0 - self.rel) - abs
        } else {
            c > b * (1.0 + self.rel) + abs
        }
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

/// One compared metric: name, base, candidate, the unit's absolute
/// floor, and whether *lower* is worse.
type Row = (String, f64, f64, f64, bool);

/// A higher-is-worse [`Row`].
fn row(metric: String, base: f64, cand: f64, abs: f64) -> Row {
    (metric, base, cand, abs, false)
}

/// `(c − b) / b` in percent, `-` for a zero base.
fn delta(b: f64, c: f64) -> String {
    if b.abs() > f64::EPSILON {
        f(100.0 * (c - b) / b, 1)
    } else {
        "-".to_string()
    }
}

/// Renders the comparison of `cand` against `base` and returns every
/// regression that cleared `th` (empty = clean).
pub(crate) fn against(
    report: &mut Report,
    base: &Export,
    cand: &Export,
    th: &DiffThresholds,
) -> Vec<Regression> {
    report.section(&format!("against {}", base.label));
    report.line(&format!("thresholds: {th:?}"));
    let counter = |name: &str| {
        let get = |run: &Export| run.scalars.get(name).copied().unwrap_or(0.0);
        row(name.to_string(), get(base), get(cand), th.abs_count)
    };
    let mut counters = WORSE_COUNTERS.map(counter).to_vec();
    counters.retain(|r| r.1 != 0.0 || r.2 != 0.0);
    let violations = |run: &Export| run.slo.violations.len() as f64;
    let (b, c) = (violations(base), violations(cand));
    let slo = vec![row("slo.violations_total".into(), b, c, th.abs_count)];
    let p99 = |p: &Phase| Some(p.quantiles_us[2]); // [p50, p95, p99, max]
    let p99s = both(&per_phase(base, p99), &per_phase(cand, p99), |n| {
        (format!("p99:{n}"), th.abs_us, false)
    });
    let self_us = |p: &Phase| p.self_us.map(|us| us as f64);
    let phases = both(&per_phase(base, self_us), &per_phase(cand, self_us), |n| {
        (format!("self:{n}"), th.abs_us, false)
    });
    let ends = both(&gauge_ends(base), &gauge_ends(cand), |n| {
        let rate = n.contains("hit_rate");
        let abs = if rate { th.abs_rate } else { th.abs_count };
        (format!("end:{n}"), abs, rate)
    });
    let mut out = Vec::new();
    for (title, rows) in [
        ("run counters", counters),
        ("per-phase latency (p99, us)", p99s),
        ("slo", slo),
        ("per-phase self time (us)", phases),
        ("time-series endpoints", ends),
    ] {
        gated(report, th, title, rows, &mut out);
    }

    if out.is_empty() {
        report.line("\nclean: no regressions past thresholds");
    } else {
        report.section(&format!("{} regression(s)", out.len()));
        for r in &out {
            let (b, c) = (f(r.base, 1), f(r.cand, 1));
            report.line(&format!("{}: {b} -> {c}", r.metric));
        }
    }
    out
}

/// Renders one gated table, appending what regressed to `out`.
fn gated(
    report: &mut Report,
    th: &DiffThresholds,
    title: &str,
    rows: Vec<Row>,
    out: &mut Vec<Regression>,
) {
    if rows.is_empty() {
        return;
    }
    report.section(&format!("vs base: {title}"));
    let mut table = Vec::with_capacity(rows.len());
    for row in rows {
        let bad = th.regressed(&row);
        let verdict = if bad { "REGRESSED" } else { "ok" };
        let (metric, base, cand, ..) = row;
        let delta = delta(base, cand);
        table.push([
            metric.clone(),
            f(base, 1),
            f(cand, 1),
            delta,
            verdict.into(),
        ]);
        if bad {
            out.push(Regression { metric, base, cand });
        }
    }
    report.table(&["metric", "base", "cand", "delta_%", "verdict"], table);
}

/// One row per name present on both sides, in `base`'s order; `meta`
/// gives a name its row label, absolute floor and direction.
fn both(
    base: &BTreeMap<String, f64>,
    cand: &BTreeMap<String, f64>,
    meta: impl Fn(&str) -> (String, f64, bool),
) -> Vec<Row> {
    let row = |(name, &b): (&String, &f64)| {
        let (label, abs, lower_is_worse) = meta(name);
        Some((label, b, *cand.get(name)?, abs, lower_is_worse))
    };
    base.iter().filter_map(row).collect()
}

/// One number per phase, where `pick` gives one.
fn per_phase(run: &Export, pick: impl Fn(&Phase) -> Option<f64>) -> BTreeMap<String, f64> {
    let picked = run
        .phases
        .iter()
        .filter_map(|p| Some((p.name.clone(), pick(p)?)));
    picked.collect()
}

/// The last sample of every gauge series. Counters already surface
/// through the metrics tail; only gauge endpoints add signal here.
fn gauge_ends(run: &Export) -> BTreeMap<String, f64> {
    let gauges = run.series.iter().filter(|s| s.kind == SeriesKind::Gauge);
    gauges
        .filter_map(|s| Some((s.name.clone(), s.last()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::load;
    use medes_obs::{Obs, ObsConfig};
    use medes_sim::SimTime;
    use std::sync::Arc;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A tiny run: 20 traced requests of `op_us` each, whose startup
    /// `latency_us` is held to a 100 µs bound, and a counter.
    fn toy_obs(cold_starts: u64, op_us: u64, latency_us: u64) -> Arc<Obs> {
        let obs = Obs::new(ObsConfig::enabled());
        for id in 0..20 {
            let root = obs.trace_root("request", 1, id);
            obs.span_in("medes.platform.request", t(id * op_us), root)
                .attr("fn", "f")
                .attr("startup_us", latency_us)
                .attr("node", 0u64)
                .attr("bound_us", 100u64)
                .end(t((id + 1) * op_us));
        }
        obs.counter_add("medes.platform.starts.cold", cold_starts);
        obs
    }

    /// [`toy_obs`]'s export.
    fn toy_export(cold_starts: u64, op_us: u64, latency_us: u64) -> String {
        toy_obs(cold_starts, op_us, latency_us).export_jsonl()
    }

    /// The comparison section alone, its text and regressions.
    fn compare(base: &Export, cand: &Export, th: &DiffThresholds) -> (String, Vec<Regression>) {
        let mut report = Report::new("t", "t");
        let regressions = against(&mut report, base, cand, th);
        (report.text().to_string(), regressions)
    }

    fn metrics(regressions: &[Regression]) -> Vec<&str> {
        regressions.iter().map(|r| r.metric.as_str()).collect()
    }

    #[test]
    fn identical_exports_diff_clean() {
        let a = toy_export(3, 500, 50);
        let (text, regressions) =
            compare(&load("a", &a), &load("b", &a), &DiffThresholds::default());
        assert!(regressions.is_empty(), "{:?}", regressions);
        assert!(text.contains("clean: no regressions"));
    }

    #[test]
    fn worse_counters_and_slo_regress() {
        let base = load("a", &toy_export(3, 500, 50));
        let cand = load("b", &toy_export(30, 500, 500));
        let (text, regressions) = compare(&base, &cand, &DiffThresholds::default());
        let names = metrics(&regressions);
        assert!(names.contains(&"medes.platform.starts.cold"), "{names:?}");
        assert!(names.contains(&"slo.violations_total"), "{names:?}");
        assert!(text.contains("REGRESSED"));
    }

    /// The per-phase p99 compared is the spans' own.
    #[test]
    fn phase_p99_and_self_regress() {
        let base = load("a", &toy_export(1, 1_000, 50));
        let cand = load("b", &toy_export(1, 20_000, 50));
        let (text, regressions) = compare(&base, &cand, &DiffThresholds::default());
        let names = metrics(&regressions);
        assert!(names.contains(&"p99:medes.platform.request"), "{names:?}");
        assert!(names.contains(&"self:medes.platform.request"), "{names:?}");
        let row = text
            .lines()
            .find(|l| l.starts_with("p99:medes.platform.request"));
        assert!(row.is_some_and(|l| l.contains(" 1000.0 ") && l.contains(" 20000.0 ")));
    }

    #[test]
    fn thresholds_gate_small_blips() {
        // 3 -> 4 cold starts: past 10% relative but under the absolute
        // count floor — must NOT regress.
        let base = load("a", &toy_export(3, 500, 50));
        let cand = load("b", &toy_export(4, 500, 50));
        let (_, regressions) = compare(&base, &cand, &DiffThresholds::default());
        assert!(regressions.is_empty(), "{regressions:?}");
        // A zero relative threshold with zero floors flags it.
        let strict = DiffThresholds {
            rel: 0.0,
            abs_count: 0.0,
            abs_us: 0.0,
            abs_rate: 0.0,
        };
        let (_, regressions) = compare(&base, &cand, &strict);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "medes.platform.starts.cold");
    }

    /// Gauge endpoints of `(name, value)` series over one toy trace.
    fn with_gauges(gauges: &[(&str, f64)]) -> Export {
        let obs = toy_obs(1, 500, 50);
        for i in 0..5u64 {
            for &(name, v) in gauges {
                obs.series_point(name, t(i), v);
            }
        }
        load("x", &obs.export_jsonl())
    }

    #[test]
    fn series_endpoints_compare_and_hit_rate_inverts() {
        let base = with_gauges(&[
            ("medes.cache.hit_rate", 0.9),
            ("medes.platform.live_sandboxes", 10.0),
        ]);
        let cand = with_gauges(&[
            ("medes.cache.hit_rate", 0.5),
            ("medes.platform.live_sandboxes", 100.0),
        ]);
        let (_, regressions) = compare(&base, &cand, &DiffThresholds::default());
        let names = metrics(&regressions);
        assert!(names.contains(&"end:medes.cache.hit_rate"), "{names:?}");
        assert!(
            names.contains(&"end:medes.platform.live_sandboxes"),
            "{names:?}"
        );
        // Swapped direction: a *rising* hit rate is an improvement.
        let (_, regressions) = compare(&cand, &base, &DiffThresholds::default());
        assert!(
            !metrics(&regressions).contains(&"end:medes.cache.hit_rate"),
            "{regressions:?}"
        );
    }

    /// An unchanged hit rate is no regression at any level: the
    /// lower-is-worse gate is `cand < base·(1−rel) − abs`, not the
    /// higher-is-worse gate on negated values (which flagged every
    /// unchanged rate above 0.2).
    #[test]
    fn unchanged_hit_rate_is_not_a_regression() {
        let hit_rate = |rate: f64| with_gauges(&[("medes.cache.hit_rate", rate)]);
        let flagged = |base: &Export, cand: &Export| {
            let (_, regressions) = compare(base, cand, &DiffThresholds::default());
            metrics(&regressions).contains(&"end:medes.cache.hit_rate")
        };
        let (high, low) = (hit_rate(0.9), hit_rate(0.5));
        assert!(!flagged(&high, &high), "0.9 -> 0.9 flagged");
        assert!(flagged(&high, &low), "0.9 -> 0.5 not flagged");
        assert!(!flagged(&low, &high), "0.5 -> 0.9 flagged");
    }

    #[test]
    fn empty_inputs_diff_clean() {
        let (text, regressions) =
            compare(&load("a", ""), &load("b", ""), &DiffThresholds::default());
        assert!(regressions.is_empty());
        assert!(text.contains("clean"));
    }
}
