//! The comparison section of `trace report --against <base>`: the
//! curated higher-is-worse counters, histogram p99s, SLO violations,
//! per-phase self time and gauge endpoints of two run exports, each
//! gated by a relative threshold plus a per-unit absolute floor, so a
//! 2 → 3 count blip doesn't fail a build.

use crate::report::{f, Report};
use crate::trace::{group_by, Export};
use medes_obs::SeriesKind;
use std::collections::{BTreeMap, BTreeSet};

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
/// regression that cleared `th` (empty = clean). With `group`, labeled
/// twins carrying that label are summed per `(metric, label value)` and
/// compared side by side; grouped rows only *gate* for the curated
/// higher-is-worse counters — a node doing more RDMA reads is a shift,
/// not a regression — and the rest show the verdict `info`.
pub(crate) fn against(
    report: &mut Report,
    base: &Export,
    cand: &Export,
    th: &DiffThresholds,
    group: Option<&str>,
) -> Vec<Regression> {
    report.section(&format!("against {}", base.label));
    report.line(&format!("thresholds: {th:?}"));
    let counter = |name: &str| {
        let get = |run: &Export| run.scalars.get(name).copied().unwrap_or(0.0);
        row(name.to_string(), get(base), get(cand), th.abs_count)
    };
    let mut counters = WORSE_COUNTERS.map(counter).to_vec();
    counters.retain(|r| r.1 != 0.0 || r.2 != 0.0);
    let (b, c) = (base.slo_violations, cand.slo_violations);
    let slo = vec![row("slo.violations_total".into(), b, c, th.abs_count)];
    let hists = both(&base.hist_p99, &cand.hist_p99, |n| {
        (format!("{n}.p99"), th.abs_us, false)
    });
    let phases = both(&self_us(base), &self_us(cand), |n| {
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
        ("latency histograms (p99, us)", hists),
        ("slo", slo),
        ("per-phase self time (us)", phases),
        ("time-series endpoints", ends),
    ] {
        gated(report, th, title, rows, &mut out);
    }

    if let Some(group) = group {
        let side =
            |run: &Export| group_by(run.labeled.iter().map(|(k, &v)| (k.as_str(), v)), group);
        let (gb, gc) = (side(base), side(cand));
        let keys: BTreeSet<&(String, String)> = gb.keys().chain(gc.keys()).collect();
        if keys.is_empty() {
            report.line(&format!(
                "no labeled series carry a {group} label (labeled run required: --obs --labels)"
            ));
        }
        let rows = keys.into_iter().map(|key @ (name, value)| {
            let gates = WORSE_COUNTERS.contains(&name.as_str());
            let abs = if gates { th.abs_count } else { f64::INFINITY };
            let at = |g: &BTreeMap<_, f64>| g.get(key).copied().unwrap_or(0.0);
            row(format!("{name}{{{group}={value}}}"), at(&gb), at(&gc), abs)
        });
        let title = format!("grouped by {group}");
        gated(report, th, &title, rows.collect(), &mut out);
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

/// Renders one gated table, appending what regressed to `out`. A row
/// with an infinite floor never gates and shows the verdict `info`.
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
        let verdict = match (bad, row.3.is_finite()) {
            (true, _) => "REGRESSED",
            (false, true) => "ok",
            (false, false) => "info",
        };
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

/// Self time per traced phase, µs.
fn self_us(run: &Export) -> BTreeMap<String, f64> {
    let traced = run
        .phases
        .iter()
        .filter_map(|p| Some((p.name.clone(), p.self_us?)));
    traced.map(|(name, us)| (name, us as f64)).collect()
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

    /// A tiny run: one traced op, some counters, a hist, SLO.
    fn toy_obs(cold_starts: u64, op_us: u64, latency_us: u64) -> Arc<Obs> {
        let obs = Obs::new(ObsConfig::enabled());
        let root = obs.trace_root("request", 1, 1);
        obs.span_in("medes.platform.request", t(0), root)
            .end(t(op_us));
        obs.counter_add("medes.platform.starts.cold", cold_starts);
        obs.record("medes.platform.startup_us", op_us);
        for _ in 0..20 {
            obs.slo_record("f", latency_us, 100, 0, 0);
        }
        obs
    }

    /// [`toy_obs`]'s export.
    fn toy_export(cold_starts: u64, op_us: u64, latency_us: u64) -> String {
        toy_obs(cold_starts, op_us, latency_us).export_jsonl()
    }

    /// The comparison section alone, its text and regressions.
    fn compare(
        base: &Export,
        cand: &Export,
        th: &DiffThresholds,
        group: Option<&str>,
    ) -> (String, Vec<Regression>) {
        let mut report = Report::new("t", "t");
        let regressions = against(&mut report, base, cand, th, group);
        (report.text().to_string(), regressions)
    }

    fn metrics(regressions: &[Regression]) -> Vec<&str> {
        regressions.iter().map(|r| r.metric.as_str()).collect()
    }

    #[test]
    fn identical_exports_diff_clean() {
        let a = toy_export(3, 500, 50);
        let (text, regressions) = compare(
            &load("a", &a),
            &load("b", &a),
            &DiffThresholds::default(),
            None,
        );
        assert!(regressions.is_empty(), "{:?}", regressions);
        assert!(text.contains("clean: no regressions"));
    }

    #[test]
    fn worse_counters_and_slo_regress() {
        let base = load("a", &toy_export(3, 500, 50));
        let cand = load("b", &toy_export(30, 500, 500));
        let (text, regressions) = compare(&base, &cand, &DiffThresholds::default(), None);
        let names = metrics(&regressions);
        assert!(names.contains(&"medes.platform.starts.cold"), "{names:?}");
        assert!(names.contains(&"slo.violations_total"), "{names:?}");
        assert!(text.contains("REGRESSED"));
    }

    #[test]
    fn hist_p99_and_phase_self_regress() {
        let base = load("a", &toy_export(1, 1_000, 50));
        let cand = load("b", &toy_export(1, 20_000, 50));
        let (_, regressions) = compare(&base, &cand, &DiffThresholds::default(), None);
        let names = metrics(&regressions);
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
        let base = load("a", &toy_export(3, 500, 50));
        let cand = load("b", &toy_export(4, 500, 50));
        let (_, regressions) = compare(&base, &cand, &DiffThresholds::default(), None);
        assert!(regressions.is_empty(), "{regressions:?}");
        // A zero relative threshold with zero floors flags it.
        let strict = DiffThresholds {
            rel: 0.0,
            abs_count: 0.0,
            abs_us: 0.0,
            abs_rate: 0.0,
        };
        let (_, regressions) = compare(&base, &cand, &strict, None);
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
        let (_, regressions) = compare(&base, &cand, &DiffThresholds::default(), None);
        let names = metrics(&regressions);
        assert!(names.contains(&"end:medes.cache.hit_rate"), "{names:?}");
        assert!(
            names.contains(&"end:medes.platform.live_sandboxes"),
            "{names:?}"
        );
        // Swapped direction: a *rising* hit rate is an improvement.
        let (_, regressions) = compare(&cand, &base, &DiffThresholds::default(), None);
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
            let (_, regressions) = compare(base, cand, &DiffThresholds::default(), None);
            metrics(&regressions).contains(&"end:medes.cache.hit_rate")
        };
        let (high, low) = (hit_rate(0.9), hit_rate(0.5));
        assert!(!flagged(&high, &high), "0.9 -> 0.9 flagged");
        assert!(flagged(&high, &low), "0.9 -> 0.5 not flagged");
        assert!(!flagged(&low, &high), "0.5 -> 0.9 flagged");
    }

    /// `--group-by` compares labeled twins per label value; only the
    /// higher-is-worse set gates, the rest is informational.
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
        let base = load("a", &export(2));
        let cand = load("b", &export(40));
        let th = DiffThresholds::default();
        let (text, regressions) = compare(&base, &cand, &th, Some("owner"));
        assert!(
            metrics(&regressions).contains(&"medes.net.retries{owner=2}"),
            "{regressions:?}"
        );
        assert!(text.contains("grouped by owner"), "{text}");
        // rdma_reads has no owner label: grouping by src is informational.
        let (text, regressions) = compare(&base, &cand, &th, Some("src"));
        assert!(
            !regressions
                .iter()
                .any(|r| r.metric.starts_with("medes.net.rdma_reads")),
            "{regressions:?}"
        );
        let row = text
            .lines()
            .find(|l| l.starts_with("medes.net.rdma_reads{src=1}"));
        assert!(row.is_some_and(|l| l.ends_with("info")), "{text}");
        // Label-off exports degrade gracefully.
        let plain = load("p", &toy_export(1, 500, 50));
        let (text, _) = compare(&plain, &plain, &th, Some("node"));
        assert!(text.contains("no labeled series carry a node label"));
    }

    #[test]
    fn empty_inputs_diff_clean() {
        let (text, regressions) = compare(
            &load("a", ""),
            &load("b", ""),
            &DiffThresholds::default(),
            None,
        );
        assert!(regressions.is_empty());
        assert!(text.contains("clean"));
    }
}
