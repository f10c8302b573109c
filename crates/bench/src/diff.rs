//! The comparison section of `trace report --against <base>`: the
//! curated higher-is-worse counters, SLO violations, and per-phase
//! span p99 and self time of two run exports, each gated by a relative
//! threshold plus a per-unit absolute floor, so a 2 → 3 count blip
//! doesn't fail a build.

use crate::report::{f, Report};
use crate::summarize::Phase;
use crate::trace::Export;
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

// Regression gates. Every compared value is higher-is-worse and
// regresses when it exceeds `base · (1 + REL)` *plus* the unit's
// absolute floor. Both margins must be cleared, so tiny absolute blips
// on tiny bases never fail a build.

/// Relative slack (0.10 = 10% worse allowed).
const REL: f64 = 0.10;
/// Absolute floor for event counts.
const ABS_COUNT: f64 = 5.0;
/// Absolute floor for microsecond quantities (p99s, self times).
const ABS_US: f64 = 500.0;

/// Whether a row's candidate regressed past its base.
fn regressed(&(_, b, c, abs): &Row) -> bool {
    c > b * (1.0 + REL) + abs
}

/// One metric that regressed past the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric (or phase) name.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
}

/// One compared metric: name, base, candidate, and the unit's
/// absolute floor.
type Row = (String, f64, f64, f64);

/// `(c − b) / b` in percent, `-` for a zero base.
fn delta(b: f64, c: f64) -> String {
    if b.abs() > f64::EPSILON {
        f(100.0 * (c - b) / b, 1)
    } else {
        "-".to_string()
    }
}

/// Renders the comparison of `cand` against `base` and returns every
/// regression that cleared the gates (empty = clean).
pub(crate) fn against(report: &mut Report, base: &Export, cand: &Export) -> Vec<Regression> {
    report.section(&format!("against {}", base.label));
    report.line(&format!(
        "thresholds: rel {REL}, abs_count {ABS_COUNT}, abs_us {ABS_US}"
    ));
    let counter = |name: &str| {
        let get = |run: &Export| run.scalars.get(name).copied().unwrap_or(0.0);
        (name.to_string(), get(base), get(cand), ABS_COUNT)
    };
    let mut counters = WORSE_COUNTERS.map(counter).to_vec();
    counters.retain(|r| r.1 != 0.0 || r.2 != 0.0);
    let violations = |run: &Export| run.slo.violations.len() as f64;
    let (b, c) = (violations(base), violations(cand));
    let slo = vec![("slo.violations_total".into(), b, c, ABS_COUNT)];
    let p99 = |p: &Phase| Some(p.quantiles_us[2]); // [p50, p95, p99, max]
    let p99s = phase_rows(base, cand, "p99", p99);
    let self_us = |p: &Phase| p.self_us.map(|us| us as f64);
    let phases = phase_rows(base, cand, "self", self_us);
    let mut out = Vec::new();
    for (title, rows) in [
        ("run counters", counters),
        ("per-phase latency (p99, us)", p99s),
        ("slo", slo),
        ("per-phase self time (us)", phases),
    ] {
        gated(report, title, rows, &mut out);
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
fn gated(report: &mut Report, title: &str, rows: Vec<Row>, out: &mut Vec<Regression>) {
    if rows.is_empty() {
        return;
    }
    report.section(&format!("vs base: {title}"));
    let mut table = Vec::with_capacity(rows.len());
    for row in rows {
        let bad = regressed(&row);
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

/// One microsecond row per phase `pick` gives a number on both sides,
/// in `base`'s order, labelled `<what>:<phase>`.
fn phase_rows(
    base: &Export,
    cand: &Export,
    what: &str,
    pick: impl Fn(&Phase) -> Option<f64>,
) -> Vec<Row> {
    let cand = per_phase(cand, &pick);
    let row = |(name, b)| Some((format!("{what}:{name}"), b, *cand.get(&name)?, ABS_US));
    per_phase(base, &pick).into_iter().filter_map(row).collect()
}

/// One number per phase, where `pick` gives one.
fn per_phase(run: &Export, pick: impl Fn(&Phase) -> Option<f64>) -> BTreeMap<String, f64> {
    let picked = run
        .phases
        .iter()
        .filter_map(|p| Some((p.name.clone(), pick(p)?)));
    picked.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::load;
    use medes_obs::{Obs, ObsConfig};
    use medes_sim::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A tiny run's export: 20 traced requests of `op_us` each, whose
    /// startup `latency_us` is held to a 100 µs bound, and a counter.
    fn toy_export(cold_starts: u64, op_us: u64, latency_us: u64) -> String {
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
        obs.export_jsonl()
    }

    /// The comparison section alone, its text and regressions.
    fn compare(base: &Export, cand: &Export) -> (String, Vec<Regression>) {
        let mut report = Report::new("t", "t");
        let regressions = against(&mut report, base, cand);
        (report.text().to_string(), regressions)
    }

    fn metrics(regressions: &[Regression]) -> Vec<&str> {
        regressions.iter().map(|r| r.metric.as_str()).collect()
    }

    #[test]
    fn identical_exports_diff_clean() {
        let a = toy_export(3, 500, 50);
        let (text, regressions) = compare(&load("a", &a), &load("b", &a));
        assert!(regressions.is_empty(), "{:?}", regressions);
        assert!(text.contains("clean: no regressions"));
    }

    #[test]
    fn worse_counters_and_slo_regress() {
        let base = load("a", &toy_export(3, 500, 50));
        let cand = load("b", &toy_export(30, 500, 500));
        let (text, regressions) = compare(&base, &cand);
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
        let (text, regressions) = compare(&base, &cand);
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
        let (_, regressions) = compare(&base, &cand);
        assert!(regressions.is_empty(), "{regressions:?}");
        // 3 -> 9 clears both the 10% and the floor of 5 (3.3 + 5 < 9).
        let cand = load("b", &toy_export(9, 500, 50));
        let (_, regressions) = compare(&base, &cand);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "medes.platform.starts.cold");
    }

    #[test]
    fn empty_inputs_diff_clean() {
        let (text, regressions) = compare(&load("a", ""), &load("b", ""));
        assert!(regressions.is_empty());
        assert!(text.contains("clean"));
    }
}
