//! The series section of `trace report`: per-metric summaries of the
//! tail's sampled series (the deterministic sim-time sampler's output)
//! and monotonic-leak suspects.
//!
//! A gauge that (almost) never decreases across a long run and ends
//! well above where it started is the classic signature of a leaked
//! resource — sandboxes never purged, cache entries never evicted, a
//! queue that only grows. Counters are monotone by construction, so
//! only gauges are interrogated.

use crate::report::{f, Report};
use crate::trace::percentiles;
use medes_obs::{ParsedSeries, SeriesKind};

/// Whether a series looks like a monotonic leak: a gauge with at least
/// 8 samples, ≥95% of whose *changes* are rises, and whose last value
/// ends at ≥1.5× its first (any growth counts when it started at
/// zero). Flat steps say nothing either way, so a level that mostly
/// holds still and dips now and then is not a suspect. Deliberately a
/// heuristic — it flags candidates for a human, it does not prove a
/// leak.
pub fn looks_like_leak(s: &ParsedSeries) -> bool {
    let v = s.values();
    if s.kind != SeriesKind::Gauge || v.len() < 8 {
        return false;
    }
    let changes = v.windows(2).filter(|w| w[1] != w[0]);
    let (rises, moves) = changes.fold((0, 0), |(r, m), w| (r + usize::from(w[1] > w[0]), m + 1));
    let (first, last) = (v[0], v[v.len() - 1]);
    let grew = last > first && (first <= 0.0 || last >= 1.5 * first);
    rises as f64 >= 0.95 * moves as f64 && grew
}

/// Renders the series section — nothing when the run sampled no
/// series.
pub(crate) fn series(report: &mut Report, series: &[ParsedSeries]) {
    if series.is_empty() {
        return;
    }
    report.section("per-metric summary");
    let rows = series.iter().map(|s| {
        let mut pct = percentiles(s.values());
        let mut row = vec![
            s.name.clone(),
            s.kind.as_str().into(),
            s.points.len().to_string(),
        ];
        row.extend([0.0, 0.50, 0.95, 1.0].map(|q| f(pct.quantile(q).unwrap_or(0.0), 1)));
        row.extend([s.first(), s.last()].map(|v| f(v.unwrap_or(0.0), 1)));
        row
    });
    let header = [
        "metric", "kind", "points", "min", "p50", "p95", "max", "first", "last",
    ];
    report.table(&header, rows);

    let mut leaks = series.iter().filter(|s| looks_like_leak(s)).peekable();
    if leaks.peek().is_none() {
        report.line("\nno monotonic-leak patterns detected");
    } else {
        report.section("leak suspects (monotonic growth)");
        for s in leaks {
            report.line(&format!(
                "{}: {} -> {} over {} samples (never shrinking)",
                s.name,
                f(s.first().unwrap_or(0.0), 1),
                f(s.last().unwrap_or(0.0), 1),
                s.points.len()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load, report};
    use medes_obs::{parse_series, SeriesStore};

    fn store_to_parsed(s: &SeriesStore) -> Vec<ParsedSeries> {
        parse_series(Some(&s.to_json()))
    }

    /// The report of a run whose only content is `s`'s series, carried
    /// in a tail the way an export carries them.
    fn timeline(s: &SeriesStore) -> String {
        let tail =
            medes_obs::json!({ "metrics": medes_obs::Json::object(), "series": s.to_json() });
        let run = load("ts", &tail.to_string());
        report(&run, None).0.text().to_string()
    }

    #[test]
    fn leak_heuristic_flags_monotonic_growth_only() {
        let mut s = SeriesStore::new();
        for i in 0..20u64 {
            // `grow` only rises; `saw` oscillates; `flat` never moves;
            // `ops` is a counter (rises but exempt).
            s.point("grow", SeriesKind::Gauge, i * 1000, i as f64);
            s.point("saw", SeriesKind::Gauge, i * 1000, (i % 4) as f64);
            s.point("flat", SeriesKind::Gauge, i * 1000, 7.0);
            s.point("ops", SeriesKind::Counter, i * 1000, i as f64);
        }
        let parsed = store_to_parsed(&s);
        let flagged: Vec<&str> = parsed
            .iter()
            .filter(|p| looks_like_leak(p))
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(flagged, ["grow"]);
    }

    /// Flat steps are no evidence of growth: a level that mostly holds
    /// still and dips once is not a suspect, a staircase is.
    #[test]
    fn leak_heuristic_counts_only_changes() {
        let mut s = SeriesStore::new();
        for i in 0..40u64 {
            let blip = if i == 10 || i == 39 { 1.0 } else { 0.0 };
            s.point("blip", SeriesKind::Gauge, i, blip);
            s.point("stairs", SeriesKind::Gauge, i, (i / 5) as f64);
        }
        let parsed = store_to_parsed(&s);
        let flagged: Vec<&str> = parsed
            .iter()
            .filter(|p| looks_like_leak(p))
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(flagged, ["stairs"]);
    }

    #[test]
    fn leak_heuristic_needs_enough_samples_and_growth() {
        let mut s = SeriesStore::new();
        for i in 0..7u64 {
            s.point("short", SeriesKind::Gauge, i, i as f64);
        }
        // Grows, but ends under 1.5x its (nonzero) start.
        for i in 0..20u64 {
            s.point("gentle", SeriesKind::Gauge, i, 100.0 + i as f64);
        }
        let parsed = store_to_parsed(&s);
        assert!(parsed.iter().all(|p| !looks_like_leak(p)));
    }

    #[test]
    fn timeline_renders_and_reports_leaks() {
        let mut s = SeriesStore::new();
        for i in 0..10u64 {
            s.point("medes.leaky.gauge", SeriesKind::Gauge, i * 1000, i as f64);
            s.point(
                "medes.ok.gauge",
                SeriesKind::Gauge,
                i * 1000,
                (i % 2) as f64,
            );
        }
        let text = timeline(&s);
        assert!(text.contains("2 series, 20 points"));
        // Exactly the rising gauge is a leak suspect.
        let leaks = text.split("leak suspects").nth(1).expect("leak section");
        assert!(leaks.contains("medes.leaky.gauge: 0.0 -> 9.0 over 10 samples"));
        assert!(!leaks.contains("medes.ok.gauge"), "{leaks}");
        // Series percentiles are `Percentiles`' (interpolated): the p50
        // of 0..=9 is 4.5, where nearest-rank gave 4.0.
        let row = text
            .lines()
            .find(|l| l.starts_with("medes.leaky.gauge "))
            .unwrap();
        assert!(row.contains(" 4.5 "), "{row}");
    }

    #[test]
    fn timeline_handles_empty_input() {
        let text = timeline(&SeriesStore::new());
        assert!(text.contains("0 series, 0 points"));
        assert!(!text.contains("leak suspects"));
        // No series, no series section.
        assert!(!text.contains("per-metric summary"));
        let mut s = SeriesStore::new();
        s.point("medes.flat", SeriesKind::Gauge, 0, 1.0);
        assert!(timeline(&s).contains("no monotonic-leak patterns"));
    }
}
