//! The series section of `trace report`: per-metric summaries of the
//! `.timeseries.jsonl` sibling (the deterministic sim-time sampler's
//! output) and monotonic-leak suspects.
//!
//! A gauge that (almost) never decreases across a long run and ends
//! well above where it started is the classic signature of a leaked
//! resource — sandboxes never purged, cache entries never evicted, a
//! queue that only grows. Counters are monotone by construction, so
//! only gauges are interrogated.

use crate::report::{f, Report};
use crate::trace::{group_by, percentiles};
use medes_obs::{ParsedSeries, SeriesKind};
use std::collections::BTreeMap;

/// Whether a series looks like a monotonic leak: a gauge with at least
/// 8 samples whose steps are ≥95% non-decreasing and whose last value
/// ends at ≥1.5× its first (any growth counts when it started at
/// zero). Deliberately a heuristic — it flags candidates for a human,
/// it does not prove a leak.
pub fn looks_like_leak(s: &ParsedSeries) -> bool {
    let v = s.values();
    if s.kind != SeriesKind::Gauge || v.len() < 8 {
        return false;
    }
    let rising = v.windows(2).filter(|w| w[1] >= w[0]).count() as f64;
    let (first, last) = (v[0], v[v.len() - 1]);
    let grew = last > first && (first <= 0.0 || last >= 1.5 * first);
    rising >= 0.95 * (v.len() - 1) as f64 && grew
}

/// Renders the series section — nothing when the run sampled no
/// series. With `group`, labeled twin series (sampled as
/// `base{k=v,...}`) carrying that label are summed per `(base metric,
/// label value)`, so a flat aggregate's trend breaks down by dimension.
pub(crate) fn series(report: &mut Report, series: &[ParsedSeries], group: Option<&str>) {
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

    if let Some(group) = group {
        // One row per (base metric, label value): the series' final
        // sample, plus its share of the base's grouped total.
        let lasts = series
            .iter()
            .map(|s| (s.name.as_str(), s.last().unwrap_or(0.0)));
        let grouped = group_by(lasts, group);
        report.section(&format!("grouped by {group} (final values)"));
        if grouped.is_empty() {
            report.line(&format!(
                "no series carry a {group} label (labeled run required: --obs --labels)"
            ));
        } else {
            let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
            for ((base, _), v) in &grouped {
                *totals.entry(base).or_default() += v;
            }
            let rows = grouped.iter().map(|((base, v), &last)| {
                let total = totals[base.as_str()];
                let share = if total > 0.0 {
                    100.0 * last / total
                } else {
                    0.0
                };
                [base.clone(), v.clone(), f(last, 1), f(share, 1)]
            });
            report.table(&["metric", group, "last", "share_%"], rows);
        }
    }

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
    use medes_obs::{parse_timeseries, SeriesStore};

    fn store_to_parsed(s: &SeriesStore) -> Vec<ParsedSeries> {
        parse_timeseries(&s.export_jsonl())
    }

    /// The report of a run whose only content is `s`'s series.
    fn timeline(s: &SeriesStore, group: Option<&str>) -> String {
        let run = load("ts", "", Some(&s.export_jsonl()));
        report(&run, None, group).0.text().to_string()
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
        let text = timeline(&s, None);
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

    /// `--group-by` breaks labeled twin series down per label value,
    /// with shares of the grouped total per base metric.
    #[test]
    fn timeline_groups_labeled_series_by_label() {
        let mut s = SeriesStore::new();
        for i in 0..4u64 {
            s.point("medes.x.ops", SeriesKind::Counter, i * 1000, (i * 4) as f64);
            s.point(
                "medes.x.ops{node=0}",
                SeriesKind::Counter,
                i * 1000,
                (i * 3) as f64,
            );
            s.point(
                "medes.x.ops{node=1}",
                SeriesKind::Counter,
                i * 1000,
                i as f64,
            );
            s.point(
                "medes.y.ops{func=a,node=0}",
                SeriesKind::Counter,
                i * 1000,
                i as f64,
            );
        }
        let text = timeline(&s, Some("node"));
        assert!(text.contains("grouped by node"), "{text}");
        // node 0 carries 9 of 12 medes.x.ops: 75%.
        assert!(text.contains("75.0"), "{text}");
        // The multi-label series still groups by its node label.
        assert!(text.contains("medes.y.ops"), "{text}");
        // A function name holding the key's own delimiters groups
        // under its real value instead of dropping out.
        let hostile = medes_obs::LabelSet::new()
            .with("func", "a,b=c}d")
            .with("node", 1u64);
        s.point(
            &hostile.series_key("medes.y.ops"),
            SeriesKind::Counter,
            0,
            5.0,
        );
        let text = timeline(&s, Some("func"));
        assert!(text.contains("a,b=c}d"), "{text}");
        // 5 of medes.y.ops' 8 grouped-by-func total: 62.5%.
        assert!(text.contains("62.5"), "{text}");
        // Grouping by an absent label degrades gracefully.
        let text = timeline(&s, Some("shard"));
        assert!(text.contains("no series carry a shard label"));
    }

    #[test]
    fn timeline_handles_empty_input() {
        let text = timeline(&SeriesStore::new(), None);
        assert!(text.contains("0 series, 0 points"));
        assert!(!text.contains("leak suspects"));
        // No series, no series section.
        assert!(!text.contains("per-metric summary"));
        let mut s = SeriesStore::new();
        s.point("medes.flat", SeriesKind::Gauge, 0, 1.0);
        assert!(timeline(&s, None).contains("no monotonic-leak patterns"));
    }
}
