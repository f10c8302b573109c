//! `trace timeline`: per-metric summaries of a `.timeseries.jsonl`
//! export (the deterministic sim-time sampler's output).
//!
//! For every sampled series it renders points, min/p50/p95/max and the
//! first/last endpoints, then scans gauges for **monotonic-leak
//! patterns**: a gauge that (almost) never decreases across a long run
//! and ends well above where it started is the classic signature of a
//! leaked resource — sandboxes never purged, cache entries never
//! evicted, a queue that only grows. Counters are monotone by
//! construction, so only gauges are interrogated.

use crate::report::{f, Report};
use medes_obs::{parse_series_key, parse_timeseries, ParsedSeries, SeriesKind};

/// Exact quantile of an already-sorted value slice (nearest-rank,
/// `ceil(q·n)`). Series are small (one point per sample tick), so no
/// sketching is needed.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether a series looks like a monotonic leak: a gauge with at least
/// 8 samples whose steps are ≥95% non-decreasing and whose last value
/// ends at ≥1.5× its first (any growth counts when it started at
/// zero). Deliberately a heuristic — it flags candidates for a human,
/// it does not prove a leak.
pub fn looks_like_leak(s: &ParsedSeries) -> bool {
    if s.kind != SeriesKind::Gauge || s.points.len() < 8 {
        return false;
    }
    let v = s.values();
    let steps = v.len() - 1;
    let rising = v.windows(2).filter(|w| w[1] >= w[0]).count();
    if (rising as f64) < 0.95 * steps as f64 {
        return false;
    }
    let (first, last) = (v[0], *v.last().expect("nonempty"));
    if last <= first {
        return false;
    }
    first <= 0.0 || last >= 1.5 * first
}

/// Builds the `trace timeline` report for one `.timeseries.jsonl`
/// export. Returns the report and the names flagged as leak suspects.
pub fn timeline(name: &str, contents: &str) -> (Report, Vec<String>) {
    timeline_by(name, contents, None)
}

/// [`timeline`] with an optional `--group-by <label>`: labeled twin
/// series (sampled as `base{k=v,...}`) carrying that label are grouped
/// per `(base metric, label value)` and summarized side by side, so a
/// flat aggregate's trend breaks down by dimension.
pub fn timeline_by(name: &str, contents: &str, group_by: Option<&str>) -> (Report, Vec<String>) {
    let series = parse_timeseries(contents);
    let mut report = Report::new("trace-timeline", name);
    let points: usize = series.iter().map(|s| s.points.len()).sum();
    report.line(&format!("{} series, {points} points", series.len()));
    report.json_set("series", medes_obs::json!(series.len()));
    report.json_set("points", medes_obs::json!(points));

    report.section("per-metric summary");
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut sorted = s.values();
            sorted.sort_by(|a, b| a.total_cmp(b));
            vec![
                s.name.clone(),
                s.kind.as_str().to_string(),
                s.points.len().to_string(),
                f(sorted.first().copied().unwrap_or(0.0), 1),
                f(quantile(&sorted, 0.50), 1),
                f(quantile(&sorted, 0.95), 1),
                f(sorted.last().copied().unwrap_or(0.0), 1),
                f(s.first().unwrap_or(0.0), 1),
                f(s.last().unwrap_or(0.0), 1),
            ]
        })
        .collect();
    report.table(
        &[
            "metric", "kind", "points", "min", "p50", "p95", "max", "first", "last",
        ],
        &rows,
    );

    if let Some(group) = group_by {
        // One row per (base metric, label value): the series' final
        // sample, plus its share of the base's grouped total.
        let mut grouped: std::collections::BTreeMap<(String, String), f64> =
            std::collections::BTreeMap::new();
        for s in &series {
            let Some((base, labels)) = parse_series_key(&s.name) else {
                continue;
            };
            let Some((_, v)) = labels.into_iter().find(|(k, _)| k == group) else {
                continue;
            };
            *grouped.entry((base.to_string(), v)).or_default() += s.last().unwrap_or(0.0);
        }
        report.section(&format!("grouped by {group} (final values)"));
        if grouped.is_empty() {
            report.line(&format!(
                "no series carry a {group} label (labeled run required: --obs --labels)"
            ));
        } else {
            let mut totals: std::collections::BTreeMap<&str, f64> =
                std::collections::BTreeMap::new();
            for ((base, _), v) in &grouped {
                *totals.entry(base.as_str()).or_default() += v;
            }
            let rows: Vec<Vec<String>> = grouped
                .iter()
                .map(|((base, v), last)| {
                    let total = totals[base.as_str()];
                    let share = if total > 0.0 {
                        100.0 * last / total
                    } else {
                        0.0
                    };
                    vec![base.clone(), v.clone(), f(*last, 1), f(share, 1)]
                })
                .collect();
            report.table(&["metric", group, "last", "share_%"], &rows);
        }
    }

    let leaks: Vec<String> = series
        .iter()
        .filter(|s| looks_like_leak(s))
        .map(|s| s.name.clone())
        .collect();
    if leaks.is_empty() {
        report.line("\nno monotonic-leak patterns detected");
    } else {
        report.section("leak suspects (monotonic growth)");
        for l in &leaks {
            let s = series.iter().find(|s| &s.name == l).expect("flagged");
            report.line(&format!(
                "{l}: {} -> {} over {} samples (never shrinking)",
                f(s.first().unwrap_or(0.0), 1),
                f(s.last().unwrap_or(0.0), 1),
                s.points.len()
            ));
        }
    }
    report.json_set(
        "leaks",
        medes_obs::Json::Array(leaks.iter().map(|l| medes_obs::json!(l.as_str())).collect()),
    );
    (report, leaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_obs::SeriesStore;

    fn store_to_parsed(s: &SeriesStore) -> Vec<ParsedSeries> {
        parse_timeseries(&s.export_jsonl())
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        assert_eq!(quantile(&v, 0.50), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
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
        let (report, leaks) = timeline("ts.jsonl", &s.export_jsonl());
        assert_eq!(leaks, ["medes.leaky.gauge"]);
        let text = report.text();
        assert!(text.contains("2 series, 20 points"));
        assert!(text.contains("leak suspects"));
        assert!(text.contains("medes.leaky.gauge: 0.0 -> 9.0 over 10 samples"));
        assert_eq!(report.json()["leaks"][0], "medes.leaky.gauge");
    }

    /// Tentpole: `--group-by` breaks labeled twin series down per
    /// label value, with shares of the grouped total per base metric.
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
        let (report, _) = timeline_by("ts", &s.export_jsonl(), Some("node"));
        let text = report.text();
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
        let (report, _) = timeline_by("ts", &s.export_jsonl(), Some("func"));
        let text = report.text();
        assert!(text.contains("a,b=c}d"), "{text}");
        // 5 of medes.y.ops' 8 grouped-by-func total: 62.5%.
        assert!(text.contains("62.5"), "{text}");
        // Grouping by an absent label degrades gracefully.
        let (report, _) = timeline_by("ts", &s.export_jsonl(), Some("shard"));
        assert!(report.text().contains("no series carry a shard label"));
    }

    #[test]
    fn timeline_handles_empty_input() {
        let (report, leaks) = timeline("empty", "");
        assert!(leaks.is_empty());
        assert!(report.text().contains("0 series, 0 points"));
        assert!(report.text().contains("no monotonic-leak patterns"));
    }
}
