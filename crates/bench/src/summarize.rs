//! `trace summarize`: per-phase latency breakdown of a JSONL span
//! trace exported by `medes-obs`.
//!
//! Groups spans by name, reports count / mean / p50 / p99 / max /
//! total time per phase, lists the top-N slowest
//! `medes.platform.request` spans with their attributes, and prints the
//! run's counters and gauges from the trace's tail line.

use crate::report::{f, Report};
use medes_obs::{parse_jsonl, parse_tail, ParsedSpan};
use medes_sim::stats::Percentiles;
use std::collections::BTreeMap;

/// Aggregated stats for one span name.
#[derive(Debug)]
pub struct PhaseStats {
    /// Span name (`medes.<subsystem>.<name>`).
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// 99th percentile duration, µs.
    pub p99_us: f64,
    /// Longest duration, µs.
    pub max_us: f64,
    /// Sum of durations, µs.
    pub total_us: u64,
}

/// Computes per-phase stats from parsed spans, sorted by total time
/// descending (the phases where time actually goes come first).
pub fn phase_stats(spans: &[ParsedSpan]) -> Vec<PhaseStats> {
    let mut groups: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        groups.entry(&s.name).or_default().push(s.dur_us());
    }
    let mut out: Vec<PhaseStats> = groups
        .into_iter()
        .map(|(name, durs)| {
            let total: u64 = durs.iter().sum();
            let mut pct = Percentiles::new();
            for &d in &durs {
                pct.record(d as f64);
            }
            PhaseStats {
                name: name.to_string(),
                count: durs.len() as u64,
                mean_us: total as f64 / durs.len() as f64,
                p50_us: pct.quantile(0.50).unwrap_or(0.0),
                p99_us: pct.quantile(0.99).unwrap_or(0.0),
                max_us: pct.quantile(1.0).unwrap_or(0.0),
                total_us: total,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    out
}

/// The `top` slowest request spans (`medes.platform.request`),
/// slowest first.
pub fn slowest_requests(spans: &[ParsedSpan], top: usize) -> Vec<&ParsedSpan> {
    let mut reqs: Vec<&ParsedSpan> = spans
        .iter()
        .filter(|s| s.name == "medes.platform.request")
        .collect();
    reqs.sort_by(|a, b| {
        b.dur_us()
            .cmp(&a.dur_us())
            .then(a.start_us.cmp(&b.start_us))
    });
    reqs.truncate(top);
    reqs
}

/// Builds the summary report for one JSONL trace's contents.
pub fn summarize(trace_name: &str, contents: &str, top: usize) -> Report {
    let spans = parse_jsonl(contents);
    let mut report = Report::new("trace-summary", trace_name);
    report.line(&format!("{} spans", spans.len()));

    report.section("per-phase latency breakdown");
    let phases = phase_stats(&spans);
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.count.to_string(),
                f(p.mean_us, 1),
                f(p.p50_us, 1),
                f(p.p99_us, 1),
                f(p.max_us, 1),
                f(p.total_us as f64 / 1e6, 3),
            ]
        })
        .collect();
    report.table(
        &[
            "phase", "count", "mean_us", "p50_us", "p99_us", "max_us", "total_s",
        ],
        &rows,
    );

    let slow = slowest_requests(&spans, top);
    if !slow.is_empty() {
        report.section(&format!("top {} slowest requests", slow.len()));
        let rows: Vec<Vec<String>> = slow
            .iter()
            .map(|s| {
                let attr_str = |k: &str| {
                    s.attr(k)
                        .map(|v| match v.as_str() {
                            Some(t) => t.to_string(),
                            None => v.to_string(),
                        })
                        .unwrap_or_else(|| "-".to_string())
                };
                vec![
                    attr_str("id"),
                    attr_str("fn"),
                    attr_str("start_type"),
                    s.start_us.to_string(),
                    attr_str("startup_us"),
                    attr_str("exec_us"),
                    s.dur_us().to_string(),
                ]
            })
            .collect();
        report.table(
            &[
                "req",
                "fn",
                "start",
                "arrival_us",
                "startup_us",
                "exec_us",
                "e2e_us",
            ],
            &rows,
        );
    }

    // Counters and gauges are plain numbers in the tail; histograms are
    // objects and already appear above through their spans.
    let tail = parse_tail(contents);
    let scalars: Vec<Vec<String>> = tail
        .iter()
        .filter_map(|t| t.get("metrics")?.as_object())
        .flat_map(|m| m.iter())
        .filter(|(_, v)| v.as_f64().is_some())
        .map(|(name, v)| vec![name.to_string(), v.to_string()])
        .collect();
    if !scalars.is_empty() {
        report.section("run counters");
        report.table(&["metric", "value"], &scalars);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        let obs = medes_obs::Obs::new(medes_obs::ObsConfig::enabled());
        let t = medes_sim::SimTime::from_micros;
        for i in 0..10u64 {
            obs.span("medes.restore.base_read", t(i * 100))
                .end(t(i * 100 + 30));
            obs.span("medes.restore.ckpt", t(i * 100 + 30))
                .end(t(i * 100 + 80));
            obs.span("medes.platform.request", t(i * 100))
                .attr("id", i)
                .attr("fn", "LinAlg")
                .attr("start_type", "dedup")
                .attr("startup_us", 80u64)
                .attr("exec_us", i * 7)
                .end(t(i * 100 + 80 + i * 7));
        }
        obs.counter_add("medes.dedup.pages_reused", 29007);
        obs.export_jsonl()
    }

    #[test]
    fn phase_stats_aggregate_by_name() {
        let spans = parse_jsonl(&sample_trace());
        let phases = phase_stats(&spans);
        assert_eq!(phases.len(), 3);
        let base = phases
            .iter()
            .find(|p| p.name == "medes.restore.base_read")
            .unwrap();
        assert_eq!(base.count, 10);
        assert!((base.mean_us - 30.0).abs() < 1e-9);
        assert_eq!(base.total_us, 300);
        // Sorted by total time: requests (longest spans) first.
        assert_eq!(phases[0].name, "medes.platform.request");
    }

    #[test]
    fn slowest_requests_are_ranked() {
        let spans = parse_jsonl(&sample_trace());
        let slow = slowest_requests(&spans, 3);
        assert_eq!(slow.len(), 3);
        assert!(slow[0].dur_us() >= slow[1].dur_us());
        assert_eq!(slow[0].attr("id").and_then(|v| v.as_u64()), Some(9));
    }

    #[test]
    fn summarize_renders_tables() {
        let report = summarize("trace-test.jsonl", &sample_trace(), 5);
        let text = report.text();
        assert!(text.contains("per-phase latency breakdown"));
        assert!(text.contains("medes.restore.base_read"));
        assert!(text.contains("top 5 slowest requests"));
        assert!(text.contains("LinAlg"));
        assert!(text.contains("run counters"));
        let reused = text
            .lines()
            .find(|l| l.contains("medes.dedup.pages_reused"));
        assert!(reused.is_some_and(|l| l.ends_with("29007")), "{reused:?}");
    }

    #[test]
    fn summarize_handles_empty_trace() {
        let report = summarize("empty", "", 5);
        assert!(report.text().contains("0 spans"));
    }
}
