//! The run-level sections of `trace report`: the one per-phase table
//! (latency and self time per span name), the slowest requests and the
//! run's counters and gauges from the tail line.

use crate::analyze::Forest;
use crate::report::{f, Report};
use crate::trace::{fmt_attr, percentiles, Export, TOP};
use medes_obs::ParsedSpan;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Latency and self time of one span name.
#[derive(Debug)]
pub(crate) struct Phase {
    /// Span name (`medes.<subsystem>.<name>`).
    pub(crate) name: String,
    /// Number of spans.
    pub(crate) count: u64,
    /// Sum of durations, µs.
    pub(crate) total_us: u64,
    /// Median, 99th percentile and longest duration, µs.
    pub(crate) p50_p99_max_us: [f64; 3],
    /// Sum of self times over the name's traced spans, µs; `None` when
    /// no span of the name is in a causal tree.
    pub(crate) self_us: Option<u64>,
}

/// The one per-phase pass: every span's duration and every traced
/// span's self time, grouped by name, sorted by total time descending
/// (the phases where time actually goes come first).
pub(crate) fn phases(forest: &Forest) -> Vec<Phase> {
    let mut groups: BTreeMap<&str, (Vec<u64>, Option<u64>)> = BTreeMap::new();
    for (i, s) in forest.spans.iter().enumerate() {
        let (durs, self_us) = groups.entry(&s.name).or_default();
        durs.push(s.dur_us());
        if s.trace_id != 0 {
            *self_us.get_or_insert(0) += forest.self_time_us(i);
        }
    }
    let mut out: Vec<Phase> = groups
        .into_iter()
        .map(|(name, (durs, self_us))| {
            let mut pct = percentiles(durs.iter().map(|&d| d as f64));
            let p50_p99_max_us = [0.50, 0.99, 1.0].map(|q| pct.quantile(q).unwrap_or(0.0));
            let (count, total_us) = (durs.len() as u64, durs.iter().sum());
            let name = name.to_string();
            Phase {
                name,
                count,
                total_us,
                p50_p99_max_us,
                self_us,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    out
}

/// The per-phase table; `self_%` is each phase's share of all self time.
pub(crate) fn phase_table(report: &mut Report, phases: &[Phase]) {
    let grand = phases.iter().filter_map(|p| p.self_us).sum::<u64>().max(1) as f64;
    report.section("per-phase latency and self time");
    let rows = phases.iter().map(|p| {
        let mean = f(p.total_us as f64 / p.count as f64, 1);
        let mut row = vec![p.name.clone(), p.count.to_string(), mean];
        row.extend(p.p50_p99_max_us.map(|us| f(us, 1)));
        row.push(f(p.total_us as f64 / 1e6, 3));
        row.extend(match p.self_us {
            Some(us) => [f(us as f64 / 1e6, 3), f(100.0 * us as f64 / grand, 1)],
            None => ["-".into(), "-".into()],
        });
        row
    });
    let header = [
        "phase", "count", "mean_us", "p50_us", "p99_us", "max_us", "total_s", "self_s", "self_%",
    ];
    report.table(&header, rows);
}

/// The [`TOP`] slowest requests with their attributes, then the run's
/// counters and gauges (histograms appear through their spans).
pub(crate) fn slowest_and_counters(report: &mut Report, run: &Export) {
    let requests = run
        .forest
        .spans
        .iter()
        .filter(|s| s.name == "medes.platform.request");
    let mut slow: Vec<&ParsedSpan> = requests.collect();
    slow.sort_by_key(|s| (Reverse(s.dur_us()), s.start_us));
    slow.truncate(TOP);
    if !slow.is_empty() {
        report.section(&format!("top {} slowest requests", slow.len()));
        let rows = slow.iter().map(|s| {
            let mut row = ["id", "fn", "start_type"].map(|k| fmt_attr(s, k)).to_vec();
            row.push(s.start_us.to_string());
            row.extend(["startup_us", "exec_us"].map(|k| fmt_attr(s, k)));
            row.push(s.dur_us().to_string());
            row
        });
        let header = [
            "req",
            "fn",
            "start",
            "arrival_us",
            "startup_us",
            "exec_us",
            "e2e_us",
        ];
        report.table(&header, rows);
    }
    if !run.scalars.is_empty() {
        report.section("run counters");
        let rows = run
            .scalars
            .iter()
            .map(|(name, v)| [name.clone(), v.to_string()]);
        report.table(&["metric", "value"], rows);
    }
}

#[cfg(test)]
mod tests {
    use crate::trace::{load, report};

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
        let phases = load("t", &sample_trace(), None).phases;
        assert_eq!(phases.len(), 3);
        let base = phases
            .iter()
            .find(|p| p.name == "medes.restore.base_read")
            .unwrap();
        assert_eq!(base.count, 10);
        assert_eq!(base.total_us, 300);
        assert_eq!(base.p50_p99_max_us, [30.0; 3]);
        // Untraced spans carry no self time.
        assert_eq!(base.self_us, None);
        // Sorted by total time: requests (longest spans) first.
        assert_eq!(phases[0].name, "medes.platform.request");
    }

    #[test]
    fn slowest_requests_are_ranked() {
        let (report, _) = report(&load("t", &sample_trace(), None), None, None);
        let text = report.text();
        let slowest = text.split("slowest requests ---\n").nth(1).unwrap();
        // Slowest first: request 9 ran longest (exec 63 us).
        let ids: Vec<&str> = slowest.lines().skip(2).take(3).map(|l| &l[..1]).collect();
        assert_eq!(ids, ["9", "8", "7"], "{slowest}");
    }

    #[test]
    fn summarize_renders_tables() {
        let (report, _) = report(&load("trace-test.jsonl", &sample_trace(), None), None, None);
        let text = report.text();
        assert!(text.contains("per-phase latency and self time"));
        assert!(text.contains("medes.restore.base_read"));
        assert!(text.contains("top 10 slowest requests"));
        assert!(text.contains("LinAlg"));
        assert!(text.contains("run counters"));
        let reused = text
            .lines()
            .find(|l| l.contains("medes.dedup.pages_reused"));
        assert!(reused.is_some_and(|l| l.ends_with("29007")), "{reused:?}");
    }

    #[test]
    fn summarize_handles_empty_trace() {
        let (report, _) = report(&load("empty", "", None), None, None);
        assert!(report.text().contains("0 spans"));
    }
}
