//! `trace report`: one report over one parsed run export.
//!
//! A run traced with `--obs` leaves a JSONL file: span lines, then one
//! tail line with the final metrics, the per-function SLO summary,
//! under `--labels` labeled series, exemplars and SLO violators, and
//! under `--timeseries <ms>` the sampled series. [`load`] parses it
//! once into an [`Export`]; [`report`] renders every section from it:
//!
//! * a header line (spans, causal trees, series, labeled series, SLO
//!   violations, exemplars);
//! * the per-phase table: latency per span name and self time — the
//!   phase's duration minus its children's (`analyze`'s forest);
//! * operations: one row per tree-root kind, the critical path of each
//!   kind's slowest instance, and the roots slower than twice their
//!   kind's p99;
//! * the 10 slowest requests and the run's counters;
//! * series: min/p50/p95/max per sampled metric, and monotonic-leak
//!   suspects;
//! * attribution: SLO violations by serving node, labeled p99s far above
//!   their flat aggregate, and the critical paths of the worst violation
//!   and the worst exemplar;
//! * with a base export (`--against`), the comparison: curated counters,
//!   histogram p99s, SLO violations, per-phase self time and gauge
//!   endpoints, each gated by [`DiffThresholds`].
//!
//! `--group-by <label>` breaks the labeled series and the compared
//! labeled twins down per label value. [`Findings::gate`] is the exit
//! code: regressions when compared, attributions otherwise.

pub use crate::analyze::{Forest, TraceTree};
pub use crate::attribute::Attribution;
pub use crate::diff::{DiffThresholds, Regression};
use crate::report::Report;
use crate::summarize::Phase;
use crate::{analyze, attribute, diff, summarize, timeline};
use medes_obs::span::parse_id;
use medes_obs::{parse_jsonl, parse_series, parse_series_key, parse_tail, Json, ParsedSpan};
use medes_obs::{JsonMap, ParsedSeries};
use medes_sim::stats::Percentiles;
use std::collections::BTreeMap;

/// Rows kept in each ranked table (slowest requests, anomalies, nodes,
/// outliers).
pub(crate) const TOP: usize = 10;

/// One `slo_violators` record of the tail.
#[derive(Debug)]
pub(crate) struct Violation {
    pub(crate) func: String,
    pub(crate) latency_us: u64,
    pub(crate) node: u64,
    pub(crate) trace_id: u64,
}

/// One `exemplars` record of the tail.
#[derive(Debug)]
pub(crate) struct Exemplar {
    pub(crate) series: String,
    pub(crate) bucket: u64,
    pub(crate) value: u64,
    pub(crate) trace_id: u64,
}

/// One run export, parsed once: spans as a causal forest, the per-phase
/// pass over them, the tail's fields and the sampled series.
#[derive(Debug)]
pub struct Export {
    /// Display label (usually the file's path).
    pub(crate) label: String,
    /// The spans and their causal trees.
    pub forest: Forest,
    /// Per-span-name latency and self time, by total time descending.
    pub(crate) phases: Vec<Phase>,
    /// Counters and gauges from the tail's `metrics`.
    pub(crate) scalars: BTreeMap<String, f64>,
    /// p99 of every histogram in the tail's `metrics`, µs.
    pub(crate) hist_p99: BTreeMap<String, f64>,
    /// Scalar labeled twins (`name{k=v,...}` -> value); empty label-off.
    pub(crate) labeled: BTreeMap<String, f64>,
    /// p99 of every labeled histogram twin, µs.
    pub(crate) labeled_p99: BTreeMap<String, f64>,
    /// SLO violations summed over functions.
    pub(crate) slo_violations: f64,
    pub(crate) violators: Vec<Violation>,
    pub(crate) exemplars: Vec<Exemplar>,
    /// The tail's sampled series; empty when the sampler did not run.
    pub(crate) series: Vec<ParsedSeries>,
}

/// Parses one run export: `trace` is the JSONL file's contents.
/// Records missing a field are skipped — the export is a report, not a
/// protocol.
pub fn load(label: &str, trace: &str) -> Export {
    let tail = parse_tail(trace).unwrap_or_else(Json::object);
    let records = |key| tail.get(key).and_then(Json::as_array).unwrap_or_default();
    let violators = records("slo_violators").iter().filter_map(|r| {
        Some(Violation {
            func: r.get("func")?.as_str()?.to_string(),
            latency_us: r.get("latency_us")?.as_u64()?,
            node: r.get("node")?.as_u64()?,
            trace_id: parse_id(r.get("trace_id")),
        })
    });
    let exemplars = records("exemplars").iter().filter_map(|r| {
        Some(Exemplar {
            series: r.get("series")?.as_str()?.to_string(),
            bucket: r.get("bucket")?.as_u64()?,
            value: r.get("value")?.as_u64()?,
            trace_id: parse_id(r.get("trace_id")),
        })
    });
    let (scalars, hist_p99) = split_metrics(tail.get("metrics"));
    let (labeled, labeled_p99) = split_metrics(tail.get("labeled"));
    let slo = tail
        .get("slo")
        .and_then(Json::as_object)
        .into_iter()
        .flat_map(JsonMap::iter);
    let forest = Forest::build(parse_jsonl(trace));
    Export {
        label: label.to_string(),
        phases: summarize::phases(&forest),
        forest,
        scalars,
        hist_p99,
        labeled,
        labeled_p99,
        slo_violations: slo
            .filter_map(|(_, row)| row.get("violations")?.as_f64())
            .sum(),
        violators: violators.collect(),
        exemplars: exemplars.collect(),
        series: parse_series(tail.get("series")),
    }
}

/// Splits a tail object of metrics into scalars (counters, gauges) and
/// histogram p99s.
fn split_metrics(m: Option<&Json>) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let entries = || {
        m.and_then(Json::as_object)
            .into_iter()
            .flat_map(JsonMap::iter)
    };
    let scalars = entries().filter_map(|(k, v)| Some((k.to_string(), v.as_f64()?)));
    let p99s = entries().filter_map(|(k, v)| Some((k.to_string(), v.get("p99")?.as_f64()?)));
    (scalars.collect(), p99s.collect())
}

/// What a report found, beside its text.
#[derive(Debug)]
pub struct Findings {
    /// Ranked attributions of the run's tail latency.
    pub attributions: Vec<Attribution>,
    /// Regressions against the base export; `None` when not compared.
    pub regressions: Option<Vec<Regression>>,
}

impl Findings {
    /// Whether the report fails its gate: any regression when compared
    /// against a base, any attribution otherwise. Leak suspects and
    /// anomalies never gate.
    pub fn gate(&self) -> bool {
        match &self.regressions {
            Some(r) => !r.is_empty(),
            None => !self.attributions.is_empty(),
        }
    }
}

/// Renders the report of `run`, compared against `against` when given,
/// with labeled series grouped by `group_by` when given.
pub fn report(
    run: &Export,
    against: Option<&Export>,
    group_by: Option<&str>,
) -> (Report, Findings) {
    let mut report = Report::new("trace-report", &run.label);
    let points: usize = run.series.iter().map(|s| s.points.len()).sum();
    report.line(&format!(
        "{} spans, {} untraced, {} causal trees; {} series, {points} points; \
         {} labeled series, {} slo violation(s), {} exemplar(s)",
        run.forest.spans.len(),
        run.forest.untraced,
        run.forest.trees.len(),
        run.series.len(),
        run.labeled.len() + run.labeled_p99.len(),
        run.violators.len(),
        run.exemplars.len(),
    ));
    summarize::phase_table(&mut report, &run.phases);
    analyze::operations(&mut report, &run.forest);
    summarize::slowest_and_counters(&mut report, run);
    timeline::series(&mut report, &run.series, group_by);
    let attributions = attribute::attribution(&mut report, run);
    let th = DiffThresholds::default();
    let regressions = against.map(|base| diff::against(&mut report, base, run, &th, group_by));
    let findings = Findings {
        attributions,
        regressions,
    };
    (report, findings)
}

/// Sums `(series key, value)` entries whose key carries `label`, per
/// `(base metric, label value)` — the one group-by of the series and
/// comparison sections.
pub(crate) fn group_by<'a>(
    entries: impl IntoIterator<Item = (&'a str, f64)>,
    label: &str,
) -> BTreeMap<(String, String), f64> {
    let mut grouped = BTreeMap::new();
    for (key, v) in entries {
        let Some((base, labels)) = parse_series_key(key) else {
            continue;
        };
        if let Some((_, lv)) = labels.into_iter().find(|(k, _)| k == label) {
            *grouped.entry((base.to_string(), lv)).or_default() += v;
        }
    }
    grouped
}

/// A span attribute as text, `-` when absent.
pub(crate) fn fmt_attr(span: &ParsedSpan, key: &str) -> String {
    let text = |v: &Json| v.as_str().map_or_else(|| v.to_string(), str::to_string);
    span.attr(key).map_or_else(|| "-".to_string(), text)
}

/// The exact percentiles of `xs`.
pub(crate) fn percentiles(xs: impl IntoIterator<Item = f64>) -> Percentiles {
    let mut p = Percentiles::new();
    xs.into_iter().for_each(|x| p.record(x));
    p
}
