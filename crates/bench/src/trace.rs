//! `trace report`: one report over one parsed run export.
//!
//! A run traced with `--obs` leaves a JSONL file: span lines, then one
//! tail line with the final counters and gauges and, under
//! `--timeseries <ms>`, the sampled series. A duration is recorded once, as a span: every latency
//! number below is folded from the spans. [`load`] parses the file
//! once into an [`Export`]; [`report`] renders every section from it:
//!
//! * a header line (spans, causal trees, series, SLO violations);
//! * the per-phase table: p50/p95/p99 per span name
//!   ([`Percentiles`] over the spans' durations) and self time — the
//!   phase's duration minus its children's (`analyze`'s forest);
//! * operations: one row per tree-root kind, the critical path of each
//!   kind's slowest instance, and the roots slower than twice their
//!   kind's p99;
//! * the 10 slowest requests and the run's counters;
//! * the SLO fold: per function, requests, bound and violations;
//! * series: min/p50/p95/max per sampled metric, and monotonic-leak
//!   suspects;
//! * attribution: SLO violations by serving node, per-(phase, node)
//!   p99s far above their phase's, and the critical path of the worst
//!   violation;
//! * with a base export (`--against`), the comparison: curated counters,
//!   SLO violations, per-phase p99 and self time, and gauge endpoints,
//!   each gated by [`DiffThresholds`].
//!
//! [`Findings::gate`] is the exit code: regressions when compared,
//! attributions otherwise.

pub use crate::analyze::{Forest, TraceTree};
pub use crate::attribute::Attribution;
pub use crate::diff::{DiffThresholds, Regression};
use crate::report::Report;
pub use crate::slo::{FnSlo, NodeSlo, SloFold, Violation, TAIL};
use crate::summarize::Phase;
use crate::{analyze, attribute, diff, slo, summarize, timeline};
use medes_obs::{parse_jsonl, parse_series, parse_tail, Json, ParsedSpan};
use medes_obs::{JsonMap, ParsedSeries};
use medes_sim::stats::Percentiles;
use std::collections::BTreeMap;

/// Rows kept in each ranked table (slowest requests, anomalies, nodes,
/// outliers).
pub(crate) const TOP: usize = 10;

/// One run export, parsed once: spans as a causal forest, the per-phase
/// and SLO folds over them, the tail's counters and the sampled series.
#[derive(Debug)]
pub struct Export {
    /// Display label (usually the file's path).
    pub(crate) label: String,
    /// The spans and their causal trees.
    pub forest: Forest,
    /// Per-span-name latency and self time, by total time descending.
    pub(crate) phases: Vec<Phase>,
    /// The request spans against their SLO bounds.
    pub slo: SloFold,
    /// Counters and gauges from the tail's `metrics`.
    pub(crate) scalars: BTreeMap<String, f64>,
    /// The tail's sampled series; empty when the sampler did not run.
    pub(crate) series: Vec<ParsedSeries>,
}

/// Parses one run export: `trace` is the JSONL file's contents.
/// Records missing a field are skipped — the export is a report, not a
/// protocol.
pub fn load(label: &str, trace: &str) -> Export {
    let tail = parse_tail(trace).unwrap_or_else(Json::object);
    let forest = Forest::build(parse_jsonl(trace));
    Export {
        label: label.to_string(),
        phases: summarize::phases(&forest),
        slo: SloFold::build(&forest),
        forest,
        scalars: numbers(tail.get("metrics")),
        series: parse_series(tail.get("series")),
    }
}

/// The numeric entries of a tail object.
fn numbers(m: Option<&Json>) -> BTreeMap<String, f64> {
    let entries = m
        .and_then(Json::as_object)
        .into_iter()
        .flat_map(JsonMap::iter);
    entries
        .filter_map(|(k, v)| Some((k.to_string(), v.as_f64()?)))
        .collect()
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

/// Renders the report of `run`, compared against `against` when given.
pub fn report(run: &Export, against: Option<&Export>) -> (Report, Findings) {
    let mut report = Report::new("trace-report", &run.label);
    let points: usize = run.series.iter().map(|s| s.points.len()).sum();
    report.line(&format!(
        "{} spans, {} untraced, {} causal trees; {} series, {points} points; \
         {} slo violation(s)",
        run.forest.spans.len(),
        run.forest.untraced,
        run.forest.trees.len(),
        run.series.len(),
        run.slo.violations.len(),
    ));
    summarize::phase_table(&mut report, &run.phases);
    analyze::operations(&mut report, &run.forest);
    summarize::slowest_and_counters(&mut report, run);
    slo::section(&mut report, &run.slo);
    timeline::series(&mut report, &run.series);
    let attributions = attribute::attribution(&mut report, run);
    let th = DiffThresholds::default();
    let regressions = against.map(|base| diff::against(&mut report, base, run, &th));
    let findings = Findings {
        attributions,
        regressions,
    };
    (report, findings)
}

/// A span attribute as an unsigned integer.
pub(crate) fn uint_attr(span: &ParsedSpan, key: &str) -> Option<u64> {
    span.attr(key)?.as_u64()
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
