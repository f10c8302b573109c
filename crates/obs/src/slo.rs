//! Per-function SLO tracking.
//!
//! Medes's policy objective P1 (paper §5.2) promises that average
//! startup latency stays under `α · s_W`. The [`SloTracker`] measures
//! that promise per function: a [`LogLinearHistogram`] of observed
//! startup latencies (p50/p95/p99 with ≤ ~3% relative error at fixed
//! memory) plus a counter of individual requests that exceeded the
//! bound. The platform feeds it one sample per finished request; the
//! summary surfaces on `RunOutcome` and in the trace export's tail.

use crate::json::{Json, JsonMap};
use crate::metrics::LogLinearHistogram;
use crate::span::id_hex;
use std::collections::BTreeMap;

/// How many worst violating requests each function retains for
/// drill-down. Small and fixed: the tracker's memory stays bounded no
/// matter how many requests violate.
pub const TOP_VIOLATORS: usize = 8;

/// One SLO-violating request retained for drill-down: enough identity
/// to find the trace (deterministic id) and blame a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloViolator {
    /// Deterministic trace id of the violating request (0 = untraced).
    pub trace_id: u64,
    /// Observed startup latency, microseconds.
    pub latency_us: u64,
    /// Node the request ran on.
    pub node: u64,
}

/// Per-function SLO state: latency histogram + violation count.
#[derive(Debug, Clone, Default)]
struct FnSlo {
    hist: LogLinearHistogram,
    /// Latest non-zero bound (`α · s_W`), microseconds; 0 = no bound.
    bound_us: u64,
    violations: u64,
    /// Worst [`TOP_VIOLATORS`] violating requests, latency-descending.
    /// Only fed by traced samples; untraced recording leaves it empty
    /// so label-off runs carry no extra state.
    violators: Vec<SloViolator>,
}

/// Tracks per-function latency distributions against their SLO bounds.
/// Functions are keyed by name; iteration order is name-sorted so all
/// exports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    funcs: BTreeMap<String, FnSlo>,
}

/// A read-only per-function summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSloSummary {
    /// Function name.
    pub func: String,
    /// Number of samples.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// The SLO bound `α · s_W`, microseconds (0 = none configured).
    pub bound_us: u64,
    /// Samples that individually exceeded the bound.
    pub violations: u64,
    /// Exact sum of latency samples, microseconds (the histogram's
    /// running sum — not reconstructed from the mean).
    pub sum_us: f64,
}

impl SloTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample for `func` and returns whether it
    /// violated. `bound_us` is the SLO bound in effect for this request
    /// (0 = no bound: the sample is recorded but cannot violate).
    ///
    /// `traced`, when given, is the sample's deterministic `(trace id,
    /// node)`, so a violation can be drilled back to the exact request:
    /// the histogram keeps the trace id as a bucket exemplar, and a
    /// violating sample competes for the function's top-[`TOP_VIOLATORS`]
    /// list (latency-descending, ties keep the earlier request).
    pub fn record(
        &mut self,
        func: &str,
        latency_us: u64,
        bound_us: u64,
        traced: Option<(u64, u64)>,
    ) -> bool {
        let f = self.funcs.entry(func.to_string()).or_default();
        f.hist
            .observe(latency_us, traced.map(|(trace_id, _)| trace_id));
        if bound_us == 0 {
            return false;
        }
        f.bound_us = bound_us;
        if latency_us <= bound_us {
            return false;
        }
        f.violations += 1;
        if let Some((trace_id, node)) = traced {
            let v = SloViolator {
                trace_id,
                latency_us,
                node,
            };
            // Stable insert keeps earlier requests ahead on ties.
            let at = f.violators.partition_point(|w| w.latency_us >= latency_us);
            f.violators.insert(at, v);
            f.violators.truncate(TOP_VIOLATORS);
        }
        true
    }

    /// The worst retained violators for `func`, latency-descending
    /// (empty for unknown functions or untraced recording).
    pub fn violators(&self, func: &str) -> &[SloViolator] {
        self.funcs.get(func).map_or(&[], |f| &f.violators)
    }

    /// All retained violators, name-sorted by function: `(func,
    /// violators)` pairs, skipping functions with none.
    pub fn all_violators(&self) -> Vec<(&str, &[SloViolator])> {
        self.funcs
            .iter()
            .filter(|(_, f)| !f.violators.is_empty())
            .map(|(name, f)| (name.as_str(), f.violators.as_slice()))
            .collect()
    }

    /// Every retained violator as one plain record `{"func", "rank",
    /// "latency_us", "node", "trace_id"}`, functions name-sorted and
    /// ranks (1-based) latency-descending within each.
    pub fn violators_to_json(&self) -> Vec<Json> {
        let mut out = Vec::new();
        for (func, worst) in self.all_violators() {
            for (rank, v) in worst.iter().enumerate() {
                out.push(crate::json!({
                    "func": func,
                    "rank": rank + 1,
                    "latency_us": v.latency_us,
                    "node": v.node,
                    "trace_id": id_hex(v.trace_id),
                }));
            }
        }
        out
    }

    /// Number of tracked functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether no function has reported yet.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Total violations across all functions.
    pub fn total_violations(&self) -> u64 {
        self.funcs.values().map(|f| f.violations).sum()
    }

    /// Name-sorted per-function summaries. A function with no samples
    /// never appears (there is no row to report).
    pub fn summary(&self) -> Vec<FnSloSummary> {
        self.funcs
            .iter()
            .map(|(name, f)| FnSloSummary {
                func: name.clone(),
                count: f.hist.count(),
                mean_us: f.hist.mean(),
                p50_us: f.hist.quantile(0.50).unwrap_or(0.0),
                p95_us: f.hist.quantile(0.95).unwrap_or(0.0),
                p99_us: f.hist.quantile(0.99).unwrap_or(0.0),
                bound_us: f.bound_us,
                violations: f.violations,
                sum_us: f.hist.sum(),
            })
            .collect()
    }

    /// Serializes the summary to a JSON object keyed by function name.
    pub fn to_json(&self) -> Json {
        let mut m = JsonMap::new();
        for s in self.summary() {
            let mut row = JsonMap::new();
            row.insert("count", s.count);
            row.insert("mean_us", s.mean_us);
            row.insert("p50_us", s.p50_us);
            row.insert("p95_us", s.p95_us);
            row.insert("p99_us", s.p99_us);
            row.insert("bound_us", s.bound_us);
            row.insert("violations", s.violations);
            m.insert(&s.func, Json::Object(row));
        }
        Json::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: pinned closed-form quantiles on a known sample set.
    /// Values < 32 land in width-1 buckets, so the log-linear estimate
    /// is *exact* and the expectations are closed-form.
    #[test]
    fn quantiles_match_closed_form_on_known_samples() {
        let mut t = SloTracker::new();
        // 1..=20 µs, bound 15 µs ⇒ samples 16..=20 violate (5 of 20).
        for v in 1..=20u64 {
            t.record("f", v, 15, None);
        }
        let s = &t.summary()[0];
        assert_eq!(s.count, 20);
        assert_eq!(s.mean_us, 10.5);
        // rank(ceil(q·20)) with exact unit buckets:
        assert_eq!(s.p50_us, 10.0); // rank 10
        assert_eq!(s.p95_us, 19.0); // rank 19
        assert_eq!(s.p99_us, 20.0); // rank 20
        assert_eq!(s.bound_us, 15);
        assert_eq!(s.violations, 5);
        assert_eq!(t.total_violations(), 5);
    }

    #[test]
    fn empty_function_never_appears() {
        let t = SloTracker::new();
        assert!(t.is_empty());
        assert!(t.summary().is_empty());
        assert_eq!(t.total_violations(), 0);
        assert_eq!(t.to_json(), Json::object());
    }

    #[test]
    fn single_sample_all_quantiles_equal_it() {
        let mut t = SloTracker::new();
        t.record("solo", 7, 0, None);
        let s = &t.summary()[0];
        assert_eq!(s.count, 1);
        assert_eq!((s.p50_us, s.p95_us, s.p99_us), (7.0, 7.0, 7.0));
        assert_eq!(s.mean_us, 7.0);
        // bound 0 ⇒ no bound, no violations even though 7 > 0.
        assert_eq!(s.bound_us, 0);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn violation_is_strict_and_bound_updates() {
        let mut t = SloTracker::new();
        t.record("f", 10, 10, None); // == bound: not a violation
        t.record("f", 11, 10, None); // > bound: violation
        t.record("f", 11, 20, None); // bound moved up: no violation
        let s = &t.summary()[0];
        assert_eq!(s.violations, 1);
        assert_eq!(s.bound_us, 20);
        assert_eq!(s.count, 3);
    }

    /// Satellite 1: the summary's `sum_us` is the histogram's exact
    /// running sum — it equals the raw-sample sum, not the lossy
    /// `mean * count` reconstruction.
    #[test]
    fn sum_us_is_exact_raw_sample_sum() {
        let mut t = SloTracker::new();
        // Samples whose mean is not exactly representable in few bits,
        // so mean*count round-trips would drift.
        let samples = [7u64, 11, 13, 1_000_003, 999_983, 3];
        for &v in &samples {
            t.record("f", v, 0, None);
        }
        let s = &t.summary()[0];
        let exact: f64 = samples.iter().map(|&v| v as f64).sum();
        assert_eq!(
            s.sum_us, exact,
            "sum must be the running sum, not mean*count"
        );
    }

    /// Tentpole: traced recording retains the worst violators
    /// latency-descending, bounded at [`TOP_VIOLATORS`], with ties
    /// keeping the earlier request.
    #[test]
    fn traced_violators_keep_topk_latency_descending() {
        let mut t = SloTracker::new();
        t.record("f", 5, 10, Some((0x1, 0))); // under bound: not retained
        t.record("f", 30, 10, Some((0x2, 1)));
        t.record("f", 20, 10, Some((0x3, 2)));
        t.record("f", 30, 10, Some((0x4, 3))); // tie with 0x2: stays behind it
        let v = t.violators("f");
        assert_eq!(v.len(), 3);
        assert_eq!(
            v.iter().map(|w| w.trace_id).collect::<Vec<_>>(),
            [0x2, 0x4, 0x3]
        );
        assert_eq!(v[0].node, 1);
        // Bound: flood with increasing latencies; only the top K stay.
        for i in 0..50u64 {
            t.record("f", 100 + i, 10, Some((0x100 + i, 4)));
        }
        let v = t.violators("f");
        assert_eq!(v.len(), TOP_VIOLATORS);
        assert_eq!(v[0].latency_us, 149);
        assert!(v.iter().all(|w| w.latency_us >= 142));
        // Untraced recording never grows violator lists.
        let mut plain = SloTracker::new();
        plain.record("g", 100, 10, None);
        assert!(plain.violators("g").is_empty());
        assert_eq!(plain.total_violations(), 1);
        assert_eq!(t.all_violators().len(), 1);
        assert!(t.violators("absent").is_empty());
    }

    #[test]
    fn functions_sort_by_name_and_json_mirrors_summary() {
        let mut t = SloTracker::new();
        t.record("zeta", 5, 0, None);
        t.record("alpha", 3, 2, None);
        let summary = t.summary();
        let names: Vec<&str> = summary.iter().map(|s| s.func.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        let j = t.to_json();
        assert_eq!(j["alpha"]["violations"], 1);
        assert_eq!(j["zeta"]["count"], 1);
    }
}
