//! Named counters and gauges.
//!
//! A duration is a span, never a metric: `trace report` computes its
//! percentiles from the spans. What is left here are facts no span
//! carries — counts, byte totals and levels. Metric names follow
//! `medes.<subsystem>.<name>`.

use crate::json::{Json, JsonMap};
use std::collections::HashMap;

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
}

impl Metric {
    /// The metric's exported form: a number.
    fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) => Json::from(*v),
            Metric::Gauge(v) => Json::from(*v),
        }
    }
}

/// Name under which dropped type-mismatched writes surface in
/// snapshots and exports.
pub const TYPE_MISMATCH_METRIC: &str = "medes.obs.type_mismatch";

/// A registry of named metrics. Names should be `'static` dotted paths
/// (`medes.net.rdma_bytes`).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: HashMap<&'static str, Metric>,
    /// Writes that hit a name already registered under a different
    /// metric type. Production telemetry must not kill a run over a
    /// name collision, so the mismatched write is dropped and counted
    /// here (surfaced as `medes.obs.type_mismatch`); debug builds
    /// still assert.
    type_mismatches: u64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter (creates it at 0 first). A name registered
    /// under a different type drops the write and counts a mismatch
    /// (panicking only under `debug_assertions`).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => {
                self.type_mismatches += 1;
                debug_assert!(false, "metric {name} is not a counter: {other:?}");
            }
        }
    }

    /// Sets a gauge (same mismatch policy as
    /// [`MetricsRegistry::counter_add`]).
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        match self.metrics.entry(name).or_insert(Metric::Gauge(0.0)) {
            Metric::Gauge(v) => *v = value,
            other => {
                self.type_mismatches += 1;
                debug_assert!(false, "metric {name} is not a gauge: {other:?}");
            }
        }
    }

    /// Current counter value (0 if absent). `medes.obs.type_mismatch`
    /// reads the internal mismatch count.
    pub fn counter(&self, name: &str) -> u64 {
        if name == TYPE_MISMATCH_METRIC {
            return self.type_mismatches;
        }
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Name-sorted snapshot of all metrics. When type-mismatched
    /// writes were dropped, a synthetic `medes.obs.type_mismatch`
    /// counter appears so the damage is visible in every export; clean
    /// registries snapshot exactly as before.
    pub fn snapshot(&self) -> Vec<(&'static str, Metric)> {
        let mut out: Vec<_> = self.metrics.iter().map(|(k, v)| (*k, v.clone())).collect();
        if self.type_mismatches > 0 {
            out.push((TYPE_MISMATCH_METRIC, Metric::Counter(self.type_mismatches)));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Serializes all metrics to a JSON object (name-sorted).
    pub fn to_json(&self) -> Json {
        let mut m = JsonMap::new();
        for (name, metric) in self.snapshot() {
            m.insert(name, metric.to_json());
        }
        Json::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.counter_add("medes.platform.starts.warm", 1);
        m.counter_add("medes.platform.starts.warm", 2);
        m.gauge_set("medes.registry.entries", 42.0);
        m.counter_add("medes.net.rpc_us_total", 10);
        assert_eq!(m.counter("medes.platform.starts.warm"), 3);
        assert_eq!(m.counter("absent"), 0);

        let snap = m.snapshot();
        assert_eq!(snap.len(), 3);
        let names: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        let j = m.to_json();
        assert_eq!(j["medes.platform.starts.warm"], 3);
        assert_eq!(j["medes.registry.entries"], 42.0);
    }

    /// Satellite: a type-mismatched write is dropped and counted, not
    /// fatal in release builds (debug builds still assert — caught
    /// here so the count is verified under both profiles).
    #[test]
    fn type_mismatch_is_counted_not_fatal() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut m = MetricsRegistry::new();
        m.counter_add("medes.x.ops", 1);
        let r = catch_unwind(AssertUnwindSafe(|| m.gauge_set("medes.x.ops", 2.0)));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        m.gauge_set("medes.x.level", 1.0);
        let r = catch_unwind(AssertUnwindSafe(|| m.counter_add("medes.x.level", 3)));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        assert_eq!(m.counter("medes.x.ops"), 1, "original counter intact");
        assert_eq!(m.to_json()["medes.x.level"], 1.0, "original gauge intact");
        assert_eq!(m.counter(TYPE_MISMATCH_METRIC), 2);
        let snap = m.snapshot();
        assert!(snap
            .iter()
            .any(|(n, v)| *n == TYPE_MISMATCH_METRIC && matches!(v, Metric::Counter(2))));
        assert_eq!(m.to_json()[TYPE_MISMATCH_METRIC], 2);
        // A clean registry never grows the synthetic counter.
        let clean = MetricsRegistry::new();
        assert!(clean.snapshot().is_empty());
    }
}
