//! Deterministic metric time series.
//!
//! A [`SeriesStore`] accumulates `(sim-time µs, value)` points for
//! named metrics, fed by a *simulated-time* sampler (the platform's
//! sample tick — never wall clock, so the same seed always produces
//! the same series). Points live in compact per-metric vectors and
//! export as the trace tail's `series` object, keyed by metric name in
//! sorted order, which `trace report` renders and compares.

use crate::json::{Json, JsonMap};
use crate::metrics::{Metric, MetricsRegistry};
use std::collections::BTreeMap;

/// What a series measures. Counters are monotone by construction, so
/// leak detection (`trace report`) only interrogates gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Last-write-wins level (memory in use, queue depth, entries).
    Gauge,
    /// Monotonic count (ops, bytes, violations).
    Counter,
}

impl SeriesKind {
    /// The exported tag for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }

    /// Parses the exported tag back.
    pub fn parse(s: &str) -> Option<SeriesKind> {
        match s {
            "gauge" => Some(SeriesKind::Gauge),
            "counter" => Some(SeriesKind::Counter),
            _ => None,
        }
    }
}

/// One metric's sampled points, in sample order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Gauge or counter.
    pub kind: SeriesKind,
    /// `(sim-time µs, value)` pairs, oldest first.
    pub points: Vec<(u64, f64)>,
}

/// A name-keyed store of sampled series. Keys are owned strings so
/// dynamic names (`medes.node.3.mem_bytes`) work; the `BTreeMap` makes
/// every export name-sorted and locale-independent by construction.
#[derive(Debug, Default)]
pub struct SeriesStore {
    series: BTreeMap<String, MetricSeries>,
}

impl SeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one point to `name`'s series (created on first use).
    pub fn point(&mut self, name: &str, kind: SeriesKind, t_us: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| MetricSeries {
                kind,
                points: Vec::new(),
            })
            .points
            .push((t_us, value));
    }

    /// Snapshots every counter and gauge in `reg` as one point each at
    /// `t_us`.
    pub fn sample_registry(&mut self, reg: &MetricsRegistry, t_us: u64) {
        for (name, metric) in reg.snapshot() {
            match metric {
                Metric::Counter(v) => self.point(name, SeriesKind::Counter, t_us, v as f64),
                Metric::Gauge(v) => self.point(name, SeriesKind::Gauge, t_us, v),
            }
        }
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.series.get(name)
    }

    /// Renders all series as one object keyed by metric name, in name
    /// order: `{"<name>": {"kind": "gauge", "points": [[t_us, v], ...]}}`.
    pub fn to_json(&self) -> Json {
        let mut out = JsonMap::new();
        for (name, s) in &self.series {
            let mut obj = JsonMap::new();
            obj.insert("kind", s.kind.as_str());
            let points: Vec<Json> = s
                .points
                .iter()
                .map(|&(t, v)| Json::Array(vec![Json::Num(t as f64), Json::Num(v)]))
                .collect();
            obj.insert("points", Json::Array(points));
            out.insert(name.as_str(), Json::Object(obj));
        }
        Json::Object(out)
    }
}

/// A series read back from a trace tail's `series` object.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSeries {
    /// Metric name.
    pub name: String,
    /// Gauge or counter.
    pub kind: SeriesKind,
    /// `(sim-time µs, value)` pairs, oldest first.
    pub points: Vec<(u64, f64)>,
}

impl ParsedSeries {
    /// The values only, in sample order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// First sampled value.
    pub fn first(&self) -> Option<f64> {
        self.points.first().map(|&(_, v)| v)
    }

    /// Last sampled value.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

/// Parses a trace tail's `series` object ([`SeriesStore::to_json`]),
/// skipping malformed entries; empty when absent.
pub fn parse_series(series: Option<&Json>) -> Vec<ParsedSeries> {
    let point = |p: &Json| match p.as_array()? {
        [t, x] => Some((t.as_u64()?, x.as_f64()?)),
        _ => None,
    };
    let parse = |(name, s): (&str, &Json)| {
        Some(ParsedSeries {
            name: name.to_string(),
            kind: SeriesKind::parse(s.get("kind")?.as_str()?)?,
            points: s
                .get("points")?
                .as_array()?
                .iter()
                .map(point)
                .collect::<Option<_>>()?,
        })
    };
    let entries = series
        .and_then(Json::as_object)
        .into_iter()
        .flat_map(JsonMap::iter);
    entries.filter_map(parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_accumulate_and_round_trip() {
        let mut s = SeriesStore::new();
        s.point("medes.node.0.mem_bytes", SeriesKind::Gauge, 0, 10.0);
        s.point("medes.node.0.mem_bytes", SeriesKind::Gauge, 1000, 20.5);
        s.point("medes.platform.arrivals", SeriesKind::Counter, 1000, 3.0);
        assert_eq!(s.len(), 2);
        let text = s.to_json().to_string();
        let back = parse_series(crate::json::parse(&text).ok().as_ref());
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "medes.node.0.mem_bytes");
        assert_eq!(back[0].kind, SeriesKind::Gauge);
        assert_eq!(back[0].points, vec![(0, 10.0), (1000, 20.5)]);
        assert_eq!(back[1].kind, SeriesKind::Counter);
        assert_eq!(back[1].last(), Some(3.0));
    }

    /// Satellite (stable ordering): the export is name-sorted by raw
    /// byte order, independent of insertion order, and the golden
    /// bytes are pinned so a formatting drift fails loudly.
    #[test]
    fn export_is_name_sorted_golden() {
        let mut s = SeriesStore::new();
        // Inserted deliberately out of order.
        s.point("medes.z.last", SeriesKind::Counter, 5, 1.0);
        s.point("medes.a.first", SeriesKind::Gauge, 5, 2.0);
        s.point("medes.m.mid", SeriesKind::Gauge, 5, 3.5);
        assert_eq!(
            s.to_json().to_string(),
            "{\"medes.a.first\":{\"kind\":\"gauge\",\"points\":[[5,2]]},\
             \"medes.m.mid\":{\"kind\":\"gauge\",\"points\":[[5,3.5]]},\
             \"medes.z.last\":{\"kind\":\"counter\",\"points\":[[5,1]]}}"
        );
    }

    #[test]
    fn sample_registry_takes_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("medes.x.ops", 7);
        reg.gauge_set("medes.x.level", 1.5);
        let mut s = SeriesStore::new();
        s.sample_registry(&reg, 100);
        reg.counter_add("medes.x.ops", 1);
        s.sample_registry(&reg, 200);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.get("medes.x.ops").unwrap().points,
            vec![(100, 7.0), (200, 8.0)]
        );
        assert_eq!(s.get("medes.x.level").unwrap().kind, SeriesKind::Gauge);
    }

    #[test]
    fn parse_skips_garbage_lines() {
        assert!(parse_series(None).is_empty());
        let garbage = crate::json::parse(
            r#"{"a": 3, "b": {"kind": "bogus", "points": []}, "c": {"kind": "gauge", "points": [[1]]},
                "d": {"kind": "counter", "points": [[1, 2]]}}"#,
        )
        .unwrap();
        let parsed = parse_series(Some(&garbage));
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "d");
        assert_eq!(SeriesKind::parse("bogus"), None);
    }
}
