//! Simulated-time spans recorded into a bounded ring buffer.
//!
//! A span marks one timed phase of the pipeline (e.g.
//! `medes.restore.base_read`) between two [`SimTime`] points, plus
//! key-value attributes. Spans are buffered in memory (oldest dropped
//! first when the buffer is full) and exported as JSONL by
//! [`crate::Obs::export_jsonl`].

use crate::ids::TraceCtx;
use crate::json::{Json, JsonMap};
use medes_sim::SimTime;

/// Renders a 64-bit id as a fixed-width hex string. Ids must survive
/// the JSONL round-trip exactly, and JSON numbers are f64 (53-bit
/// mantissa), so ids travel as strings.
pub(crate) fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Reads a trace/span id back from its exported form (16 hex digits
/// in a JSON string); `0` — the untraced id — when absent or malformed.
pub fn parse_id(v: Option<&Json>) -> u64 {
    v.and_then(|j| j.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0)
}

/// One attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (ids, byte counts, microseconds).
    Uint(u64),
    /// A float (ratios, rates).
    Float(f64),
    /// A string (function names, start types).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<&AttrValue> for Json {
    fn from(v: &AttrValue) -> Json {
        match v {
            AttrValue::Uint(u) => Json::Num(*u as f64),
            AttrValue::Float(f) => Json::Num(*f),
            AttrValue::Str(s) => Json::Str(s.clone()),
        }
    }
}

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, `medes.<subsystem>.<name>`.
    pub name: &'static str,
    /// Start of the phase, simulated microseconds.
    pub start_us: u64,
    /// End of the phase, simulated microseconds.
    pub end_us: u64,
    /// Causal trace id (`0` = untraced flat span).
    pub trace_id: u64,
    /// This span's id within its trace (`0` when untraced).
    pub span_id: u64,
    /// Parent span id (`0` = trace root or untraced).
    pub parent_id: u64,
    /// Attributes, in the order they were added.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds (saturating).
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The attribute under `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders as one JSONL line (without trailing newline).
    pub fn to_json(&self) -> Json {
        let mut attrs = JsonMap::new();
        for (k, v) in &self.attrs {
            attrs.insert(*k, Json::from(v));
        }
        let mut obj = JsonMap::new();
        obj.insert("span", self.name);
        obj.insert("start_us", self.start_us);
        obj.insert("end_us", self.end_us);
        obj.insert("dur_us", self.dur_us());
        if self.trace_id != 0 {
            obj.insert("trace_id", id_hex(self.trace_id));
            obj.insert("span_id", id_hex(self.span_id));
            if self.parent_id != 0 {
                obj.insert("parent_id", id_hex(self.parent_id));
            }
        }
        if !attrs.is_empty() {
            obj.insert("attrs", Json::Object(attrs));
        }
        Json::Object(obj)
    }

    /// Parses a JSONL line produced by [`SpanRecord::to_json`] into a
    /// dynamic view (names become owned strings).
    pub fn parse_line(line: &str) -> Option<ParsedSpan> {
        let v = crate::json::parse(line).ok()?;
        let name = v.get("span")?.as_str()?.to_string();
        let start_us = v.get("start_us")?.as_u64()?;
        let end_us = v.get("end_us")?.as_u64()?;
        let attrs = match v.get("attrs") {
            Some(Json::Object(map)) => map
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            _ => Vec::new(),
        };
        Some(ParsedSpan {
            name,
            start_us,
            end_us,
            trace_id: parse_id(v.get("trace_id")),
            span_id: parse_id(v.get("span_id")),
            parent_id: parse_id(v.get("parent_id")),
            attrs,
        })
    }
}

/// A span read back from a JSONL trace file (owned keys, dynamic
/// values) — what `trace summarize` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Span name.
    pub name: String,
    /// Start, simulated microseconds.
    pub start_us: u64,
    /// End, simulated microseconds.
    pub end_us: u64,
    /// Causal trace id (`0` = untraced).
    pub trace_id: u64,
    /// This span's id (`0` = untraced).
    pub span_id: u64,
    /// Parent span id (`0` = root or untraced).
    pub parent_id: u64,
    /// Attributes.
    pub attrs: Vec<(String, Json)>,
}

impl ParsedSpan {
    /// Span duration in microseconds (saturating).
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The attribute under `key`.
    pub fn attr(&self, key: &str) -> Option<&Json> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Bounded span buffer: keeps the most recent `cap` spans and counts
/// drops exactly.
#[derive(Debug)]
pub struct Tracer {
    buf: Vec<SpanRecord>,
    cap: usize,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `cap` spans.
    ///
    /// Eviction semantics: the buffer is a ring over *finished* spans.
    /// Once full, recording span `n + cap` evicts the oldest buffered
    /// span; [`Tracer::dropped`] counts exactly the spans that were
    /// recorded but are no longer retained (with `cap == 0` that is
    /// every span, which is how a disabled handle stays allocation
    /// free). The trace file, not the ring, is the complete record.
    pub fn new(cap: usize) -> Self {
        Tracer {
            buf: Vec::new(),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Records a finished span.
    pub fn record(&mut self, span: SpanRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(span);
            return;
        }
        if self.cap > 0 {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.cap;
        }
        self.dropped += 1;
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans evicted because the buffer was full. Exact: every span
    /// ever recorded is either still buffered or counted here.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates buffered spans oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }
}

/// In-flight span builder. Obtained from [`crate::Obs::span`] (flat,
/// untraced) or [`crate::Obs::span_in`] (carrying a [`TraceCtx`]);
/// call [`Span::end`] with the phase end time to record it.
#[derive(Debug)]
pub struct Span<'a> {
    pub(crate) obs: &'a crate::Obs,
    pub(crate) name: &'static str,
    pub(crate) start: SimTime,
    pub(crate) ctx: TraceCtx,
    pub(crate) attrs: Vec<(&'static str, AttrValue)>,
}

impl<'a> Span<'a> {
    /// Adds an attribute (no-op when observability is disabled).
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        if self.obs.enabled() {
            self.attrs.push((key, value.into()));
        }
        self
    }

    /// Finishes the span at `end` and records it.
    pub fn end(self, end: SimTime) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.record_span(SpanRecord {
            name: self.name,
            start_us: self.start.as_micros(),
            end_us: end.as_micros(),
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.ctx.parent_id,
            attrs: self.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_us: start,
            end_us: end,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            attrs: vec![],
        }
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let mut t = Tracer::new(3);
        for i in 0..5u64 {
            t.record(span("s", i, i + 1));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let starts: Vec<u64> = t.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![2, 3, 4]);
    }

    #[test]
    fn zero_cap_drops_everything() {
        let mut t = Tracer::new(0);
        t.record(span("s", 0, 1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn jsonl_roundtrip() {
        let rec = SpanRecord {
            name: "medes.restore.base_read",
            start_us: 100,
            end_us: 350,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            attrs: vec![
                ("fn", AttrValue::Str("resnet".into())),
                ("bytes", AttrValue::Uint(4096)),
                ("frac", AttrValue::Float(0.5)),
            ],
        };
        let line = rec.to_json().to_string();
        assert!(!line.contains("trace_id"), "untraced spans omit ids");
        let parsed = SpanRecord::parse_line(&line).expect("parses");
        assert_eq!(parsed.name, "medes.restore.base_read");
        assert_eq!(parsed.dur_us(), 250);
        assert_eq!(parsed.trace_id, 0);
        assert_eq!(parsed.attr("bytes").and_then(|v| v.as_u64()), Some(4096));
        assert_eq!(parsed.attr("fn").and_then(|v| v.as_str()), Some("resnet"));
        assert_eq!(parsed.attr("frac").and_then(|v| v.as_f64()), Some(0.5));
    }

    #[test]
    fn ids_round_trip_through_hex_strings() {
        // Ids near u64::MAX cannot survive an f64 JSON number; the hex
        // string encoding must carry them exactly.
        let rec = SpanRecord {
            name: "medes.restore.op",
            start_us: 1,
            end_us: 2,
            trace_id: u64::MAX - 3,
            span_id: 1 << 63,
            parent_id: 0xdead_beef_cafe_f00d,
            attrs: vec![],
        };
        let parsed = SpanRecord::parse_line(&rec.to_json().to_string()).expect("parses");
        assert_eq!(parsed.trace_id, u64::MAX - 3);
        assert_eq!(parsed.span_id, 1 << 63);
        assert_eq!(parsed.parent_id, 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn eviction_accounting_is_exact() {
        let mut t = Tracer::new(2);
        let mut traced = span("s", 0, 1);
        traced.trace_id = 77;
        traced.span_id = 1;
        t.record(traced); // oldest: will be evicted first
        t.record(span("s", 1, 2));
        assert_eq!(t.dropped(), 0);
        // Two more spans evict both buffered ones: every recorded span
        // is either buffered or counted, traced or not.
        t.record(span("s", 2, 3));
        t.record(span("s", 3, 4));
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.len() as u64 + t.dropped(), 4);
        assert!(t.iter().all(|s| s.trace_id == 0));
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(SpanRecord::parse_line("not json").is_none());
        assert!(SpanRecord::parse_line("{\"span\": 3}").is_none());
        assert!(SpanRecord::parse_line("{}").is_none());
    }
}
