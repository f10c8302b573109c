//! Simulated-time spans, each written once as one JSONL line.
//!
//! A span marks one timed phase of the pipeline (e.g.
//! `medes.restore.base_read`) between two [`SimTime`] points, plus
//! key-value attributes. [`Span::end`] formats the span's line straight
//! into its handle's one destination (the trace file, or the in-memory
//! export of [`crate::Obs::export_jsonl`]); no record of it is kept.

use crate::ids::TraceCtx;
use crate::json::{write_number, write_string, Json};
use medes_sim::SimTime;

/// Reads a trace/span id back from its exported form (16 hex digits
/// in a JSON string); `0` — the untraced id — when absent or malformed.
pub fn parse_id(v: Option<&Json>) -> u64 {
    v.and_then(|j| j.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0)
}

/// One attribute value on a span. A string is borrowed until the span
/// ends, so tagging a span with a name copies nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// An unsigned integer (ids, byte counts, microseconds).
    Uint(u64),
    /// A float (ratios, rates).
    Float(f64),
    /// A string (function names, start types).
    Str(&'a str),
}

impl From<u64> for AttrValue<'_> {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue<'_> {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<u32> for AttrValue<'_> {
    fn from(v: u32) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<f64> for AttrValue<'_> {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(v: &'a str) -> Self {
        AttrValue::Str(v)
    }
}

/// A span read back from a JSONL trace file (owned keys, dynamic
/// values) — what `trace report` consumes.
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
    /// Parses one JSONL line written by [`Span::end`]; `None` for the
    /// metrics tail and for malformed lines.
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

    /// Span duration in microseconds (saturating).
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The attribute under `key`.
    pub fn attr(&self, key: &str) -> Option<&Json> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Attributes a span has room for at its first [`Span::attr`]: the
/// most any span carries (a request span's seven).
const SPAN_ATTRS: usize = 7;

/// In-flight span builder. Obtained from [`crate::Obs::span`] (flat,
/// untraced) or [`crate::Obs::span_in`] (carrying a [`TraceCtx`]);
/// call [`Span::end`] with the phase end time to record it.
#[derive(Debug)]
pub struct Span<'a> {
    pub(crate) obs: &'a crate::Obs,
    pub(crate) name: &'static str,
    pub(crate) start: SimTime,
    pub(crate) ctx: TraceCtx,
    pub(crate) attrs: Vec<(&'static str, AttrValue<'a>)>,
}

impl<'a> Span<'a> {
    /// Adds an attribute (no-op when observability is disabled). Keys
    /// are distinct within a span. The first one reserves room for the
    /// most any span carries, so a span allocates its attributes once.
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue<'a>>) -> Self {
        if self.obs.enabled() {
            if self.attrs.capacity() == 0 {
                self.attrs.reserve_exact(SPAN_ATTRS);
            }
            self.attrs.push((key, value.into()));
        }
        self
    }

    /// Finishes the span at `end` and writes its line.
    pub fn end(self, end: SimTime) {
        if self.obs.enabled() {
            self.obs
                .record_span(|out| self.write_line(out, end.as_micros()));
        }
    }

    /// Appends the span's JSONL line, ended at `end_us`, to `out`: the
    /// keys `span, start_us, end_us, dur_us`, then the ids when traced
    /// (`parent_id` only below a root), then `attrs` when there are any.
    /// Integers are JSON numbers, ids 16-hex-digit strings (a JSON
    /// number is an f64 and would round them).
    fn write_line(&self, out: &mut String, end_us: u64) {
        let start_us = self.start.as_micros();
        out.push_str("{\"span\":");
        write_string(out, self.name);
        for (key, v) in [
            (",\"start_us\":", start_us),
            (",\"end_us\":", end_us),
            (",\"dur_us\":", end_us.saturating_sub(start_us)),
        ] {
            out.push_str(key);
            write_number(out, v as f64);
        }
        let TraceCtx {
            trace_id,
            span_id,
            parent_id,
        } = self.ctx;
        if trace_id != 0 {
            write_id(out, ",\"trace_id\":", trace_id);
            write_id(out, ",\"span_id\":", span_id);
            if parent_id != 0 {
                write_id(out, ",\"parent_id\":", parent_id);
            }
        }
        for (i, (key, v)) in self.attrs.iter().enumerate() {
            out.push_str(if i == 0 { ",\"attrs\":{" } else { "," });
            write_string(out, key);
            out.push(':');
            match *v {
                AttrValue::Uint(u) => write_number(out, u as f64),
                AttrValue::Float(f) => write_number(out, f),
                AttrValue::Str(s) => write_string(out, s),
            }
        }
        if !self.attrs.is_empty() {
            out.push('}');
        }
        out.push_str("}\n");
    }
}

/// Appends `key` and then `id` as a string of 16 hex digits.
fn write_id(out: &mut String, key: &str, id: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let digits: [u8; 16] = std::array::from_fn(|i| HEX[(id >> (60 - 4 * i)) as usize & 0xf]);
    out.push_str(key);
    out.push('"');
    out.push_str(std::str::from_utf8(&digits).expect("hex digits"));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonMap;
    use crate::{Obs, ObsConfig};
    use medes_sim::DetRng;

    /// The span's line as a `Json` tree rendered by the char-by-char
    /// writers below: the writer's reference. Attr values are owned
    /// here, so the test can keep them past the span.
    fn reference_line(
        name: &str,
        (start_us, end_us): (u64, u64),
        ctx: TraceCtx,
        attrs: &[(&str, Attr)],
    ) -> String {
        let id_hex = |id: u64| format!("{id:016x}");
        let mut obj = JsonMap::new();
        obj.insert("span", name);
        obj.insert("start_us", start_us);
        obj.insert("end_us", end_us);
        obj.insert("dur_us", end_us.saturating_sub(start_us));
        if ctx.trace_id != 0 {
            obj.insert("trace_id", id_hex(ctx.trace_id));
            obj.insert("span_id", id_hex(ctx.span_id));
            if ctx.parent_id != 0 {
                obj.insert("parent_id", id_hex(ctx.parent_id));
            }
        }
        let mut map = JsonMap::new();
        for (k, v) in attrs {
            map.insert(*k, v.to_json());
        }
        if !map.is_empty() {
            obj.insert("attrs", Json::Object(map));
        }
        let obj = Json::Object(obj);
        let mut out = String::new();
        render(&mut out, &obj);
        // `Json`'s own rendering shares the span writer's number and
        // string writers, so it must match the reference too.
        assert_eq!(obj.to_string(), out);
        out + "\n"
    }

    /// Renders a span's `Json` tree (objects, strings and numbers).
    fn render(out: &mut String, v: &Json) {
        use std::fmt::Write as _;
        match v {
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        '\u{8}' => out.push_str("\\b"),
                        '\u{c}' => out.push_str("\\f"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(out, &Json::Str(k.to_string()));
                    out.push(':');
                    render(out, v);
                }
                out.push('}');
            }
            other => unreachable!("no {other:?} in a span"),
        }
    }

    /// An owned attribute value.
    #[derive(Debug, Clone)]
    enum Attr {
        Uint(u64),
        Float(f64),
        Str(String),
    }

    impl Attr {
        fn to_json(&self) -> Json {
            match self {
                Attr::Uint(u) => Json::Num(*u as f64),
                Attr::Float(f) => Json::Num(*f),
                Attr::Str(s) => Json::Str(s.clone()),
            }
        }

        fn borrowed(&self) -> AttrValue<'_> {
            match self {
                Attr::Uint(u) => AttrValue::Uint(*u),
                Attr::Float(f) => AttrValue::Float(*f),
                Attr::Str(s) => AttrValue::Str(s),
            }
        }
    }

    fn random_string(rng: &mut DetRng) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'é', '😀',
        ];
        (0..rng.below(10))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn random_attr(rng: &mut DetRng) -> Attr {
        match rng.below(9) {
            0 => Attr::Uint(rng.below(1 << 20)),
            1 => Attr::Uint((1 << 53) + rng.below(1 << 62)),
            2 => Attr::Uint(u64::MAX - rng.below(3)),
            3 => Attr::Float(rng.f64() * 1e6 - 5e5),
            4 => Attr::Float(rng.below(1 << 30) as f64 - (1 << 29) as f64),
            5 => Attr::Float(
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.below(4) as usize],
            ),
            6 => Attr::Float(1e300 * rng.f64()),
            _ => Attr::Str(random_string(rng)),
        }
    }

    /// The writer renders every span byte for byte as the `Json` tree
    /// does: 600 seeded spans over every attr kind, integers past 2^53,
    /// non-integral and non-finite floats, escapes and non-ASCII, and
    /// untraced, root and child ids.
    #[test]
    fn writer_matches_the_json_tree_rendering() {
        const KEYS: [&str; 5] = ["fn", "bytes", "q\"k", "é", "node"];
        let mut rng = DetRng::new(0x5a1e_0046_0000_0001);
        let obs = Obs::new(ObsConfig::enabled());
        let mut expected = String::new();
        for i in 0..600u64 {
            let root = TraceCtx::root("ref", 1, i);
            let ctx = match rng.below(3) {
                0 => TraceCtx::NONE,
                1 => root,
                _ => root.child("medes.ref.child", i),
            };
            let start = if rng.chance(0.1) {
                u64::MAX >> 1
            } else {
                rng.below(1 << 40)
            };
            let end = if rng.chance(0.1) {
                start / 2
            } else {
                start + rng.below(1 << 20)
            };
            let n = rng.below(KEYS.len() as u64 + 1) as usize;
            let attrs: Vec<(&str, Attr)> = KEYS[..n]
                .iter()
                .map(|&k| (k, random_attr(&mut rng)))
                .collect();
            let name = ["medes.a.op", "medes.\"q\"\\b"][rng.below(2) as usize];
            expected.push_str(&reference_line(name, (start, end), ctx, &attrs));
            let mut span = obs.span_in(name, SimTime::from_micros(start), ctx);
            for (k, v) in &attrs {
                span = span.attr(k, v.borrowed());
            }
            span.end(SimTime::from_micros(end));
        }
        let export = obs.export_jsonl();
        let spans = &export[..export.rfind("{\"metrics\"").unwrap()];
        assert_eq!(spans, expected);
    }

    #[test]
    fn jsonl_roundtrip() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.span("medes.restore.base_read", SimTime::from_micros(100))
            .attr("fn", "resnet")
            .attr("bytes", 4096u64)
            .attr("frac", 0.5)
            .end(SimTime::from_micros(350));
        let export = obs.export_jsonl();
        let line = export.lines().next().unwrap();
        assert!(!line.contains("trace_id"), "untraced spans omit ids");
        let parsed = ParsedSpan::parse_line(line).expect("parses");
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
        let obs = Obs::new(ObsConfig::enabled());
        let ctx = TraceCtx {
            trace_id: u64::MAX - 3,
            span_id: 1 << 63,
            parent_id: 0xdead_beef_cafe_f00d,
        };
        obs.span_in("medes.restore.op", SimTime::from_micros(1), ctx)
            .end(SimTime::from_micros(2));
        let parsed = &obs.spans()[0];
        assert_eq!(parsed.trace_id, u64::MAX - 3);
        assert_eq!(parsed.span_id, 1 << 63);
        assert_eq!(parsed.parent_id, 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(ParsedSpan::parse_line("not json").is_none());
        assert!(ParsedSpan::parse_line("{\"span\": 3}").is_none());
        assert!(ParsedSpan::parse_line("{}").is_none());
    }
}
