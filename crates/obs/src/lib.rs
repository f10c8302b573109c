//! Structured tracing for the Medes reproduction.
//!
//! Zero-external-dependency observability layer: simulated-time spans
//! ([`Span`]), each written once as one JSONL line into its handle's
//! one destination — the trace file, or an in-memory export capped at
//! [`SPAN_BYTES_CAP`] — then one tail line of the run's named counters
//! and gauges, kept as one name-sorted list and written at the end
//! with the writers a span line uses. A duration is recorded once, as
//! a span; its percentiles are computed from the spans afterwards
//! (`trace report`). All hot paths go through [`Obs`], which is a
//! cheap no-op when [`ObsConfig::enabled`] is false.
//!
//! Naming convention: `medes.<subsystem>.<name>` for both spans and
//! tail entries (see DESIGN.md, "Observability").

#![warn(missing_docs)]

pub mod ids;
pub mod json;
mod sink;
pub mod span;

pub use ids::TraceCtx;
pub use json::{Json, JsonMap, ParseError};
pub use span::{AttrValue, ParsedSpan, Span};

use json::{write_number, write_string};
use medes_sim::SimTime;
use sink::SpanSink;
use std::cell::RefCell;
use std::io;
use std::path::PathBuf;
use std::rc::Rc;

/// Bytes of span lines a handle without a trace file holds for
/// [`Obs::export_jsonl`]: 16 MiB, about 60 000 request spans. Lines
/// past it are still formatted, then discarded and counted by
/// [`Obs::spans_dropped`], so span memory stays bounded on any run.
pub const SPAN_BYTES_CAP: usize = 16 << 20;

/// Bytes of formatted lines a handle with a trace file gathers before
/// writing them to the file.
const FILE_BATCH_BYTES: usize = 64 << 10;

/// Observability configuration, carried on `PlatformConfig`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When false every span/metric call is a no-op.
    pub enabled: bool,
    /// When set, an enabled handle creates this file (and its parent
    /// directories) as it is built, writes every span line to it and
    /// nowhere else, and [`Obs::write_trace`] completes it with the
    /// metrics tail. Span memory is then one write batch, however long
    /// the run. Without it, the lines stay in memory for
    /// [`Obs::export_jsonl`]. The caller names the file: `medes-obs`
    /// numbers nothing.
    pub trace_file: Option<PathBuf>,
}

impl ObsConfig {
    /// An enabled config with no trace file.
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

/// The observability handle of one run. Clone the `Rc<Obs>` into
/// every subsystem of the run; the handle stays on the thread that
/// runs it. Everything it records sits in one `RefCell`, borrowed
/// once per call.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    state: RefCell<State>,
}

/// What an [`Obs`] records. A method holding the borrow never calls
/// another [`Obs`] method: a re-entrant borrow panics.
#[derive(Debug)]
struct State {
    /// The tail's counters and gauges, name-sorted. A duration is a
    /// span, never a tail entry; what is left are facts no span
    /// carries — counts, byte totals and levels.
    tail: Vec<(&'static str, f64)>,
    /// Span lines: every kept line without a trace file, else the
    /// lines not yet written to the file.
    lines: String,
    dest: Dest,
    /// Spans whose lines are in `lines` or the file.
    kept: u64,
    /// Spans formatted, then discarded.
    dropped: u64,
}

/// Where a handle's span lines go.
#[derive(Debug)]
enum Dest {
    /// No trace file: `lines` holds them, up to [`SPAN_BYTES_CAP`].
    Memory,
    /// The trace file.
    File(SpanSink),
    /// Opening or writing the file failed; every later
    /// [`Obs::write_trace`] returns this error.
    Failed(io::Error),
    /// [`Obs::write_trace`] completed the file.
    Done,
}

impl State {
    /// Keeps the span line that `lines` gained past `mark`, or
    /// discards and counts it: past the memory cap, and once the file
    /// failed or was completed. Past the cap, every later line goes
    /// too, so the export is a prefix of the run.
    fn keep(&mut self, mark: usize) {
        let kept = match &mut self.dest {
            Dest::Memory => self.dropped == 0 && self.lines.len() <= SPAN_BYTES_CAP,
            Dest::File(sink) => {
                if self.lines.len() >= FILE_BATCH_BYTES {
                    if let Err(e) = sink.write(&self.lines) {
                        self.dest = Dest::Failed(e);
                    }
                    self.lines.clear();
                }
                true
            }
            Dest::Failed(_) | Dest::Done => false,
        };
        if kept {
            self.kept += 1;
        } else {
            self.lines.truncate(mark);
            self.dropped += 1;
        }
    }

    /// The tail entry named `name`, inserted at 0 if absent.
    fn entry(&mut self, name: &'static str) -> &mut f64 {
        let i = match self.tail.binary_search_by_key(&name, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.tail.insert(i, (name, 0.0));
                i
            }
        };
        &mut self.tail[i].1
    }

    /// The trace export's tail line: one JSON object carrying the
    /// final counters and gauges, so a trace file is a self-contained
    /// run export (`trace report` reads nothing else).
    fn tail(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, &(name, v)) in self.tail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, name);
            out.push(':');
            write_number(&mut out, v);
        }
        out.push_str("}}\n");
        out
    }
}

impl Drop for State {
    /// A handle dropped before [`Obs::write_trace`] (a run that
    /// panicked) still leaves every span it recorded in its file.
    fn drop(&mut self) {
        if let Dest::File(sink) = &mut self.dest {
            let _ = sink.write(&self.lines);
        }
    }
}

impl Obs {
    /// Creates a handle from a config. An enabled handle with a trace
    /// file creates it here; if that fails, the run goes on and
    /// [`Obs::write_trace`] returns the error.
    pub fn new(cfg: ObsConfig) -> Rc<Obs> {
        let dest = match cfg.trace_file.filter(|_| cfg.enabled) {
            Some(path) => match SpanSink::create(path) {
                Ok(sink) => Dest::File(sink),
                Err(e) => Dest::Failed(e),
            },
            None => Dest::Memory,
        };
        Rc::new(Obs {
            enabled: cfg.enabled,
            state: RefCell::new(State {
                tail: Vec::new(),
                lines: String::new(),
                dest,
                kept: 0,
                dropped: 0,
            }),
        })
    }

    /// A permanently-disabled handle (every call is a no-op).
    pub fn disabled() -> Rc<Obs> {
        Obs::new(ObsConfig::default())
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts an untraced (flat) span at `start` (simulated time).
    /// Record it with [`Span::end`]. No allocation happens while
    /// disabled.
    #[inline]
    pub fn span(&self, name: &'static str, start: SimTime) -> Span<'_> {
        self.span_in(name, start, TraceCtx::NONE)
    }

    /// Starts a span at `start` carrying the causal identity `ctx`
    /// (mint it with [`Obs::trace_root`] / [`TraceCtx::child`]).
    #[inline]
    pub fn span_in(&self, name: &'static str, start: SimTime, ctx: TraceCtx) -> Span<'_> {
        Span {
            obs: self,
            name,
            start,
            ctx,
            attrs: Vec::new(),
        }
    }

    /// Mints the deterministic root [`TraceCtx`] for an operation.
    /// `(kind, seed, key)` must uniquely name the operation within the
    /// run; re-minting with the same triple (possibly from a different
    /// subsystem) returns the identical context. Returns
    /// [`TraceCtx::NONE`] when disabled.
    pub fn trace_root(&self, kind: &str, seed: u64, key: u64) -> TraceCtx {
        if !self.enabled {
            return TraceCtx::NONE;
        }
        TraceCtx::root(kind, seed, key)
    }

    /// Formats one span line with `write` straight into the handle's
    /// destination.
    pub(crate) fn record_span(&self, write: impl FnOnce(&mut String)) {
        let mut s = self.state.borrow_mut();
        let mark = s.lines.len();
        write(&mut s.lines);
        s.keep(mark);
    }

    /// Adds to a tail counter (created at 0).
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.state.borrow_mut().entry(name) += delta as f64;
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Sets a tail gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.state.borrow_mut().entry(name) = value;
        }
    }

    /// Spans held in memory or written to the trace file.
    pub fn span_count(&self) -> usize {
        self.state.borrow().kept as usize
    }

    /// Spans formatted, then discarded: past [`SPAN_BYTES_CAP`], or
    /// after the trace file failed or was completed. Every recorded
    /// span is counted here or by [`Obs::span_count`].
    pub fn spans_dropped(&self) -> u64 {
        self.state.borrow().dropped
    }

    /// The spans of [`Obs::export_jsonl`], parsed back.
    pub fn spans(&self) -> Vec<ParsedSpan> {
        parse_jsonl(&self.export_jsonl())
    }

    /// A tail entry's value as a count (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        let s = self.state.borrow();
        let entry = s.tail.iter().find(|e| e.0 == name);
        entry.map_or(0, |e| e.1 as u64)
    }

    /// The run's export held in memory: every span line in recording
    /// order, then one `{"metrics": ...}` tail line — byte for byte
    /// the file the same run writes with a trace file.
    ///
    /// # Panics
    /// When the handle has a trace file (its lines went there) or
    /// dropped a span past [`SPAN_BYTES_CAP`]: a partial export would
    /// read as a complete one.
    pub fn export_jsonl(&self) -> String {
        let s = self.state.borrow();
        if matches!(s.dest, Dest::Memory) && s.dropped == 0 {
            return s.lines.clone() + &s.tail();
        }
        panic!("export_jsonl: the span lines went to a trace file or past the {SPAN_BYTES_CAP}-byte cap ({} dropped)", s.dropped);
    }

    /// Completes the trace file opened by [`Obs::new`] with the
    /// metrics tail. Returns the trace path, or `None` when disabled,
    /// without a trace file, or once the file is complete. If the file
    /// could not be opened or written, every call returns that error.
    pub fn write_trace(&self) -> io::Result<Option<PathBuf>> {
        let mut state = self.state.borrow_mut();
        let s = &mut *state;
        if matches!(s.dest, Dest::File(_)) {
            let Dest::File(sink) = std::mem::replace(&mut s.dest, Dest::Done) else {
                unreachable!()
            };
            match sink.finish(&std::mem::take(&mut s.lines), &s.tail()) {
                Ok(path) => return Ok(Some(path)),
                Err(e) => s.dest = Dest::Failed(e),
            }
        }
        match &s.dest {
            Dest::Failed(e) => Err(io::Error::new(e.kind(), e.to_string())),
            _ => Ok(None),
        }
    }
}

/// The tail object of a JSONL trace export (see [`Obs::export_jsonl`]):
/// the last well-formed line carrying a `"metrics"` key — span lines
/// parse too, but lack it. `None` for an export cut short of its tail.
pub fn parse_tail(contents: &str) -> Option<Json> {
    contents
        .lines()
        .rev()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("metrics").is_some())
}

/// Reads spans back from a JSONL trace file's contents, skipping the
/// metrics tail line and any malformed lines.
pub fn parse_jsonl(contents: &str) -> Vec<ParsedSpan> {
    contents
        .lines()
        .filter_map(ParsedSpan::parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn span_records_with_attrs() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.span("medes.dedup.op", t(10))
            .attr("fn", "resnet")
            .attr("bytes", 4096u64)
            .end(t(250));
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "medes.dedup.op");
        assert_eq!(spans[0].dur_us(), 240);
        assert_eq!(spans[0].attr("fn"), Some(&Json::Str("resnet".into())));
    }

    /// Counters add, gauges overwrite, an absent name reads 0, and the
    /// tail line lists each name once, name-sorted.
    #[test]
    fn registry_counters_and_gauges() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.counter_add("medes.platform.starts.warm", 1);
        obs.counter_add("medes.platform.starts.warm", 2);
        obs.gauge_set("medes.registry.entries", 41.0);
        obs.gauge_set("medes.registry.entries", 42.5);
        obs.counter_add("medes.net.rpc_us_total", 10);
        obs.counter_add("medes.dedup.ops", 0);
        assert_eq!(obs.counter("medes.platform.starts.warm"), 3);
        assert_eq!(obs.counter("absent"), 0);
        assert_eq!(
            obs.export_jsonl(),
            "{\"metrics\":{\"medes.dedup.ops\":0,\"medes.net.rpc_us_total\":10,\
             \"medes.platform.starts.warm\":3,\"medes.registry.entries\":42.5}}\n"
        );
        let tail = parse_tail(&obs.export_jsonl()).unwrap();
        assert_eq!(tail["metrics"]["medes.platform.starts.warm"], 3);
        assert_eq!(tail["metrics"]["medes.registry.entries"], 42.5);
    }

    #[test]
    fn disabled_is_a_noop() {
        let obs = Obs::disabled();
        obs.span("medes.dedup.op", t(0)).attr("k", 1u64).end(t(100));
        obs.incr("medes.platform.arrivals");
        obs.gauge_set("medes.registry.entries", 1.0);
        obs.counter_add("medes.net.rdma_batch_us_total", 5);
        assert_eq!(obs.span_count(), 0);
        assert_eq!(obs.spans_dropped(), 0);
        assert_eq!(obs.counter("medes.platform.arrivals"), 0);
        assert!(obs.state.borrow().tail.is_empty());
        assert_eq!(obs.write_trace().unwrap(), None);
    }

    #[test]
    fn disabled_span_does_not_allocate_attrs() {
        let obs = Obs::disabled();
        let span = obs.span("medes.test", t(0)).attr("a", 1u64).attr("b", "x");
        assert_eq!(span.attrs.capacity(), 0);
    }

    /// An enabled span's first attr reserves room for every attr a
    /// span carries, so a seven-attr request span allocates once; a
    /// bare span allocates nothing.
    #[test]
    fn enabled_span_allocates_attrs_once() {
        let obs = Obs::new(ObsConfig::enabled());
        assert_eq!(obs.span("medes.test", t(0)).attrs.capacity(), 0);
        let keys = ["a", "b", "c", "d", "e", "f", "g"];
        let span = keys
            .iter()
            .fold(obs.span("medes.test", t(0)), |s, k| s.attr(k, 1u64));
        assert_eq!(span.attrs.capacity(), keys.len());
        span.end(t(1));
    }

    /// Lines past the byte cap are formatted, discarded and counted,
    /// later small ones included, and the partial export refuses to be
    /// read.
    #[test]
    fn buffer_cap_is_respected() {
        let obs = Obs::new(ObsConfig::enabled());
        let big = "x".repeat(SPAN_BYTES_CAP / 4);
        for i in 0..10u64 {
            let span = obs.span("s", t(i));
            let span = if i < 5 {
                span.attr("pad", big.as_str())
            } else {
                span
            };
            span.end(t(i + 1));
        }
        assert_eq!(obs.span_count(), 3);
        assert_eq!(obs.spans_dropped(), 7);
        let export = std::panic::catch_unwind(AssertUnwindSafe(|| obs.export_jsonl()));
        assert!(export.is_err(), "a partial export must not be read");
    }

    #[test]
    fn export_and_parse_jsonl() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.span("medes.restore.base_read", t(100))
            .attr("bytes", 8192u64)
            .end(t(400));
        obs.span("medes.restore.ckpt", t(400)).end(t(900));
        obs.incr("medes.platform.starts.dedup");
        let text = obs.export_jsonl();
        assert_eq!(text.lines().count(), 3); // 2 spans + metrics tail
        let spans = parse_jsonl(&text);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "medes.restore.base_read");
        assert_eq!(spans[0].dur_us(), 300);
        assert_eq!(spans[1].dur_us(), 500);
        // Metrics tail is valid JSON.
        let tail = text.lines().last().unwrap();
        let v = json::parse(tail).unwrap();
        assert_eq!(v["metrics"]["medes.platform.starts.dedup"], 1);
    }

    #[test]
    fn trace_root_is_deterministic_and_links_spans() {
        let obs = Obs::new(ObsConfig::enabled());
        let root = obs.trace_root("request", 7, 99);
        assert!(root.is_traced());
        assert_eq!(root, obs.trace_root("request", 7, 99));
        let child = root.child("medes.restore.op", 0);
        obs.span_in("medes.platform.request", t(0), root).end(t(10));
        obs.span_in("medes.restore.op", t(0), child).end(t(5));
        let spans = obs.spans();
        assert_eq!(spans[0].trace_id, root.trace_id);
        assert_eq!(spans[0].parent_id, 0);
        assert_eq!(spans[1].trace_id, root.trace_id);
        assert_eq!(spans[1].parent_id, root.span_id);
        // The linkage survives the JSONL round-trip.
        let parsed = parse_jsonl(&obs.export_jsonl());
        assert_eq!(parsed[1].parent_id, parsed[0].span_id);
        assert_eq!(parsed[1].trace_id, parsed[0].trace_id);
    }

    /// Property test: a seeded `DetRng` span forest survives the
    /// writer and `parse_jsonl` exactly, every `AttrValue` variant and
    /// the causal ids included.
    #[test]
    fn jsonl_round_trip_preserves_a_random_span_forest() {
        use medes_sim::DetRng;
        let mut rng = DetRng::new(0x0b5f_04e5_7000_0001);
        let obs = Obs::new(ObsConfig::enabled());
        let mut expected: Vec<(&str, u64, u64, TraceCtx, Vec<Json>)> = Vec::new();
        const NAMES: [&str; 4] = ["medes.a.root", "medes.b.mid", "medes.c.leaf", "medes.d.x"];
        for trace in 0..40u64 {
            let root = obs.trace_root("forest", 3, trace);
            // A chain of 1..=4 spans, randomly re-parented to simulate
            // sibling branches.
            let mut parents = vec![root];
            let n = 1 + rng.below(4) as usize;
            for d in 0..n {
                let parent = parents[rng.below(parents.len() as u64) as usize];
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                let ctx = parent.child(name, d as u64);
                parents.push(ctx);
                let start = rng.below(1 << 40);
                let end = start + rng.below(1 << 20);
                let mut span = obs.span_in(name, t(start), ctx);
                let mut attrs = Vec::new();
                // Every AttrValue variant; uints capped to f64-exact.
                if rng.chance(0.8) {
                    let u = rng.below(1 << 53);
                    span = span.attr("u", u);
                    attrs.push(Json::from(u));
                }
                if rng.chance(0.8) {
                    let f = rng.f64();
                    span = span.attr("f", f);
                    attrs.push(Json::from(f));
                }
                let s: String = (0..rng.below(12))
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                if rng.chance(0.8) {
                    span = span.attr("s", s.as_str());
                    attrs.push(Json::from(s.as_str()));
                }
                span.end(t(end));
                expected.push((name, start, end, ctx, attrs));
            }
        }
        let parsed = parse_jsonl(&obs.export_jsonl());
        assert_eq!(parsed.len(), expected.len());
        for (p, (name, start, end, ctx, attrs)) in parsed.iter().zip(&expected) {
            assert_eq!(p.name, *name);
            assert_eq!((p.start_us, p.end_us), (*start, *end));
            assert_eq!(
                (p.trace_id, p.span_id, p.parent_id),
                (ctx.trace_id, ctx.span_id, ctx.parent_id)
            );
            let got: Vec<&Json> = p.attrs.iter().map(|(_, v)| v).collect();
            assert_eq!(got, attrs.iter().collect::<Vec<_>>());
        }
    }

    /// Property test: a seeded random span forest written to the trace
    /// file produces a file byte-identical to what [`Obs::export_jsonl`]
    /// returns on a handle with no trace file fed the identical spans;
    /// the file's handle holds nothing in memory to export, and the
    /// file holds every span it counts.
    #[test]
    fn streamed_export_is_byte_identical_to_buffered() {
        use medes_sim::DetRng;
        let dir = std::env::temp_dir().join(format!("medes-obs-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let streamed = Obs::new(ObsConfig {
            trace_file: Some(dir.join("trace.jsonl")),
            ..ObsConfig::enabled()
        });
        let buffered = Obs::new(ObsConfig::enabled());
        let mut rng = DetRng::new(0x57e4_3a1d_0000_0002);
        const NAMES: [&str; 3] = ["medes.a.root", "medes.b.mid", "medes.c.leaf"];
        // Enough spans to fill several file batches.
        for trace in 0..2000u64 {
            let root = streamed.trace_root("file-prop", 9, trace);
            let n = 1 + rng.below(4) as usize;
            for d in 0..n {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                let ctx = root.child(name, d as u64);
                let start = rng.below(1 << 40);
                let end = start + rng.below(1 << 20);
                let tagged = rng.chance(0.5);
                for obs in [&streamed, &buffered] {
                    let mut span = obs.span_in(name, t(start), ctx);
                    if tagged {
                        span = span.attr("u", trace * 100 + d as u64);
                    }
                    span.end(t(end));
                    obs.incr("medes.test.ops");
                }
            }
        }
        assert_eq!(streamed.span_count(), buffered.span_count());
        assert_eq!(streamed.spans_dropped(), 0);
        assert!(std::panic::catch_unwind(AssertUnwindSafe(|| streamed.export_jsonl())).is_err());
        let path = streamed.write_trace().unwrap().expect("streamed path");
        let file = std::fs::read_to_string(&path).unwrap();
        assert!(file.len() > 4 * FILE_BATCH_BYTES);
        assert_eq!(file, buffered.export_jsonl());
        assert_eq!(parse_jsonl(&file).len(), streamed.span_count());
        // A complete file is not written twice; spans after it are
        // discarded and counted.
        assert_eq!(streamed.write_trace().unwrap(), None);
        streamed.span("s", t(0)).end(t(1));
        assert_eq!(streamed.spans_dropped(), 1);
        assert!(file.ends_with(&format!(
            "{{\"metrics\":{{\"medes.test.ops\":{}}}}}\n",
            streamed.counter("medes.test.ops")
        )));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A handle dropped without `write_trace` leaves its spans, and no
    /// tail, in the file.
    #[test]
    fn dropped_handle_leaves_its_spans_in_the_file() {
        let dir = std::env::temp_dir().join(format!("medes-obs-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = dir.join("trace.jsonl");
        let obs = Obs::new(ObsConfig {
            trace_file: Some(file.clone()),
            ..ObsConfig::enabled()
        });
        obs.span("s", t(0)).end(t(1));
        drop(obs);
        let contents = std::fs::read_to_string(file).unwrap();
        assert_eq!(parse_jsonl(&contents).len(), 1);
        assert!(parse_tail(&contents).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_trace_creates_directories() {
        let dir = std::env::temp_dir().join(format!("medes-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Obs::new(ObsConfig {
            trace_file: Some(dir.join("nested").join("trace.jsonl")),
            ..ObsConfig::enabled()
        });
        obs.span("s", t(0)).end(t(1));
        let path = obs.write_trace().unwrap().expect("path");
        assert!(path.exists());
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_jsonl(&contents).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
