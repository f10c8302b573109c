//! Structured tracing and metrics for the Medes reproduction.
//!
//! Zero-external-dependency observability layer: simulated-time spans
//! ([`Span`]) in a bounded ring buffer exportable as JSONL, plus a
//! [`MetricsRegistry`] of named counters and gauges. A duration is
//! recorded once, as a span; its percentiles are computed from the
//! spans afterwards (`trace report`). All hot paths go through
//! [`Obs`], which is a cheap no-op when [`ObsConfig::enabled`] is
//! false.
//!
//! Naming convention: `medes.<subsystem>.<name>` for both spans and
//! metrics (see DESIGN.md, "Observability").

#![warn(missing_docs)]

pub mod ids;
pub mod json;
pub mod metrics;
mod sink;
pub mod span;

pub use ids::TraceCtx;
pub use json::{Json, JsonMap, ParseError};
pub use metrics::{Metric, MetricsRegistry, TYPE_MISMATCH_METRIC};
pub use span::{AttrValue, ParsedSpan, Span, SpanRecord, Tracer};

use medes_sim::SimTime;
use sink::SpanSink;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Observability configuration, carried on `PlatformConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When false every span/metric call is a no-op.
    pub enabled: bool,
    /// Ring-buffer capacity for spans. The buffer keeps the most
    /// recent `span_buffer_cap` finished spans for in-process readers
    /// ([`Obs::spans`], [`Obs::export_jsonl`]); once full, each new
    /// span evicts the oldest one and [`Obs::spans_dropped`] counts it
    /// (exactly — every recorded span is either buffered or counted).
    /// The exported trace file holds every span whatever the ring
    /// size: spans reach it before they can be evicted.
    pub span_buffer_cap: usize,
    /// When set, an enabled handle creates `trace-run-<n>.jsonl` here
    /// as it is built (`n` numbers the handles of one process), writes
    /// each span to it the moment the span is recorded, and
    /// [`Obs::write_trace`] completes it with the metrics tail. Long
    /// traces thus run in O(ring) memory while the file stays complete.
    pub export_dir: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            span_buffer_cap: 1 << 16,
            export_dir: None,
        }
    }
}

impl ObsConfig {
    /// An enabled config with default buffer size and no export.
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Sets the export directory in place — the composition-friendly
    /// setter for callers holding a `&mut ObsConfig` (harness flag
    /// loops, config tweaks) that the consuming builder style forced
    /// into rebind chains.
    pub fn set_export_dir(&mut self, dir: impl Into<PathBuf>) {
        self.export_dir = Some(dir.into());
    }
}

/// Distinguishes trace files exported by successive runs within one
/// process (simulated time restarts at zero each run, so wall-clock or
/// sim time can't disambiguate).
static EXPORT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shared observability handle. Clone the `Arc<Obs>` into every
/// subsystem; interior mutability keeps call sites borrow-friendly.
/// Everything it records sits behind one lock, taken once per call.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    state: Mutex<State>,
}

/// What an [`Obs`] records. A method holding the guard never calls
/// another locking method: the lock is not reentrant.
#[derive(Debug)]
struct State {
    tracer: Tracer,
    metrics: MetricsRegistry,
    /// The trace file: `Ok(None)` without an export dir or once
    /// finished; `Err` once opening or writing it failed, which every
    /// later [`Obs::write_trace`] returns.
    sink: io::Result<Option<SpanSink>>,
    /// Exact count of spans written to the trace file. It survives
    /// [`Obs::write_trace`], and while the file is open every recorded
    /// span satisfies `streamed == buffered + dropped`.
    streamed: u64,
}

impl State {
    /// The trace export's tail line: one JSON object carrying the
    /// final counters and gauges, so a trace file is a self-contained
    /// run export (`trace report` reads nothing else).
    fn tail(&self) -> String {
        let mut tail = JsonMap::new();
        tail.insert("metrics", self.metrics.to_json());
        let mut out = Json::Object(tail).to_string();
        out.push('\n');
        out
    }
}

impl Obs {
    /// Creates a handle from a config. An enabled handle with an
    /// export dir creates its trace file here; if that fails, the run
    /// goes on and [`Obs::write_trace`] returns the error.
    pub fn new(cfg: ObsConfig) -> Arc<Obs> {
        let cap = if cfg.enabled { cfg.span_buffer_cap } else { 0 };
        let sink = match cfg.export_dir.as_ref().filter(|_| cfg.enabled) {
            Some(dir) => {
                let seq = EXPORT_SEQ.fetch_add(1, Ordering::Relaxed);
                SpanSink::create(dir.join(format!("trace-run-{seq}.jsonl"))).map(Some)
            }
            None => Ok(None),
        };
        Arc::new(Obs {
            enabled: cfg.enabled,
            state: Mutex::new(State {
                tracer: Tracer::new(cap),
                metrics: MetricsRegistry::new(),
                sink,
                streamed: 0,
            }),
        })
    }

    /// A permanently-disabled handle (every call is a no-op).
    pub fn disabled() -> Arc<Obs> {
        Obs::new(ObsConfig::default())
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap()
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

    pub(crate) fn record_span(&self, span: SpanRecord) {
        let mut guard = self.state();
        let s = &mut *guard;
        // The span reaches the file before it can be evicted from the
        // ring, so ring overflow never loses data. A write error closes
        // the file for good rather than failing once per span.
        if let Ok(Some(sink)) = &mut s.sink {
            match sink.write_span(&span) {
                Ok(()) => s.streamed += 1,
                Err(e) => s.sink = Err(e),
            }
        }
        s.tracer.record(span);
    }

    /// Adds to a counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.enabled {
            self.state().metrics.counter_add(name, delta);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.state().metrics.gauge_set(name, value);
        }
    }

    /// Number of spans currently buffered.
    pub fn span_count(&self) -> usize {
        self.state().tracer.len()
    }

    /// Spans evicted due to a full buffer (exact; see
    /// [`Tracer::dropped`]).
    pub fn spans_dropped(&self) -> u64 {
        self.state().tracer.dropped()
    }

    /// Exact count of spans written to the trace file (0 without an
    /// export dir). Every recorded span is written before it can be
    /// evicted, so the accounting closes exactly:
    /// `spans_streamed() == span_count() + spans_dropped()`.
    pub fn spans_streamed(&self) -> u64 {
        self.state().streamed
    }

    /// Copies out all buffered spans, oldest-first (buffer unchanged).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state().tracer.iter().cloned().collect()
    }

    /// Name-sorted metrics snapshot.
    pub fn metrics_snapshot(&self) -> Vec<(&'static str, Metric)> {
        self.state().metrics.snapshot()
    }

    /// Current counter value (0 if absent; [`TYPE_MISMATCH_METRIC`]
    /// reads the count of dropped mismatched writes).
    pub fn counter(&self, name: &str) -> u64 {
        self.state().metrics.counter(name)
    }

    /// Renders the buffered spans as JSONL (one span object per line,
    /// oldest first), followed by one `{"metrics": ...}` tail line.
    /// Until the ring overflows this is, byte for byte, the file
    /// [`Obs::write_trace`] completes.
    pub fn export_jsonl(&self) -> String {
        let s = self.state();
        let mut out = String::new();
        for span in s.tracer.iter() {
            out.push_str(&span.to_json().to_string());
            out.push('\n');
        }
        out.push_str(&s.tail());
        out
    }

    /// Completes the trace file opened by [`Obs::new`] with the
    /// metrics tail. Returns the trace path, or `None` when disabled,
    /// without an export dir, or once the file is complete. If the file
    /// could not be opened or written, every call returns that error.
    pub fn write_trace(&self) -> io::Result<Option<PathBuf>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let sink = match &mut s.sink {
            Ok(sink) => sink.take(),
            Err(e) => return Err(io::Error::new(e.kind(), e.to_string())),
        };
        match sink {
            Some(sink) => sink.finish(&s.tail()).map(Some),
            None => Ok(None),
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
        .filter_map(SpanRecord::parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(spans[0].attr("fn"), Some(&AttrValue::Str("resnet".into())));
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
        assert!(obs.metrics_snapshot().is_empty());
        assert_eq!(obs.write_trace().unwrap(), None);
    }

    #[test]
    fn disabled_span_does_not_allocate_attrs() {
        let obs = Obs::disabled();
        let span = obs.span("medes.test", t(0)).attr("a", 1u64).attr("b", "x");
        assert_eq!(span.attrs.capacity(), 0);
    }

    #[test]
    fn buffer_cap_is_respected() {
        let cfg = ObsConfig {
            enabled: true,
            span_buffer_cap: 4,
            ..ObsConfig::default()
        };
        let obs = Obs::new(cfg);
        for i in 0..10u64 {
            obs.span("s", t(i)).end(t(i + 1));
        }
        assert_eq!(obs.span_count(), 4);
        assert_eq!(obs.spans_dropped(), 6);
        assert_eq!(obs.spans()[0].start_us, 6);
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

    /// Satellite: property test — a seeded `DetRng` span forest
    /// survives `to_json` → `parse_jsonl` exactly, every `AttrValue`
    /// variant and the causal ids included.
    #[test]
    fn jsonl_round_trip_preserves_a_random_span_forest() {
        use medes_sim::DetRng;
        let mut rng = DetRng::new(0x0b5f_04e5_7000_0001);
        let obs = Obs::new(ObsConfig::enabled());
        let mut expected: Vec<SpanRecord> = Vec::new();
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
                // Every AttrValue variant; uints capped to f64-exact.
                if rng.chance(0.8) {
                    span = span.attr("u", rng.below(1 << 53));
                }
                if rng.chance(0.8) {
                    span = span.attr("f", rng.f64());
                }
                if rng.chance(0.8) {
                    let s: String = (0..rng.below(12))
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect();
                    span = span.attr("s", s);
                }
                span.end(t(end));
                expected.push(obs.spans().last().unwrap().clone());
            }
        }
        let parsed = parse_jsonl(&obs.export_jsonl());
        assert_eq!(parsed.len(), expected.len());
        for (p, e) in parsed.iter().zip(&expected) {
            assert_eq!(p.name, e.name);
            assert_eq!(p.start_us, e.start_us);
            assert_eq!(p.end_us, e.end_us);
            assert_eq!(p.trace_id, e.trace_id);
            assert_eq!(p.span_id, e.span_id);
            assert_eq!(p.parent_id, e.parent_id);
            assert_eq!(p.attrs.len(), e.attrs.len());
            for (k, v) in &e.attrs {
                let got = p.attr(k).expect("attr survives");
                match v {
                    AttrValue::Uint(u) => assert_eq!(got.as_u64(), Some(*u)),
                    AttrValue::Float(f) => assert_eq!(got.as_f64(), Some(*f)),
                    AttrValue::Str(s) => assert_eq!(got.as_str(), Some(s.as_str())),
                }
            }
        }
    }

    /// Property test: a seeded random span forest streamed to the
    /// trace file produces a file byte-identical to what the in-memory
    /// [`Obs::export_jsonl`] emits for the same spans — on the
    /// exporting handle itself *and* on an independent handle with no
    /// export dir fed the identical spans.
    #[test]
    fn streamed_export_is_byte_identical_to_buffered() {
        use medes_sim::DetRng;
        let dir = std::env::temp_dir().join(format!("medes-obs-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut stream_cfg = ObsConfig::enabled();
        stream_cfg.set_export_dir(&dir);
        let streamed = Obs::new(stream_cfg);
        let buffered = Obs::new(ObsConfig::enabled());
        let mut rng = DetRng::new(0x57e4_3a1d_0000_0002);
        const NAMES: [&str; 3] = ["medes.a.root", "medes.b.mid", "medes.c.leaf"];
        for trace in 0..60u64 {
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
        let path = streamed.write_trace().unwrap().expect("streamed path");
        let file = std::fs::read_to_string(&path).unwrap();
        assert_eq!(file, streamed.export_jsonl());
        assert_eq!(file, buffered.export_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ring eviction is observable — the ring stays bounded, the
    /// accounting closes exactly (`streamed == buffered + dropped`),
    /// recording spans writes no metric, and the on-disk trace still
    /// holds every span.
    #[test]
    fn streamed_ring_is_bounded_with_exact_accounting() {
        let dir = std::env::temp_dir().join(format!("medes-obs-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ObsConfig {
            span_buffer_cap: 8,
            ..ObsConfig::enabled()
        };
        cfg.set_export_dir(&dir);
        let obs = Obs::new(cfg);
        for key in 0..100u64 {
            let root = obs.trace_root("op", 2, key);
            obs.span_in("medes.test.op", t(key), root).end(t(key + 1));
        }
        assert_eq!(obs.span_count(), 8);
        assert_eq!(obs.spans_dropped(), 92);
        assert_eq!(obs.spans_streamed(), 100);
        assert_eq!(
            obs.spans_streamed(),
            obs.span_count() as u64 + obs.spans_dropped()
        );
        assert!(obs.metrics_snapshot().is_empty());
        let path = obs.write_trace().unwrap().expect("path");
        let contents = std::fs::read_to_string(&path).unwrap();
        // Every streamed span is on disk despite the tiny ring.
        assert_eq!(parse_jsonl(&contents).len(), 100);
        // A complete file is not written twice, and its count stays.
        assert_eq!(obs.write_trace().unwrap(), None);
        assert_eq!(obs.spans_streamed(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: the `&mut self` export-dir setter composes without
    /// rebind chains (the old `export_to` builder shim is gone).
    #[test]
    fn set_export_dir_composes_in_place() {
        let mut a = ObsConfig::enabled();
        a.set_export_dir("/tmp/medes-x");
        let mut b = ObsConfig::enabled();
        b.export_dir = Some("/tmp/medes-x".into());
        assert_eq!(a, b);
    }

    #[test]
    fn write_trace_creates_directories() {
        let dir = std::env::temp_dir().join(format!("medes-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ObsConfig::enabled();
        cfg.set_export_dir(dir.join("nested"));
        let obs = Obs::new(cfg);
        obs.span("s", t(0)).end(t(1));
        let path = obs.write_trace().unwrap().expect("path");
        assert!(path.exists());
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_jsonl(&contents).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
