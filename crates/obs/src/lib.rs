//! Structured tracing and metrics for the Medes reproduction.
//!
//! Zero-external-dependency observability layer: simulated-time spans
//! ([`Span`]) in a bounded ring buffer exportable as JSONL, plus a
//! [`MetricsRegistry`] of named counters, gauges, and log-linear
//! histograms. All hot paths go through [`Obs`], which is a cheap
//! no-op when [`ObsConfig::enabled`] is false.
//!
//! Naming convention: `medes.<subsystem>.<name>` for both spans and
//! metrics (see DESIGN.md, "Observability").

#![warn(missing_docs)]

pub mod ids;
pub mod json;
pub mod metrics;
pub mod series;
pub mod sink;
pub mod slo;
pub mod span;

pub use ids::TraceCtx;
pub use json::{Json, JsonMap, ParseError};
pub use metrics::{
    parse_series_key, LabelSet, LogLinearHistogram, Metric, MetricsRegistry, SmallValue,
    MAX_LABELS, TYPE_MISMATCH_METRIC,
};
pub use series::{parse_timeseries, MetricSeries, ParsedSeries, SeriesKind, SeriesStore};
pub use sink::SpanSink;
pub use slo::{FnSloSummary, SloTracker, SloViolator, TOP_VIOLATORS};
pub use span::{AttrValue, ParsedSpan, Span, SpanRecord, Tracer};

use medes_sim::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Observability configuration, carried on `PlatformConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When false every span/metric call is a no-op.
    pub enabled: bool,
    /// Ring-buffer capacity for spans. The buffer keeps the most
    /// recent `span_buffer_cap` finished spans; once full, each new
    /// span evicts the oldest one and [`Obs::spans_dropped`] counts it
    /// (exactly — every recorded span is either buffered or counted).
    /// Traces that lose a span mid-tree are flagged via
    /// [`Obs::truncated_traces`] instead of exporting as silently
    /// partial trees.
    pub span_buffer_cap: usize,
    /// Deterministic head-sampling: keep roughly one in `n` causal
    /// traces (`0` or `1` keeps every trace). The verdict is a pure
    /// hash of the trace id — no wall clock, no RNG — so the same
    /// seed always samples the same traces, whole trees at a time.
    /// Untraced (flat) spans and all metrics ignore sampling.
    pub sample_one_in: u64,
    /// When set, finished runs export `trace-<run_tag>-<n>.jsonl` here.
    pub export_dir: Option<PathBuf>,
    /// Tag embedded in exported trace filenames.
    pub run_tag: String,
    /// Streamed span export: write each span to the trace file the
    /// moment it is recorded (through a buffered writer) instead of
    /// holding the whole trace in memory until the run ends. The ring
    /// buffer still keeps the most recent `span_buffer_cap` spans for
    /// in-process consumers, so long traces run in O(ring) memory
    /// while the on-disk trace stays complete. Requires `export_dir`;
    /// inert without it. Off by default — buffered export is then
    /// byte-identical to every pre-streaming build.
    pub stream: bool,
    /// Deterministic time-series sampling interval in simulated
    /// milliseconds; `0` (the default) disables the sampler. When set,
    /// the platform snapshots its declared gauge/counter set every
    /// interval of *simulated* time — never wall clock — into
    /// per-metric series exported as `.timeseries.jsonl` next to the
    /// trace.
    pub sample_every_ms: u64,
    /// Dimensional telemetry switch. When true, the `*_with` calls
    /// additionally update their `(name, LabelSet)` series, traced
    /// histogram samples retain per-bucket exemplar trace ids, and the
    /// SLO tracker keeps its worst violating requests. Off by default:
    /// every `*_with`/traced call is then exactly its flat equivalent,
    /// so all exports are byte-identical to a build that never heard
    /// of labels.
    pub labels: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            span_buffer_cap: 1 << 16,
            sample_one_in: 1,
            export_dir: None,
            run_tag: "run".to_string(),
            stream: false,
            sample_every_ms: 0,
            labels: false,
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

    /// Sets the run tag (builder style).
    pub fn tagged(mut self, tag: impl Into<String>) -> Self {
        self.run_tag = tag.into();
        self
    }

    /// Keeps roughly one in `n` causal traces (builder style; see
    /// [`ObsConfig::sample_one_in`]).
    pub fn sampled(mut self, one_in: u64) -> Self {
        self.sample_one_in = one_in;
        self
    }

    /// Turns on streamed span export (builder style; see
    /// [`ObsConfig::stream`]).
    pub fn streamed(mut self) -> Self {
        self.stream = true;
        self
    }

    /// Samples the metric time series every `ms` simulated
    /// milliseconds (builder style; see
    /// [`ObsConfig::sample_every_ms`]).
    pub fn sampled_every_ms(mut self, ms: u64) -> Self {
        self.sample_every_ms = ms;
        self
    }

    /// Turns on dimensional telemetry (builder style; see
    /// [`ObsConfig::labels`]).
    pub fn labeled(mut self) -> Self {
        self.labels = true;
        self
    }
}

/// Distinguishes trace files exported by successive runs within one
/// process (simulated time restarts at zero each run, so wall-clock or
/// sim time can't disambiguate).
static EXPORT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shared observability handle. Clone the `Arc<Obs>` into every
/// subsystem; interior mutability keeps call sites borrow-friendly.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    cfg: ObsConfig,
    tracer: Mutex<Tracer>,
    metrics: Mutex<MetricsRegistry>,
    slo: Mutex<SloTracker>,
    /// Streamed-mode trace file, opened at construction (`None` in
    /// buffered mode, after finalization, or if creation failed).
    sink: Mutex<Option<SpanSink>>,
    /// Exact count of spans durably handed to the sink. Together with
    /// the ring's own accounting this keeps streamed-mode eviction
    /// observable: every recorded span satisfies
    /// `streamed == buffered + dropped` (see `spans_streamed`).
    streamed: AtomicU64,
    /// Deterministic metric time series (fed by the platform's
    /// sim-time sample tick).
    series: Mutex<SeriesStore>,
}

impl Obs {
    /// Creates a handle from a config. In streamed mode
    /// ([`ObsConfig::stream`] with an export dir) the trace file is
    /// created immediately; if that fails, a warning is printed and
    /// the handle falls back to buffered-only operation.
    pub fn new(cfg: ObsConfig) -> Arc<Obs> {
        let cap = if cfg.enabled { cfg.span_buffer_cap } else { 0 };
        let sink = if cfg.enabled && cfg.stream {
            cfg.export_dir.as_ref().and_then(|dir| {
                let seq = EXPORT_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("trace-{}-{seq}.jsonl", cfg.run_tag));
                match SpanSink::create(path) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("warning: cannot open streamed trace sink: {e}");
                        None
                    }
                }
            })
        } else {
            None
        };
        Arc::new(Obs {
            enabled: cfg.enabled,
            tracer: Mutex::new(Tracer::new(cap)),
            metrics: Mutex::new(MetricsRegistry::new()),
            slo: Mutex::new(SloTracker::new()),
            sink: Mutex::new(sink),
            streamed: AtomicU64::new(0),
            series: Mutex::new(SeriesStore::new()),
            cfg,
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

    /// The config this handle was built from.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Starts an untraced (flat) span at `start` (simulated time).
    /// Record it with [`Span::end`]. No allocation happens while
    /// disabled.
    #[inline]
    pub fn span(&self, name: &'static str, start: SimTime) -> Span<'_> {
        self.span_in(name, start, TraceCtx::NONE)
    }

    /// Starts a span at `start` carrying the causal identity `ctx`
    /// (mint it with [`Obs::trace_root`] / [`TraceCtx::child`]). A
    /// sampled-out context makes the whole span a no-op.
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

    /// Mints the deterministic root [`TraceCtx`] for an operation and
    /// applies the head-sampling verdict. `(kind, seed, key)` must
    /// uniquely name the operation within the run; re-minting with the
    /// same triple (possibly from a different subsystem) returns the
    /// identical context, sampling verdict included. Returns
    /// [`TraceCtx::NONE`] when disabled.
    pub fn trace_root(&self, kind: &str, seed: u64, key: u64) -> TraceCtx {
        if !self.enabled {
            return TraceCtx::NONE;
        }
        let mut ctx = TraceCtx::root(kind, seed, key);
        let n = self.cfg.sample_one_in;
        if n > 1 {
            ctx.sampled = ids::mix(ctx.trace_id ^ 0x5afe_5afe_5afe_5afe).is_multiple_of(n);
        }
        ctx
    }

    pub(crate) fn record_span(&self, span: SpanRecord) {
        // Streamed mode: the span reaches disk before it can be
        // evicted from the ring, so ring overflow never loses data. A
        // write error permanently drops the sink (falling back to
        // buffered-only) rather than spamming one error per span.
        let mut sink = self.sink.lock().unwrap();
        if let Some(s) = sink.as_mut() {
            match s.write_span(&span) {
                Ok(()) => {
                    self.streamed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    eprintln!("warning: streamed trace write failed, reverting to buffered: {e}");
                    *sink = None;
                }
            }
        }
        drop(sink);
        let live = {
            let mut t = self.tracer.lock().unwrap();
            t.record(span);
            t.len()
        };
        self.metrics
            .lock()
            .unwrap()
            .gauge_set("medes.obs.spans_live", live as f64);
    }

    /// Adds to a counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.enabled {
            self.metrics.lock().unwrap().counter_add(name, delta);
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
            self.metrics.lock().unwrap().gauge_set(name, value);
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&self, name: &'static str, sample: u64) {
        if self.enabled {
            self.metrics.lock().unwrap().record(name, sample);
        }
    }

    /// Records a histogram sample from a [`medes_sim::SimDuration`]'s
    /// microsecond count.
    #[inline]
    pub fn record_us(&self, name: &'static str, d: medes_sim::SimDuration) {
        self.record(name, d.as_micros());
    }

    /// Whether dimensional (labeled) telemetry is live
    /// ([`ObsConfig::labels`] on an enabled handle).
    #[inline]
    fn labels_enabled(&self) -> bool {
        self.enabled && self.cfg.labels
    }

    /// Adds `delta` to the counter `name` and — with labels enabled —
    /// to its labeled series `(name, labels())`, under one lock: no
    /// call can move a labeled series without its flat aggregate, so
    /// the flat counter is always the exact sum of its series. With
    /// labels off this is exactly [`Obs::counter_add`] and the closure
    /// never runs.
    #[inline]
    pub fn counter_add_with(
        &self,
        name: &'static str,
        delta: u64,
        labels: impl FnOnce() -> LabelSet,
    ) {
        if self.enabled {
            let mut m = self.metrics.lock().unwrap();
            if self.cfg.labels {
                m.counter_add_with(name, delta, labels());
            } else {
                m.counter_add(name, delta);
            }
        }
    }

    /// Increments the counter `name` and its labeled series by one
    /// (see [`Obs::counter_add_with`]).
    #[inline]
    pub fn incr_with(&self, name: &'static str, labels: impl FnOnce() -> LabelSet) {
        self.counter_add_with(name, 1, labels);
    }

    /// Records a sample into the histogram `name` and — with labels
    /// enabled — into its labeled series `(name, labels())`, both
    /// retaining `trace_id` (when given) as the bucket's max-sample
    /// exemplar. With labels off this is exactly [`Obs::record`]:
    /// no series, no exemplars.
    #[inline]
    pub fn record_with(
        &self,
        name: &'static str,
        sample: u64,
        trace_id: Option<u64>,
        labels: impl FnOnce() -> LabelSet,
    ) {
        if self.enabled {
            let mut m = self.metrics.lock().unwrap();
            if self.cfg.labels {
                m.record_with(name, sample, trace_id, labels());
            } else {
                m.record(name, sample);
            }
        }
    }

    /// Snapshot of all labeled series, name-then-label sorted.
    pub fn labeled_snapshot(&self) -> Vec<(&'static str, LabelSet, Metric)> {
        self.metrics.lock().unwrap().labeled_snapshot()
    }

    /// Current labeled counter value (0 if absent).
    pub fn labeled_counter(&self, name: &str, labels: &LabelSet) -> u64 {
        self.metrics.lock().unwrap().labeled_counter(name, labels)
    }

    /// Number of labeled series.
    pub fn labeled_len(&self) -> usize {
        self.metrics.lock().unwrap().labeled_len()
    }

    /// Telemetry writes dropped due to metric type collisions.
    pub fn type_mismatches(&self) -> u64 {
        self.metrics.lock().unwrap().type_mismatches()
    }

    /// Number of spans currently buffered.
    pub fn span_count(&self) -> usize {
        self.tracer.lock().unwrap().len()
    }

    /// Spans evicted due to a full buffer (exact; see
    /// [`Tracer::dropped`]).
    pub fn spans_dropped(&self) -> u64 {
        self.tracer.lock().unwrap().dropped()
    }

    /// Causal traces that lost at least one span to ring-buffer
    /// eviction (their exported trees are incomplete). In streamed
    /// mode the on-disk trace still holds every span — truncation only
    /// affects the in-memory view.
    pub fn truncated_traces(&self) -> usize {
        self.tracer.lock().unwrap().truncated_traces()
    }

    /// Exact count of spans durably streamed to the trace file (0 in
    /// buffered mode). In streamed mode every recorded span is
    /// streamed before eviction, so the accounting closes exactly:
    /// `spans_streamed() == span_count() + spans_dropped()`.
    pub fn spans_streamed(&self) -> u64 {
        self.streamed.load(Ordering::Relaxed)
    }

    /// Whether the streamed sink is currently open.
    pub fn streaming(&self) -> bool {
        self.sink.lock().unwrap().is_some()
    }

    /// The deterministic time-series sampling interval, if configured
    /// (`None` when disabled or `sample_every_ms == 0`).
    pub fn sample_interval(&self) -> Option<SimDuration> {
        (self.enabled && self.cfg.sample_every_ms > 0)
            .then(|| SimDuration::from_millis(self.cfg.sample_every_ms))
    }

    /// Appends one gauge point to the named time series at simulated
    /// time `t`. For dynamic names (per-node, per-shard) the sampler
    /// cannot route through the `'static`-keyed registry.
    pub fn series_point(&self, name: &str, t: SimTime, value: f64) {
        if self.enabled {
            self.series
                .lock()
                .unwrap()
                .point(name, SeriesKind::Gauge, t.as_micros(), value);
        }
    }

    /// Snapshots every registered counter and gauge as one time-series
    /// point each at simulated time `t` (histograms are skipped).
    pub fn series_sample(&self, t: SimTime) {
        if self.enabled {
            let metrics = self.metrics.lock().unwrap();
            self.series
                .lock()
                .unwrap()
                .sample_registry(&metrics, t.as_micros());
        }
    }

    /// Number of distinct sampled time series.
    pub fn series_count(&self) -> usize {
        self.series.lock().unwrap().len()
    }

    /// Total points across all sampled time series.
    pub fn series_points_total(&self) -> usize {
        self.series.lock().unwrap().points_total()
    }

    /// Renders the sampled time series as name-sorted JSONL (see
    /// [`SeriesStore::export_jsonl`]).
    pub fn export_timeseries_jsonl(&self) -> String {
        self.series.lock().unwrap().export_jsonl()
    }

    /// Records one per-function SLO latency sample (`bound_us` = the
    /// §5.2 `α · s_W` bound in effect, 0 = none). Not head-sampled:
    /// SLO accounting sees every request even when span sampling is
    /// on.
    #[inline]
    pub fn slo_record(&self, func: &str, latency_us: u64, bound_us: u64) {
        if self.enabled {
            self.slo.lock().unwrap().record(func, latency_us, bound_us);
        }
    }

    /// Like [`Obs::slo_record`], but tags the sample with its
    /// deterministic trace id and node when labels are enabled, so a
    /// violation can be drilled back to the exact request. With labels
    /// off this is exactly [`Obs::slo_record`], so call sites can
    /// upgrade unconditionally.
    #[inline]
    pub fn slo_record_traced(
        &self,
        func: &str,
        latency_us: u64,
        bound_us: u64,
        trace_id: u64,
        node: u64,
    ) {
        if self.labels_enabled() {
            self.slo
                .lock()
                .unwrap()
                .record_traced(func, latency_us, bound_us, trace_id, node);
        } else {
            self.slo_record(func, latency_us, bound_us);
        }
    }

    /// Name-sorted per-function SLO summaries.
    pub fn slo_summary(&self) -> Vec<FnSloSummary> {
        self.slo.lock().unwrap().summary()
    }

    /// Total SLO violations across all functions.
    pub fn slo_violations(&self) -> u64 {
        self.slo.lock().unwrap().total_violations()
    }

    /// Copies out all buffered spans, oldest-first (buffer unchanged).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer.lock().unwrap().iter().cloned().collect()
    }

    /// Name-sorted metrics snapshot.
    pub fn metrics_snapshot(&self) -> Vec<(&'static str, Metric)> {
        self.metrics.lock().unwrap().snapshot()
    }

    /// Current counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.lock().unwrap().counter(name)
    }

    /// Runs `f` against the histogram under `name`, if present.
    pub fn with_histogram<R>(
        &self,
        name: &str,
        f: impl FnOnce(&LogLinearHistogram) -> R,
    ) -> Option<R> {
        let m = self.metrics.lock().unwrap();
        m.histogram(name).map(f)
    }

    /// The trace export's tail line: one JSON object carrying the
    /// final metrics snapshot and the per-function SLO summary — plus,
    /// on a labeled run, the labeled series, the histogram exemplars
    /// and the SLO top violators as plain records — so a trace file is
    /// a self-contained run export (`trace diff` and `trace attribute`
    /// read nothing else). Streamed and buffered exports build the
    /// tail identically.
    fn export_tail(&self) -> String {
        let (metrics, labeled, exemplars) = {
            let m = self.metrics.lock().unwrap();
            let labeled = (m.labeled_len() > 0).then(|| m.labeled_to_json());
            (m.to_json(), labeled, m.exemplars_to_json())
        };
        let (slo, violators) = {
            let t = self.slo.lock().unwrap();
            (t.to_json(), t.violators_to_json())
        };
        let mut tail = JsonMap::new();
        tail.insert("metrics", metrics);
        // Only labeled runs carry the dimensional keys: label-off tails
        // stay byte-identical to every pre-label build.
        if let Some(l) = labeled {
            tail.insert("labeled", l);
        }
        if !exemplars.is_empty() {
            tail.insert("exemplars", Json::Array(exemplars));
        }
        tail.insert("slo", slo);
        if !violators.is_empty() {
            tail.insert("slo_violators", Json::Array(violators));
        }
        let mut out = Json::Object(tail).to_string();
        out.push('\n');
        out
    }

    /// Renders all buffered spans as JSONL (one span object per line,
    /// oldest first), followed by one `{"metrics": ..., "slo": ...}`
    /// tail line.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.tracer.lock().unwrap().iter() {
            out.push_str(&span.to_json().to_string());
            out.push('\n');
        }
        out.push_str(&self.export_tail());
        out
    }

    /// Writes the JSONL export to
    /// `<export_dir>/trace-<run_tag>-<seq>.jsonl`, creating directories
    /// as needed. In streamed mode the spans are already on disk — this
    /// finalizes the open sink with the metrics tail instead of
    /// rewriting the file. When the time-series sampler is configured,
    /// the sampled series land next to the trace as
    /// `.timeseries.jsonl`. Returns the JSONL path written, or `None`
    /// when disabled or no export dir is configured.
    pub fn write_trace(&self) -> std::io::Result<Option<PathBuf>> {
        if !self.enabled {
            return Ok(None);
        }
        let path = if let Some(sink) = self.sink.lock().unwrap().take() {
            sink.finish(&self.export_tail())?
        } else {
            let Some(dir) = &self.cfg.export_dir else {
                return Ok(None);
            };
            std::fs::create_dir_all(dir)?;
            let seq = EXPORT_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("trace-{}-{seq}.jsonl", self.cfg.run_tag));
            std::fs::write(&path, self.export_jsonl())?;
            path
        };
        if self.cfg.sample_every_ms > 0 {
            std::fs::write(
                path.with_extension("timeseries.jsonl"),
                self.export_timeseries_jsonl(),
            )?;
        }
        Ok(Some(path))
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
        obs.record("medes.net.rdma_read_us", 5);
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

    #[test]
    fn head_sampling_is_deterministic_and_all_or_nothing() {
        let cfg = ObsConfig::enabled().sampled(4);
        let obs = Obs::new(cfg.clone());
        let mut kept = 0usize;
        for key in 0..400u64 {
            let root = obs.trace_root("op", 1, key);
            obs.span_in("medes.test.root", t(key), root).end(t(key + 1));
            obs.span_in("medes.test.child", t(key), root.child("c", 0))
                .end(t(key + 1));
            if root.sampled {
                kept += 1;
            }
        }
        // Roughly 1 in 4 kept, and children follow their root exactly.
        assert!((50..=150).contains(&kept), "kept {kept} of 400");
        assert_eq!(obs.span_count(), kept * 2);
        // Same seed/keys → identical verdicts on a fresh handle.
        let obs2 = Obs::new(cfg);
        for key in 0..400u64 {
            assert_eq!(
                obs2.trace_root("op", 1, key).sampled,
                obs.trace_root("op", 1, key).sampled
            );
        }
        // Sampling never drops metrics.
        obs.incr("medes.test.counter");
        assert_eq!(obs.counter("medes.test.counter"), 1);
    }

    #[test]
    fn slo_flows_through_obs_and_export_tail() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.slo_record("resnet", 10, 15);
        obs.slo_record("resnet", 20, 15);
        obs.incr("medes.platform.starts.warm");
        obs.record("medes.platform.e2e_us", 123);
        obs.gauge_set("medes.cluster.mem", 42.0);
        assert_eq!(obs.slo_violations(), 1);
        let s = obs.slo_summary();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].count, 2);
        let tail = parse_tail(&obs.export_jsonl()).expect("tail");
        assert_eq!(tail["metrics"]["medes.platform.starts.warm"], 1);
        assert_eq!(tail["metrics"]["medes.cluster.mem"], 42.0);
        assert_eq!(tail["metrics"]["medes.platform.e2e_us"]["count"], 1);
        assert_eq!(tail["metrics"]["medes.platform.e2e_us"]["p99"], 123.0);
        assert_eq!(tail["slo"]["resnet"]["p50_us"], 10.0);
        assert_eq!(tail["slo"]["resnet"]["violations"], 1);
        assert_eq!(tail["slo"]["resnet"]["bound_us"], 15);
        // Disabled handles record nothing.
        let off = Obs::disabled();
        off.slo_record("resnet", 10, 15);
        assert!(off.slo_summary().is_empty());
        assert!(off.metrics_snapshot().is_empty());
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

    /// Tentpole property test: a seeded random span forest streamed
    /// through the `SpanSink` produces a trace file byte-identical to
    /// what buffered [`Obs::export_jsonl`] emits for the same spans —
    /// on the streaming handle itself *and* on an independent buffered
    /// handle fed the identical stream.
    #[test]
    fn streamed_export_is_byte_identical_to_buffered() {
        use medes_sim::DetRng;
        let dir = std::env::temp_dir().join(format!("medes-obs-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut stream_cfg = ObsConfig::enabled().tagged("prop").streamed();
        stream_cfg.set_export_dir(&dir);
        let streamed = Obs::new(stream_cfg);
        let buffered = Obs::new(ObsConfig::enabled());
        assert!(streamed.streaming());
        assert!(!buffered.streaming());
        let mut rng = DetRng::new(0x57e4_3a1d_0000_0002);
        const NAMES: [&str; 3] = ["medes.a.root", "medes.b.mid", "medes.c.leaf"];
        for trace in 0..60u64 {
            let root = streamed.trace_root("stream-prop", 9, trace);
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

    /// Satellite: streamed-mode ring eviction is observable — the ring
    /// stays bounded, the accounting closes exactly
    /// (`streamed == buffered + dropped`), the `medes.obs.spans_live`
    /// gauge tracks occupancy, and the on-disk trace still holds every
    /// span.
    #[test]
    fn streamed_ring_is_bounded_with_exact_accounting() {
        let dir = std::env::temp_dir().join(format!("medes-obs-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ObsConfig {
            span_buffer_cap: 8,
            ..ObsConfig::enabled().tagged("ring").streamed()
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
        assert!(obs.truncated_traces() > 0, "in-memory trees are truncated");
        let snapshot = obs.metrics_snapshot();
        let live = snapshot
            .iter()
            .find(|(n, _)| *n == "medes.obs.spans_live")
            .expect("spans_live gauge");
        assert!(matches!(live.1, Metric::Gauge(v) if v == 8.0));
        let path = obs.write_trace().unwrap().expect("path");
        let contents = std::fs::read_to_string(&path).unwrap();
        // Every streamed span is on disk despite the tiny ring.
        assert_eq!(parse_jsonl(&contents).len(), 100);
        assert!(!obs.streaming(), "finalized sink is closed");
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

    /// The SLO summary's `sum_us` is the histogram's exact running sum
    /// (equal to the raw-sample sum), not `mean * count`.
    #[test]
    fn slo_sum_line_is_exact_raw_sample_sum() {
        let obs = Obs::new(ObsConfig::enabled());
        let samples = [7u64, 11, 13, 1_000_003, 999_983, 3];
        for &v in &samples {
            obs.slo_record("f", v, 0);
        }
        let exact: f64 = samples.iter().map(|&v| v as f64).sum();
        assert_eq!(obs.slo_summary()[0].sum_us, exact);
    }

    /// A hostile function name (every byte that delimits a series key,
    /// plus quote and newline) survives the export: the tail stays one
    /// line of valid JSON and the labeled key parses back to the name.
    #[test]
    fn escape_label_round_trips_hostile_function_name() {
        let hostile = "bad\"fn\\name,with=all}four\nand newline";
        let obs = Obs::new(ObsConfig::enabled().labeled());
        obs.incr_with("medes.platform.starts.cold", || {
            LabelSet::new()
                .with("func", hostile.to_string())
                .with("node", 2u64)
        });
        obs.slo_record_traced(hostile, 9, 5, 0x77, 2);
        let export = obs.export_jsonl();
        assert_eq!(export.lines().count(), 1, "tail must stay one line");
        let tail = parse_tail(&export).expect("tail");
        let keys: Vec<&str> = tail["labeled"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys.len(), 1);
        let (base, labels) = parse_series_key(keys[0]).expect("key parses");
        assert_eq!(base, "medes.platform.starts.cold");
        assert_eq!(
            labels,
            [
                ("func".to_string(), hostile.to_string()),
                ("node".to_string(), "2".to_string())
            ]
        );
        assert_eq!(tail["slo_violators"][0]["func"], hostile);
    }

    /// Labeled series are additive-only — with labels off a `*_with`
    /// call is its flat equivalent to the byte, and with labels on the
    /// flat aggregate equals the sum of its labeled children.
    #[test]
    fn labels_off_is_byte_identical_and_on_sums_exactly() {
        let plain = Obs::new(ObsConfig::enabled());
        let off = Obs::new(ObsConfig::enabled());
        let on = Obs::new(ObsConfig::enabled().labeled());
        assert!(!off.labels_enabled());
        assert!(on.labels_enabled());
        plain.counter_add("medes.restore.ops", 2);
        plain.record("medes.platform.e2e_us", 50);
        for obs in [&off, &on] {
            obs.incr_with("medes.restore.ops", || LabelSet::new().with("node", 0u64));
            obs.incr_with("medes.restore.ops", || LabelSet::new().with("node", 1u64));
            obs.record_with("medes.platform.e2e_us", 50, Some(0xbeef), || {
                LabelSet::new().with("node", 0u64)
            });
        }
        // Labels off: exports byte-identical to a handle that only
        // ever made flat calls.
        assert_eq!(off.labeled_len(), 0);
        assert_eq!(off.export_jsonl(), plain.export_jsonl());
        assert!(!off.export_jsonl().contains("labeled"));
        assert!(!off.export_jsonl().contains("exemplars"));
        // Labels on: flat == Σ labeled, and the export carries both.
        assert_eq!(on.labeled_len(), 3);
        assert_eq!(on.counter("medes.restore.ops"), 2);
        assert_eq!(
            on.labeled_counter("medes.restore.ops", &LabelSet::new().with("node", 1u64)),
            1
        );
        let v = parse_tail(&on.export_jsonl()).unwrap();
        assert_eq!(v["metrics"]["medes.restore.ops"], 2);
        assert_eq!(v["labeled"]["medes.restore.ops{node=0}"], 1);
        assert_eq!(v["labeled"]["medes.restore.ops{node=1}"], 1);
        assert_eq!(v["labeled"]["medes.platform.e2e_us{node=0}"]["count"], 1);
        // The traced sample left an exemplar on the flat histogram and
        // on its labeled series, flat first.
        let exemplars = v["exemplars"].as_array().unwrap();
        assert_eq!(exemplars.len(), 2);
        assert_eq!(exemplars[0]["series"], "medes.platform.e2e_us");
        assert_eq!(exemplars[1]["series"], "medes.platform.e2e_us{node=0}");
        assert_eq!(exemplars[1]["value"], 50);
        assert_eq!(exemplars[1]["trace_id"], "000000000000beef");
    }

    /// Construction property: over a random sequence of dimensional
    /// calls with labels on, every flat counter equals the sum of its
    /// labeled children and every flat histogram count the sum of
    /// theirs; with labels off the same sequence leaves the registry
    /// and the exported tail identical to issuing the flat calls alone.
    #[test]
    fn flat_aggregates_equal_their_labeled_sums_by_construction() {
        use medes_sim::DetRng;
        use std::collections::BTreeMap;
        const COUNTERS: [&str; 3] = ["medes.t.a", "medes.t.b", "medes.t.c"];
        const HISTS: [&str; 2] = ["medes.t.h_us", "medes.t.g_us"];
        let on = Obs::new(ObsConfig::enabled().labeled());
        let off = Obs::new(ObsConfig::enabled());
        let flat = Obs::new(ObsConfig::enabled());
        let mut rng = DetRng::new(0x0d1e_5eed_0000_0013);
        for _ in 0..2_000 {
            let labels = match rng.below(3) {
                0 => LabelSet::new().with("node", rng.below(4)),
                1 => LabelSet::new()
                    .with("src", rng.below(3))
                    .with("dst", rng.below(3)),
                _ => LabelSet::new().with("func", format!("f{}", rng.below(3))),
            };
            let v = rng.below(1 << 20);
            match rng.below(4) {
                0 => {
                    let name = COUNTERS[rng.below(3) as usize];
                    on.counter_add_with(name, v, || labels.clone());
                    off.counter_add_with(name, v, || labels.clone());
                    flat.counter_add(name, v);
                }
                1 => {
                    let name = COUNTERS[rng.below(3) as usize];
                    on.incr_with(name, || labels.clone());
                    off.incr_with(name, || labels.clone());
                    flat.incr(name);
                }
                2 => {
                    // An undimensioned write to a name that also has
                    // series would break the sum; flat-only names stay
                    // flat-only.
                    on.counter_add("medes.t.flat_only", v);
                    off.counter_add("medes.t.flat_only", v);
                    flat.counter_add("medes.t.flat_only", v);
                }
                _ => {
                    let name = HISTS[rng.below(2) as usize];
                    let id = rng.chance(0.5).then(|| rng.below(u64::MAX));
                    on.record_with(name, v, id, || labels.clone());
                    off.record_with(name, v, id, || labels.clone());
                    flat.record(name, v);
                }
            }
        }
        let mut counter_sums: BTreeMap<&str, u64> = BTreeMap::new();
        let mut hist_counts: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, _, m) in on.labeled_snapshot() {
            match m {
                Metric::Counter(v) => *counter_sums.entry(name).or_default() += v,
                Metric::Hist(h) => *hist_counts.entry(name).or_default() += h.count(),
                Metric::Gauge(_) => unreachable!("no labeled gauges"),
            }
        }
        assert_eq!(counter_sums.len(), COUNTERS.len());
        assert_eq!(hist_counts.len(), HISTS.len());
        for (name, sum) in counter_sums {
            assert_eq!(on.counter(name), sum, "{name}");
        }
        for (name, sum) in hist_counts {
            assert_eq!(on.with_histogram(name, |h| h.count()), Some(sum), "{name}");
        }
        // The flat series never depend on the switch.
        assert_eq!(
            parse_tail(&on.export_jsonl()).unwrap()["metrics"],
            parse_tail(&flat.export_jsonl()).unwrap()["metrics"]
        );
        assert_eq!(off.labeled_len(), 0);
        assert_eq!(
            format!("{:?}", off.metrics_snapshot()),
            format!("{:?}", flat.metrics_snapshot())
        );
        assert_eq!(off.export_jsonl(), flat.export_jsonl());
    }

    /// Traced SLO recording retains violators and surfaces them as
    /// `slo_violators` records in the tail; with labels off the same
    /// call degrades to plain recording (no records, same violation
    /// counts).
    #[test]
    fn slo_violators_reach_export_tail_when_labeled() {
        let on = Obs::new(ObsConfig::enabled().labeled());
        let off = Obs::new(ObsConfig::enabled());
        for obs in [&on, &off] {
            obs.slo_record_traced("hot", 50, 100, 0x11, 0);
            obs.slo_record_traced("hot", 500, 100, 0x22, 3);
            obs.slo_record_traced("hot", 300, 100, 0x33, 1);
        }
        assert_eq!(on.slo_violations(), 2);
        assert_eq!(off.slo_violations(), 2, "labels off still counts");
        let tail = parse_tail(&on.export_jsonl()).unwrap();
        let worst = tail["slo_violators"].as_array().unwrap();
        assert_eq!(worst.len(), 2);
        assert_eq!(
            worst[0].to_string(),
            r#"{"func":"hot","rank":1,"latency_us":500,"node":3,"trace_id":"0000000000000022"}"#
        );
        assert_eq!(worst[1]["rank"], 2);
        assert_eq!(worst[1]["node"], 1);
        assert!(!off.export_jsonl().contains("slo_violators"));
        assert_eq!(tail["slo"], parse_tail(&off.export_jsonl()).unwrap()["slo"]);
    }

    /// Satellite: SLO accounting sees every request even under
    /// aggressive head sampling (spans vanish, violations don't), a
    /// zero bound never violates, and one sample pins all quantiles.
    #[test]
    fn slo_counts_violations_under_head_sampling() {
        let obs = Obs::new(ObsConfig::enabled().sampled(u64::MAX));
        for key in 0..50u64 {
            let root = obs.trace_root("req", 5, key);
            obs.span_in("medes.platform.request", t(key), root)
                .end(t(key + 1));
            // 25 over a 100µs bound, 25 with no bound at all.
            if key % 2 == 0 {
                obs.slo_record("hot", 200, 100);
            } else {
                obs.slo_record("unbounded", 200, 0);
            }
        }
        assert_eq!(obs.span_count(), 0, "sampling dropped every span");
        assert_eq!(obs.slo_violations(), 25, "SLO sees every request");
        let summary = obs.slo_summary();
        assert_eq!(summary.len(), 2);
        let unbounded = summary.iter().find(|s| s.func == "unbounded").unwrap();
        assert_eq!(unbounded.bound_us, 0);
        assert_eq!(unbounded.violations, 0, "absent bound cannot violate");
        assert_eq!(unbounded.count, 25);
        // Exactly one sample: quantiles collapse onto it.
        obs.slo_record("solo", 9, 100);
        let solo = obs
            .slo_summary()
            .into_iter()
            .find(|s| s.func == "solo")
            .unwrap();
        assert_eq!(solo.count, 1);
        assert_eq!((solo.p50_us, solo.p95_us, solo.p99_us), (9.0, 9.0, 9.0));
        assert_eq!(solo.violations, 0);
    }

    #[test]
    fn timeseries_flow_through_obs_and_export() {
        let dir = std::env::temp_dir().join(format!("medes-obs-ts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ObsConfig::enabled().tagged("ts").sampled_every_ms(100);
        cfg.set_export_dir(&dir);
        let obs = Obs::new(cfg);
        assert_eq!(obs.sample_interval(), Some(SimDuration::from_millis(100)));
        obs.counter_add("medes.x.ops", 2);
        obs.series_sample(t(0));
        obs.series_point("medes.node.0.mem_bytes", t(0), 10.0);
        obs.counter_add("medes.x.ops", 3);
        obs.series_sample(t(100_000));
        obs.series_point("medes.node.0.mem_bytes", t(100_000), 30.0);
        assert_eq!(obs.series_count(), 2);
        assert_eq!(obs.series_points_total(), 4);
        let path = obs.write_trace().unwrap().expect("path");
        let ts_path = path.with_extension("timeseries.jsonl");
        let series = parse_timeseries(&std::fs::read_to_string(&ts_path).unwrap());
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "medes.node.0.mem_bytes");
        assert_eq!(series[0].points, vec![(0, 10.0), (100_000, 30.0)]);
        assert_eq!(series[1].name, "medes.x.ops");
        assert_eq!(series[1].kind, SeriesKind::Counter);
        assert_eq!(series[1].points, vec![(0, 2.0), (100_000, 5.0)]);
        // The sampler is inert on a disabled handle.
        let off = Obs::disabled();
        off.series_sample(t(0));
        off.series_point("x", t(0), 1.0);
        assert_eq!(off.sample_interval(), None);
        assert_eq!(off.series_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_tail_carries_slo_summary() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.slo_record("resnet", 20, 10);
        let tail = obs.export_jsonl();
        let v = json::parse(tail.lines().last().unwrap()).unwrap();
        assert_eq!(v["slo"]["resnet"]["violations"], 1);
        assert_eq!(v["slo"]["resnet"]["count"], 1);
    }

    #[test]
    fn write_trace_creates_directories() {
        let dir = std::env::temp_dir().join(format!("medes-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ObsConfig::enabled().tagged("unit");
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
