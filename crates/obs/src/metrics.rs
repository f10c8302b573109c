//! Named counters, gauges, and log-linear histograms.
//!
//! Histograms use log-linear bucketing (HdrHistogram-style): values are
//! grouped by power-of-two octave, each octave split into
//! `SUB_BUCKETS` linear sub-buckets, so quantile estimates carry a
//! bounded relative error (≤ 1/SUB_BUCKETS ≈ 3%) without storing
//! samples. Metric names follow `medes.<subsystem>.<name>`.

use crate::json::{Json, JsonMap};
use crate::span::id_hex;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 32;
/// Octaves covered (u64 range).
const OCTAVES: usize = 64;

/// A log-linear histogram of non-negative integer samples (e.g.
/// microseconds or bytes). Memory is a fixed ~16 KiB regardless of
/// sample count.
#[derive(Debug, Clone)]
pub struct LogLinearHistogram {
    buckets: Box<[u64; OCTAVES * SUB_BUCKETS]>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
    /// Sparse per-bucket exemplars: `bucket index → (max sample seen in
    /// that bucket, its deterministic trace id)`. Only populated via
    /// [`LogLinearHistogram::record_traced`]; plain `record` never
    /// touches it, so exemplar-free histograms carry no extra state.
    exemplars: BTreeMap<usize, (u64, u64)>,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram {
            buckets: Box::new([0; OCTAVES * SUB_BUCKETS]),
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
            exemplars: BTreeMap::new(),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        // First octaves: exact (bucket width 1).
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    // Position within the octave, scaled to SUB_BUCKETS slots.
    let offset = ((v - (1 << octave)) >> (octave - SUB_BUCKETS.trailing_zeros() as usize)) as usize;
    octave * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
}

fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_BUCKETS {
        return (idx as u64, idx as u64);
    }
    let octave = idx / SUB_BUCKETS;
    let offset = (idx % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - SUB_BUCKETS.trailing_zeros() as usize);
    let lo = (1u64 << octave) + offset * width;
    (lo, lo + (width - 1))
}

impl LogLinearHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records one sample and retains `trace_id` as the bucket's
    /// exemplar if `v` is the largest sample that bucket has seen (ties
    /// keep the earliest, so replay order — which is deterministic
    /// under the simulator — fully determines the exemplar set).
    pub fn record_traced(&mut self, v: u64, trace_id: u64) {
        self.record(v);
        match self.exemplars.entry(bucket_index(v)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((v, trace_id));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if v > e.get().0 {
                    e.insert((v, trace_id));
                }
            }
        }
    }

    /// [`LogLinearHistogram::record_traced`] when a trace id is given,
    /// [`LogLinearHistogram::record`] otherwise.
    fn observe(&mut self, v: u64, trace_id: Option<u64>) {
        match trace_id {
            Some(id) => self.record_traced(v, id),
            None => self.record(v),
        }
    }

    /// Bucket-sorted exemplars as `(bucket index, max sample, trace
    /// id)` triples. Empty unless samples came in via
    /// [`LogLinearHistogram::record_traced`].
    pub fn exemplars(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.exemplars.iter().map(|(&idx, &(v, id))| (idx, v, id))
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (None when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (None when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`). Returns the midpoint
    /// of the bucket holding the target rank, clamped to the observed
    /// min/max; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let mid = (lo as f64 + hi as f64) / 2.0;
                return Some(mid.clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Serializes summary stats (not per-bucket counts) to JSON.
    pub fn to_json(&self) -> Json {
        let mut m = JsonMap::new();
        m.insert("count", self.count);
        m.insert("mean", self.mean());
        m.insert("min", self.min().map(|v| v as f64));
        m.insert("max", self.max().map(|v| v as f64));
        m.insert("p50", self.quantile(0.50));
        m.insert("p99", self.quantile(0.99));
        m.insert("p999", self.quantile(0.999));
        Json::Object(m)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log-linear histogram.
    Hist(LogLinearHistogram),
}

impl Metric {
    /// The metric's exported form: a number for counters and gauges,
    /// the summary object for histograms.
    fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) => Json::from(*v),
            Metric::Gauge(v) => Json::from(*v),
            Metric::Hist(h) => h.to_json(),
        }
    }
}

/// A label value: a small integer (node index, shard, owner) or a
/// short string (function class, op name). `Cow` lets call sites pass
/// `&'static str` without allocating while still admitting owned
/// strings for dynamic values; equality/ordering/hashing see through
/// the `Cow`, so a borrowed and an owned copy of the same text key the
/// same series.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SmallValue {
    /// Integer-valued label (node id, shard index, owner).
    U64(u64),
    /// String-valued label (function class, op).
    Str(Cow<'static, str>),
}

impl fmt::Display for SmallValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmallValue::U64(v) => write!(f, "{v}"),
            SmallValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for SmallValue {
    fn from(v: u64) -> Self {
        SmallValue::U64(v)
    }
}

impl From<usize> for SmallValue {
    fn from(v: usize) -> Self {
        SmallValue::U64(v as u64)
    }
}

impl From<u32> for SmallValue {
    fn from(v: u32) -> Self {
        SmallValue::U64(v as u64)
    }
}

impl From<&'static str> for SmallValue {
    fn from(v: &'static str) -> Self {
        SmallValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for SmallValue {
    fn from(v: String) -> Self {
        SmallValue::Str(Cow::Owned(v))
    }
}

/// Name under which dropped type-mismatched writes surface in
/// snapshots and exports.
pub const TYPE_MISMATCH_METRIC: &str = "medes.obs.type_mismatch";

/// Maximum labels per [`LabelSet`]. Telemetry dimensionality is a
/// cardinality budget, not a data model — four is enough for
/// `(node, func, owner/shard, op)` and keeps the per-series key small.
pub const MAX_LABELS: usize = 4;

/// A bounded, key-sorted set of at most [`MAX_LABELS`] label pairs.
/// Keys are `'static` (they name dimensions, not values); insertion
/// keeps the pairs sorted by key so two sets with the same pairs in
/// any build order compare, hash, and iterate identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelSet {
    pairs: Vec<(&'static str, SmallValue)>,
}

impl LabelSet {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the set with `key=value` added (builder style). An
    /// existing key is overwritten in place; a fifth distinct key is
    /// ignored (with a `debug_assert!`) — the bound is the point.
    pub fn with(mut self, key: &'static str, value: impl Into<SmallValue>) -> Self {
        let value = value.into();
        match self.pairs.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => {
                if self.pairs.len() < MAX_LABELS {
                    self.pairs.insert(i, (key, value));
                } else {
                    debug_assert!(false, "LabelSet over {MAX_LABELS} labels: dropped {key}");
                }
            }
        }
        self
    }

    /// The pairs, key-sorted.
    pub fn pairs(&self) -> &[(&'static str, SmallValue)] {
        &self.pairs
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&SmallValue> {
        self.pairs
            .binary_search_by(|(k, _)| (*k).cmp(key))
            .ok()
            .map(|i| &self.pairs[i].1)
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Renders as `k=v,k=v` (key-sorted) — the compact form used in
    /// JSON tails and series names. The bytes that delimit a series
    /// key (`,`, `=`, `}`) and `\` itself are backslash-escaped, so any
    /// key or value survives [`parse_series_key`]; text without them
    /// renders verbatim.
    pub fn render(&self) -> String {
        fn push_escaped(out: &mut String, text: &str) {
            for c in text.chars() {
                if matches!(c, ',' | '=' | '}' | '\\') {
                    out.push('\\');
                }
                out.push(c);
            }
        }
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, k);
            out.push('=');
            push_escaped(&mut out, &v.to_string());
        }
        out
    }

    /// The key a labeled series of metric `base` exports under:
    /// `base{k=v,...}` (see [`LabelSet::render`]).
    pub fn series_key(&self, base: &str) -> String {
        format!("{base}{{{self}}}")
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Inverse of [`LabelSet::series_key`]: splits `base{k=v,...}` into the
/// base metric name and its unescaped label pairs. `None` for a flat
/// name or a malformed key.
pub fn parse_series_key(key: &str) -> Option<(&str, Vec<(String, String)>)> {
    let open = key.find('{')?;
    let inner = key[open + 1..].strip_suffix('}')?;
    let mut labels = Vec::new();
    if inner.is_empty() {
        return Some((&key[..open], labels));
    }
    let (mut label, mut cur) = (None, String::new());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => cur.push(chars.next()?),
            '=' if label.is_none() => label = Some(std::mem::take(&mut cur)),
            ',' => labels.push((label.take()?, std::mem::take(&mut cur))),
            '}' => return None,
            c => cur.push(c),
        }
    }
    labels.push((label?, cur));
    Some((&key[..open], labels))
}

/// A registry of named metrics. Names should be `'static` dotted paths
/// (`medes.net.rdma_bytes`). Alongside the flat map there is a
/// `(name, LabelSet)`-keyed map of dimensional series. The only way to
/// move a labeled series is a `*_with` call, which moves the flat
/// metric of the same name by the same amount first — so every flat
/// counter is the exact sum of its labeled series (and every flat
/// histogram holds the union of theirs) by construction, and a run
/// that never passes labels is byte-identical to one that never heard
/// of them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: HashMap<&'static str, Metric>,
    labeled: HashMap<(&'static str, LabelSet), Metric>,
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
        self.counter_add_flat(name, delta);
    }

    /// [`MetricsRegistry::counter_add`], reporting whether the write
    /// landed.
    fn counter_add_flat(&mut self, name: &'static str, delta: u64) -> bool {
        match self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => {
                *v += delta;
                true
            }
            other => {
                self.type_mismatches += 1;
                debug_assert!(false, "metric {name} is not a counter: {other:?}");
                false
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

    /// Records a histogram sample (same mismatch policy as
    /// [`MetricsRegistry::counter_add`]).
    pub fn record(&mut self, name: &'static str, sample: u64) {
        self.record_flat(name, sample, None);
    }

    fn record_flat(&mut self, name: &'static str, sample: u64, trace_id: Option<u64>) -> bool {
        match self
            .metrics
            .entry(name)
            .or_insert_with(|| Metric::Hist(LogLinearHistogram::new()))
        {
            Metric::Hist(h) => {
                h.observe(sample, trace_id);
                true
            }
            other => {
                self.type_mismatches += 1;
                debug_assert!(false, "metric {name} is not a histogram: {other:?}");
                false
            }
        }
    }

    /// Writes dropped because the name was already registered under a
    /// different metric type.
    pub fn type_mismatches(&self) -> u64 {
        self.type_mismatches
    }

    /// Adds `delta` to the counter `name` and to its labeled series
    /// `(name, labels)`. A labeled series is only ever created here,
    /// after the flat write landed, so it always has its flat metric's
    /// type; a mismatched flat write drops both.
    pub fn counter_add_with(&mut self, name: &'static str, delta: u64, labels: LabelSet) {
        if !self.counter_add_flat(name, delta) {
            return;
        }
        if let Metric::Counter(v) = self
            .labeled
            .entry((name, labels))
            .or_insert(Metric::Counter(0))
        {
            *v += delta;
        }
    }

    /// Records `sample` into the histogram `name` and into its labeled
    /// series `(name, labels)`; `trace_id`, when given, is retained by
    /// both as the bucket's max-sample exemplar (see
    /// [`LogLinearHistogram::record_traced`]). Same typing rule as
    /// [`MetricsRegistry::counter_add_with`].
    pub fn record_with(
        &mut self,
        name: &'static str,
        sample: u64,
        trace_id: Option<u64>,
        labels: LabelSet,
    ) {
        if !self.record_flat(name, sample, trace_id) {
            return;
        }
        if let Metric::Hist(h) = self
            .labeled
            .entry((name, labels))
            .or_insert_with(|| Metric::Hist(LogLinearHistogram::new()))
        {
            h.observe(sample, trace_id);
        }
    }

    /// Current labeled counter value (0 if absent).
    pub fn labeled_counter(&self, name: &str, labels: &LabelSet) -> u64 {
        match self
            .labeled
            .iter()
            .find(|((n, l), _)| *n == name && l == labels)
        {
            Some((_, Metric::Counter(v))) => *v,
            _ => 0,
        }
    }

    /// Number of labeled series.
    pub fn labeled_len(&self) -> usize {
        self.labeled.len()
    }

    /// Snapshot of all labeled series, sorted by name then label set —
    /// the deterministic iteration order every export relies on.
    pub fn labeled_snapshot(&self) -> Vec<(&'static str, LabelSet, Metric)> {
        let mut out: Vec<_> = self
            .labeled
            .iter()
            .map(|((n, l), m)| (*n, l.clone(), m.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// Serializes the labeled series to a JSON object keyed
    /// `name{k=v,...}`, name-then-label sorted. Empty object when no
    /// labeled series exist.
    pub fn labeled_to_json(&self) -> Json {
        let mut m = JsonMap::new();
        for (name, labels, metric) in self.labeled_snapshot() {
            m.insert(labels.series_key(name), metric.to_json());
        }
        Json::Object(m)
    }

    /// Every retained histogram exemplar as one plain record
    /// `{"series", "bucket", "value", "trace_id"}` — flat histograms
    /// name-sorted, then labeled series in snapshot order, each
    /// bucket-sorted. Empty unless samples came in with a trace id.
    pub fn exemplars_to_json(&self) -> Vec<Json> {
        let flat = self.snapshot().into_iter().map(|(n, m)| (n.to_string(), m));
        let labeled = self
            .labeled_snapshot()
            .into_iter()
            .map(|(n, l, m)| (l.series_key(n), m));
        let mut out = Vec::new();
        for (series, metric) in flat.chain(labeled) {
            let Metric::Hist(h) = metric else { continue };
            for (bucket, value, trace_id) in h.exemplars() {
                out.push(crate::json!({
                    "series": series.as_str(),
                    "bucket": bucket,
                    "value": value,
                    "trace_id": id_hex(trace_id),
                }));
            }
        }
        out
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

    /// Current gauge value (None if absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        match self.metrics.get(name) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
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
    use medes_sim::DetRng;

    #[test]
    fn bucket_index_is_monotonic_and_bounds_contain() {
        let mut prev = 0usize;
        for v in (0..100_000u64).step_by(37) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotonic at {v}");
            prev = idx;
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}] (idx {idx})");
        }
        // Spot-check huge values don't panic.
        for v in [u64::MAX, u64::MAX / 2, 1 << 62] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        // With bucket width 1 below SUB_BUCKETS, quantiles are exact.
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(31.0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
    }

    /// Acceptance criterion: quantile accuracy vs. exact sort on 10k
    /// samples.
    #[test]
    fn quantiles_match_exact_sort_within_relative_error() {
        let mut rng = DetRng::new(0x0b5e_11a7);
        let mut h = LogLinearHistogram::new();
        let mut samples: Vec<u64> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            // Heavy-tailed latency-like distribution, ~1µs..~1s.
            let v = (rng.log_normal(8.0, 2.0) as u64).clamp(1, 1_000_000_000);
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let est = h.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact.max(1.0);
            // Log-linear bound is 1/SUB_BUCKETS per-bucket; allow a bit
            // of slack for rank landing mid-bucket.
            assert!(
                rel < 0.05,
                "q={q}: est {est} vs exact {exact} (rel {rel:.4})"
            );
        }
        assert_eq!(h.count(), 10_000);
        let mean_exact = samples.iter().map(|&v| v as f64).sum::<f64>() / 10_000.0;
        assert!((h.mean() - mean_exact).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_quantiles_are_none() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_all_quantiles_equal_it() {
        let mut h = LogLinearHistogram::new();
        h.record(12345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12345.0));
        }
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.counter_add("medes.platform.starts.warm", 1);
        m.counter_add("medes.platform.starts.warm", 2);
        m.gauge_set("medes.registry.entries", 42.0);
        m.record("medes.net.rdma_read_us", 10);
        m.record("medes.net.rdma_read_us", 20);
        assert_eq!(m.counter("medes.platform.starts.warm"), 3);
        assert_eq!(m.gauge("medes.registry.entries"), Some(42.0));
        assert_eq!(m.histogram("medes.net.rdma_read_us").unwrap().count(), 2);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.len(), 3);

        let snap = m.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        let j = m.to_json();
        assert_eq!(j["medes.platform.starts.warm"], 3);
        assert_eq!(j["medes.net.rdma_read_us"]["count"], 2);
    }

    /// Tentpole: label sets are key-sorted regardless of build order,
    /// bounded at [`MAX_LABELS`], and overwrite-in-place on repeat
    /// keys.
    #[test]
    fn label_sets_sort_bound_and_overwrite() {
        let a = LabelSet::new().with("node", 3u64).with("func", "resnet");
        let b = LabelSet::new().with("func", "resnet").with("node", 3u64);
        assert_eq!(a, b, "build order must not matter");
        assert_eq!(a.render(), "func=resnet,node=3");
        assert_eq!(a.get("node"), Some(&SmallValue::U64(3)));
        assert_eq!(a.get("absent"), None);
        let c = a.clone().with("node", 4u64);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("node"), Some(&SmallValue::U64(4)));
        // Owned and borrowed strings key the same series.
        let owned = LabelSet::new().with("func", "resnet".to_string());
        assert_eq!(owned, LabelSet::new().with("func", "resnet"));
    }

    /// Labeled series live in their own map, move only together with
    /// the flat metric of the same name, and snapshot in
    /// name-then-label order.
    #[test]
    fn labeled_series_are_separate_and_ordered() {
        let mut m = MetricsRegistry::new();
        m.counter_add_with("medes.restore.ops", 2, LabelSet::new().with("node", 1u64));
        m.counter_add_with("medes.restore.ops", 3, LabelSet::new().with("node", 0u64));
        m.record_with(
            "medes.restore.op_us",
            40,
            Some(0xabc),
            LabelSet::new().with("node", 0u64),
        );
        assert_eq!(m.counter("medes.restore.ops"), 5, "flat is the sum");
        assert_eq!(m.histogram("medes.restore.op_us").unwrap().count(), 1);
        assert_eq!(m.len(), 2, "labeled series don't count as flat metrics");
        assert_eq!(m.labeled_len(), 3);
        assert_eq!(
            m.labeled_counter("medes.restore.ops", &LabelSet::new().with("node", 0u64)),
            3
        );
        let snap = m.labeled_snapshot();
        let keys: Vec<String> = snap.iter().map(|(n, l, _)| l.series_key(n)).collect();
        assert_eq!(
            keys,
            [
                "medes.restore.op_us{node=0}",
                "medes.restore.ops{node=0}",
                "medes.restore.ops{node=1}",
            ]
        );
        let j = m.labeled_to_json();
        assert_eq!(j["medes.restore.ops{node=1}"], 2);
        assert_eq!(j["medes.restore.op_us{node=0}"]["count"], 1);
        let ex = m.exemplars_to_json();
        assert_eq!(ex.len(), 2, "flat and labeled histogram both keep it");
        assert_eq!(ex[1]["series"], "medes.restore.op_us{node=0}");
        assert_eq!(ex[1]["trace_id"], "0000000000000abc");
    }

    /// A dimensional write to a name held by another metric type drops
    /// the flat write *and* the labeled one — a labeled series never
    /// exists without a flat aggregate of its own type.
    #[test]
    fn mismatched_dimensional_write_creates_no_series() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut m = MetricsRegistry::new();
        m.gauge_set("medes.x.level", 1.0);
        let labels = || LabelSet::new().with("node", 0u64);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.counter_add_with("medes.x.level", 1, labels())
        }));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.record_with("medes.x.level", 1, None, labels())
        }));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        assert_eq!(m.type_mismatches(), 2);
        assert_eq!(m.labeled_len(), 0);
        assert_eq!(m.gauge("medes.x.level"), Some(1.0));
    }

    /// Satellite property: `parse_series_key` inverts
    /// `LabelSet::series_key` for any label text, the four delimiter
    /// bytes included, and plain text renders unescaped.
    #[test]
    fn series_keys_round_trip_any_label_text() {
        const KEYS: [&str; 5] = ["dst", "func", "node", "owner", "src"];
        const ALPHABET: &[u8] = b",=}\\{ab\"\n 7";
        let mut rng = DetRng::new(0x5e71_e5ca_9e00_0013);
        for case in 0..2_000 {
            let mut set = LabelSet::new();
            for _ in 0..rng.below(MAX_LABELS as u64 + 1) {
                let key = KEYS[rng.below(KEYS.len() as u64) as usize];
                set = if rng.chance(0.3) {
                    set.with(key, rng.below(1 << 40))
                } else {
                    let text: String = (0..rng.below(9))
                        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
                        .collect();
                    set.with(key, text)
                };
            }
            let key = set.series_key("medes.t.metric");
            let (base, labels) =
                parse_series_key(&key).unwrap_or_else(|| panic!("case {case}: {key:?}"));
            assert_eq!(base, "medes.t.metric");
            let want: Vec<(String, String)> = set
                .pairs()
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            assert_eq!(labels, want, "case {case}: {key:?}");
        }
        assert_eq!(
            LabelSet::new()
                .with("func", "resnet-50_v2")
                .with("node", 3u64)
                .series_key("medes.x"),
            "medes.x{func=resnet-50_v2,node=3}"
        );
        assert_eq!(
            LabelSet::new().with("func", "a,b=c}d\\e").render(),
            "func=a\\,b\\=c\\}d\\\\e"
        );
        assert_eq!(parse_series_key("medes.flat"), None);
        assert_eq!(parse_series_key("x{novalue}"), None);
        assert_eq!(parse_series_key("x{k=v"), None);
        assert_eq!(parse_series_key("x{k=a}b}"), None, "unescaped brace");
        assert_eq!(parse_series_key("x{k=trailing\\}"), None);
    }

    /// Tentpole: each bucket's exemplar is the max sample's trace id,
    /// ties keep the earliest, and plain `record` leaves exemplars
    /// untouched.
    #[test]
    fn exemplars_track_bucket_max_samples() {
        let mut h = LogLinearHistogram::new();
        h.record(1_000_000); // no exemplar
        h.record_traced(10, 0x1);
        h.record_traced(12, 0x2); // same octave-0 region? idx 10 vs 12 differ
        h.record_traced(12, 0x3); // tie: first wins
        h.record_traced(1 << 20, 0x4);
        h.record_traced((1 << 20) + 1, 0x5); // same bucket, larger sample
        let ex: Vec<(usize, u64, u64)> = h.exemplars().collect();
        assert_eq!(ex.len(), 3);
        assert_eq!(ex[0], (10, 10, 0x1));
        assert_eq!(ex[1], (12, 12, 0x2));
        assert_eq!(ex[2].1, (1 << 20) + 1);
        assert_eq!(ex[2].2, 0x5);
        assert_eq!(h.count(), 6);
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
        let r = catch_unwind(AssertUnwindSafe(|| m.record("medes.x.ops", 3)));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        assert_eq!(m.type_mismatches(), 2);
        assert_eq!(m.counter("medes.x.ops"), 1, "original counter intact");
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
