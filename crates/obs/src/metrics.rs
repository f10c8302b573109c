//! Named counters and gauges, flat and labeled.
//!
//! A duration is a span, never a metric: `trace report` computes its
//! percentiles from the spans. What is left here are facts no span
//! carries — counts, byte totals and levels. Metric names follow
//! `medes.<subsystem>.<name>`.

use crate::json::{Json, JsonMap};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

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
/// cardinality budget, not a data model — four is enough for a link's
/// `(src, dst)`, a registry `owner` and the report's `(fn, node)` keys,
/// and keeps the per-series key small.
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
/// `(name, LabelSet)`-keyed map of dimensional counters. The only way
/// to move a labeled counter is [`MetricsRegistry::counter_add_with`],
/// which moves the flat counter of the same name by the same amount
/// first — so every flat counter is the exact sum of its labeled series
/// by construction, and a run that never passes labels is
/// byte-identical to one that never heard of them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: HashMap<&'static str, Metric>,
    labeled: HashMap<(&'static str, LabelSet), u64>,
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

    /// Writes dropped because the name was already registered under a
    /// different metric type.
    pub fn type_mismatches(&self) -> u64 {
        self.type_mismatches
    }

    /// Adds `delta` to the counter `name` and to its labeled series
    /// `(name, labels)`. A labeled series is only ever created here,
    /// after the flat write landed; a mismatched flat write drops both.
    pub fn counter_add_with(&mut self, name: &'static str, delta: u64, labels: LabelSet) {
        if self.counter_add_flat(name, delta) {
            *self.labeled.entry((name, labels)).or_insert(0) += delta;
        }
    }

    /// Current labeled counter value (0 if absent).
    pub fn labeled_counter(&self, name: &str, labels: &LabelSet) -> u64 {
        self.labeled
            .iter()
            .find(|((n, l), _)| *n == name && l == labels)
            .map_or(0, |(_, v)| *v)
    }

    /// Number of labeled series.
    pub fn labeled_len(&self) -> usize {
        self.labeled.len()
    }

    /// Snapshot of all labeled counters, sorted by name then label set
    /// — the deterministic iteration order every export relies on.
    pub fn labeled_snapshot(&self) -> Vec<(&'static str, LabelSet, u64)> {
        let mut out: Vec<_> = self
            .labeled
            .iter()
            .map(|((n, l), v)| (*n, l.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// Serializes the labeled counters to a JSON object keyed
    /// `name{k=v,...}`, name-then-label sorted. Empty object when no
    /// labeled series exist.
    pub fn labeled_to_json(&self) -> Json {
        let mut m = JsonMap::new();
        for (name, labels, v) in self.labeled_snapshot() {
            m.insert(labels.series_key(name), v);
        }
        Json::Object(m)
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
    fn registry_counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.counter_add("medes.platform.starts.warm", 1);
        m.counter_add("medes.platform.starts.warm", 2);
        m.gauge_set("medes.registry.entries", 42.0);
        m.counter_add("medes.net.rpc_us_total", 10);
        assert_eq!(m.counter("medes.platform.starts.warm"), 3);
        assert_eq!(m.gauge("medes.registry.entries"), Some(42.0));
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.len(), 3);

        let snap = m.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        let j = m.to_json();
        assert_eq!(j["medes.platform.starts.warm"], 3);
        assert_eq!(j["medes.registry.entries"], 42.0);
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
        let link = |src: u64| LabelSet::new().with("src", src).with("dst", 0u64);
        m.counter_add_with("medes.net.rdma_reads", 2, link(1));
        m.counter_add_with("medes.net.rdma_reads", 3, link(0));
        m.counter_add_with(
            "medes.net.registry.rpcs",
            1,
            LabelSet::new().with("owner", 2u64),
        );
        assert_eq!(m.counter("medes.net.rdma_reads"), 5, "flat is the sum");
        assert_eq!(m.len(), 2, "labeled series don't count as flat metrics");
        assert_eq!(m.labeled_len(), 3);
        assert_eq!(m.labeled_counter("medes.net.rdma_reads", &link(0)), 3);
        let snap = m.labeled_snapshot();
        let keys: Vec<String> = snap.iter().map(|(n, l, _)| l.series_key(n)).collect();
        assert_eq!(
            keys,
            [
                "medes.net.rdma_reads{dst=0,src=0}",
                "medes.net.rdma_reads{dst=0,src=1}",
                "medes.net.registry.rpcs{owner=2}",
            ]
        );
        let j = m.labeled_to_json();
        assert_eq!(j["medes.net.rdma_reads{dst=0,src=1}"], 2);
        assert_eq!(j["medes.net.registry.rpcs{owner=2}"], 1);
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
        assert_eq!(m.type_mismatches(), 1);
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
        assert_eq!(m.type_mismatches(), 2);
        assert_eq!(m.counter("medes.x.ops"), 1, "original counter intact");
        assert_eq!(m.gauge("medes.x.level"), Some(1.0), "original gauge intact");
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
