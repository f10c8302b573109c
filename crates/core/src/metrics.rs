//! Run metrics: everything the paper's tables and figures need.
//!
//! The platform's collector is layered on top of `medes-obs`: every
//! request it records is mirrored as a `medes.platform.request` span
//! plus latency histograms, so an obs-enabled run yields a JSONL trace
//! whose aggregates match the [`RunReport`] exactly.

use medes_obs::{LabelSet, Obs, TraceCtx};
use medes_sim::stats::Percentiles;
use medes_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// How a request's sandbox was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartType {
    /// Reused an idle warm sandbox.
    Warm,
    /// Restored a dedup sandbox (a "dedup start").
    Dedup,
    /// Spawned a new sandbox (a cold start; under the Fig 13 Catalyzer
    /// profiles its cost is a snapshot restore, still counted as a cold
    /// start per §7.6).
    Cold,
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Trace request id (stable across policies for paired comparison).
    pub id: u64,
    /// Function index.
    pub func: usize,
    /// Arrival time, µs.
    pub arrival_us: u64,
    /// Startup latency (queue wait + sandbox acquisition), µs.
    pub startup_us: u64,
    /// Execution time, µs.
    pub exec_us: u64,
    /// End-to-end latency (arrival → completion), µs.
    pub e2e_us: u64,
    /// How the sandbox was obtained.
    pub start: StartType,
}

impl RequestRecord {
    /// Function slowdown: end-to-end latency over pure execution time.
    pub fn slowdown(&self) -> f64 {
        self.e2e_us as f64 / self.exec_us.max(1) as f64
    }
}

/// Per-function aggregate of dedup behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnDedupStats {
    /// Dedup ops performed.
    pub dedup_ops: u64,
    /// Restores (dedup starts) performed.
    pub restores: u64,
    /// Mean paper-scale bytes saved per dedup op.
    pub mean_saved_paper_bytes: f64,
    /// Mean paper-scale resident footprint of a dedup sandbox.
    pub mean_dedup_footprint: f64,
    /// Mean dedup-op wall time, µs (the §7.7 overhead number).
    pub mean_dedup_op_us: f64,
    /// Mean restore breakdown, µs: (base read, page compute, ckpt).
    pub mean_restore_us: (f64, f64, f64),
    /// Mean patch size in bytes (model scale).
    pub mean_patch_bytes: f64,
}

impl FnDedupStats {
    /// Folds a value into a running mean. `count` is the number of
    /// observations *including* `value` (callers bump their counter
    /// first, then fold). The first observation (`count <= 1`) sets the
    /// mean outright, so a `count` of zero can never divide by zero.
    pub(crate) fn fold(mean: &mut f64, count: u64, value: f64) {
        if count <= 1 {
            *mean = value;
        } else {
            *mean += (value - *mean) / (count as f64);
        }
    }
}

/// The full output of one platform run. `PartialEq` lets chaos tests
/// assert bit-identical replay of a (seed, fault plan) pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Function names (index-aligned with everything per-function).
    pub functions: Vec<String>,
    /// Every completed request.
    pub requests: Vec<RequestRecord>,
    /// Cluster memory usage samples `(time_us, paper_bytes)`.
    pub mem_series: Vec<(u64, f64)>,
    /// Time-weighted mean cluster memory (paper bytes).
    pub mem_mean_bytes: f64,
    /// Median of sampled cluster memory (paper bytes).
    pub mem_median_bytes: f64,
    /// Time-weighted mean number of live sandboxes.
    pub mean_live_sandboxes: f64,
    /// Sandboxes spawned over the run.
    pub sandboxes_spawned: u64,
    /// Sandboxes that went through the dedup state at least once.
    pub sandboxes_deduped: u64,
    /// Evictions under memory pressure.
    pub evictions: u64,
    /// Keep-alive / keep-dedup expirations.
    pub expirations: u64,
    /// Per-function dedup statistics.
    pub dedup_stats: Vec<FnDedupStats>,
    /// Pages deduplicated against same-function base pages.
    pub same_fn_pages: u64,
    /// Pages deduplicated against other functions' base pages.
    pub cross_fn_pages: u64,
    /// Final fingerprint-registry entries.
    pub registry_entries: usize,
    /// Peak fingerprint-registry entries over the run.
    pub registry_peak_entries: usize,
    /// Peak fingerprint-registry bytes over the run.
    pub registry_peak_bytes: usize,
    /// Final fingerprint-registry bytes (controller overhead, §7.7).
    pub registry_bytes: usize,
    /// Registry lookups served.
    pub registry_lookups: u64,
    /// RDMA bytes moved (restore + dedup reads).
    pub rdma_bytes: u64,
    /// Dedup restores that fell back to a cold start after exhausting
    /// retries (§5.3 availability fallback). Zero without faults.
    pub fallback_cold_starts: u64,
    /// Rolling-deploy version bumps applied over the run (one per
    /// effective [`medes_trace::VersionBump`]; stale or out-of-range
    /// bumps are ignored and not counted).
    pub version_bumps: u64,
    /// Sandboxes and base registrations purged because their content
    /// version fell behind their function's deployed version.
    pub version_purges: u64,
    /// Node crashes injected over the run.
    pub node_crashes: u64,
    /// Node restarts over the run.
    pub node_restarts: u64,
    /// In-flight requests re-dispatched because their node crashed.
    pub rescheduled_requests: u64,
    /// Fabric-level retries performed (RDMA + RPC).
    pub net_retries: u64,
    /// Fabric operations that failed (before retry accounting).
    pub net_failures: u64,
    /// Registry chunk locations still pointing at down nodes at the end
    /// of the run — must be zero (crash purge removes them all).
    pub registry_dead_node_locs: usize,
    /// Base-page cache hits summed over all node caches (restore read
    /// path). Zero when the cache is disabled.
    pub cache_hits: u64,
    /// Base-page cache misses summed over all node caches.
    pub cache_misses: u64,
    /// Base-page cache LRU evictions (capacity or memory pressure).
    pub cache_evictions: u64,
    /// Base-page cache entries dropped because their base sandbox died.
    pub cache_invalidations: u64,
    /// Paper-scale bytes served from the base-page caches instead of
    /// the fabric.
    pub cache_bytes_saved: u64,
    /// Dedup pipeline batch flushes executed. Invariant across worker
    /// counts (batch membership depends only on simulated time).
    pub dedup_batches: u64,
    /// Largest dedup batch flushed over the run.
    pub dedup_batch_peak: u64,
    /// Wall-clock-equivalent simulated duration of the run.
    pub duration_us: u64,
}

impl RunReport {
    /// Cold starts per function.
    pub fn cold_starts(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.functions.len()];
        for r in &self.requests {
            if r.start == StartType::Cold {
                v[r.func] += 1;
            }
        }
        v
    }

    /// Total cold starts.
    pub fn total_cold_starts(&self) -> u64 {
        self.cold_starts().iter().sum()
    }

    /// Dedup starts per function.
    pub fn dedup_starts(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.functions.len()];
        for r in &self.requests {
            if r.start == StartType::Dedup {
                v[r.func] += 1;
            }
        }
        v
    }

    /// The `q`-quantile of end-to-end latency for one function, in ms.
    pub fn e2e_quantile_ms(&self, func: usize, q: f64) -> Option<f64> {
        let mut p = Percentiles::new();
        for r in self.requests.iter().filter(|r| r.func == func) {
            p.record(r.e2e_us as f64 / 1e3);
        }
        p.quantile(q)
    }

    /// The `q`-quantile of end-to-end latency over all requests, ms.
    pub fn e2e_quantile_all_ms(&self, q: f64) -> Option<f64> {
        let mut p = Percentiles::new();
        for r in &self.requests {
            p.record(r.e2e_us as f64 / 1e3);
        }
        p.quantile(q)
    }

    /// Per-request improvement factors of `self` over `baseline`
    /// (baseline e2e / this e2e), paired by request id. This is the
    /// distribution Fig 7a plots.
    pub fn improvement_factors(&self, baseline: &RunReport) -> Vec<f64> {
        let mut base = std::collections::HashMap::with_capacity(baseline.requests.len());
        for r in &baseline.requests {
            base.insert(r.id, r.e2e_us);
        }
        self.requests
            .iter()
            .filter_map(|r| base.get(&r.id).map(|&b| b as f64 / r.e2e_us.max(1) as f64))
            .collect()
    }

    /// CDF points of request slowdowns (Fig 16a).
    pub fn slowdown_cdf(&self, points: usize) -> Vec<(f64, f64)> {
        let mut p = Percentiles::new();
        for r in &self.requests {
            p.record(r.slowdown());
        }
        p.cdf(points)
    }

    /// Fraction of spawned sandboxes that were deduplicated at least
    /// once (the paper reports ~39 % for Medes).
    pub fn dedup_fraction(&self) -> f64 {
        if self.sandboxes_spawned == 0 {
            0.0
        } else {
            self.sandboxes_deduped as f64 / self.sandboxes_spawned as f64
        }
    }
}

/// The platform events a run only counts: each is one field of the
/// report and one `medes.platform.*` counter of the same meaning.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tally {
    /// A sandbox evicted under memory pressure.
    Eviction,
    /// A keep-alive / keep-dedup expiration.
    Expiration,
    NodeCrash,
    NodeRestart,
    VersionBump,
    VersionPurge,
    FallbackColdStart,
    Rescheduled,
}

/// Builder that the platform drives while the simulation runs.
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    /// The report under construction.
    pub report: RunReport,
    obs: Arc<Obs>,
    /// The simulated instant of the event being handled: when the
    /// memory and live-sandbox updates that follow take effect.
    now: SimTime,
    mem: medes_sim::stats::TimeWeighted,
    live: medes_sim::stats::TimeWeighted,
}

impl MetricsCollector {
    /// Creates a collector that mirrors everything it records into the
    /// given observability sink.
    pub fn with_obs(functions: Vec<String>, mem_sample_every: SimDuration, obs: Arc<Obs>) -> Self {
        let n = functions.len();
        MetricsCollector {
            report: RunReport {
                functions,
                dedup_stats: vec![FnDedupStats::default(); n],
                ..Default::default()
            },
            obs,
            now: SimTime::ZERO,
            mem: medes_sim::stats::TimeWeighted::new(mem_sample_every),
            live: medes_sim::stats::TimeWeighted::new(mem_sample_every),
        }
    }

    /// Records one completed request: appends it to the report and
    /// mirrors it as a `medes.platform.request` span + histograms.
    ///
    /// `ctx` is the request's trace root (the span carries its ids, so
    /// restore/dedup phase spans minted from the same root link under
    /// it); pass [`TraceCtx::NONE`] for a flat record. `bound_us` is
    /// the SLO bound in effect (`α · s_W`; 0 = none) — the startup
    /// latency is checked against it in the per-function
    /// [`medes_obs::SloTracker`]. SLO samples are never head-sampled
    /// away: quantiles stay exact even when span sampling is on.
    /// `node` is the node the request ran on; with dimensional
    /// telemetry on it keys the per-node labeled series and tags SLO
    /// violations for drill-down.
    pub fn push_request(&mut self, rec: RequestRecord, ctx: TraceCtx, bound_us: u64, node: usize) {
        if self.obs.enabled() {
            let start_type = match rec.start {
                StartType::Warm => "warm",
                StartType::Dedup => "dedup",
                StartType::Cold => "cold",
            };
            let fn_name = self
                .report
                .functions
                .get(rec.func)
                .map_or("?", String::as_str);
            self.obs.slo_record_traced(
                fn_name,
                rec.startup_us,
                bound_us,
                ctx.trace_id,
                node as u64,
            );
            let labels = || {
                LabelSet::new()
                    .with("node", node)
                    .with("func", fn_name.to_string())
            };
            self.obs
                .span_in(
                    "medes.platform.request",
                    SimTime::from_micros(rec.arrival_us),
                    ctx,
                )
                .attr("id", rec.id)
                .attr("fn", fn_name)
                .attr("start_type", start_type)
                .attr("startup_us", rec.startup_us)
                .attr("exec_us", rec.exec_us)
                .end(SimTime::from_micros(rec.arrival_us + rec.e2e_us));
            let start_counter = match rec.start {
                StartType::Warm => "medes.platform.starts.warm",
                StartType::Dedup => "medes.platform.starts.dedup",
                StartType::Cold => "medes.platform.starts.cold",
            };
            self.obs.incr_with(start_counter, labels);
            self.obs.record_with(
                "medes.platform.e2e_us",
                rec.e2e_us,
                Some(ctx.trace_id),
                labels,
            );
            self.obs.record_with(
                "medes.platform.startup_us",
                rec.startup_us,
                Some(ctx.trace_id),
                labels,
            );
            self.obs
                .gauge_set("medes.slo.violations", self.obs.slo_violations() as f64);
        }
        self.report.requests.push(rec);
    }

    /// Records one counted event.
    pub fn count(&mut self, what: Tally) {
        let r = &mut self.report;
        let (field, counter) = match what {
            Tally::Eviction => (&mut r.evictions, "medes.platform.evictions"),
            Tally::Expiration => (&mut r.expirations, "medes.platform.expirations"),
            Tally::NodeCrash => (&mut r.node_crashes, "medes.platform.node_crashes"),
            Tally::NodeRestart => (&mut r.node_restarts, "medes.platform.node_restarts"),
            Tally::VersionBump => (&mut r.version_bumps, "medes.platform.version_bumps"),
            Tally::VersionPurge => (&mut r.version_purges, "medes.platform.version_purges"),
            Tally::FallbackColdStart => (
                &mut r.fallback_cold_starts,
                "medes.platform.starts.fallback_cold",
            ),
            Tally::Rescheduled => (&mut r.rescheduled_requests, "medes.platform.rescheduled"),
        };
        *field += 1;
        self.obs.incr(counter);
    }

    /// Mirrors the simulated clock (like `Fabric::set_now`).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Records a cluster memory usage change (paper bytes).
    pub fn mem_update(&mut self, paper_bytes: f64) {
        self.mem.update(self.now, paper_bytes);
        self.obs
            .gauge_set("medes.platform.mem_paper_bytes", paper_bytes);
    }

    /// Records a live-sandbox-count change.
    pub fn live_update(&mut self, count: f64) {
        self.live.update(self.now, count);
        self.obs.gauge_set("medes.platform.live_sandboxes", count);
    }

    /// Finalizes the report at `end`.
    pub fn finish(mut self, end: SimTime) -> RunReport {
        self.report.duration_us = end.as_micros();
        self.report.mem_mean_bytes = self.mem.mean_until(end);
        self.report.mem_median_bytes = self.mem.median().unwrap_or(0.0);
        self.report.mean_live_sandboxes = self.live.mean_until(end);
        self.report.mem_series = self
            .mem
            .series()
            .iter()
            .map(|&(t, v)| (t.as_micros(), v))
            .collect();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, func: usize, e2e_ms: u64, start: StartType) -> RequestRecord {
        RequestRecord {
            id,
            func,
            arrival_us: 0,
            startup_us: 0,
            exec_us: 100_000,
            e2e_us: e2e_ms * 1000,
            start,
        }
    }

    #[test]
    fn cold_start_counting() {
        let mut r = RunReport {
            functions: vec!["A".into(), "B".into()],
            ..Default::default()
        };
        r.requests.push(record(0, 0, 500, StartType::Cold));
        r.requests.push(record(1, 0, 10, StartType::Warm));
        r.requests.push(record(2, 1, 600, StartType::Cold));
        assert_eq!(r.cold_starts(), vec![1, 1]);
        assert_eq!(r.total_cold_starts(), 2);
        assert_eq!(r.dedup_starts(), vec![0, 0]);
    }

    #[test]
    fn paired_improvement_factors() {
        let mut medes = RunReport::default();
        let mut base = RunReport::default();
        medes.requests.push(record(0, 0, 100, StartType::Dedup));
        base.requests.push(record(0, 0, 300, StartType::Cold));
        medes.requests.push(record(1, 0, 100, StartType::Warm));
        base.requests.push(record(1, 0, 100, StartType::Warm));
        let f = medes.improvement_factors(&base);
        assert_eq!(f.len(), 2);
        assert!((f[0] - 3.0).abs() < 1e-9);
        assert!((f[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_per_function() {
        let mut r = RunReport {
            functions: vec!["A".into()],
            ..Default::default()
        };
        for i in 0..100 {
            r.requests.push(record(i, 0, i + 1, StartType::Warm));
        }
        let p999 = r.e2e_quantile_ms(0, 0.999).unwrap();
        assert!(p999 > 99.0);
        assert!(r.e2e_quantile_ms(1, 0.5).is_none());
        assert!(r.e2e_quantile_all_ms(0.5).is_some());
    }

    #[test]
    fn slowdown_math() {
        let rec = record(0, 0, 300, StartType::Cold); // exec 100ms, e2e 300ms
        assert!((rec.slowdown() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn collector_time_weighting() {
        let mut c = MetricsCollector::with_obs(
            vec!["A".into()],
            SimDuration::from_secs(1),
            Obs::disabled(),
        );
        c.mem_update(100.0);
        c.live_update(1.0);
        c.set_now(SimTime::from_secs(10));
        c.mem_update(200.0);
        let r = c.finish(SimTime::from_secs(20));
        assert!((r.mem_mean_bytes - 150.0).abs() < 1e-9);
        assert!(!r.mem_series.is_empty());
        assert_eq!(r.duration_us, 20_000_000);
    }

    #[test]
    fn dedup_fraction_handles_zero() {
        let r = RunReport::default();
        assert_eq!(r.dedup_fraction(), 0.0);
    }

    #[test]
    fn fold_matches_arithmetic_mean() {
        // Callers bump their count first and pass the new value, so
        // fold(n) over the n-th sample must track the exact mean.
        let samples = [3.0, 9.0, 1.0, 50.0, 0.25];
        let mut mean = 0.0;
        for (i, &v) in samples.iter().enumerate() {
            FnDedupStats::fold(&mut mean, (i + 1) as u64, v);
            let exact: f64 = samples[..=i].iter().sum::<f64>() / (i + 1) as f64;
            assert!((mean - exact).abs() < 1e-12, "after {} samples", i + 1);
        }
    }

    #[test]
    fn fold_first_observation_sets_mean() {
        // A stale starting value must not leak into the mean, and a
        // count of zero must not divide by zero.
        for count in [0u64, 1] {
            let mut mean = f64::NAN;
            FnDedupStats::fold(&mut mean, count, 42.0);
            assert_eq!(mean, 42.0, "count={count}");
        }
    }
}
