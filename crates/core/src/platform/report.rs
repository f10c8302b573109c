//! What a run says about itself: the sampler and the final report.

use super::Cluster;
use crate::metrics::RunReport;
use medes_sim::SimTime;

impl Cluster {
    /// One deterministic time-series sample at simulated time `now`:
    /// per-node memory, page-cache hit rate, dedup batch depth, plus a
    /// snapshot of every registered counter/gauge. Strictly read-only
    /// against simulation state — it must never perturb the `RunReport`
    /// (the obs-overhead experiment pins this).
    pub(super) fn sample_tick(&self, now: SimTime) {
        for (i, used) in self.mem.used_per_node().enumerate() {
            let series = format!("medes.node.{i}.mem_bytes");
            self.obs.series_point(&series, now, used as f64);
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for s in self.mem.cache_stats() {
            hits += s.hits;
            misses += s.misses;
        }
        let rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        self.obs.series_point("medes.cache.hit_rate", now, rate);
        let pending = self.pipeline.pending.len() as f64;
        self.obs.series_point("medes.dedup.pending", now, pending);
        // Live sandboxes, SLO violations, and per-shard registry
        // occupancy are already registry gauges (kept current by the
        // metrics and registry layers), so the registry snapshot below
        // covers them — pointing them explicitly too would write two
        // samples at the same timestamp.
        self.obs.series_sample(now);
    }

    pub(super) fn finish(mut self, end: SimTime) -> RunReport {
        self.check();
        let (registry, factory) = (self.bases.registry(), self.bases.images());
        let report = &mut self.metrics.report;
        report.registry_entries = registry.entries();
        report.registry_peak_entries = registry.peak_entries();
        report.registry_peak_bytes = registry.peak_mem_bytes();
        report.registry_bytes = registry.mem_bytes();
        report.registry_lookups = registry.lookups();
        let fstats = self.fabric.stats();
        report.rdma_bytes = fstats.rdma_bytes;
        report.net_retries = fstats.retries;
        report.net_failures = fstats.rdma_failures + fstats.rpc_failures;
        let down = || self.mem.down_nodes();
        report.registry_dead_node_locs = down().map(|n| registry.locs_on_node(n)).sum();
        if self.obs.enabled() {
            // Registry RPC traffic and ownership hygiene are exported
            // as obs counters, never RunReport fields: the report must
            // stay bit-identical across registry placements, while the
            // overhead figures (§7.7) remain observable per run.
            let (rpc, rpc_us) = (registry.rpc_stats(), registry.rpc_time().as_micros());
            let dead_owned: usize = down().map(|n| registry.entries_owned_by(n)).sum();
            let template_bytes = factory.template_bytes() as u64;
            let (w, memo_peak) = (self.pipeline.work, self.life.memo_peak_bytes() as u64);
            for (name, v) in [
                ("medes.registry.rpc_total", rpc.rpcs),
                ("medes.registry.rpc_bytes_total", rpc.rpc_bytes),
                ("medes.registry.rpc_time_us", rpc_us),
                ("medes.registry.dead_owner_entries", dead_owned as u64),
                ("medes.images.builds", factory.builds()),
                ("medes.images.template_builds", factory.template_builds()),
                ("medes.images.template_bytes", template_bytes),
                ("medes.dedup.pages_fingerprinted", w.pages_fingerprinted),
                ("medes.dedup.pages_encoded", w.pages_encoded),
                ("medes.dedup.pages_reused", w.pages_reused),
                ("medes.dedup.scans_without_image", w.scans_without_image),
                ("medes.dedup.memo_peak_bytes", memo_peak),
            ] {
                self.obs.counter_add(name, v);
            }
        }
        for s in self.mem.cache_stats() {
            report.cache_hits += s.hits;
            report.cache_misses += s.misses;
            report.cache_evictions += s.evictions;
            report.cache_invalidations += s.invalidations;
            report.cache_bytes_saved += s.bytes_saved;
        }
        let mut report = self.metrics.finish(end);
        // Ids are unique, so the unstable sort has one possible result.
        report.requests.sort_unstable_by_key(|r| r.id);
        report
    }
}
