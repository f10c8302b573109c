//! What a run says about itself: the sampler and the final report.

use super::Cluster;
use crate::metrics::RunReport;
use medes_sim::SimTime;

impl Cluster {
    /// One deterministic time-series sample at simulated time `now`:
    /// per-node memory plus a snapshot of every registered
    /// counter/gauge. Strictly read-only against simulation state — it
    /// must never perturb the `RunReport`
    /// (`tests/obs_streaming.rs` pins this).
    pub(super) fn sample_tick(&self, now: SimTime) {
        for (i, used) in self.mem.used_per_node().enumerate() {
            let series = format!("medes.node.{i}.mem_bytes");
            self.obs.series_point(&series, now, used as f64);
        }
        // Live sandboxes and registry occupancy are already registry
        // gauges, and SLO violations and cache hits and misses
        // registry counters (kept current by the metrics, registry, SLO
        // and cache layers), so the registry snapshot below covers them
        // — pointing them explicitly too would write two samples at the
        // same timestamp.
        self.obs.series_sample(now);
    }

    pub(super) fn finish(mut self, end: SimTime) -> RunReport {
        self.check(end);
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
            let (w, memo_peak) = (self.dedup_work, self.life.memo_peak_bytes() as u64);
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
        self.metrics.finish(end)
    }
}
