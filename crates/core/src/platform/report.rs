//! What a run says about itself: the final report and, when traced,
//! the counters and gauges of the trace's tail line.

use super::Cluster;
use crate::metrics::{FnDedupStats, RequestRecord, RunReport, StartType};
use medes_net::RegistryOp;
use medes_sim::SimTime;

impl Cluster {
    pub(super) fn finish(mut self, end: SimTime) -> RunReport {
        self.check(end);
        let registry = self.bases.registry();
        let report = &mut self.metrics.report;
        let (mem, live) = self.mem.histories();
        report.mem_mean_bytes = mem.mean_until(end);
        report.mem_median_bytes = mem.clone().median().unwrap_or(0.0);
        report.mean_live_sandboxes = live.mean_until(end);
        let series = mem.series().iter().map(|&(t, v)| (t.as_micros(), v));
        report.mem_series = series.collect();
        report.registry_entries = registry.entries();
        report.registry_peak_entries = registry.peak_entries();
        report.registry_peak_bytes = registry.peak_mem_bytes();
        report.registry_bytes = registry.mem_bytes();
        report.registry_lookups = registry.counts().lookups;
        let fstats = self.fabric.stats();
        report.rdma_bytes = fstats.rdma_bytes;
        report.net_retries = fstats.retries;
        report.net_failures = fstats.rdma_failures + fstats.rpc_failures;
        let down = self.mem.down_nodes();
        report.registry_dead_node_locs = down.map(|n| registry.locs_on_node(n)).sum();
        for s in self.mem.cache_stats() {
            report.cache_hits += s.hits;
            report.cache_misses += s.misses;
            report.cache_evictions += s.evictions;
            report.cache_invalidations += s.invalidations;
            report.cache_bytes_saved += s.bytes_saved;
        }
        if self.obs.enabled() {
            self.write_tail();
        }
        self.metrics.finish(end)
    }

    /// Mirrors a completed request as a `medes.platform.request` span,
    /// the one record of its latency. The span's root has the same
    /// (seed, request id) as the context the dispatcher minted for the
    /// restore op, so restore and dedup phase spans link under it. It
    /// carries the SLO bound in effect (`α · s_W`; 0 = none) and the
    /// node the request ran on, so `trace report` counts SLO
    /// violations per function and per node.
    pub(super) fn request_span(&self, rec: &RequestRecord, node: usize) {
        if !self.obs.enabled() {
            return;
        }
        let start_type = match rec.start {
            StartType::Warm => "warm",
            StartType::Dedup => "dedup",
            StartType::Cold => "cold",
        };
        let f = rec.func as usize;
        let root = self.obs.trace_root("request", self.cfg.seed, rec.id);
        let arrival = SimTime::from_micros(rec.arrival_us);
        self.obs
            .span_in("medes.platform.request", arrival, root)
            .attr("id", rec.id)
            .attr("fn", self.fns[f].profile.name.as_str())
            .attr("start_type", start_type)
            .attr("startup_us", rec.startup_us)
            .attr("exec_us", rec.exec_us)
            .attr("node", node)
            .attr("bound_us", self.slo_bound_us(f))
            .end(SimTime::from_micros(rec.arrival_us + rec.e2e_us));
    }

    /// Writes the trace tail's counters and gauges, each folded from
    /// the one owner that counted it (DESIGN.md §7). Registry RPC
    /// traffic and ownership hygiene live here and never in
    /// `RunReport`, which must stay bit-identical across registry
    /// placements. A counter is written always (`all`), iff it is
    /// nonzero (`nz`), or iff the count of its events is (`per`); a
    /// gauge iff it was ever set.
    fn write_tail(&self) {
        let (m, r, c) = (&self.metrics, &self.metrics.report, self.metrics.counts);
        let (mem, live) = self.mem.histories();
        let (registry, images, w) = (self.bases.registry(), self.bases.images(), self.dedup_work);
        let (reg, rpc) = (registry.counts(), registry.rpc_stats());
        let (net, rec) = (self.fabric.stats() + rpc, reg.recovered);
        let down = self.mem.down_nodes();
        let dead_owned: usize = down.map(|n| registry.entries_owned_by(n)).sum();
        let starts = |t| m.slots.iter().flatten().filter(|q| q.start == t).count() as u64;
        let per_fn = |f: fn(&FnDedupStats) -> u64| r.dedup_stats.iter().map(f).sum::<u64>();
        let rpcs = |o: RegistryOp| net.registry_rpcs[o as usize];
        let (all, nz) = (Some, |v: u64| (v > 0).then_some(v));
        let per = |events: u64, v: u64| (events > 0).then_some(v);
        let shards = rec.reassigned_shards as u64;
        #[rustfmt::skip]
        let counters = [
            ("medes.registry.rpc_total", all(rpc.rpcs)),
            ("medes.registry.rpc_bytes_total", all(rpc.rpc_bytes)),
            ("medes.registry.rpc_time_us", all(rpc.rpc_us_total)),
            ("medes.registry.dead_owner_entries", all(dead_owned as u64)),
            ("medes.images.builds", all(images.builds())),
            ("medes.images.template_builds", all(images.template_builds())),
            ("medes.images.template_bytes", all(images.template_bytes() as u64)),
            ("medes.dedup.pages_fingerprinted", all(w.pages_fingerprinted)),
            ("medes.dedup.pages_encoded", all(w.pages_encoded)),
            ("medes.dedup.pages_reused", all(w.pages_reused)),
            ("medes.dedup.scans_without_image", all(w.scans_without_image)),
            ("medes.dedup.memo_peak_bytes", all(self.life.memo_peak_bytes() as u64)),
            ("medes.platform.arrivals", nz(m.slots.len() as u64)),
            ("medes.platform.queued", nz(c.queued)),
            ("medes.platform.demarcations", nz(c.demarcations)),
            ("medes.platform.re_demarcations", nz(c.re_demarcations)),
            ("medes.platform.registry_reassignments", nz(c.registry_reassignments)),
            ("medes.platform.dedup_aborts", nz(c.dedup_aborts)),
            ("medes.platform.evictions", nz(r.evictions)),
            ("medes.platform.expirations", nz(r.expirations)),
            ("medes.platform.node_crashes", nz(r.node_crashes)),
            ("medes.platform.node_restarts", nz(r.node_restarts)),
            ("medes.platform.version_bumps", nz(r.version_bumps)),
            ("medes.platform.version_purges", nz(r.version_purges)),
            ("medes.platform.rescheduled", nz(r.rescheduled_requests)),
            ("medes.platform.starts.warm", nz(starts(StartType::Warm))),
            ("medes.platform.starts.dedup", nz(starts(StartType::Dedup))),
            ("medes.platform.starts.cold", nz(starts(StartType::Cold))),
            ("medes.platform.starts.fallback_cold", nz(r.fallback_cold_starts)),
            ("medes.dedup.ops", nz(c.dedup_ops)),
            ("medes.dedup.checkpoint_bytes", per(c.dedup_ops, c.checkpoint_bytes)),
            ("medes.dedup.saved_paper_bytes", per(per_fn(|s| s.dedup_ops), c.saved_paper_bytes)),
            ("medes.restore.ops", nz(per_fn(|s| s.restores))),
            ("medes.restore.cache.hits", nz(r.cache_hits)),
            ("medes.restore.cache.misses", nz(r.cache_misses)),
            ("medes.restore.cache.evictions", nz(r.cache_evictions)),
            ("medes.restore.cache.invalidations", nz(r.cache_invalidations)),
            ("medes.restore.cache.bytes_saved", per(r.cache_hits, r.cache_bytes_saved)),
            // The platform inserts no empty fingerprint, so its first
            // insert adds an entry.
            ("medes.registry.inserts", nz(reg.inserts)),
            ("medes.registry.lookups", nz(reg.lookups)),
            ("medes.registry.evictions", nz(reg.evictions)),
            ("medes.registry.crash_purged", per(shards, rec.purged_entries as u64)),
            ("medes.registry.rereplicated", per(shards, rec.rereplicated_entries as u64)),
            ("medes.registry.shards_reassigned", nz(shards)),
            ("medes.net.rdma_reads", nz(net.rdma_reads)),
            ("medes.net.rdma_bytes", per(net.rdma_reads, net.rdma_bytes)),
            ("medes.net.rdma_batch_us_total", per(net.rdma_reads, net.rdma_batch_us_total)),
            ("medes.net.rpcs", nz(net.rpcs)),
            ("medes.net.rpc_bytes", per(net.rpcs, net.rpc_bytes)),
            ("medes.net.rpc_us_total", per(net.rpcs, net.rpc_us_total)),
            ("medes.net.rdma_failures", nz(net.rdma_failures)),
            ("medes.net.rpc_failures", nz(net.rpc_failures)),
            ("medes.net.err.timeout", nz(net.timeouts)),
            ("medes.net.err.unreachable", nz(net.unreachable)),
            ("medes.net.err.partial_read", nz(net.partial_reads)),
            ("medes.net.rpc_dropped", nz(net.rpc_dropped)),
            ("medes.net.retries", nz(net.retries)),
            ("medes.net.retry_giveups", nz(net.retry_giveups)),
            ("medes.net.registry.lookup_rpcs", nz(rpcs(RegistryOp::Lookup))),
            ("medes.net.registry.insert_rpcs", nz(rpcs(RegistryOp::Insert))),
            ("medes.net.registry.remove_rpcs", nz(rpcs(RegistryOp::Remove))),
            ("medes.net.registry.replicate_rpcs", nz(rpcs(RegistryOp::Replicate))),
        ];
        let entries = (reg.inserts > 0).then_some(registry.entries() as f64);
        let gauges = [
            ("medes.platform.mem_paper_bytes", mem.last()),
            ("medes.platform.live_sandboxes", live.last()),
            ("medes.registry.entries", entries),
        ];
        // The tail keeps one number a name, so a name written twice
        // would merge silently.
        debug_assert!({
            let mut names: Vec<_> = counters.iter().map(|c| c.0).collect();
            names.extend(gauges.iter().map(|g| g.0));
            names.sort_unstable();
            names.windows(2).all(|w| w[0] != w[1])
        });
        for (name, v) in counters {
            if let Some(v) = v {
                self.obs.counter_add(name, v);
            }
        }
        for (name, v) in gauges {
            if let Some(v) = v {
                self.obs.gauge_set(name, v);
            }
        }
    }
}
