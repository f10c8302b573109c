//! The scheduler: finding a sandbox for a request, and a node for a
//! sandbox.

use super::{Cluster, Ev, ReqInfo};
use crate::ids::{FnId, NodeId, SandboxId};
use crate::metrics::{FnDedupStats, RequestRecord, StartType, Tally};
use crate::restore::{restore_op_cached, RestoreTiming};
use crate::sandbox::Sandbox;
use medes_sim::engine::Scheduler;
use medes_sim::SimDuration;

/// Retry cadence for requests parked in the wait queue.
pub(super) const QUEUE_RETRY: SimDuration = SimDuration::from_millis(100);

impl Cluster {
    /// Serves `req` with the cheapest start available: an idle warm
    /// sandbox → an idle dedup sandbox (restore, §4.2) → a cold start →
    /// the wait queue when no memory can be freed.
    pub(super) fn dispatch(&mut self, req: ReqInfo, sched: &mut Scheduler<Ev>) {
        let f = req.func;
        if let Some(id) = self.life.take_warm(f) {
            let warm = self.fns[f].profile.warm_start();
            return self.run_request(id, req, warm, StartType::Warm, sched);
        }
        // No room to restore, or a failed restore: fall through to the
        // cold path, which may evict that very dedup sandbox if that is
        // what it takes.
        let mru_dedup = self.life.idle_dedup(f).next_back();
        if mru_dedup.is_some_and(|id| self.try_restore(id, req, sched)) {
            return;
        }

        let m_w = self.fns[f].profile.memory_bytes;
        let Some(node) = self.pick_node(m_w) else {
            // No capacity anywhere: park in the wait queue. Exactly one
            // retry chain per function keeps the event count linear.
            self.fns[f].wait_queue.push_back(req);
            self.obs.incr("medes.platform.queued");
            if !self.fns[f].retry_armed {
                self.fns[f].retry_armed = true;
                sched.after(QUEUE_RETRY, Ev::RetryQueue(f));
            }
            return;
        };
        let instance_seed = self.rng.next_u64();
        let pages = self.bases.images().model_pages(FnId(f));
        let (version, now) = (self.fns[f].version, sched.now());
        let new = |id| Sandbox::new(id, FnId(f), node, instance_seed, version, now, pages);
        let id = self.life.spawn(new);
        let sb = self.life.footprint_mut(id);
        self.mem.admit(&mut self.metrics, sb, m_w);
        self.metrics.report.sandboxes_spawned += 1;
        self.metrics.live_update(self.life.len() as f64);
        let cold = self.fns[f].profile.cold_start();
        sched.after(cold, Ev::SpawnDone(id, req));
    }

    /// Starts `req` on sandbox `id`, which has just become `Running`:
    /// execution begins `lead` from now (a warm start's dispatch cost).
    pub(super) fn run_request(
        &mut self,
        id: SandboxId,
        req: ReqInfo,
        lead: SimDuration,
        start: StartType,
        sched: &mut Scheduler<Ev>,
    ) {
        let rt = &self.fns[req.func];
        let exec = match rt.exec_dist {
            Some((mu, sigma)) => SimDuration::from_secs_f64(self.rng.log_normal(mu, sigma)),
            None => rt.profile.exec_time(),
        };
        let rec = RequestRecord {
            id: req.id,
            func: req.func,
            arrival_us: req.arrival.as_micros(),
            startup_us: (sched.now().since(req.arrival) + lead).as_micros(),
            exec_us: exec.as_micros(),
            e2e_us: 0, // finalized at ExecDone
            start,
        };
        sched.after(lead + exec, Ev::ExecDone(id, rec));
    }

    /// Restores dedup sandbox `id` for `req` if its node can be made to
    /// fit the warm footprint and the base pages can be read. Returns
    /// whether the request is now waiting on the restore.
    fn try_restore(&mut self, id: SandboxId, req: ReqInfo, sched: &mut Scheduler<Ev>) -> bool {
        let (now, f) = (sched.now(), req.func);
        let (node, cur_mem) = (self.life[&id].node, self.life[&id].mem_paper_bytes);
        let m_w = self.fns[f].profile.memory_bytes;
        // Base pages are read and patched page-by-page, so the transient
        // read volume (m_R) never needs to be resident at once; the
        // restore only needs the final warm footprint.
        if !self.ensure_capacity(node, m_w.saturating_sub(cur_mem), Some(id)) {
            return false;
        }
        let sb = &self.life[&id];
        let table = sb.dedup_table.as_ref().expect("dedup sandbox has a table");
        let image = || {
            self.bases
                .images()
                .image_v(sb.func, sb.instance_seed, sb.version)
        };
        let verify = self.cfg.verify_restores.then(image);
        // The request's trace root is a pure function of (seed, request
        // id), so the identical context is re-minted at ExecDone for the
        // request span — no state threading through events. Fabric
        // retries during the base read parent under the base-read phase
        // span the op will emit afterwards.
        let root = self.obs.trace_root("request", self.cfg.seed, req.id);
        let base_read = RestoreTiming::base_read_ctx(RestoreTiming::op_ctx(root));
        let restored = {
            let mut fabric = self.fabric.with_ctx(base_read);
            let (cfg, resolve) = (&self.cfg, |b| self.bases.resolve(b));
            self.mem.with_cache(&mut self.metrics, node, |cache| {
                restore_op_cached(
                    cfg,
                    &mut fabric,
                    node,
                    table,
                    &resolve,
                    cache,
                    verify.as_deref(),
                )
            })
        };
        self.mem.trim_overflow(&mut self.metrics, node);
        let outcome = match restored {
            Ok(outcome) => outcome,
            Err(err) => {
                // The base pages are unreachable (crashed base node, or
                // reads broken past the retry policy): §5.3 — discard
                // the dedup sandbox and fall back to a cold start.
                debug_assert!(
                    !self.cfg.faults.is_empty(),
                    "restore failed without fault injection: {err}"
                );
                let _ = &err;
                self.metrics.count(Tally::FallbackColdStart);
                self.purge(id);
                return false;
            }
        };
        let timing = outcome.timing;
        timing.record(&self.obs, now, &self.fns[f].profile.name, root, node.0);
        if self.obs.enabled() {
            // The cache span covers the base-read phase it accelerates,
            // and sits under it in the trace tree.
            let ctx = base_read.child("medes.restore.cache", 0);
            self.obs
                .span_in("medes.restore.cache", now, ctx)
                .attr("hits", outcome.cache_hits)
                .attr("misses", outcome.cache_misses)
                .end(now + timing.base_read);
        }
        self.life.begin_restore(id);
        let sb = self.life.footprint_mut(id);
        self.mem.resize(&mut self.metrics, sb, cur_mem.max(m_w));
        sched.after(timing.total(), Ev::RestoreDone(id, req));
        // Record the Fig 8 breakdown.
        let stats = &mut self.metrics.report.dedup_stats[f];
        stats.restores += 1;
        let (n, means) = (stats.restores, &mut stats.mean_restore_us);
        FnDedupStats::fold(&mut means.0, n, timing.base_read.as_micros() as f64);
        FnDedupStats::fold(&mut means.1, n, timing.page_compute.as_micros() as f64);
        FnDedupStats::fold(&mut means.2, n, timing.ckpt_restore.as_micros() as f64);
        self.fns[f].record_dedup_start(timing.total());
        self.fns[f].record_restore_reads(outcome.read_paper_bytes);
        true
    }

    /// Picks the node with the most free memory that can (be made to)
    /// fit `bytes`; evicts idle sandboxes if nothing fits outright.
    fn pick_node(&mut self, bytes: usize) -> Option<NodeId> {
        let order = self.mem.most_free_first();
        let fits = order.iter().find(|&&n| self.mem.free(n) >= bytes);
        fits.copied().or_else(|| {
            order
                .into_iter()
                .find(|&n| self.ensure_capacity(n, bytes, None))
        })
    }

    /// Ensures `needed` free bytes on a node: sheds its page cache
    /// first, then evicts idle sandboxes in `NodeMemory::eviction_order`.
    /// `exclude` protects a sandbox the caller is about to use (the
    /// dedup sandbox being restored) from being evicted to make its own
    /// room.
    fn ensure_capacity(&mut self, node: NodeId, needed: usize, exclude: Option<SandboxId>) -> bool {
        if self.mem.shed_cache(&mut self.metrics, node, needed) {
            return true;
        }
        let victims = self
            .mem
            .eviction_order(node, exclude, &self.life, &self.bases);
        for id in victims {
            if self.mem.free(node) >= needed {
                break;
            }
            self.purge(id);
            self.metrics.count(Tally::Eviction);
        }
        self.mem.free(node) >= needed
    }
}
