//! Medes only: from an idle warm sandbox to a dedup sandbox (§4.1, §5).
//!
//! `IdleCheck` decides — demarcate a base, stay warm, or dedup — and
//! queues the sandbox; `DedupFlush` scans the queue on the worker pool
//! and prices each op on the fabric; `DedupDone` commits the table, or
//! hands the sandbox back to the warm pool. From the flush to its
//! `DedupDone` an op's table holds a reference on every base it patches
//! against, so each way out of [`Cluster::dedup_done`] that does not
//! attach the table releases them.

use super::{Cluster, Ev};
use crate::dedup::{dedup_scan_with, DedupOutcome, DedupScan, DedupTiming, ScanWork};
use crate::ids::SandboxId;
use crate::metrics::FnDedupStats;
use crate::sandbox::{DedupMemo, SandboxState};
use medes_sim::engine::Scheduler;

/// A dedup op that saves less than this fraction of the image reverts
/// the sandbox to warm (not worth the restore cost).
const MIN_SAVING_FRAC: f64 = 0.05;

/// The batched dedup pipeline's own state: what waits for the next
/// flush, and what the host did in the scans so far.
#[derive(Debug, Default)]
pub(super) struct DedupPipeline {
    /// Sandboxes queued for the next flush: `(id, epoch at enqueue)`, in
    /// enqueue order.
    pub pending: Vec<(SandboxId, u64)>,
    /// Whether a `DedupFlush` is already scheduled.
    flush_armed: bool,
    /// See `RunOutcome::dedup_scan_wall_us`.
    pub scan_wall_us: u64,
    /// See `RunOutcome::dedup_work`.
    pub work: ScanWork,
}

impl Cluster {
    pub(super) fn idle_check(&mut self, id: SandboxId, epoch: u64, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(medes) = &self.medes else {
            return;
        };
        let (idle_period, keep_alive) = (medes.idle_period, medes.keep_alive);
        let Some(sb) = self.life.current(id, epoch, SandboxState::Warm) else {
            return;
        };
        if now.since(sb.last_used) < idle_period {
            sched.at(sb.last_used + idle_period, Ev::IdleCheck(id, epoch));
            return;
        }
        let (f, is_base) = (sb.func.0, self.bases.is_base(id));
        // Base demarcation has priority: the first dedup-eligible
        // sandbox (or one per T dedups) becomes a base instead. A base
        // stays warm; keep-alive keeps re-arming while it is referenced.
        if !is_base && self.needs_base(f, medes.base_threshold) {
            return self.demarcate(id);
        }
        // Dedup when below the policy's target, when the LP was
        // infeasible (aggressive mode), or under memory pressure — the
        // paper's policy "keeps the sandboxes warm only if enough memory
        // is available" (§5.2.3); the per-node limit is a policy input
        // (§7.2).
        let target = &self.fns[f].target;
        let want_dedup = self.life.dedup_total(f) < target.target_dedup
            || !target.feasible
            || self.mem.fuller_than(0.90);
        if !want_dedup || is_base {
            // Stay warm; re-evaluate after another idle period.
            if now + idle_period <= self.horizon + keep_alive {
                sched.after(idle_period, Ev::IdleCheck(id, epoch));
            }
            return;
        }
        // Queue the dedup op: the sandbox is scanned at the next flush,
        // and outcomes commit in this enqueue order.
        let epoch = self.life.begin_dedup(id);
        self.pipeline.pending.push((id, epoch));
        if !std::mem::replace(&mut self.pipeline.flush_armed, true) {
            sched.after(self.cfg.pipeline.flush_interval, Ev::DedupFlush);
        }
    }

    /// Drains the pending-dedup queue: validates entries (crash purges
    /// invalidate stale ones), fans the pure compute phase
    /// ([`dedup_scan_with`]) across a `std::thread::scope` worker pool,
    /// then commits each outcome **serially in first-enqueued order**.
    /// The commit phase is the only part that touches the fabric —
    /// whose fault schedule consumes RNG per operation — so the event
    /// stream, and with it `RunReport`, is bit-identical at any worker
    /// count (DESIGN.md §10).
    pub(super) fn dedup_flush(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.pipeline.flush_armed = false;
        // Each item carries its sandbox's last scan, moved into this one.
        let mut items: Vec<(SandboxId, Option<DedupMemo>)> = Vec::new();
        for (id, epoch) in std::mem::take(&mut self.pipeline.pending) {
            let Some(sb) = self.life.current(id, epoch, SandboxState::Deduping) else {
                continue; // crash-purged while queued
            };
            let pages = |m: &DedupMemo| m.fingerprints.len() == sb.model_pages;
            debug_assert!(sb.last_dedup.as_ref().is_none_or(pages));
            items.push((id, self.life.swap_memo(id, None)));
        }
        if items.is_empty() {
            return;
        }

        // Parallel compute phase. Static contiguous chunking: each worker
        // owns a chunk of items and returns its scans, and the chunks
        // are joined in order — no locks, no unsafe, and the result is
        // in enqueue order regardless of which worker ran which chunk.
        // A memo's patches move into the scan's table instead of being
        // cloned; every other capture is a shared borrow — the registry
        // takes shard read locks internally. A scan regenerates its
        // sandbox's image only if it needs it and drops it when done,
        // so a batch holds at most one image per worker, not one per
        // item.
        let (cfg, bases, life) = (&self.cfg, &self.bases, &self.life);
        let scan = |(id, memo): &mut (SandboxId, Option<DedupMemo>)| {
            let (sb, images) = (&life[id], bases.images());
            let image = || images.image_v(sb.func, sb.instance_seed, sb.version);
            let (registry, resolve) = (bases.registry(), |b| bases.resolve(b));
            dedup_scan_with(
                cfg,
                registry,
                sb.node,
                sb.func,
                image,
                memo.take(),
                &resolve,
            )
        };
        let scan = &scan;
        let workers = cfg.pipeline.workers.min(items.len()).max(1);
        let wall_start = std::time::Instant::now();
        let scans: Vec<DedupScan> = if workers <= 1 {
            items.iter_mut().map(scan).collect()
        } else {
            let chunk = items.len().div_ceil(workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = items
                    .chunks_mut(chunk)
                    .map(|c| s.spawn(move || c.iter_mut().map(scan).collect::<Vec<_>>()))
                    .collect();
                let scans = handles.into_iter().map(|h| h.join().expect("scan worker"));
                scans.flatten().collect()
            })
        };
        self.pipeline.scan_wall_us += wall_start.elapsed().as_micros() as u64;

        let report = &mut self.metrics.report;
        report.dedup_batches += 1;
        report.dedup_batch_peak = report.dedup_batch_peak.max(items.len() as u64);
        if self.obs.enabled() {
            self.obs
                .span("medes.dedup.batch", now)
                .attr("size", items.len().to_string())
                .attr("workers", workers.to_string())
                .attr("shards", self.bases.registry().shard_count().to_string())
                .end(now);
            self.obs.incr("medes.dedup.batches");
            let size = items.len() as u64;
            self.obs.record("medes.dedup.batch_size", size);
        }

        // Serial merge in first-enqueued order: fabric accounting,
        // base references, DedupDone scheduling.
        for ((id, _), scan) in items.into_iter().zip(scans) {
            let (f, node) = (self.life[&id].func.0, self.life[&id].node);
            let key = dedup_trace_key(id, now);
            let droot = self.obs.trace_root("dedup", self.cfg.seed, key);
            let ckpt_bytes = self.cfg.to_paper_bytes(scan.image_model_bytes);
            self.pipeline.work += scan.work;
            let priced = {
                let mut fabric = self.fabric.with_ctx(DedupTiming::op_ctx(droot));
                scan.price(&self.cfg, &mut fabric, node)
            };
            match priced {
                Ok(timing) => {
                    let name = &self.fns[f].profile.name;
                    timing.record(&self.obs, now, name, ckpt_bytes, droot, node.0);
                    // Reference the bases *now*: the table already
                    // points into them, and they must survive until
                    // DedupDone commits (or reverts) the state.
                    self.bases.pin_refs(&scan.table);
                    let outcome = Box::new(scan.into_outcome(timing));
                    let done = Ev::DedupDone(id, self.life[&id].epoch, outcome);
                    sched.after(timing.total(), done);
                }
                Err(_) => {
                    // Fault-injected failure (controller RPC or base
                    // reads stayed broken past the retry policy): abort
                    // the dedup and keep the sandbox warm. No base was
                    // referenced; what the scan computed stays good for
                    // the sandbox's next one.
                    debug_assert!(!self.cfg.faults.is_empty());
                    self.obs.incr("medes.platform.dedup_aborts");
                    let memo = scan.memo.absorb(scan.table);
                    self.life.swap_memo(id, Some(memo));
                    self.go_idle(id, sched);
                }
            }
        }
    }

    pub(super) fn dedup_done(
        &mut self,
        id: SandboxId,
        epoch: u64,
        outcome: DedupOutcome,
        sched: &mut Scheduler<Ev>,
    ) {
        let saved = outcome.saved_model_bytes();
        let (table, memo) = (outcome.table, outcome.memo);
        let Some(sb) = self.life.current(id, epoch, SandboxState::Deduping) else {
            // Crash-purged mid-dedup; the table was never attached.
            // Nothing but this event moves a live `Deduping` sandbox
            // (dispatch and eviction take `assignable()` ones only).
            debug_assert!(self.life.get(&id).is_none(), "{id} left Deduping early");
            return self.bases.release_refs(&table);
        };
        let f = sb.func.0;
        if sb.version < self.fns[f].version {
            // A rolling deploy superseded this sandbox mid-dedup: it
            // dies instead of committing obsolete content.
            self.bases.release_refs(&table);
            return self.purge_stale(id);
        }
        let full_model = table.entries.len() * medes_mem::PAGE_SIZE;
        if (saved as f64) < MIN_SAVING_FRAC * full_model as f64 {
            // Not worth it: back to warm, to be reconsidered after
            // another idle period. The next scan may find more bases
            // indexed, and will not redo what this one computed.
            self.bases.release_refs(&table);
            self.life.swap_memo(id, Some(memo.absorb(table)));
            return self.go_idle(id, sched);
        }

        // Commit: the references taken at the flush now belong to the
        // attached table.
        let new_paper = self.cfg.to_paper_bytes(table.resident_model_bytes());
        let saved_paper = self.cfg.to_paper_bytes(saved) as f64;
        let stats = &mut self.metrics.report.dedup_stats[f];
        stats.dedup_ops += 1;
        let n = stats.dedup_ops;
        let counter = "medes.dedup.saved_paper_bytes";
        self.obs.counter_add(counter, saved_paper as u64);
        let op_us = outcome.timing.total().as_micros() as f64;
        let patch_bytes = table.patch_bytes as f64 / table.patched_pages().max(1) as f64;
        FnDedupStats::fold(&mut stats.mean_saved_paper_bytes, n, saved_paper);
        FnDedupStats::fold(&mut stats.mean_dedup_footprint, n, new_paper as f64);
        FnDedupStats::fold(&mut stats.mean_dedup_op_us, n, op_us);
        FnDedupStats::fold(&mut stats.mean_patch_bytes, n, patch_bytes);
        self.metrics.report.same_fn_pages += outcome.same_fn_pages as u64;
        self.metrics.report.cross_fn_pages += outcome.cross_fn_pages as u64;
        self.fns[f].record_dedup_footprint(new_paper);

        // The memo takes the table's entries over once the restore
        // releases them (`RestoreDone`).
        self.life.swap_memo(id, Some(memo));
        let (epoch, first) = self.life.commit_dedup(id, table, sched.now());
        self.metrics.report.sandboxes_deduped += u64::from(first);
        let sb = self.life.footprint_mut(id);
        self.mem.resize(&mut self.metrics, sb, new_paper);
        let medes = self.medes.as_ref().expect("dedup runs under Medes");
        sched.after(medes.keep_dedup, Ev::KeepDedupExpire(id, epoch));
    }
}

/// Trace-root key for one dedup op: a deterministic mix of the sandbox
/// id and the initiation instant (a sandbox can dedup more than once, so
/// the id alone would merge distinct ops' traces).
fn dedup_trace_key(id: SandboxId, now: medes_sim::SimTime) -> u64 {
    (id.0 ^ 0xD6E8_FEB8_6659_FD93).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ now.as_micros()
}
