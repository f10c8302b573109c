//! Medes only: from an idle warm sandbox to a dedup sandbox (§4.1, §5).
//!
//! `IdleCheck` decides — demarcate a base, stay warm, or dedup — and a
//! dedup starts there and then: the sandbox is scanned, the op priced on
//! the fabric, and `DedupDone` scheduled for when it ends. `DedupDone`
//! commits the table, or hands the sandbox back to the warm pool. From
//! the idle check to its `DedupDone` an op's table holds a reference on
//! every base it patches against, so each way out of
//! [`Cluster::dedup_done`] that does not attach the table releases them.

use super::{Cluster, Ev};
use crate::dedup::{dedup_scan_with, DedupOutcome, DedupTiming};
use crate::ids::SandboxId;
use crate::metrics::FnDedupStats;
use crate::sandbox::SandboxState;
use medes_sim::engine::Scheduler;

/// A dedup op that saves less than this fraction of the image reverts
/// the sandbox to warm (not worth the restore cost).
const MIN_SAVING_FRAC: f64 = 0.05;

impl Cluster {
    /// Returns whether a dedup op began (and so whether every owner is
    /// worth checking after it).
    pub(super) fn idle_check(
        &mut self,
        id: SandboxId,
        epoch: u64,
        sched: &mut Scheduler<Ev>,
    ) -> bool {
        let now = sched.now();
        let Some(medes) = &self.medes else {
            return false;
        };
        let (idle_period, keep_alive) = (medes.idle_period, medes.keep_alive);
        let Some(sb) = self.life.current(id, epoch, SandboxState::Warm) else {
            return false;
        };
        // Only `go_warm` and `commit_dedup` move `last_used`, and both
        // start a new epoch, so a current check is never early.
        debug_assert!(now.since(sb.last_used) >= idle_period);
        let (f, is_base) = (sb.func.0, self.bases.is_base(id));
        // Base demarcation has priority: the first dedup-eligible
        // sandbox (or one per T dedups) becomes a base instead. A base
        // stays warm; keep-alive keeps re-arming while it is referenced.
        if !is_base && self.needs_base(f, medes.base_threshold) {
            self.demarcate(id);
            return false;
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
            return false;
        }

        // Dedup now. The scan takes the sandbox's last one over, and
        // regenerates its image only if it needs it.
        let epoch = self.life.begin_dedup(id);
        let memo = self.life.swap_memo(id, None);
        let (cfg, bases, sb) = (&self.cfg, &self.bases, &self.life[&id]);
        debug_assert!(memo
            .as_ref()
            .is_none_or(|m| m.fingerprints.len() == sb.model_pages));
        let images = bases.images();
        let image = || images.image_v(sb.func, sb.instance_seed, sb.version);
        let resolve = |b| bases.resolve(b);
        let (registry, node) = (bases.registry(), sb.node);
        let scan = dedup_scan_with(cfg, registry, node, sb.func, image, memo, &resolve);
        self.dedup_work += scan.work;

        let droot = self
            .obs
            .trace_root("dedup", cfg.seed, dedup_trace_key(id, now));
        let sizes = (cfg.to_paper_bytes(scan.image_model_bytes), scan.candidates);
        let priced = {
            let mut fabric = self.fabric.with_ctx(DedupTiming::op_ctx(droot));
            scan.price(cfg, &mut fabric, node)
        };
        match priced {
            Ok(timing) => {
                let name = &self.fns[f].profile.name;
                timing.record(&self.obs, now, name, sizes, droot, node.0);
                self.metrics.counts.dedup_ops += 1;
                self.metrics.counts.checkpoint_bytes += sizes.0 as u64;
                // Reference the bases *now*: the table already points
                // into them, and they must survive until DedupDone
                // commits (or reverts) the state.
                self.bases.pin_refs(&scan.table);
                let outcome = Box::new(scan.into_outcome(timing));
                sched.after(timing.total(), Ev::DedupDone(id, epoch, outcome));
            }
            Err(_) => {
                // Fault-injected failure (controller RPC or base reads
                // stayed broken past the retry policy): abort the dedup
                // and keep the sandbox warm. No base was referenced;
                // what the scan computed stays good for the sandbox's
                // next one.
                debug_assert!(!self.cfg.faults.is_empty());
                self.metrics.counts.dedup_aborts += 1;
                let memo = scan.memo.absorb(scan.table);
                self.life.swap_memo(id, Some(memo));
                self.go_idle(id, sched);
            }
        }
        true
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

        // Commit: the references taken at the idle check now belong to
        // the attached table.
        let new_paper = self.cfg.to_paper_bytes(table.resident_model_bytes());
        let saved_paper = self.cfg.to_paper_bytes(saved) as f64;
        let stats = &mut self.metrics.report.dedup_stats[f];
        stats.dedup_ops += 1;
        let n = stats.dedup_ops;
        self.metrics.counts.saved_paper_bytes += saved_paper as u64;
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
        self.mem.resize(sb, new_paper);
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
