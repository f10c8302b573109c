//! How sandboxes end, and what crashes and deploys do to the cluster.
//!
//! Everything here is a function over the three owners, and every
//! removal — expiry, eviction, fallback, crash, stale version — goes
//! through the one [`Cluster::teardown`].

use super::lifecycle::Lifecycle;
use super::{Cluster, Ev, ReqInfo};
use crate::controller::needs_base;
use crate::ids::{NodeId, SandboxId};
use crate::pagecache::BasePageCache;
use crate::sandbox::Sandbox;
use medes_sim::engine::Scheduler;

impl Cluster {
    /// Removes a sandbox in ANY state and settles every owner that knew
    /// about it. [`Cluster::purge`] is the idle-only entry; a node crash
    /// calls this directly and so also tears down referenced bases:
    /// surviving dedup sandboxes that point at them will fail their
    /// restore and fall back to a cold start (§5.3). Returns the
    /// sandbox's function for re-demarcation.
    fn teardown(&mut self, id: SandboxId) -> Option<usize> {
        let sb = self.life.remove(id)?;
        self.mem.release(&sb);
        if let Some(table) = &sb.dedup_table {
            self.bases.release_refs(table);
        }
        self.bases.drop_base(id, &mut self.mem);
        Some(sb.func.0)
    }

    /// Purges an idle sandbox completely (eviction, expiry, or a restore
    /// that could not reach its bases).
    pub(super) fn purge(&mut self, id: SandboxId) {
        let idle = |sb: &Sandbox| sb.state.assignable();
        debug_assert!(self.life.get(&id).is_none_or(idle), "{id} is busy");
        debug_assert!(!self.bases.is_referenced(id), "{id} is a referenced base");
        self.teardown(id);
    }

    /// Removes a sandbox whose content a rolling deploy superseded,
    /// whatever it was doing.
    pub(super) fn purge_stale(&mut self, id: SandboxId) {
        self.teardown(id);
        self.metrics.report.version_purges += 1;
    }

    /// `D/B > T` for function `f`, or no listed base yet.
    pub(super) fn needs_base(&self, f: usize, threshold: u32) -> bool {
        let (dedups, bases) = (self.life.dedup_total(f), self.bases.listed(f).len());
        needs_base(dedups, bases, threshold)
    }

    pub(super) fn demarcate(&mut self, id: SandboxId) {
        self.bases.demarcate(&self.cfg, &self.life[&id]);
        self.metrics.counts.demarcations += 1;
    }

    /// After a crash removed base sandboxes, promotes MRU idle warm
    /// sandboxes until `D/B ≤ T` holds again for this function (or no
    /// candidates remain — orphaned dedup sandboxes then fall back to
    /// cold starts when dispatched).
    fn re_demarcate(&mut self, f: usize) {
        let Some(threshold) = self.medes.as_ref().map(|m| m.base_threshold) else {
            return;
        };
        while self.life.dedup_total(f) > 0 && self.needs_base(f, threshold) {
            let not_base = |id: &SandboxId| !self.bases.is_base(*id);
            let Some(id) = self.life.idle_warm(f).rev().find(not_base) else {
                break;
            };
            self.demarcate(id);
            self.metrics.counts.re_demarcations += 1;
        }
    }

    /// Re-dispatches a request whose sandbox vanished in a crash.
    pub(super) fn reschedule(&mut self, req: ReqInfo, sched: &mut Scheduler<Ev>) {
        self.metrics.report.rescheduled_requests += 1;
        self.dispatch(req, sched);
    }

    /// Handles a node crash: marks it down, tears down every resident
    /// sandbox (any state), lets the registry re-home the dead node's
    /// shards, and re-demarcates bases for the affected functions.
    pub(super) fn node_crash(&mut self, node: usize) {
        let Some(victims) = self.mem.mark_down(node) else {
            return;
        };
        self.metrics.report.node_crashes += 1;
        let mut affected: Vec<usize> = Vec::new();
        for id in victims {
            if let Some(f) = self.teardown(id).filter(|f| !affected.contains(f)) {
                affected.push(f);
            }
        }
        let (registry, node) = (self.bases.registry(), NodeId(node));
        debug_assert_eq!(
            registry.locs_on_node(node),
            0,
            "crash purge must drop every registry chunk on the dead node"
        );
        // Shard ownership survives the crash: a placed registry purges
        // the dead owner's shard copies, re-demarcates them to
        // survivors, and re-replicates the recoverable entries (their
        // bases live on surviving nodes — the dead node's bases were
        // just torn down above). Unplaced, worker nodes own nothing.
        let recovery = registry.on_node_crash(node);
        debug_assert_eq!(
            registry.entries_owned_by(node),
            0,
            "re-demarcation must leave no shard owned by the dead node"
        );
        if recovery.reassigned_shards > 0 {
            self.metrics.counts.registry_reassignments += 1;
        }
        // The dead node's own cache dies with it (its memory is gone);
        // entries for its bases were already invalidated cluster-wide
        // by the teardowns above.
        let clear = |c: Option<&mut BasePageCache>| c.map(|c| c.clear());
        self.mem.with_cache(node, clear);
        for f in affected {
            self.re_demarcate(f);
        }
    }

    pub(super) fn node_restart(&mut self, node: usize) {
        if self.mem.mark_up(node) {
            self.metrics.report.node_restarts += 1;
            // The node rejoins the registry's owner candidate set (it
            // reclaims no shards).
            self.bases.registry().on_node_restart(NodeId(node));
        }
    }

    /// Applies a rolling-deploy version bump to one function: records
    /// the new deployed version (new cold starts pick it up), purges
    /// every *idle* stale-version sandbox outright, and retires the
    /// stale bases that cannot be purged yet (referenced by dedup
    /// tables, or busy serving a request) — their pages hold old-version
    /// content and must never match a new dedup scan. Busy non-base
    /// sandboxes are caught at `ExecDone`/`DedupDone`.
    pub(super) fn version_bump(&mut self, f: usize, version: u64) {
        if f >= self.fns.len() || version <= self.fns[f].version {
            return; // out-of-order or duplicate bump: ignore
        }
        self.fns[f].version = version;
        self.metrics.report.version_bumps += 1;
        let stale = |life: &Lifecycle, id: &SandboxId| life[id].version < version;
        // Idle sandboxes (warm and dedup pools) die immediately — their
        // content is obsolete — except referenced bases.
        let idle = self.life.idle_warm(f).chain(self.life.idle_dedup(f));
        let purged: Vec<SandboxId> = idle
            .filter(|id| stale(&self.life, id) && !self.bases.is_referenced(*id))
            .collect();
        for id in purged {
            self.purge_stale(id);
        }
        // Stale bases that survived that (referenced or busy) are
        // retired; they die when their references drain.
        let listed = self.bases.listed(f).iter().copied();
        let retired: Vec<SandboxId> = listed.filter(|id| stale(&self.life, id)).collect();
        for id in retired {
            self.bases.retire(id, &mut self.mem);
            self.metrics.report.version_purges += 1;
        }
    }
}
