//! Who is charged for what: node memory, resident sets, page caches.
//!
//! [`NodeMemory`] is the only code that adds to a node's `mem_used`. A
//! sandbox's footprint changes through [`NodeMemory::resize`], which
//! writes `Sandbox::mem_paper_bytes` *and* charges the difference; a
//! page cache changes inside [`NodeMemory::with_cache`], which charges
//! whatever the cache gained or lost. So, as [`NodeMemory::check`]
//! asserts, at every instant
//!
//! ```text
//! mem_used[n] == Σ mem_paper_bytes of the sandboxes resident on n
//!                + caches[n].used_paper_bytes()
//! cluster_mem == Σ mem_used
//! ```
//!
//! It also keeps the run's two histories, since it has their numbers:
//! cluster memory, updated by every charge, and the live-sandbox count,
//! updated by every admission and release. [`NodeMemory::set_now`]
//! stamps them with the event's instant. So it runs alone, with no
//! record of the run to write into.

use super::bases::Bases;
use crate::config::PlatformConfig;
use crate::ids::{NodeId, SandboxId};
use crate::pagecache::{BasePageCache, CacheStats};
use crate::sandbox::{Sandbox, SandboxState, SandboxTable};
use medes_sim::stats::TimeWeighted;
use medes_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// How often the memory and live-sandbox histories snapshot their
/// value: the spacing of a run report's `mem_series`, the points of
/// Fig 2.
const MEM_POINT_EVERY: SimDuration = SimDuration::from_secs(10);

#[derive(Debug)]
struct NodeState {
    capacity: usize,
    mem_used: usize,
    sandboxes: BTreeSet<SandboxId>,
    /// Crashed and not yet restarted: unschedulable, and RDMA reads
    /// against it fail (the fabric's fault schedule agrees).
    down: bool,
}

#[derive(Debug)]
pub(crate) struct NodeMemory {
    nodes: Vec<NodeState>,
    /// Per-node base-page caches for the restore read path; empty in a
    /// run without a cache.
    caches: Vec<BasePageCache>,
    cluster_mem: usize,
    cluster_capacity: usize,
    /// Sandboxes resident on some node: the live count.
    resident: usize,
    /// The simulated instant of the event being handled: when the
    /// charges, admissions and releases that follow take effect.
    now: SimTime,
    /// `cluster_mem` and `resident` over time.
    mem_history: TimeWeighted,
    live_history: TimeWeighted,
}

impl NodeMemory {
    pub fn new(cfg: &PlatformConfig) -> Self {
        let node = |n| NodeState {
            capacity: cfg.node_mem(n),
            mem_used: 0,
            sandboxes: BTreeSet::new(),
            down: false,
        };
        let cache_bytes = cfg.read_path.page_cache_bytes;
        let cached_nodes = if cache_bytes > 0 { cfg.nodes } else { 0 };
        let cache = |_| BasePageCache::new(cache_bytes, cfg.mem_scale);
        NodeMemory {
            nodes: (0..cfg.nodes).map(node).collect(),
            caches: (0..cached_nodes).map(cache).collect(),
            cluster_mem: 0,
            cluster_capacity: cfg.cluster_mem_bytes(),
            resident: 0,
            now: SimTime::ZERO,
            mem_history: TimeWeighted::new(MEM_POINT_EVERY),
            live_history: TimeWeighted::new(MEM_POINT_EVERY),
        }
    }

    /// Mirrors the simulated clock (like `Fabric::set_now`).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Cluster memory (paper bytes) and the live-sandbox count over the
    /// run.
    pub fn histories(&self) -> (&TimeWeighted, &TimeWeighted) {
        (&self.mem_history, &self.live_history)
    }

    pub fn free(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.0];
        n.capacity.saturating_sub(n.mem_used)
    }

    /// Whether more than `frac` of the cluster's capacity is charged.
    pub fn fuller_than(&self, frac: f64) -> bool {
        self.cluster_mem as f64 > frac * self.cluster_capacity as f64
    }

    /// Bytes charged to each node, in node order.
    pub fn used_per_node(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().map(|n| n.mem_used)
    }

    pub fn down_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let down = |&i: &usize| self.nodes[i].down;
        (0..self.nodes.len()).filter(down).map(NodeId)
    }

    pub fn cache_stats(&self) -> impl Iterator<Item = CacheStats> + '_ {
        self.caches.iter().map(BasePageCache::stats)
    }

    /// The base sandboxes some cache holds a page of (with repeats).
    pub fn cached_bases(&self) -> impl Iterator<Item = SandboxId> + '_ {
        self.caches.iter().flat_map(|c| c.cached_sandboxes())
    }

    /// Every charge is a point of the memory history, a zero one too.
    fn charge(&mut self, node: NodeId, delta: i64) {
        let n = &mut self.nodes[node.0];
        n.mem_used = (n.mem_used as i64 + delta) as usize;
        self.cluster_mem = (self.cluster_mem as i64 + delta) as usize;
        self.mem_history.update(self.now, self.cluster_mem as f64);
    }

    /// Makes a freshly spawned sandbox resident on its node at `bytes`.
    pub fn admit(&mut self, sb: &mut Sandbox, bytes: usize) {
        self.nodes[sb.node.0].sandboxes.insert(sb.id);
        self.resize(sb, bytes);
        self.resident += 1;
        self.live_history.update(self.now, self.resident as f64);
    }

    /// Sets a resident sandbox's footprint and charges the difference.
    pub fn resize(&mut self, sb: &mut Sandbox, bytes: usize) {
        let delta = bytes as i64 - sb.mem_paper_bytes as i64;
        sb.mem_paper_bytes = bytes;
        self.charge(sb.node, delta);
    }

    /// Forgets a sandbox that was just removed and frees what it held.
    pub fn release(&mut self, sb: &Sandbox) {
        self.nodes[sb.node.0].sandboxes.remove(&sb.id);
        self.charge(sb.node, -(sb.mem_paper_bytes as i64));
        self.resident -= 1;
        self.live_history.update(self.now, self.resident as f64);
    }

    /// The one place a page cache changes: runs `f` on `node`'s cache —
    /// on `None` in a run without one — and charges the node the bytes
    /// the cache gained or lost. Cached base pages are real resident
    /// bytes, charged like any other sandbox state.
    pub fn with_cache<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(Option<&mut BasePageCache>) -> R,
    ) -> R {
        let Some(cache) = self.caches.get_mut(node.0) else {
            return f(None);
        };
        let before = cache.used_paper_bytes();
        let out = f(Some(&mut *cache));
        let delta = cache.used_paper_bytes() as i64 - before as i64;
        if delta != 0 {
            self.charge(node, delta);
        }
        out
    }

    fn trim_cache(&mut self, node: NodeId, bytes: usize) {
        self.with_cache(node, |c| c.map(|c| c.trim(bytes)));
    }

    /// Sheds cached pages — strictly less valuable than live sandboxes,
    /// they can always be re-fetched — until `node` has `needed` bytes
    /// free or its cache is empty. Returns whether it has them.
    pub fn shed_cache(&mut self, node: NodeId, needed: usize) -> bool {
        let shortfall = needed.saturating_sub(self.free(node));
        if shortfall > 0 {
            self.trim_cache(node, shortfall);
        }
        self.free(node) >= needed
    }

    /// Trims `node`'s cache back if the pages a restore just cached
    /// pushed the node over its limit (cached pages are expendable).
    pub fn trim_overflow(&mut self, node: NodeId) {
        let n = &self.nodes[node.0];
        let over = n.mem_used.saturating_sub(n.capacity);
        if over > 0 {
            self.trim_cache(node, over);
        }
    }

    /// Drops a base's pages from every node's cache: once a base cannot
    /// be matched any more its pages must not be served from cache.
    pub fn invalidate_base(&mut self, base: SandboxId) {
        for node in (0..self.caches.len()).map(NodeId) {
            self.with_cache(node, |c| c.map(|c| c.invalidate_sandbox(base)));
        }
    }

    /// Marks `node` crashed and returns the sandboxes that were resident
    /// on it; `None` if there is no such node or it is down already.
    pub fn mark_down(&mut self, node: usize) -> Option<Vec<SandboxId>> {
        let n = self.nodes.get_mut(node).filter(|n| !n.down)?;
        n.down = true;
        Some(n.sandboxes.iter().copied().collect())
    }

    /// Marks a crashed node restarted; `false` if it was not down.
    pub fn mark_up(&mut self, node: usize) -> bool {
        let n = self.nodes.get_mut(node);
        n.is_some_and(|n| std::mem::replace(&mut n.down, false))
    }

    /// The nodes that are up, the one with the most free memory first.
    pub fn most_free_first(&self) -> Vec<NodeId> {
        let up = |&i: &usize| !self.nodes[i].down;
        let mut order: Vec<usize> = (0..self.nodes.len()).filter(up).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.free(NodeId(i))));
        order.into_iter().map(NodeId).collect()
    }

    /// The idle sandboxes on `node` that may be evicted to make room, in
    /// eviction order: idle *warm* sandboxes before *dedup* sandboxes —
    /// a dedup sandbox holds a fraction of the memory and is the
    /// insurance Medes paid for — bases last, LRU first within a class.
    /// Busy sandboxes, referenced bases and `exclude` (the sandbox the
    /// caller is making room for) are not candidates.
    pub fn eviction_order(
        &self,
        node: NodeId,
        exclude: Option<SandboxId>,
        table: &SandboxTable,
        bases: &Bases,
    ) -> Vec<SandboxId> {
        let candidate = |&id: &SandboxId| {
            let sb = &table[&id];
            if Some(id) == exclude || !sb.state.assignable() || bases.is_referenced(id) {
                return None;
            }
            let class = if bases.is_base(id) {
                2
            } else {
                u8::from(sb.state == SandboxState::Dedup)
            };
            Some((class, sb.last_used, id))
        };
        let resident = &self.nodes[node.0].sandboxes;
        let mut order: Vec<(u8, SimTime, SandboxId)> =
            resident.iter().filter_map(candidate).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Asserts the identities of the module header, that every live
    /// sandbox is resident on exactly the node it names, and that a down
    /// node holds nothing.
    pub fn check(&self, table: &SandboxTable) {
        for (i, n) in self.nodes.iter().enumerate() {
            let footprint = |id| {
                let sb: &Sandbox = &table[id];
                assert_eq!(sb.node, NodeId(i), "{id} is resident on another node");
                sb.mem_paper_bytes
            };
            let resident: usize = n.sandboxes.iter().map(footprint).sum();
            let cached = self.caches.get(i).map_or(0, |c| c.used_paper_bytes());
            assert_eq!(n.mem_used, resident + cached, "node {i} accounting drifted");
            assert!(!n.down || n.mem_used == 0, "down node {i} holds memory");
        }
        let resident: usize = self.nodes.iter().map(|n| n.sandboxes.len()).sum();
        assert_eq!(resident, table.len(), "a live sandbox is resident nowhere");
        assert_eq!(self.resident, resident, "live count drifted");
        let used: usize = self.used_per_node().sum();
        assert_eq!(self.cluster_mem, used, "cluster accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FnId;
    use crate::platform::tests::pick;
    use medes_sim::DetRng;

    /// The memory history is weighted by time and snapshots, every
    /// `MEM_POINT_EVERY`, the value held up to that instant; the live
    /// history counts the resident sandboxes.
    #[test]
    fn histories_weight_by_time() {
        let mut mem = NodeMemory::new(&PlatformConfig::small_test());
        let mut sb = Sandbox::new(SandboxId(0), FnId(0), NodeId(0), 0, 0, SimTime::ZERO, 1);
        mem.admit(&mut sb, 100);
        mem.set_now(SimTime::from_secs(10));
        mem.resize(&mut sb, 200);
        let (m, live) = mem.histories();
        let end = SimTime::from_secs(20);
        assert!((m.mean_until(end) - 150.0).abs() < 1e-9);
        let ten = SimTime::from_secs(10);
        assert_eq!(m.series(), [(SimTime::ZERO, 100.0), (ten, 100.0)]);
        assert_eq!((live.mean_until(end), live.last()), (1.0, Some(1.0)));
    }

    /// Random admit / resize / release / cache insert / shed / trim /
    /// invalidate / crash / restart sequences, with and without a cache:
    /// the accounting identities hold after every step, node memory is
    /// exactly what an independent model of the sandboxes plus the
    /// caches' own byte counts says, and the two histories are that
    /// model's cluster total and sandbox count, integrated step by step.
    #[test]
    fn accounting_holds_under_random_operation_sequences() {
        for seed in 0..240u64 {
            let mut rng = DetRng::new(0x4E0D_E3E3).fork(seed);
            let mut cfg = PlatformConfig::small_test();
            cfg.nodes = 1 + rng.below(4) as usize;
            cfg.node_mem_bytes = 256 << 20;
            cfg.read_path.page_cache_bytes = (seed % 2) as usize * (2 << 20);
            let page_paper = medes_mem::PAGE_SIZE * cfg.mem_scale;
            let mut mem = NodeMemory::new(&cfg);
            let mut table = SandboxTable::default();
            let mut live: Vec<SandboxId> = Vec::new();
            let mut next_id = 0u64;
            // The model's (cluster memory, live count) after each step,
            // and the first step the memory history has a point at.
            let mut held: Vec<[f64; 2]> = Vec::new();
            let mut first_point = None;
            for step in 0..120u64 {
                mem.set_now(SimTime::from_secs(step));
                let node = NodeId(rng.below(cfg.nodes as u64) as usize);
                let up = !mem.down_nodes().any(|n| n == node);
                match rng.below(9) {
                    0 | 1 if up => {
                        let id = SandboxId(next_id);
                        next_id += 1;
                        let sb = Sandbox::new(id, FnId(0), node, seed, 0, SimTime::ZERO, 1);
                        table.insert(id, sb);
                        let bytes = rng.below(40 << 20) as usize;
                        mem.admit(table.get_mut(&id).unwrap(), bytes);
                        live.push(id);
                    }
                    2 if !live.is_empty() => {
                        let id = pick(&mut rng, &live).unwrap();
                        let bytes = rng.below(40 << 20) as usize;
                        mem.resize(table.get_mut(&id).unwrap(), bytes);
                        assert_eq!(table[&id].mem_paper_bytes, bytes);
                    }
                    3 if !live.is_empty() => {
                        let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                        mem.release(&table.remove(&id).unwrap());
                    }
                    4 if up => {
                        let inserted = mem.with_cache(node, |c| {
                            let c = c?;
                            for _ in 0..rng.below(200) {
                                let (base, page) = (SandboxId(rng.below(4)), rng.below(64) as u32);
                                c.insert(base, page, &[seed as u8; 8]);
                            }
                            Some(())
                        });
                        assert_eq!(inserted.is_some(), seed % 2 == 1);
                        mem.trim_overflow(node);
                    }
                    5 => {
                        let needed = rng.below(300 << 20) as usize;
                        let fits = mem.shed_cache(node, needed);
                        assert_eq!(fits, mem.free(node) >= needed);
                    }
                    6 => mem.invalidate_base(SandboxId(rng.below(4))),
                    7 => {
                        // A crash, as `Cluster::node_crash` settles it.
                        for id in mem.mark_down(node.0).unwrap_or_default() {
                            live.retain(|l| *l != id);
                            mem.release(&table.remove(&id).unwrap());
                        }
                        mem.with_cache(node, |c| c.map(|c| c.clear()));
                    }
                    _ => assert_eq!(mem.mark_up(node.0), !up),
                }
                mem.check(&table);
                let mut model = vec![0usize; cfg.nodes];
                for sb in table.iter() {
                    model[sb.node.0] += sb.mem_paper_bytes;
                }
                for (n, used) in mem.used_per_node().enumerate() {
                    let cached = mem.caches.get(n).map_or(0, |c| c.len() * page_paper);
                    assert_eq!(used, model[n] + cached, "seed {seed} step {step} node {n}");
                    let free = mem.free(NodeId(n));
                    assert_eq!(free, cfg.node_mem_bytes.saturating_sub(used));
                }
                let cluster: usize = mem.used_per_node().sum();
                held.push([cluster as f64, table.len() as f64]);
                let (m, live) = mem.histories();
                first_point = first_point.or(m.last().map(|_| step));
                assert_eq!(m.last().unwrap_or(0.0), cluster as f64, "seed {seed}");
                assert_eq!(live.last().unwrap_or(0.0), table.len() as f64);
            }
            assert!(mem.mark_down(cfg.nodes).is_none() && !mem.mark_up(cfg.nodes));
            // Each step's values hold for one second, up to the end.
            let end = SimTime::from_secs(held.len() as u64);
            let (m, live) = mem.histories();
            let mean = |i: usize| held.iter().map(|h| h[i]).sum::<f64>() / held.len() as f64;
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1.0);
            assert!(close(m.mean_until(end), mean(0)), "seed {seed}");
            assert!(close(live.mean_until(end), mean(1)), "seed {seed}");
            // A snapshot past the first point is the value held just
            // before its instant: the model's at the step before.
            for (k, &(t, v)) in m.series().iter().enumerate() {
                let secs = t.as_micros() / 1_000_000;
                assert_eq!(secs, 10 * k as u64, "seed {seed}");
                if first_point.is_some_and(|f| secs > f) {
                    assert_eq!(v, held[secs as usize - 1][0], "seed {seed} at {secs} s");
                }
            }
        }
    }
}
