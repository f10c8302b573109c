//! The global fingerprint registry (§3.1, §4.1.3): one type,
//! [`RegistryClient`].
//!
//! A hash table mapping RSC (64 B chunk) hashes to their locations in
//! the cluster. Only **base sandboxes** populate the registry — that is
//! the design decision that keeps its footprint proportional to the
//! number of base sandboxes rather than the total sandbox count.
//!
//! Lookups take a page fingerprint (≤ 5 chunk hashes) and return, per
//! candidate base page, how many of the sampled chunks it shares — the
//! vote count used for base-page election.
//!
//! ## One store
//!
//! The table and its reverse index live in one store in a `RefCell`,
//! so every method takes `&self`. Every caller — the dedup scan at an
//! idle check, [`RegistryClient::insert_page`] at demarcation,
//! [`RegistryClient::remove_sandbox`] at teardown — runs serially on
//! the thread that runs the platform's event loop.
//!
//! ## Shards and placement
//!
//! A shard is only a routing key: chunk hash `h` belongs to shard
//! `h % N`, which decides where its traffic goes, never what is stored
//! or which candidates come back. A client built with
//! [`RegistryClient::in_process`] is the controller-resident table and
//! charges nothing. One built with [`RegistryClient::distributed`]
//! additionally carries a placement: shard `s` is owned by worker node
//! `s % owners` (the first `owners` nodes form the owner set) and every
//! lookup/insert/removal is first priced as `medes-net` RPCs to the
//! owners of the shards it touches, then runs the same store body.
//!
//! The dedup controller (node 0) issues one RPC per touched shard per
//! operation: lookups carry `PROBE_BYTES` per chunk probe out and a
//! response sized to the probe count (candidate lists are capped, see
//! `MAX_LOCS_PER_HASH`), inserts carry the probe bytes plus one
//! serialized entry, removals broadcast the sandbox id to every owner.
//! Costs are priced by the same [`NetConfig`] the platform fabric uses,
//! on a registry-private fabric, so the traffic lands in
//! [`RegistryClient::rpc_stats`] without perturbing the event stream
//! the reports are computed from — dedup is off the critical path, and
//! the accounted latency is an overhead figure (§7.7), not a scheduling
//! input. That is why a `RunReport` is bit-identical at any placement.
//!
//! ## Crash-surviving shard ownership
//!
//! When a worker node crashes, the platform purges the dead node's
//! base sandboxes (removing every chunk location pointing at it) and
//! then calls [`RegistryClient::on_node_crash`]: a placed client drops
//! the dead owner's physical shard copies, re-demarcates their
//! ownership onto surviving nodes, and re-replicates the recoverable
//! entries (those whose backing base sandboxes survived) onto the new
//! owners, charging the bulk transfer as registry RPCs. Logical
//! contents are preserved and no shard is owned by a down node while
//! any node is up. In a full outage there is no survivor to hand the
//! shards to: they stay with their dead owners — empty, since every
//! base was just purged — until the first restarted node adopts them.

use crate::ids::{NodeId, SandboxId};
use medes_hash::ChunkHash;
use medes_hash::PageFingerprint;
use medes_net::{Fabric, FabricStats, NetConfig, RegistryOp, RetryPolicy};
use medes_obs::Obs;
use medes_sim::SimTime;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Approximate wire size of one serialized candidate in a lookup
/// response (location + vote count).
const CANDIDATE_BYTES: usize = std::mem::size_of::<Candidate>();

/// Wire size of one chunk-hash probe in a lookup/insert request.
const PROBE_BYTES: usize = 8;

/// The node hosting the dedup controller, origin of registry RPCs.
const CONTROLLER_NODE: usize = 0;

/// What a crash cost the registry: entries purged with the dead
/// owner's shard copies, entries re-replicated onto the new owners,
/// and the number of shards whose ownership moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashRecovery {
    /// Entries physically dropped with the dead owner's shards.
    pub purged_entries: usize,
    /// Entries restored onto the surviving owners (bulk RPC transfer).
    pub rereplicated_entries: usize,
    /// Shards whose ownership was re-demarcated.
    pub reassigned_shards: usize,
}

/// Where one RSC lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkLoc {
    /// Node holding the base sandbox.
    pub node: NodeId,
    /// The base sandbox.
    pub sandbox: SandboxId,
    /// Page index within the base sandbox's image.
    pub page: u32,
}

/// A candidate base page with its vote count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The base page's location.
    pub loc: ChunkLoc,
    /// Number of fingerprint chunks shared with the probe page.
    pub votes: u32,
}

/// Per-hash location list cap: popular chunks (zero pages) would
/// otherwise accumulate unbounded lists. A handful of candidate
/// locations is plenty for base-page election.
const MAX_LOCS_PER_HASH: usize = 8;

/// Approximate per-entry bytes for overhead reporting: hash + location.
const ENTRY_BYTES: usize = 8 + std::mem::size_of::<ChunkLoc>();

/// What a registry has done over its lifetime (the §7.7 overhead
/// counts of a run's trace tail).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryCounts {
    /// Fingerprints looked up.
    pub lookups: u64,
    /// Chunk entries inserted.
    pub inserts: u64,
    /// Base sandboxes removed.
    pub evictions: u64,
    /// Every crash recovery, summed.
    pub recovered: CrashRecovery,
}

/// What the registry holds: the hash table, its reverse index, the
/// entry counts and what it has done.
#[derive(Debug, Default)]
struct Store {
    table: HashMap<ChunkHash, Vec<ChunkLoc>>,
    /// Reverse index for exact removal when a base sandbox is purged.
    /// Every inserted sandbox has an entry, empty when all its chunks
    /// were capped, so membership queries still count it.
    by_sandbox: HashMap<SandboxId, Vec<ChunkHash>>,
    entries: usize,
    peak_entries: usize,
    counts: RegistryCounts,
}

/// Which worker node owns each shard, and what reaching the owners has
/// cost so far. Present only on a [`RegistryClient::distributed`]
/// client.
#[derive(Debug)]
struct Placement {
    /// Shard index → owning node index.
    owner_of: Vec<usize>,
    /// Node index → alive? (crashed owners never receive shards).
    alive: Vec<bool>,
    /// Registry-private fabric: prices RPCs with the platform's cost
    /// model but keeps its own stats, so report-visible fabric
    /// counters stay byte-identical to an unplaced client.
    fabric: Fabric,
}

impl Placement {
    /// Issues one registry RPC to a shard owner; the fabric's stats
    /// keep its traffic and time. The registry fabric has no fault
    /// schedule, so the first attempt always succeeds and the retry
    /// machinery is a straight pass-through.
    fn owner_rpc(&mut self, owner: usize, op: RegistryOp, req: usize, resp: usize) {
        let fabric = &mut self.fabric;
        let rpc = fabric.registry_rpc_retry(CONTROLLER_NODE, owner, op, req, resp);
        debug_assert!(rpc.is_ok(), "the registry fabric never fails");
    }
}

/// The global fingerprint registry, with an optional placement of its
/// shards on worker nodes. Constructed per run from the platform
/// config and owned by the thread that runs it; all methods take
/// `&self`.
#[derive(Debug)]
pub struct RegistryClient {
    store: RefCell<Store>,
    shards: usize,
    placement: Option<RefCell<Placement>>,
}

impl Default for RegistryClient {
    fn default() -> Self {
        Self::new()
    }
}

impl RegistryClient {
    /// A single-shard controller-resident registry.
    pub fn new() -> Self {
        Self::in_process(1, Obs::disabled())
    }

    /// A controller-resident registry routing by `shards` keys (clamped
    /// to at least 1). It records nothing into `_obs`: the registry
    /// counts its own work ([`RegistryClient::counts`]). The parameter
    /// stays only because the repository benchmark passes one.
    pub fn in_process(shards: usize, _obs: Rc<Obs>) -> Self {
        RegistryClient {
            store: RefCell::default(),
            shards: shards.max(1),
            placement: None,
        }
    }

    /// The same registry with its `shards` placed on the first `owners`
    /// of `nodes` worker nodes (`owners` is clamped to `1..=nodes`),
    /// every operation priced as RPCs under `net`. `_retry` (the
    /// fabric owns its retry schedule) and `obs` are unused, as in
    /// [`RegistryClient::in_process`].
    pub fn distributed(
        shards: usize,
        owners: usize,
        nodes: usize,
        net: NetConfig,
        _retry: RetryPolicy,
        obs: Rc<Obs>,
    ) -> Self {
        assert!(nodes > 0, "distributed registry needs at least one node");
        let owners = owners.clamp(1, nodes);
        let mut client = Self::in_process(shards, obs);
        client.placement = Some(RefCell::new(Placement {
            owner_of: (0..client.shards).map(|s| s % owners).collect(),
            alive: vec![true; nodes],
            fabric: Fabric::new(nodes, net),
        }));
        client
    }

    /// Shard of a chunk hash. Derived from the content hash value
    /// itself, so the mapping is deterministic across runs and
    /// processes (never Rust's randomized `HashMap` state).
    fn shard_of(&self, hash: ChunkHash) -> usize {
        (hash % self.shards as u64) as usize
    }

    /// Under a placement, charges one RPC per shard `fps` touches, to
    /// that shard's owner, in shard order; `sizes` maps a shard's probe
    /// count to its (request, response) bytes.
    fn charge_per_shard(
        &self,
        fps: &[PageFingerprint],
        op: RegistryOp,
        sizes: impl Fn(usize) -> (usize, usize),
    ) {
        let Some(p) = &self.placement else {
            return;
        };
        let mut p = p.borrow_mut();
        let mut probes = vec![0usize; self.shards];
        for chunk in fps.iter().flat_map(|fp| fp.chunks()) {
            probes[self.shard_of(chunk.hash)] += 1;
        }
        for (s, &n) in probes.iter().enumerate() {
            if n > 0 {
                let ((req, resp), owner) = (sizes(n), p.owner_of[s]);
                p.owner_rpc(owner, op, req, resp);
            }
        }
    }

    /// Inserts all fingerprint chunks of one base-sandbox page.
    pub fn insert_page(&self, fp: &PageFingerprint, loc: ChunkLoc) {
        self.charge_per_shard(std::slice::from_ref(fp), RegistryOp::Insert, |n| {
            (
                n * PROBE_BYTES + std::mem::size_of::<ChunkLoc>(),
                PROBE_BYTES,
            )
        });
        let mut store = self.store.borrow_mut();
        let Store {
            table,
            by_sandbox,
            entries,
            peak_entries,
            counts,
        } = &mut *store;
        let hashes = by_sandbox.entry(loc.sandbox).or_default();
        let mut inserted = 0usize;
        for chunk in fp.chunks() {
            let locs = table.entry(chunk.hash).or_default();
            if locs.len() < MAX_LOCS_PER_HASH {
                locs.push(loc);
                hashes.push(chunk.hash);
                inserted += 1;
            }
        }
        *entries += inserted;
        *peak_entries = (*peak_entries).max(*entries);
        counts.inserts += inserted as u64;
    }

    /// Looks up a page fingerprint: [`RegistryClient::lookup_batch`] of
    /// one.
    pub fn lookup(&self, fp: &PageFingerprint) -> Vec<Candidate> {
        let mut out = self.lookup_batch(std::slice::from_ref(fp));
        out.pop().expect("one candidate list per fingerprint")
    }

    /// Looks up a batch of page fingerprints and returns one candidate
    /// list per fingerprint, ordered by descending vote count with a
    /// total-order tie-break (sandbox, page, node), so the result is
    /// independent of `HashMap` iteration order.
    pub fn lookup_batch(&self, fps: &[PageFingerprint]) -> Vec<Vec<Candidate>> {
        self.charge_per_shard(fps, RegistryOp::Lookup, |n| {
            (n * PROBE_BYTES, n * CANDIDATE_BYTES)
        });
        self.store.borrow_mut().counts.lookups += fps.len() as u64;
        let store = self.store.borrow();
        let out: Vec<Vec<Candidate>> = fps
            .iter()
            .map(|fp| {
                let mut votes: HashMap<ChunkLoc, u32> = HashMap::new();
                for chunk in fp.chunks() {
                    for &loc in store.table.get(&chunk.hash).into_iter().flatten() {
                        *votes.entry(loc).or_insert(0) += 1;
                    }
                }
                let mut cands: Vec<Candidate> = votes
                    .into_iter()
                    .map(|(loc, votes)| Candidate { loc, votes })
                    .collect();
                cands.sort_unstable_by(|a, b| {
                    b.votes
                        .cmp(&a.votes)
                        .then_with(|| a.loc.sandbox.cmp(&b.loc.sandbox))
                        .then_with(|| a.loc.page.cmp(&b.loc.page))
                        .then_with(|| a.loc.node.cmp(&b.loc.node))
                });
                cands
            })
            .collect();
        out
    }

    /// Removes every entry contributed by a base sandbox.
    pub fn remove_sandbox(&self, sandbox: SandboxId) {
        let mut store = self.store.borrow_mut();
        let Some(hashes) = store.by_sandbox.remove(&sandbox) else {
            return;
        };
        if let Some(p) = &self.placement {
            let mut p = p.borrow_mut();
            // Removal is a broadcast: a sandbox's chunk hashes span
            // shards, and the reverse index lives with each owner.
            let mut owners = p.owner_of.clone();
            owners.sort_unstable();
            owners.dedup();
            for owner in owners {
                p.owner_rpc(owner, RegistryOp::Remove, PROBE_BYTES, PROBE_BYTES);
            }
        }
        let mut removed = 0usize;
        for h in hashes {
            if let Some(locs) = store.table.get_mut(&h) {
                let before = locs.len();
                locs.retain(|l| l.sandbox != sandbox);
                removed += before - locs.len();
                if locs.is_empty() {
                    store.table.remove(&h);
                }
            }
        }
        store.entries -= removed;
        store.counts.evictions += 1;
    }

    /// Number of (hash, location) entries.
    pub fn entries(&self) -> usize {
        self.store.borrow().entries
    }

    /// High-water mark of entries over the registry's lifetime (the
    /// §7.7 controller-overhead number; the live count drains as base
    /// sandboxes expire at the end of a run).
    pub fn peak_entries(&self) -> usize {
        self.store.borrow().peak_entries
    }

    /// High-water mark of registry bytes.
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_entries() * ENTRY_BYTES
    }

    /// What the registry has done so far (for the §7.7 overhead
    /// report).
    pub fn counts(&self) -> RegistryCounts {
        self.store.borrow().counts
    }

    /// Live entry count per shard, counted from the table.
    pub fn shard_entries(&self) -> Vec<usize> {
        self.entries_per_shard(&self.store.borrow())
    }

    fn entries_per_shard(&self, store: &Store) -> Vec<usize> {
        let mut out = vec![0usize; self.shards];
        for (&hash, locs) in &store.table {
            out[self.shard_of(hash)] += locs.len();
        }
        out
    }

    /// Approximate resident bytes of the registry.
    pub fn mem_bytes(&self) -> usize {
        self.entries() * ENTRY_BYTES
    }

    /// Number of base sandboxes currently indexed.
    pub fn base_sandboxes(&self) -> usize {
        self.store.borrow().by_sandbox.len()
    }

    /// Whether the registry still indexes this sandbox.
    pub fn contains_sandbox(&self, sandbox: SandboxId) -> bool {
        self.store.borrow().by_sandbox.contains_key(&sandbox)
    }

    /// Number of chunk locations pointing at `node`. Used by crash
    /// recovery to assert a dead node's chunks were all purged.
    pub fn locs_on_node(&self, node: NodeId) -> usize {
        let store = self.store.borrow();
        let locs = store.table.values().flatten();
        locs.filter(|l| l.node == node).count()
    }

    /// Checks that `table` and `by_sandbox` agree entry for entry, that
    /// the entry counter matches the table, and, under a placement,
    /// that every shard is owned by a live node (or that no node is
    /// alive).
    pub fn check_invariants(&self) -> Result<(), String> {
        let store = self.store.borrow();
        let counted: usize = store.table.values().map(Vec::len).sum();
        if counted != store.entries {
            return Err(format!(
                "entry count drifted: counted {counted}, tracked {}",
                store.entries
            ));
        }
        let mut per_sandbox_hash: HashMap<(SandboxId, ChunkHash), usize> = HashMap::new();
        for (&hash, locs) in &store.table {
            if locs.is_empty() {
                return Err(format!("empty location list left for {hash:#x}"));
            }
            for loc in locs {
                if !store.by_sandbox.contains_key(&loc.sandbox) {
                    return Err(format!(
                        "table references sandbox sb{} unknown to by_sandbox",
                        loc.sandbox.0
                    ));
                }
                *per_sandbox_hash.entry((loc.sandbox, hash)).or_insert(0) += 1;
            }
        }
        let mut reverse: HashMap<(SandboxId, ChunkHash), usize> = HashMap::new();
        for (&sb, hashes) in &store.by_sandbox {
            for &h in hashes {
                *reverse.entry((sb, h)).or_insert(0) += 1;
            }
        }
        if per_sandbox_hash != reverse {
            return Err("by_sandbox multiplicities do not match the table".into());
        }
        let Some(p) = &self.placement else {
            return Ok(());
        };
        let p = p.borrow();
        if p.owner_of.len() != self.shards {
            return Err(format!(
                "ownership map covers {} shards, registry routes {}",
                p.owner_of.len(),
                self.shards
            ));
        }
        let any_alive = p.alive.contains(&true);
        for (s, &o) in p.owner_of.iter().enumerate() {
            if o >= p.alive.len() {
                return Err(format!("shard {s} owned by out-of-range node {o}"));
            }
            if !p.alive[o] && any_alive {
                return Err(format!("shard {s} owned by dead node {o}"));
            }
        }
        Ok(())
    }

    /// Mirrors the simulated clock into the placement's fabric, so RPCs
    /// are priced at the current instant.
    pub fn set_now(&self, now: SimTime) {
        if let Some(p) = &self.placement {
            p.borrow_mut().fabric.set_now(now);
        }
    }

    /// Notifies the registry that `node` crashed, *after* the platform
    /// purged the node's base sandboxes. Under a placement the dead
    /// owner's shards go to the survivors (ascending node ids, each
    /// orphaned shard taking the next survivor in turn) and their
    /// entries are re-replicated as one bulk transfer per shard. With
    /// no survivor the shards stay put until a node restarts.
    pub fn on_node_crash(&self, node: NodeId) -> CrashRecovery {
        let mut rec = CrashRecovery::default();
        let mut store = self.store.borrow_mut();
        let Some(p) = &self.placement else {
            return rec;
        };
        let mut p = p.borrow_mut();
        if node.0 >= p.alive.len() || !p.alive[node.0] {
            return rec;
        }
        p.alive[node.0] = false;
        let survivors: Vec<usize> = (0..p.alive.len()).filter(|&n| p.alive[n]).collect();
        if survivors.is_empty() {
            return rec;
        }
        let shard_entries = self.entries_per_shard(&store);
        for (s, &entries) in shard_entries.iter().enumerate() {
            if p.owner_of[s] != node.0 {
                continue;
            }
            // The dead owner's physical copy is gone; the recoverable
            // entries (their backing base sandboxes are on live nodes —
            // dead bases were already purged by the platform) move to
            // the new owner.
            let owner = survivors[rec.reassigned_shards % survivors.len()];
            p.owner_of[s] = owner;
            rec.reassigned_shards += 1;
            rec.purged_entries += entries;
            rec.rereplicated_entries += entries;
            p.owner_rpc(
                owner,
                RegistryOp::Replicate,
                2 * PROBE_BYTES,
                entries * ENTRY_BYTES,
            );
        }
        let total = &mut store.counts.recovered;
        total.purged_entries += rec.purged_entries;
        total.rereplicated_entries += rec.rereplicated_entries;
        total.reassigned_shards += rec.reassigned_shards;
        rec
    }

    /// Notifies the registry that `node` restarted. It rejoins the
    /// owner candidate set for future re-demarcations but reclaims no
    /// shard from a live owner (no proactive rebalancing); shards a
    /// full outage left with dead owners are adopted by it.
    pub fn on_node_restart(&self, node: NodeId) {
        let Some(p) = &self.placement else {
            return;
        };
        let mut p = p.borrow_mut();
        let Placement {
            owner_of, alive, ..
        } = &mut *p;
        if node.0 >= alive.len() {
            return;
        }
        alive[node.0] = true;
        for owner in owner_of.iter_mut().filter(|o| !alive[**o]) {
            *owner = node.0;
        }
    }

    /// Entries in shards owned by `node`: 0 without a placement, where
    /// worker nodes own nothing.
    pub fn entries_owned_by(&self, node: NodeId) -> usize {
        let store = self.store.borrow();
        let Some(p) = &self.placement else {
            return 0;
        };
        let p = p.borrow();
        let per_shard = self.entries_per_shard(&store);
        let owned = per_shard.iter().zip(&p.owner_of);
        owned.filter(|&(_, &o)| o == node.0).map(|(&e, _)| e).sum()
    }

    /// Cumulative registry RPC traffic and time (zero without a
    /// placement). Accounted off the report-visible path: dedup runs
    /// off the critical path, so the time is an overhead figure, not a
    /// scheduling input.
    pub fn rpc_stats(&self) -> FabricStats {
        let p = self.placement.as_ref();
        p.map(|p| p.borrow().fabric.stats()).unwrap_or_default()
    }

    /// Number of shards currently owned by `node`.
    #[cfg(test)]
    fn shards_owned_by(&self, node: NodeId) -> usize {
        let p = self.placement.as_ref().expect("placed client").borrow();
        p.owner_of.iter().filter(|&&o| o == node.0).count()
    }

    /// All (hash, location) pairs, for test assertions.
    #[cfg(test)]
    fn snapshot_locs(&self) -> Vec<(ChunkHash, ChunkLoc)> {
        let store = self.store.borrow();
        let pairs = store.table.iter();
        pairs
            .flat_map(|(&h, locs)| locs.iter().map(move |&l| (h, l)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_hash::sample::{page_fingerprint, FingerprintConfig};
    use medes_sim::DetRng;

    fn random_page(seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        let mut p = vec![0u8; 4096];
        rng.fill_bytes(&mut p);
        p
    }

    fn loc(sb: u64, page: u32) -> ChunkLoc {
        ChunkLoc {
            node: NodeId(0),
            sandbox: SandboxId(sb),
            page,
        }
    }

    #[test]
    fn exact_page_gets_full_votes() {
        let cfg = FingerprintConfig::default();
        let page = random_page(1);
        let fp = page_fingerprint(&page, &cfg);
        assert!(!fp.is_empty());
        let reg = RegistryClient::new();
        reg.insert_page(&fp, loc(1, 0));
        let cands = reg.lookup(&fp);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].votes as usize, fp.len());
        assert_eq!(cands[0].loc, loc(1, 0));
    }

    #[test]
    fn unrelated_page_gets_no_candidates() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::new();
        reg.insert_page(&page_fingerprint(&random_page(1), &cfg), loc(1, 0));
        let cands = reg.lookup(&page_fingerprint(&random_page(2), &cfg));
        assert!(cands.is_empty());
    }

    #[test]
    fn votes_rank_candidates() {
        let cfg = FingerprintConfig::default();
        let page = random_page(3);
        let fp = page_fingerprint(&page, &cfg);
        // A partially matching page: shares a prefix of the original.
        let mut partial = random_page(4);
        partial[..2048].copy_from_slice(&page[..2048]);
        let fp_partial = page_fingerprint(&partial, &cfg);
        let reg = RegistryClient::new();
        reg.insert_page(&fp, loc(1, 0));
        reg.insert_page(&fp_partial, loc(2, 0));
        let cands = reg.lookup(&fp);
        assert_eq!(cands[0].loc.sandbox, SandboxId(1), "exact match wins");
        if cands.len() > 1 {
            assert!(cands[0].votes >= cands[1].votes);
        }
    }

    #[test]
    fn removal_is_exact() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::new();
        let fp1 = page_fingerprint(&random_page(5), &cfg);
        let fp2 = page_fingerprint(&random_page(6), &cfg);
        reg.insert_page(&fp1, loc(1, 0));
        reg.insert_page(&fp2, loc(2, 0));
        let total = reg.entries();
        reg.remove_sandbox(SandboxId(1));
        assert_eq!(reg.entries(), total - fp1.len());
        assert!(reg.lookup(&fp1).is_empty());
        assert!(!reg.lookup(&fp2).is_empty());
        assert_eq!(reg.base_sandboxes(), 1);
        assert!(!reg.contains_sandbox(SandboxId(1)));
        assert!(reg.contains_sandbox(SandboxId(2)));
    }

    #[test]
    fn per_hash_cap_holds() {
        let cfg = FingerprintConfig::default();
        let page = random_page(7);
        let fp = page_fingerprint(&page, &cfg);
        for shards in [1, 4] {
            let reg = RegistryClient::in_process(shards, Obs::disabled());
            for sb in 0..20 {
                reg.insert_page(&fp, loc(sb, 0));
            }
            let cands = reg.lookup(&fp);
            assert!(cands.len() <= MAX_LOCS_PER_HASH);
            assert!(reg.mem_bytes() > 0);
        }
    }

    #[test]
    fn lookup_counter_increments() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::new();
        let fp = page_fingerprint(&random_page(8), &cfg);
        reg.lookup(&fp);
        reg.lookup(&fp);
        assert_eq!(reg.counts().lookups, 2);
    }

    /// The shard map must be a pure function of the chunk hash: the
    /// same content produces identical lookup results, entry counts,
    /// and base-sandbox counts at every shard count.
    #[test]
    fn lookup_results_are_shard_count_invariant() {
        let cfg = FingerprintConfig::default();
        let pages: Vec<Vec<u8>> = (0..24).map(random_page).collect();
        let fps: Vec<PageFingerprint> = pages.iter().map(|p| page_fingerprint(p, &cfg)).collect();
        let mut partial = random_page(100);
        partial[..2048].copy_from_slice(&pages[0][..2048]);
        let fp_partial = page_fingerprint(&partial, &cfg);

        let build = |shards: usize| {
            let reg = RegistryClient::in_process(shards, Obs::disabled());
            for (i, fp) in fps.iter().enumerate() {
                reg.insert_page(
                    fp,
                    ChunkLoc {
                        node: NodeId(i % 3),
                        sandbox: SandboxId((i % 5) as u64 + 1),
                        page: i as u32,
                    },
                );
            }
            reg.remove_sandbox(SandboxId(2));
            reg
        };

        let baseline = build(1);
        for shards in [2, 4, 16] {
            let reg = build(shards);
            assert_eq!(reg.entries(), baseline.entries(), "{shards} shards");
            assert_eq!(
                reg.peak_entries(),
                baseline.peak_entries(),
                "{shards} shards"
            );
            assert_eq!(
                reg.base_sandboxes(),
                baseline.base_sandboxes(),
                "{shards} shards"
            );
            for fp in fps.iter().chain([&fp_partial]) {
                assert_eq!(reg.lookup(fp), baseline.lookup(fp), "{shards} shards");
            }
            reg.check_invariants().expect("sharded invariants");
        }
    }

    /// `lookup_batch` must return exactly what per-fingerprint `lookup`
    /// returns, and advance the same counters.
    #[test]
    fn lookup_batch_matches_individual_lookups() {
        let cfg = FingerprintConfig::default();
        for shards in [1, 4, 16] {
            let reg = RegistryClient::in_process(shards, Obs::disabled());
            for i in 0..16u64 {
                let fp = page_fingerprint(&random_page(i), &cfg);
                reg.insert_page(&fp, loc(i % 4 + 1, i as u32));
            }
            let probes: Vec<PageFingerprint> = (0..20u64)
                .map(|i| page_fingerprint(&random_page(i), &cfg))
                .collect();
            let individual: Vec<Vec<Candidate>> = probes.iter().map(|fp| reg.lookup(fp)).collect();
            let lookups_before = reg.counts().lookups;
            let batched = reg.lookup_batch(&probes);
            assert_eq!(batched, individual, "{shards} shards");
            assert_eq!(reg.counts().lookups, lookups_before + probes.len() as u64);
        }
    }

    /// A sandbox whose pages span many shards is still one base
    /// sandbox: the count is a distinct union, not a per-shard sum.
    #[test]
    fn base_sandboxes_is_distinct_union_across_shards() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::in_process(8, Obs::disabled());
        for page in 0..12u64 {
            let fp = page_fingerprint(&random_page(1000 + page), &cfg);
            reg.insert_page(&fp, loc(1, page as u32));
        }
        let spread = reg.shard_entries().iter().filter(|&&e| e > 0).count();
        assert!(spread > 1, "test premise: chunks should span shards");
        assert_eq!(reg.base_sandboxes(), 1);
        reg.remove_sandbox(SandboxId(1));
        assert_eq!(reg.base_sandboxes(), 0);
        assert_eq!(reg.entries(), 0);
    }

    /// Randomized insert/remove/crash/restart interleavings — including
    /// full outages — must keep the store's `table` and `by_sandbox`
    /// mutually consistent, at several shard counts, on a placed client
    /// and an in-process client fed the same stream; the two must agree
    /// on every lookup, no shard entry may sit with a dead owner, and no
    /// location may survive its sandbox's eviction.
    #[test]
    fn random_interleavings_keep_invariants() {
        const NODES: usize = 4;
        let cfg = FingerprintConfig::default();
        let mut full_outages = 0usize;
        for shards in [1, 3, 8] {
            for case in 0..70u64 {
                let mut rng = DetRng::new(0x1EC5 + 1000 * shards as u64 + case);
                let owners = rng.range(1, NODES as u64 + 1) as usize;
                let regs = [
                    RegistryClient::in_process(shards, Obs::disabled()),
                    distributed(shards, owners, NODES),
                ];
                // Live sandboxes with the node each lives on.
                let mut live: Vec<(u64, usize)> = Vec::new();
                let mut evicted: Vec<u64> = Vec::new();
                let mut up = [true; NODES];
                let mut next_sb = 1u64;
                let mut probe = page_fingerprint(&random_page(rng.next_u64()), &cfg);
                // What the platform does on a crash: purge the dead
                // node's bases, then tell the registry.
                let crash = |n: usize, live: &mut Vec<(u64, usize)>, evicted: &mut Vec<u64>| {
                    live.retain(|&(sb, node)| {
                        if node == n {
                            regs.iter().for_each(|r| r.remove_sandbox(SandboxId(sb)));
                            evicted.push(sb);
                        }
                        node != n
                    });
                    for reg in &regs {
                        assert_eq!(reg.locs_on_node(NodeId(n)), 0);
                        reg.on_node_crash(NodeId(n));
                    }
                };
                for step in 0..rng.range(20, 60) {
                    let ctx = format!("shards {shards} case {case} step {step}");
                    let up_nodes: Vec<usize> = (0..NODES).filter(|&n| up[n]).collect();
                    let roll = rng.below(100);
                    if roll < 3 {
                        // Full outage, one node at a time.
                        for n in up_nodes {
                            crash(n, &mut live, &mut evicted);
                            up[n] = false;
                            regs[1].check_invariants().expect(&ctx);
                        }
                        full_outages += 1;
                    } else if roll < 13 {
                        let n = rng.below(NODES as u64) as usize;
                        crash(n, &mut live, &mut evicted);
                        up[n] = false;
                    } else if roll < 23 {
                        let n = rng.below(NODES as u64) as usize;
                        regs.iter().for_each(|r| r.on_node_restart(NodeId(n)));
                        up[n] = true;
                    } else if !up_nodes.is_empty() && (live.is_empty() || roll < 75) {
                        // Insert a few pages for a fresh or existing sandbox.
                        let (sb, node) = if live.is_empty() || rng.chance(0.4) {
                            let node = up_nodes[rng.below(up_nodes.len() as u64) as usize];
                            live.push((next_sb, node));
                            next_sb += 1;
                            live[live.len() - 1]
                        } else {
                            live[rng.below(live.len() as u64) as usize]
                        };
                        for page in 0..rng.range(1, 4) {
                            let fp = page_fingerprint(&random_page(rng.next_u64()), &cfg);
                            if !fp.is_empty() {
                                let loc = ChunkLoc {
                                    node: NodeId(node),
                                    sandbox: SandboxId(sb),
                                    page: page as u32,
                                };
                                regs.iter().for_each(|r| r.insert_page(&fp, loc));
                                probe = fp;
                            }
                        }
                    } else if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let (sb, _) = live.swap_remove(i);
                        regs.iter().for_each(|r| r.remove_sandbox(SandboxId(sb)));
                        evicted.push(sb);
                    }
                    for reg in &regs {
                        reg.check_invariants()
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        for dead in (0..NODES).filter(|&n| !up[n]) {
                            assert_eq!(reg.entries_owned_by(NodeId(dead)), 0, "{ctx}");
                        }
                    }
                    assert_eq!(regs[0].lookup(&probe), regs[1].lookup(&probe), "{ctx}");
                    assert_eq!(regs[0].entries(), regs[1].entries(), "{ctx}");
                }
                for reg in &regs {
                    // No ChunkLoc points at an evicted sandbox.
                    for &sb in &evicted {
                        assert!(
                            reg.snapshot_locs()
                                .iter()
                                .all(|(_, l)| l.sandbox != SandboxId(sb)),
                            "shards {shards} case {case}: location survived eviction of sb{sb}"
                        );
                        assert!(!reg.contains_sandbox(SandboxId(sb)));
                    }
                    // Evicting everything drains the registry completely.
                    for &(sb, _) in &live {
                        reg.remove_sandbox(SandboxId(sb));
                    }
                    reg.check_invariants().expect("drained registry");
                    assert_eq!(reg.entries(), 0, "shards {shards} case {case}");
                    assert!(
                        reg.snapshot_locs().is_empty(),
                        "shards {shards} case {case}"
                    );
                }
            }
        }
        assert!(full_outages > 0, "no case took every node down");
    }

    #[test]
    fn locs_on_node_counts_and_drains() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::in_process(4, Obs::disabled());
        let fp1 = page_fingerprint(&random_page(21), &cfg);
        let fp2 = page_fingerprint(&random_page(22), &cfg);
        reg.insert_page(
            &fp1,
            ChunkLoc {
                node: NodeId(1),
                sandbox: SandboxId(1),
                page: 0,
            },
        );
        reg.insert_page(
            &fp2,
            ChunkLoc {
                node: NodeId(2),
                sandbox: SandboxId(2),
                page: 0,
            },
        );
        assert_eq!(reg.locs_on_node(NodeId(1)), fp1.len());
        assert_eq!(reg.locs_on_node(NodeId(2)), fp2.len());
        assert_eq!(reg.locs_on_node(NodeId(3)), 0);
        reg.remove_sandbox(SandboxId(1));
        assert_eq!(reg.locs_on_node(NodeId(1)), 0);
        reg.check_invariants().expect("consistent after removal");
    }

    #[test]
    fn registry_counts_its_own_activity() {
        let cfg = FingerprintConfig::default();
        let reg = RegistryClient::in_process(2, Obs::disabled());
        let fp = page_fingerprint(&random_page(9), &cfg);
        reg.insert_page(&fp, loc(1, 0));
        reg.lookup(&fp);
        reg.remove_sandbox(SandboxId(1));
        // Removing an unknown sandbox is no eviction.
        reg.remove_sandbox(SandboxId(99));
        let want = RegistryCounts {
            lookups: 1,
            inserts: fp.len() as u64,
            evictions: 1,
            recovered: CrashRecovery::default(),
        };
        assert_eq!(reg.counts(), want);
        // Unplaced, a crash moves no shard and counts nothing.
        reg.on_node_crash(NodeId(0));
        assert_eq!(reg.counts(), want);
    }

    fn distributed(shards: usize, owners: usize, nodes: usize) -> RegistryClient {
        RegistryClient::distributed(
            shards,
            owners,
            nodes,
            medes_net::NetConfig,
            RetryPolicy,
            Obs::disabled(),
        )
    }

    /// Shard placement must not leak into what the registry *returns*:
    /// a distributed registry at any owner count elects the exact same
    /// candidates — and reports the same counters — as the in-process
    /// one.
    #[test]
    fn distributed_results_match_in_process_at_any_placement() {
        let cfg = FingerprintConfig::default();
        let fps: Vec<PageFingerprint> = (0..16u64)
            .map(|i| page_fingerprint(&random_page(40 + i), &cfg))
            .collect();
        let run = |reg: &RegistryClient| {
            for (i, fp) in fps.iter().enumerate() {
                reg.insert_page(
                    fp,
                    ChunkLoc {
                        node: NodeId(i % 3),
                        sandbox: SandboxId((i % 4) as u64 + 1),
                        page: i as u32,
                    },
                );
            }
            reg.remove_sandbox(SandboxId(2));
            let batch = reg.lookup_batch(&fps);
            (
                batch,
                reg.entries(),
                reg.base_sandboxes(),
                reg.counts().lookups,
            )
        };
        let local = RegistryClient::in_process(8, Obs::disabled());
        let baseline = run(&local);
        for owners in [1, 3, 6] {
            let reg = distributed(8, owners, 6);
            assert_eq!(run(&reg), baseline, "{owners} owners");
            reg.check_invariants().expect("distributed invariants");
        }
    }

    /// Every logical operation on a placed client turns into
    /// priced RPC traffic on its private fabric, split by op kind.
    #[test]
    fn distributed_charges_rpc_traffic() {
        let cfg = FingerprintConfig::default();
        let reg = distributed(4, 2, 4);
        let fp = page_fingerprint(&random_page(60), &cfg);
        reg.insert_page(&fp, loc(1, 0));
        reg.lookup(&fp);
        reg.remove_sandbox(SandboxId(1));
        // Removing an unknown sandbox must not broadcast.
        let removes_after_first = reg.rpc_stats().registry_rpcs[RegistryOp::Remove as usize];
        reg.remove_sandbox(SandboxId(99));
        let stats = reg.rpc_stats();
        assert_eq!(
            stats.registry_rpcs[RegistryOp::Remove as usize],
            removes_after_first
        );
        assert!(stats.rpcs > 0, "RPCs issued");
        assert!(stats.rpc_bytes > 0, "RPC bytes accounted");
        assert_eq!(stats.rpc_failures, 0, "clean registry fabric never fails");
        assert!(stats.registry_rpcs[RegistryOp::Insert as usize] > 0);
        assert!(stats.registry_rpcs[RegistryOp::Lookup as usize] > 0);
        assert!(removes_after_first > 0);
        assert_eq!(stats.registry_rpcs.iter().sum::<u64>(), stats.rpcs);
        assert!(stats.rpc_us_total > 0);
    }

    /// An owner crash re-demarcates every shard it owned onto the
    /// surviving nodes — deterministically, with the recovery traffic
    /// counted — and never leaves a shard pointing at a dead node.
    #[test]
    fn crash_reassigns_shards_to_survivors() {
        let cfg = FingerprintConfig::default();
        let reg = distributed(8, 4, 6);
        for i in 0..24u64 {
            let fp = page_fingerprint(&random_page(80 + i), &cfg);
            reg.insert_page(
                &fp,
                ChunkLoc {
                    node: NodeId((i % 6) as usize),
                    sandbox: SandboxId(i + 1),
                    page: 0,
                },
            );
        }
        let owned_before = reg.entries_owned_by(NodeId(1));
        let entries_before = reg.entries();
        assert!(reg.shards_owned_by(NodeId(1)) > 0, "test premise");
        let replicates_before = reg.rpc_stats().rpcs;

        let rec = reg.on_node_crash(NodeId(1));
        assert!(rec.reassigned_shards > 0);
        assert_eq!(rec.purged_entries, owned_before);
        assert_eq!(rec.rereplicated_entries, owned_before);
        assert_eq!(reg.shards_owned_by(NodeId(1)), 0);
        assert_eq!(reg.entries_owned_by(NodeId(1)), 0);
        assert_eq!(reg.counts().recovered, rec);
        assert_eq!(
            reg.rpc_stats().rpcs - replicates_before,
            rec.reassigned_shards as u64,
            "one bulk replicate RPC per reassigned shard"
        );
        reg.check_invariants()
            .expect("no shard owned by a dead node");
        // The logical store is untouched: crash recovery re-homes
        // ownership, it does not change what candidates exist.
        assert_eq!(reg.entries(), entries_before);
        // A second crash of the same node is a no-op.
        assert_eq!(reg.on_node_crash(NodeId(1)), CrashRecovery::default());
        // After restart the node may own shards again on a later crash.
        reg.on_node_restart(NodeId(1));
        let rec2 = reg.on_node_crash(NodeId(0));
        assert!(rec2.reassigned_shards > 0);
        reg.check_invariants().expect("second re-demarcation");
    }

    /// A distributed client and an in-process client given the same
    /// inputs agree on every store counter (the counter-parity contract
    /// of placement).
    #[test]
    fn client_counters_agree_across_backends() {
        let cfg = FingerprintConfig::default();
        let clients = [
            RegistryClient::in_process(4, Obs::disabled()),
            RegistryClient::distributed(
                4,
                3,
                5,
                medes_net::NetConfig,
                RetryPolicy,
                Obs::disabled(),
            ),
        ];
        for client in &clients {
            for i in 0..8u64 {
                let fp = page_fingerprint(&random_page(120 + i), &cfg);
                client.insert_page(&fp, loc(i % 3 + 1, i as u32));
            }
            client.lookup(&page_fingerprint(&random_page(120), &cfg));
            client.remove_sandbox(SandboxId(1));
            client.check_invariants().expect("client invariants");
        }
        let [a, b] = clients;
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.peak_entries(), b.peak_entries());
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.mem_bytes(), b.mem_bytes());
        assert_eq!(a.peak_mem_bytes(), b.peak_mem_bytes());
        // One entry count per shard: equal vectors, equal shard counts.
        assert_eq!(a.shard_entries(), b.shard_entries());
        assert_eq!(a.base_sandboxes(), b.base_sandboxes());
        // Only the distributed client reports RPC traffic.
        assert_eq!(a.rpc_stats().rpcs, 0);
        assert!(b.rpc_stats().rpcs > 0);
    }
}
