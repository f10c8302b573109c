//! What a base sandbox is (§4.1.3, §5.3).
//!
//! [`Bases`] owns everything that makes a warm sandbox a *base*: the
//! fingerprint registry its pages are indexed in, its pinned image, its
//! place in its function's base list and the count of dedup tables that
//! reference it. A base is **listed** from [`Bases::demarcate`] on: new
//! dedups may match its pages, and the `D/B > T` rule counts it. A
//! deploy that supersedes it **retires** it ([`Bases::retire`]): out of
//! the registry, the list and the page caches, so nothing new can match
//! it, but still *resolvable* — the restores of the tables that already
//! reference it read its image — until its sandbox is torn down
//! ([`Bases::drop_base`]).
//!
//! So `registry.base_sandboxes()` == the listed bases ⊆ the resolvable
//! ones ⊆ the live sandboxes, no cache holds a page of an unresolvable
//! base, and a base's count is at least the attached tables that
//! reference it (the rest belong to dedup ops in flight).
//! [`Bases::check`] asserts all of it.

use super::memory::NodeMemory;
use crate::config::{PlatformConfig, RegistryPlacement};
use crate::dedup::index_base_sandbox;
use crate::ids::{FnId, SandboxId};
use crate::images::ImageFactory;
use crate::registry::RegistryClient;
use crate::sandbox::{DedupPageTable, Sandbox, SandboxTable};
use medes_mem::MemoryImage;
use medes_obs::Obs;
use medes_trace::FunctionProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// A resolvable base sandbox.
#[derive(Debug)]
struct Base {
    func: FnId,
    /// The image the registry's locations point into, held for as long
    /// as the base resolves.
    image: Arc<MemoryImage>,
    /// Dedup tables — attached to a sandbox, or in a `DedupDone` in
    /// flight — that patch against this base. A referenced base may not
    /// be purged (§5.3).
    refs: u32,
}

#[derive(Debug)]
pub(crate) struct Bases {
    registry: RegistryClient,
    factory: ImageFactory,
    resolvable: HashMap<SandboxId, Base>,
    /// Per function, its listed bases in demarcation order.
    listed: Vec<Vec<SandboxId>>,
}

impl Bases {
    pub fn new(cfg: &PlatformConfig, profiles: &[FunctionProfile]) -> Self {
        // The registry records nothing into the handle it is given.
        let (shards, obs) = (cfg.shards, Obs::disabled());
        let registry = match cfg.registry {
            RegistryPlacement::InProcess => RegistryClient::in_process(shards, obs),
            RegistryPlacement::Distributed { owners } => {
                let net = cfg.net.clone();
                RegistryClient::distributed(shards, owners, cfg.nodes, net, cfg.retry, obs)
            }
        };
        Bases {
            registry,
            factory: ImageFactory::new(profiles, cfg.content.clone(), cfg.aslr, cfg.mem_scale),
            resolvable: HashMap::new(),
            listed: vec![Vec::new(); profiles.len()],
        }
    }

    pub fn registry(&self) -> &RegistryClient {
        &self.registry
    }

    pub fn images(&self) -> &ImageFactory {
        &self.factory
    }

    /// A function's listed bases.
    pub fn listed(&self, func: usize) -> &[SandboxId] {
        &self.listed[func]
    }

    /// Whether `id` was demarcated (and is still alive), listed or not.
    pub fn is_base(&self, id: SandboxId) -> bool {
        self.resolvable.contains_key(&id)
    }

    /// Whether `id` is a base some dedup table references: such a base
    /// may not be purged, evicted or expired.
    pub fn is_referenced(&self, id: SandboxId) -> bool {
        self.resolvable.get(&id).is_some_and(|b| b.refs > 0)
    }

    /// A base's image and function, for scans and restores.
    pub fn resolve(&self, id: SandboxId) -> Option<(Arc<MemoryImage>, FnId)> {
        let b = self.resolvable.get(&id)?;
        Some((Arc::clone(&b.image), b.func))
    }

    /// Promotes a warm sandbox to a base: builds and keeps its image,
    /// indexes every page in the registry and lists it with its
    /// function. The sandbox itself does not change (it stays warm, in
    /// the idle-warm pool).
    pub fn demarcate(&mut self, cfg: &PlatformConfig, sb: &Sandbox) {
        let image = self.factory.image_v(sb.func, sb.instance_seed, sb.version);
        index_base_sandbox(cfg, &self.registry, sb.node, sb.id, &image);
        let (func, refs) = (sb.func, 0);
        self.resolvable.insert(sb.id, Base { func, image, refs });
        self.listed[func.0].push(sb.id);
    }

    /// Takes a base out of the registry, its function's list and every
    /// page cache, so that no *new* dedup or cached read can match its
    /// content. It stays resolvable — so a later restore may cache its
    /// pages again, which is why [`Bases::drop_base`] retires once more.
    /// No-op on a non-base.
    pub fn retire(&mut self, id: SandboxId, mem: &mut NodeMemory) {
        let Some(base) = self.resolvable.get(&id) else {
            return;
        };
        self.registry.remove_sandbox(id);
        self.listed[base.func.0].retain(|&b| b != id);
        mem.invalidate_base(id);
    }

    /// Forgets a base whose sandbox was torn down — even a referenced
    /// one dies with its node; its dependants discover the loss when
    /// their restore fails to resolve it. No-op on a non-base.
    pub fn drop_base(&mut self, id: SandboxId, mem: &mut NodeMemory) {
        self.retire(id, mem);
        self.resolvable.remove(&id);
    }

    /// Counts `table` as a reference on every base it patches against.
    pub fn pin_refs(&mut self, table: &DedupPageTable) {
        table.for_each_base(|id| {
            if let Some(b) = self.resolvable.get_mut(&id) {
                b.refs += 1;
            }
        });
    }

    /// Drops the references [`Bases::pin_refs`] took for `table` (bases
    /// that died meanwhile have nothing left to release).
    pub fn release_refs(&mut self, table: &DedupPageTable) {
        table.for_each_base(|id| {
            if let Some(b) = self.resolvable.get_mut(&id) {
                b.refs = b.refs.saturating_sub(1);
            }
        });
    }

    /// Asserts the invariants of the module header, and the registry's
    /// own.
    pub fn check(&self, table: &SandboxTable, mem: &NodeMemory) {
        if let Err(e) = self.registry.check_invariants() {
            panic!("registry invariant broken: {e}");
        }
        let listed: Vec<SandboxId> = self.listed.concat();
        let indexed = self.registry.base_sandboxes();
        assert_eq!(indexed, listed.len(), "registry != listed bases");
        for id in listed {
            assert!(
                self.registry.contains_sandbox(id),
                "{id} is listed, not indexed"
            );
            assert!(self.is_base(id), "listed base {id} does not resolve");
        }
        let mut attached: HashMap<SandboxId, u32> = HashMap::new();
        for t in table.iter().filter_map(|sb| sb.dedup_table.as_ref()) {
            t.for_each_base(|id| *attached.entry(id).or_default() += 1);
        }
        for (id, base) in &self.resolvable {
            assert!(table.contains_key(id), "base {id} outlived its sandbox");
            let tables = attached.get(id).copied().unwrap_or(0);
            assert!(
                base.refs >= tables,
                "{id}: {} refs, {tables} tables",
                base.refs
            );
        }
        for id in mem.cached_bases() {
            assert!(self.is_base(id), "a cache holds a page of dead base {id}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::platform::tests::pick;
    use crate::sandbox::PageEntry;
    use medes_delta::Patch;
    use medes_sim::{DetRng, SimTime};
    use medes_trace::functionbench_suite;

    /// A dedup table that patches one page against each of `bases`.
    fn table_over(bases: &[SandboxId]) -> DedupPageTable {
        let patched = |&base_sandbox| PageEntry::Patched {
            base_sandbox,
            base_node: NodeId(0),
            base_page: 0,
            patch: Patch::from_instrs(4096, 4096, &[]),
        };
        let mut entries: Vec<PageEntry> = bases.iter().chain(bases).map(patched).collect();
        entries.push(PageEntry::Verbatim);
        DedupPageTable {
            entries,
            patch_bytes: 0,
            verbatim_pages: 1,
        }
    }

    /// Demarcate / reference / release / cache / retire / drop / crash /
    /// restart interleavings under both registry placements: the
    /// invariants (the registry's own among them) hold after every
    /// step, and a base is referenced exactly while the model says a
    /// table — attached or in flight — patches against it.
    #[test]
    fn bases_stay_consistent_under_random_interleavings() {
        let profiles: Vec<FunctionProfile> = functionbench_suite().into_iter().take(2).collect();
        for seed in 0..200u64 {
            let mut rng = DetRng::new(0xBA5E_5EED).fork(seed);
            let mut b = PlatformConfig::test_builder()
                .shards(1 + (seed % 3) as usize)
                .read_path(crate::config::RestoreReadConfig::cached(4 << 20));
            if seed % 2 == 1 {
                b = b.registry_owners(2);
            }
            let cfg = b.build().expect("valid");
            let mut bases = Bases::new(&cfg, &profiles);
            let mut mem = NodeMemory::new(&cfg);
            let mut table = SandboxTable::default();
            // Tables pinned at an idle check whose `DedupDone` is still
            // to come.
            let mut in_flight: Vec<DedupPageTable> = Vec::new();
            let mut next_id = 0u64;
            let drop_sandbox = |id, table: &mut SandboxTable, bases: &mut Bases, mem: &mut _| {
                let sb: Sandbox = table.remove(&id).expect("live");
                if let Some(t) = &sb.dedup_table {
                    bases.release_refs(t);
                }
                bases.drop_base(id, mem);
            };
            for step in 0..40u64 {
                let ids: Vec<SandboxId> = table.iter().map(|sb| sb.id).collect();
                let resolvable: Vec<SandboxId> = ids
                    .iter()
                    .copied()
                    .filter(|id| bases.is_base(*id))
                    .collect();
                let node = NodeId(rng.below(cfg.nodes as u64) as usize);
                match (rng.below(10), pick(&mut rng, &ids)) {
                    (0..=2, _) => {
                        let (id, func) = (SandboxId(next_id), FnId(rng.below(2) as usize));
                        next_id += 1;
                        let sb = Sandbox::new(id, func, node, rng.next_u64(), 0, SimTime::ZERO, 1);
                        table.insert(id, sb);
                        if rng.chance(0.6) {
                            bases.demarcate(&cfg, &table[&id]);
                            assert!(bases.listed(func.0).contains(&id) && !bases.is_referenced(id));
                            assert!(bases.resolve(id).is_some_and(|(_, f)| f == func));
                        }
                    }
                    (3 | 4, Some(id)) if !resolvable.is_empty() => {
                        let mut over = resolvable.clone();
                        rng.shuffle(&mut over);
                        over.truncate(1 + rng.below(2) as usize);
                        let t = table_over(&over);
                        bases.pin_refs(&t);
                        let sb = table.get_mut(&id).unwrap();
                        if bases.is_base(id) || sb.dedup_table.is_some() || rng.chance(0.3) {
                            in_flight.push(t);
                        } else {
                            sb.dedup_table = Some(t);
                        }
                    }
                    (5, Some(id)) => {
                        // A restore finishes, or a `DedupDone` reverts.
                        let attached = table.get_mut(&id).unwrap().dedup_table.take();
                        if let Some(t) = attached.or_else(|| in_flight.pop()) {
                            bases.release_refs(&t);
                        }
                    }
                    (6, _) if !resolvable.is_empty() => {
                        // A restore caches pages of a base it resolved.
                        let base = pick(&mut rng, &resolvable).unwrap();
                        assert!(bases.resolve(base).is_some(), "resolvable");
                        mem.with_cache(node, |c| c.map(|c| c.record(base, 0)));
                    }
                    (7, Some(id)) => {
                        bases.retire(id, &mut mem);
                        assert!(bases.listed(table[&id].func.0).iter().all(|b| *b != id));
                    }
                    (8, Some(id)) => drop_sandbox(id, &mut table, &mut bases, &mut mem),
                    (9, _) => {
                        // A crash as `Cluster::node_crash` settles it,
                        // and (sometimes) the restart that follows.
                        for id in ids {
                            if table[&id].node == node {
                                drop_sandbox(id, &mut table, &mut bases, &mut mem);
                            }
                        }
                        assert_eq!(bases.registry().locs_on_node(node), 0);
                        bases.registry().on_node_crash(node);
                        if rng.chance(0.5) {
                            bases.registry().on_node_restart(node);
                        }
                    }
                    _ => {}
                }
                bases.check(&table, &mem);
                let tables = table.iter().filter_map(|sb| sb.dedup_table.as_ref());
                let mut refs: HashMap<SandboxId, u32> = HashMap::new();
                for t in tables.chain(&in_flight) {
                    t.for_each_base(|id| *refs.entry(id).or_default() += 1);
                }
                for sb in table.iter() {
                    let model = bases.is_base(sb.id) && refs.contains_key(&sb.id);
                    assert_eq!(bases.is_referenced(sb.id), model, "seed {seed} step {step}");
                }
            }
        }
    }
}
