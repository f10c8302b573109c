//! Sandbox state and the Fig 4b lifecycle state machine.
//!
//! A `Sandbox` is plain data: the platform's `Lifecycle` is the only
//! code that moves one between states, and what makes a sandbox a *base*
//! (its pinned image, its reference count) lives with the platform's
//! `Bases`, not here.
//!
//! Besides its simulated state a sandbox carries one piece of host
//! memory, `Sandbox::last_dedup`: what its last dedup scan computed
//! (page fingerprints, and per page the elected base page with the patch
//! — or the rejection — that encoding against it gave). The next scan of
//! the same sandbox reuses it instead of hashing and encoding again; see
//! [`DedupMemo`] and `crate::dedup`. It lives and dies with the sandbox:
//! there is no cache to size and nothing to evict.

use crate::ids::{FnId, NodeId, SandboxId};
use medes_delta::Patch;
use medes_hash::sample::PageFingerprint;
use medes_sim::SimTime;

/// Sandbox lifecycle states (Fig 4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SandboxState {
    /// Being spawned (cold start in progress).
    Spawning,
    /// Executing a request.
    Running,
    /// Idle, full memory resident.
    Warm,
    /// Dedup op in progress (unavailable).
    Deduping,
    /// Deduplicated: only unique pages + patches resident.
    Dedup,
    /// Restore op in progress (a request is waiting on it).
    Restoring,
}

impl SandboxState {
    /// Whether a scheduler may assign a request to a sandbox in this
    /// state. Dedup sandboxes are assignable (they restore first).
    pub fn assignable(self) -> bool {
        matches!(self, SandboxState::Warm | SandboxState::Dedup)
    }

    /// Legal transitions of the Fig 4b state machine.
    pub fn can_transition_to(self, next: SandboxState) -> bool {
        use SandboxState::*;
        matches!(
            (self, next),
            (Spawning, Running)
                | (Running, Warm)
                | (Warm, Running)      // warm start
                | (Warm, Deduping)     // policy chose dedup
                | (Deduping, Dedup)
                | (Deduping, Warm)     // dedup found no savings; stay warm
                | (Dedup, Restoring)   // dedup start
                | (Restoring, Running)
        )
    }
}

/// How one page of a dedup sandbox is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageEntry {
    /// Kept verbatim (no suitable base page found).
    Verbatim,
    /// Stored as a patch against a base page elsewhere in the cluster.
    Patched {
        /// The base sandbox holding the reference page.
        base_sandbox: SandboxId,
        /// Node of the base sandbox.
        base_node: NodeId,
        /// Page index within the base sandbox.
        base_page: u32,
        /// The binary patch reconstructing this page.
        patch: Patch,
    },
}

/// The residual memory representation of a dedup sandbox.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupPageTable {
    /// One entry per page of the original image.
    pub entries: Vec<PageEntry>,
    /// Total serialized patch bytes (model scale).
    pub patch_bytes: usize,
    /// Pages kept verbatim.
    pub verbatim_pages: usize,
}

impl DedupPageTable {
    /// Pages stored as patches.
    pub fn patched_pages(&self) -> usize {
        self.entries.len() - self.verbatim_pages
    }

    /// Model-scale resident bytes of the dedup representation:
    /// verbatim pages + patches + per-page metadata.
    pub fn resident_model_bytes(&self) -> usize {
        const PER_PAGE_METADATA: usize = 24;
        self.verbatim_pages * medes_mem::PAGE_SIZE
            + self.patch_bytes
            + self.entries.len() * PER_PAGE_METADATA
    }

    /// Paper-scale size of the fully reconstructed image — what the
    /// CRIU-style memory-restore pass writes back (the `m_W` term of
    /// the §5 policy model).
    pub fn full_paper_bytes(&self, mem_scale: usize) -> usize {
        self.entries.len() * medes_mem::PAGE_SIZE * mem_scale
    }

    /// The read set of a restore: distinct `(base sandbox, base node,
    /// base page)` triples referenced by patched entries, in
    /// first-appearance order (deterministic).
    pub fn distinct_base_pages(&self) -> Vec<(SandboxId, NodeId, u32)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for entry in &self.entries {
            if let PageEntry::Patched {
                base_sandbox,
                base_node,
                base_page,
                ..
            } = entry
            {
                if seen.insert((*base_sandbox, *base_page)) {
                    out.push((*base_sandbox, *base_node, *base_page));
                }
            }
        }
        out
    }
}

/// What a sandbox remembers of its last dedup scan, so that the next
/// scan of the same sandbox repeats none of it.
///
/// Everything in here is a pure function of bytes that never change
/// while the sandbox lives. The fingerprints are a function of the
/// sandbox's image alone. A remembered page outcome is keyed by the
/// `(base sandbox, base page)` the scan elected, and a patch is a
/// function of the base page's bytes, the target page's bytes and the
/// run's `EncodeConfig`: a base's pinned image never changes and sandbox
/// ids are never reused, so an equal key means an equal patch. The
/// registry lookup and the election are *not* remembered — they depend
/// on registry state, and re-running them is what decides, page by
/// page, whether the remembered outcome still applies.
///
/// Host memory only: no simulated quantity reads it, and a scan that
/// reuses it is charged the checkpoint, lookups, base reads and patch
/// compute of a full scan.
#[derive(Debug, Default)]
pub struct DedupMemo {
    /// The fingerprint of every page, in page order.
    pub(crate) fingerprints: Vec<PageFingerprint>,
    /// Pages whose elected base page gave a patch no smaller than
    /// `patch_max_frac` of a page and so stayed verbatim: `(page, base
    /// sandbox, base page)`, ascending by page.
    pub(crate) rejected: Vec<(u32, SandboxId, u32)>,
    /// The entries of the table that scan produced — a `Patched` entry
    /// is the remembered outcome of its page. Empty while that table is
    /// still attached to the sandbox as its `dedup_table`; filled by
    /// [`DedupMemo::absorb`] when the table is released.
    pub(crate) entries: Vec<PageEntry>,
}

/// What a [`DedupMemo`] holds for one page and one elected base page.
#[derive(Debug)]
pub(crate) enum Remembered {
    /// The patch the last scan encoded against that base page.
    Patch(Patch),
    /// The last scan encoded against that base page and rejected the
    /// patch as too large.
    Rejected,
}

impl DedupMemo {
    /// Takes over the entries (and with them the patches) of the table
    /// the memo's scan produced, once nothing else needs that table.
    #[must_use]
    pub fn absorb(mut self, table: DedupPageTable) -> Self {
        debug_assert_eq!(table.entries.len(), self.fingerprints.len());
        self.entries = table.entries;
        self
    }

    /// Moves out what the last scan got for `page` against
    /// `(base_sandbox, base_page)`, if that is the base page it elected.
    pub(crate) fn take(
        &mut self,
        page: usize,
        base_sandbox: SandboxId,
        base_page: u32,
    ) -> Option<Remembered> {
        let key = (base_sandbox, base_page);
        if let Some(PageEntry::Patched {
            base_sandbox: s,
            base_page: p,
            patch,
            ..
        }) = self.entries.get_mut(page)
        {
            if (*s, *p) == key {
                return Some(Remembered::Patch(std::mem::take(patch)));
            }
        }
        let at = self
            .rejected
            .binary_search_by_key(&(page as u32), |r| r.0)
            .ok()?;
        let (_, s, p) = self.rejected[at];
        ((s, p) == key).then_some(Remembered::Rejected)
    }

    /// Host heap bytes the memo holds (what `medes.dedup.memo_peak_bytes`
    /// sums over live sandboxes).
    pub fn host_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let fingerprints: usize = self
            .fingerprints
            .iter()
            .map(|fp| size_of::<PageFingerprint>() + size_of_val(fp.chunks()))
            .sum();
        let patches: usize = self
            .entries
            .iter()
            .map(|e| match e {
                PageEntry::Patched { patch, .. } => patch.serialized_size(),
                PageEntry::Verbatim => 0,
            })
            .sum();
        fingerprints
            + size_of_val(self.rejected.as_slice())
            + size_of_val(self.entries.as_slice())
            + patches
    }
}

/// One sandbox.
///
/// Its memory image is a pure function of `(func, instance_seed,
/// version)`, all fixed at spawn: executing a request does not dirty the
/// content model's bytes. [`Sandbox::last_dedup`] rests on exactly that —
/// a content model that dirties pages between requests must bump an
/// image epoch here and drop the memo with it.
#[derive(Debug)]
pub(crate) struct Sandbox {
    /// Unique id.
    pub id: SandboxId,
    /// The function it runs.
    pub func: FnId,
    /// The node it lives on.
    pub node: NodeId,
    /// Current lifecycle state.
    pub state: SandboxState,
    /// Content seed: the image is a pure function of (spec, this).
    pub instance_seed: u64,
    /// Function code version the sandbox was spawned with (rolling
    /// deploys bump the function's deployed version; sandboxes built
    /// from an older version are purged once idle). Version 0 is the
    /// initial deployment.
    pub version: u64,
    /// Last time the sandbox went idle (spawn time until then).
    pub last_used: SimTime,
    /// Timer epoch: bumped on every state change so stale timer events
    /// can be ignored.
    pub epoch: u64,
    /// Whether this sandbox has ever entered the dedup state (for the
    /// distinct-sandbox dedup-fraction metric).
    pub ever_deduped: bool,
    /// Dedup representation (present iff state ∈ {Dedup, Restoring}).
    pub dedup_table: Option<DedupPageTable>,
    /// What the last dedup scan of this sandbox computed (host memory
    /// only; `None` until the first scan, and while a scan holds it).
    pub last_dedup: Option<DedupMemo>,
    /// Paper-scale bytes currently charged to the hosting node (written
    /// by the platform's `NodeMemory` only, together with the charge).
    pub mem_paper_bytes: usize,
    /// Total pages of the (model-scale) image.
    pub model_pages: usize,
}

impl Sandbox {
    /// Creates a sandbox entering the `Spawning` state, with nothing
    /// charged to its node yet.
    pub fn new(
        id: SandboxId,
        func: FnId,
        node: NodeId,
        instance_seed: u64,
        version: u64,
        now: SimTime,
        model_pages: usize,
    ) -> Self {
        Sandbox {
            id,
            func,
            node,
            state: SandboxState::Spawning,
            instance_seed,
            version,
            last_used: now,
            epoch: 0,
            ever_deduped: false,
            dedup_table: None,
            last_dedup: None,
            mem_paper_bytes: 0,
            model_pages,
        }
    }

    /// Transitions the state machine, bumping the timer epoch.
    ///
    /// # Panics
    /// Panics on an illegal transition — that is always a platform bug.
    pub fn transition(&mut self, next: SandboxState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal sandbox transition {:?} -> {:?} ({})",
            self.state,
            next,
            self.id
        );
        self.state = next;
        self.epoch += 1;
    }
}

/// The live sandboxes of one run, indexed by [`SandboxId`].
///
/// Ids are handed out densely from zero and never reused within a run,
/// so the id is the slot index and a lookup is one bounds check. For the
/// same reason no generation counter is needed: the id carried by a
/// stale timer names a slot that stays empty for the rest of the run and
/// can never alias a newer sandbox. A removed sandbox's slot is not
/// reclaimed; the table grows by one `Option<Sandbox>` per spawn.
#[derive(Debug, Default)]
pub(crate) struct SandboxTable {
    slots: Vec<Option<Sandbox>>,
    live: usize,
}

impl SandboxTable {
    pub(crate) fn get(&self, id: &SandboxId) -> Option<&Sandbox> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: &SandboxId) -> Option<&mut Sandbox> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    pub(crate) fn contains_key(&self, id: &SandboxId) -> bool {
        self.get(id).is_some()
    }

    /// # Panics
    /// Panics if `id` was inserted before — ids are never reused.
    pub(crate) fn insert(&mut self, id: SandboxId, sb: Sandbox) {
        let slot = id.0 as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        assert!(self.slots[slot].is_none(), "{id} is already live");
        self.slots[slot] = Some(sb);
        self.live += 1;
    }

    pub(crate) fn remove(&mut self, id: &SandboxId) -> Option<Sandbox> {
        let sb = self.slots.get_mut(id.0 as usize)?.take()?;
        self.live -= 1;
        Some(sb)
    }

    /// Number of live sandboxes.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The live sandboxes, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Sandbox> {
        self.slots.iter().flatten()
    }
}

impl std::ops::Index<&SandboxId> for SandboxTable {
    type Output = Sandbox;

    fn index(&self, id: &SandboxId) -> &Sandbox {
        self.get(id).expect("sandbox is live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_delta::Patch;

    fn sandbox() -> Sandbox {
        Sandbox::new(SandboxId(1), FnId(0), NodeId(0), 42, 0, SimTime::ZERO, 64)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut sb = sandbox();
        sb.transition(SandboxState::Running);
        sb.transition(SandboxState::Warm);
        sb.transition(SandboxState::Deduping);
        sb.transition(SandboxState::Dedup);
        sb.transition(SandboxState::Restoring);
        sb.transition(SandboxState::Running);
        sb.transition(SandboxState::Warm);
        assert_eq!(sb.epoch, 7);
    }

    #[test]
    #[should_panic(expected = "illegal sandbox transition")]
    fn illegal_transition_panics() {
        let mut sb = sandbox();
        sb.transition(SandboxState::Dedup); // Spawning -> Dedup is illegal
    }

    #[test]
    fn assignability() {
        assert!(SandboxState::Warm.assignable());
        assert!(SandboxState::Dedup.assignable());
        assert!(!SandboxState::Running.assignable());
        assert!(!SandboxState::Deduping.assignable());
        assert!(!SandboxState::Restoring.assignable());
        assert!(!SandboxState::Spawning.assignable());
    }

    #[test]
    fn dedup_table_accounting() {
        let patch = Patch::from_instrs(4096, 4096, &[]);
        let patch_bytes = patch.serialized_size();
        let table = DedupPageTable {
            entries: vec![
                PageEntry::Verbatim,
                PageEntry::Patched {
                    base_sandbox: SandboxId(9),
                    base_node: NodeId(1),
                    base_page: 3,
                    patch,
                },
            ],
            patch_bytes,
            verbatim_pages: 1,
        };
        assert_eq!(table.patched_pages(), 1);
        let resident = table.resident_model_bytes();
        assert!(resident > 4096, "verbatim page dominates");
        assert!(resident < 2 * 4096, "must be far below full size");
    }

    #[test]
    fn read_set_helpers_pin_m_r_accounting() {
        let patch = Patch::from_instrs(4096, 4096, &[]);
        let patched = |sb: u64, node: usize, page: u32| PageEntry::Patched {
            base_sandbox: SandboxId(sb),
            base_node: NodeId(node),
            base_page: page,
            patch: patch.clone(),
        };
        // Three patched entries but only two distinct base pages; the
        // duplicate references base page (7, 3) twice.
        let table = DedupPageTable {
            entries: vec![
                PageEntry::Verbatim,
                patched(7, 2, 3),
                patched(9, 0, 1),
                patched(7, 2, 3),
            ],
            patch_bytes: 3 * patch.serialized_size(),
            verbatim_pages: 1,
        };
        let scale = 16;
        let page = medes_mem::PAGE_SIZE;
        assert_eq!(table.full_paper_bytes(scale), 4 * page * scale);
        assert_eq!(table.patched_pages(), 3);
        // First-appearance order is preserved.
        assert_eq!(
            table.distinct_base_pages(),
            vec![(SandboxId(7), NodeId(2), 3), (SandboxId(9), NodeId(0), 1)]
        );
    }

    #[test]
    fn memo_gives_an_outcome_back_only_for_the_base_page_it_elected() {
        let patch = Patch::from_instrs(4096, 4096, &[]);
        let mut memo = DedupMemo {
            fingerprints: vec![PageFingerprint::default(); 3],
            rejected: vec![(1, SandboxId(7), 4)],
            entries: Vec::new(),
        };
        // Until the table is released the memo holds no patch.
        assert!(memo.take(2, SandboxId(9), 3).is_none());
        memo = memo.absorb(DedupPageTable {
            entries: vec![
                PageEntry::Verbatim,
                PageEntry::Verbatim,
                PageEntry::Patched {
                    base_sandbox: SandboxId(9),
                    base_node: NodeId(1),
                    base_page: 3,
                    patch: patch.clone(),
                },
            ],
            patch_bytes: patch.serialized_size(),
            verbatim_pages: 2,
        });
        assert!(memo.host_bytes() > patch.serialized_size());
        // Another base page, or another sandbox's page 3: not remembered.
        assert!(memo.take(2, SandboxId(9), 2).is_none());
        assert!(memo.take(2, SandboxId(8), 3).is_none());
        assert!(memo.take(1, SandboxId(7), 5).is_none());
        assert!(memo.take(0, SandboxId(9), 3).is_none());
        assert!(matches!(
            memo.take(2, SandboxId(9), 3),
            Some(Remembered::Patch(p)) if p == patch
        ));
        assert!(matches!(
            memo.take(1, SandboxId(7), 4),
            Some(Remembered::Rejected)
        ));
    }

    #[test]
    fn dedup_to_warm_fallback_is_legal() {
        let mut sb = sandbox();
        sb.transition(SandboxState::Running);
        sb.transition(SandboxState::Warm);
        sb.transition(SandboxState::Deduping);
        sb.transition(SandboxState::Warm);
        assert_eq!(sb.state, SandboxState::Warm);
    }

    #[test]
    fn table_is_keyed_by_id_and_never_aliases_a_removed_one() {
        let at = |id: u64| {
            let mut sb = sandbox();
            sb.id = SandboxId(id);
            sb
        };
        let mut t = SandboxTable::default();
        assert_eq!(t.len(), 0);
        assert!(t.get(&SandboxId(0)).is_none());
        assert!(t.remove(&SandboxId(7)).is_none());
        for id in 0..3 {
            t.insert(SandboxId(id), at(id));
        }
        t.insert(SandboxId(5), at(5)); // a gap leaves empty slots behind
        assert_eq!(t.len(), 4);
        assert!(!t.contains_key(&SandboxId(3)) && !t.contains_key(&SandboxId(4)));
        assert_eq!(t[&SandboxId(5)].id, SandboxId(5));
        t.get_mut(&SandboxId(1)).unwrap().epoch = 9;
        assert_eq!(t.remove(&SandboxId(1)).unwrap().epoch, 9);
        assert_eq!(t.len(), 3);
        // A stale id keeps naming an empty slot, whatever is spawned later.
        t.insert(SandboxId(6), at(6));
        assert!(t.get(&SandboxId(1)).is_none());
        assert!(t.remove(&SandboxId(1)).is_none());
        assert_eq!(t.len(), 4);
    }

    #[test]
    #[should_panic(expected = "sb2 is already live")]
    fn table_rejects_a_reused_id() {
        let mut t = SandboxTable::default();
        t.insert(SandboxId(2), sandbox());
        t.insert(SandboxId(2), sandbox());
    }
}
