//! The dedup operation (§4.1, Fig 5).
//!
//! Steps, per the paper:
//! 1. checkpoint the warm sandbox (memory dump);
//! 2. scan each page, extract its value-sampled fingerprint;
//! 3. send fingerprints to the controller's registry for lookup;
//! 4. elect a **base page** per page — the candidate with the most
//!    duplicate sampled chunks, ties broken in favour of local pages;
//! 5. read the base pages (RDMA if remote) and compute an Xdelta-style
//!    patch; keep the patch only if it actually saves memory, otherwise
//!    keep the page verbatim.
//!
//! The result is a [`DedupPageTable`]: patches + verbatim pages, the
//! sandbox's entire residual footprint.
//!
//! ## Scanning a sandbox again
//!
//! The policy dedups an idle sandbox, a request restores it, and a few
//! seconds later it is idle again: nearly half of all scans re-scan a
//! sandbox, and its image has not changed in between. A scan therefore
//! returns, beside the table, a [`DedupMemo`] — the page fingerprints
//! (step 2) and, per page, the base page it elected with what step 5's
//! encode gave — which the platform keeps on the sandbox and hands to
//! the sandbox's next scan. That scan still runs steps 3 and 4 in full,
//! because they depend on what the registry holds *now*; it skips step 2
//! and, for every page that elects the base page it elected last time,
//! the encode of step 5. Only a page whose winner changed needs the
//! image, which is why [`dedup_scan_with`] takes an image *source* and
//! evaluates it at most once — often never. [`dedup_scan`] is the same
//! body with a ready image and no memo.
//!
//! Reuse cannot change a byte: a patch is a function of (base page
//! bytes, target page bytes, `EncodeConfig`), none of which changes
//! while both sandboxes live (see [`DedupMemo`]). Nor does it change a
//! simulated microsecond: [`dedup_commit`] prices the op from the same
//! page counts whether or not the host repeated the work. What the host
//! did do is counted in [`ScanWork`].

use crate::config::PlatformConfig;
use crate::ids::{FnId, NodeId, SandboxId};
use crate::registry::RegistryClient;
use crate::sandbox::{DedupMemo, DedupPageTable, PageEntry, Remembered};
use medes_delta::{encode_with, EncodeConfig, EncodeScratch};
use medes_hash::sample::pages_fingerprints;
use medes_mem::{MemoryImage, PAGE_SIZE};
use medes_net::{Fabric, NetError};
use medes_obs::{Obs, TraceCtx};
use medes_sim::{SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// Controller-side registry lookup cost per (paper-scale) page — ~80 µs
/// in the paper's single-threaded controller (§7.7).
const LOOKUP_PER_PAGE: SimDuration = SimDuration::from_micros(80);
/// Patch computation cost per (paper-scale) page.
const PATCH_COMPUTE_PER_PAGE: SimDuration = SimDuration::from_micros(40);

/// Wall-time breakdown of one dedup op (background work).
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupTiming {
    /// Sandbox memory checkpoint.
    pub checkpoint: SimDuration,
    /// Fingerprint transfer + registry lookup (the ~80 µs/page path).
    pub lookup: SimDuration,
    /// Reading base pages to diff against.
    pub base_read: SimDuration,
    /// Patch computation.
    pub patch_compute: SimDuration,
}

impl DedupTiming {
    /// Total dedup-op time.
    pub fn total(&self) -> SimDuration {
        self.checkpoint + self.lookup + self.base_read + self.patch_compute
    }

    /// The dedup op's context under `parent` — minted before the op
    /// runs (to parent fabric retry spans) and re-derived identically
    /// by [`DedupTiming::record`] afterwards.
    pub fn op_ctx(parent: TraceCtx) -> TraceCtx {
        parent.child("medes.dedup.op", 0)
    }

    /// Emits the per-phase spans (`medes.dedup.*`) for one dedup op
    /// that started at `start`: the spans are the one record of each
    /// phase's duration. Phases are laid end-to-end in execution order
    /// (checkpoint → fingerprint lookup → base read → patch compute),
    /// so span durations sum to [`DedupTiming::total`]. The checkpoint
    /// phase is the memory dump: its span carries `paper_bytes` (the
    /// paper-scale dump size, `ckpt_paper_bytes`), which also adds to
    /// `medes.dedup.checkpoint_bytes`. The lookup span carries
    /// `candidates`, the registry candidates summed over the op's
    /// probed pages ([`DedupScan::candidates`]).
    ///
    /// `parent` is the causal context of the enclosing operation (the
    /// platform's dedup trace root); [`TraceCtx::NONE`] records a flat,
    /// untraced breakdown. `node` is the node being checkpointed; the
    /// op span carries it.
    pub fn record(
        &self,
        obs: &Obs,
        start: SimTime,
        fn_name: &str,
        (ckpt_paper_bytes, candidates): (usize, u64),
        parent: TraceCtx,
        node: usize,
    ) {
        if !obs.enabled() {
            return;
        }
        let op = Self::op_ctx(parent);
        let t1 = start + self.checkpoint;
        let t2 = t1 + self.lookup;
        let t3 = t2 + self.base_read;
        let t4 = t3 + self.patch_compute;
        obs.span_in(
            "medes.dedup.checkpoint",
            start,
            op.child("medes.dedup.checkpoint", 0),
        )
        .attr("paper_bytes", ckpt_paper_bytes)
        .end(t1);
        obs.span_in("medes.dedup.lookup", t1, op.child("medes.dedup.lookup", 0))
            .attr("candidates", candidates)
            .end(t2);
        obs.span_in(
            "medes.dedup.base_read",
            t2,
            op.child("medes.dedup.base_read", 0),
        )
        .end(t3);
        obs.span_in("medes.dedup.patch", t3, op.child("medes.dedup.patch", 0))
            .end(t4);
        obs.span_in("medes.dedup.op", start, op)
            .attr("fn", fn_name)
            .attr("node", node)
            .end(t4);
    }
}

/// Result of one dedup op.
#[derive(Debug)]
pub struct DedupOutcome {
    /// The residual representation.
    pub table: DedupPageTable,
    /// Timing breakdown.
    pub timing: DedupTiming,
    /// Pages deduplicated against a base page of the *same* function.
    pub same_fn_pages: usize,
    /// Pages deduplicated against a *different* function's base page.
    pub cross_fn_pages: usize,
    /// What the sandbox's next scan can reuse (see [`DedupScan::memo`]).
    pub memo: DedupMemo,
}

impl DedupOutcome {
    /// Model-scale bytes saved versus keeping the image fully resident.
    pub fn saved_model_bytes(&self) -> usize {
        let full = self.table.entries.len() * PAGE_SIZE;
        full.saturating_sub(self.table.resident_model_bytes())
    }
}

/// Resolves a base sandbox id to its (pinned) image and owning function.
pub type BaseResolver<'a> = dyn Fn(SandboxId) -> Option<(Arc<MemoryImage>, FnId)> + 'a;

/// The pure compute phase of a dedup op: everything up to (but not
/// including) the fabric accounting. Produced by [`dedup_scan`],
/// consumed by [`dedup_commit`].
///
/// Holding no fabric or registry borrows, a scan touches neither the
/// fabric nor its fault-injection RNG stream: the platform scans at the
/// idle check, then prices the op ([`DedupScan::price`]).
#[derive(Debug)]
pub struct DedupScan {
    /// The residual representation assembled by the scan.
    pub table: DedupPageTable,
    /// Pages deduplicated against a base page of the *same* function.
    pub same_fn_pages: usize,
    /// Pages deduplicated against a *different* function's base page.
    pub cross_fn_pages: usize,
    /// Base-page reads to account on the fabric: (source node index,
    /// paper-scale bytes), one per distinct base page, in page order.
    pub remote_reads: Vec<(usize, usize)>,
    /// Pages that ended up patched (for patch-compute timing).
    pub patched_pages: usize,
    /// Model-scale image size in bytes (for checkpoint timing).
    pub image_model_bytes: usize,
    /// Model-scale page count (for lookup timing).
    pub image_pages: usize,
    /// Registry candidates returned for the probed pages, summed.
    pub candidates: u64,
    /// What the sandbox's next scan can reuse of this one (host memory
    /// only; its `entries` are still in `table`).
    pub memo: DedupMemo,
    /// What the host computed for this scan, as opposed to reused.
    pub work: ScanWork,
}

/// Host work done by dedup scans, in pages — deterministic for a seed,
/// and blind to simulated time: a page whose fingerprint or patch came
/// out of a [`DedupMemo`] costs the simulated op what it always did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Pages whose fingerprint was computed (0 for a scan with a memo).
    pub pages_fingerprinted: u64,
    /// Elected, resolvable pages encoded against their base page.
    pub pages_encoded: u64,
    /// Elected, resolvable pages that took the remembered outcome of
    /// the same base page instead — a patch or a rejection.
    pub pages_reused: u64,
    /// Scans that never evaluated their image source.
    pub scans_without_image: u64,
}

impl std::ops::AddAssign for ScanWork {
    fn add_assign(&mut self, o: ScanWork) {
        self.pages_fingerprinted += o.pages_fingerprinted;
        self.pages_encoded += o.pages_encoded;
        self.pages_reused += o.pages_reused;
        self.scans_without_image += o.scans_without_image;
    }
}

/// Runs the compute phase of the dedup op: per-page fingerprints, a
/// registry [`lookup_batch`](RegistryClient::lookup_batch),
/// base-page election, and patch encoding.
///
/// Reads the registry and touches no fabric state.
pub fn dedup_scan<F>(
    cfg: &PlatformConfig,
    registry: &RegistryClient,
    node: NodeId,
    func: FnId,
    image: &MemoryImage,
    bases: &F,
) -> DedupScan
where
    F: Fn(SandboxId) -> Option<(Arc<MemoryImage>, FnId)> + ?Sized,
{
    dedup_scan_with(cfg, registry, node, func, || image, None, bases)
}

/// The one scan body. `image` yields the sandbox's image and is called
/// at most once, on first need: for the fingerprints when there is no
/// `memo`, otherwise for the first page that elects another base page
/// than the memo remembers. `memo` must come from an earlier scan of the
/// same sandbox (same image) in the same run (same `cfg`).
pub fn dedup_scan_with<F, S, I>(
    cfg: &PlatformConfig,
    registry: &RegistryClient,
    node: NodeId,
    func: FnId,
    image: S,
    memo: Option<DedupMemo>,
    bases: &F,
) -> DedupScan
where
    F: Fn(SandboxId) -> Option<(Arc<MemoryImage>, FnId)> + ?Sized,
    S: Fn() -> I,
    I: std::ops::Deref<Target = MemoryImage>,
{
    let mut built: Option<I> = None;
    let mut work = ScanWork::default();
    // Fingerprint every page in one batch call (shared scan scratch) —
    // or take the fingerprints the last scan of this image computed.
    let (fps, mut last) = match memo {
        Some(mut last) => (std::mem::take(&mut last.fingerprints), last),
        None => {
            let image = built.insert(image());
            let page_slices: Vec<&[u8]> = image.pages().map(|(_, page)| page).collect();
            let fps = pages_fingerprints(&page_slices, &cfg.fingerprint);
            work.pages_fingerprinted = fps.len() as u64;
            (fps, DedupMemo::default())
        }
    };

    let mut entries = Vec::with_capacity(fps.len());
    let mut patch_bytes = 0usize;
    let mut verbatim_pages = 0usize;
    let mut same_fn_pages = 0usize;
    let mut cross_fn_pages = 0usize;
    let mut remote_reads: Vec<(usize, usize)> = Vec::new(); // (node, bytes)

    // Each distinct base page is read once per op no matter how many
    // pages patch against it.
    let mut read_set: HashSet<(SandboxId, u32)> = HashSet::new();
    let mut patched_pages = 0usize;
    let mut rejected: Vec<(u32, SandboxId, u32)> = Vec::new();

    let encode_cfg = EncodeConfig::with_level(cfg.delta_level);
    let max_patch = (cfg.patch_max_frac * PAGE_SIZE as f64) as usize;

    // Probe the registry in one batch per op rather than once per page.
    // Empty fingerprints (rare) skip the registry exactly as the
    // per-page path did.
    let probe_fps: Vec<_> = fps.iter().filter(|fp| !fp.is_empty()).cloned().collect();
    let candidate_lists = registry.lookup_batch(&probe_fps);
    let candidates = candidate_lists.iter().map(|c| c.len() as u64).sum();
    let mut probe_cursor = 0usize;
    // One encoder scratch per scan: the hash index and literal arenas
    // are reused across every candidate page of this image.
    let mut scratch = EncodeScratch::new();

    for (idx, fp) in fps.iter().enumerate() {
        let entry = if fp.is_empty() {
            None
        } else {
            let candidates = &candidate_lists[probe_cursor];
            probe_cursor += 1;
            // Election: max votes, then prefer a local base page.
            let best = candidates.iter().max_by_key(|c| {
                (
                    c.votes,
                    c.loc.node == node,
                    std::cmp::Reverse(c.loc.sandbox),
                )
            });
            best.and_then(|cand| {
                let (base_img, base_fn) = bases(cand.loc.sandbox)?;
                // The same base page as last time gives the same patch.
                let patch = match last.take(idx, cand.loc.sandbox, cand.loc.page) {
                    Some(outcome) => {
                        work.pages_reused += 1;
                        match outcome {
                            Remembered::Patch(patch) => Some(patch),
                            Remembered::Rejected => None,
                        }
                    }
                    None => {
                        work.pages_encoded += 1;
                        let base_page = base_img.page(cand.loc.page as usize);
                        let page = built.get_or_insert_with(&image).page(idx);
                        let patch = encode_with(base_page, page, &encode_cfg, &mut scratch);
                        (patch.serialized_size() < max_patch).then_some(patch)
                    }
                };
                let Some(patch) = patch else {
                    // Not worth deduplicating — against this base page.
                    rejected.push((idx as u32, cand.loc.sandbox, cand.loc.page));
                    return None;
                };
                let size = patch.serialized_size();
                Some((cand.loc, base_fn, patch, size))
            })
        };
        match entry {
            Some((loc, base_fn, patch, size)) => {
                patch_bytes += size;
                patched_pages += 1;
                if base_fn == func {
                    same_fn_pages += 1;
                } else {
                    cross_fn_pages += 1;
                }
                // Base page is read (possibly remotely) to compute the
                // patch; account paper-scale bytes on the fabric. A
                // page already read this op is diffed against the
                // local copy for free.
                if read_set.insert((loc.sandbox, loc.page)) {
                    remote_reads.push((loc.node.0, PAGE_SIZE * cfg.mem_scale));
                }
                entries.push(PageEntry::Patched {
                    base_sandbox: loc.sandbox,
                    base_node: loc.node,
                    base_page: loc.page,
                    patch,
                });
            }
            None => {
                verbatim_pages += 1;
                entries.push(PageEntry::Verbatim);
            }
        }
    }

    work.scans_without_image = u64::from(built.is_none());
    debug_assert_eq!(
        work.pages_encoded + work.pages_reused,
        (patched_pages + rejected.len()) as u64,
        "every elected, resolvable page is encoded or reused, once"
    );
    DedupScan {
        table: DedupPageTable {
            entries,
            patch_bytes,
            verbatim_pages,
        },
        same_fn_pages,
        cross_fn_pages,
        remote_reads,
        patched_pages,
        image_model_bytes: fps.len() * PAGE_SIZE,
        image_pages: fps.len(),
        candidates,
        memo: DedupMemo {
            fingerprints: fps,
            rejected,
            entries: Vec::new(),
        },
        work,
    }
}

impl DedupScan {
    /// Accounts the op on the fabric — the controller RPC and the
    /// base-page reads, the only fault-injectable, RNG-consuming steps —
    /// and prices its four phases. The counts it prices from are those
    /// of a full scan whatever the host reused.
    ///
    /// Fails only under fault injection, when the controller fingerprint
    /// RPC or the base-page reads stay broken past the retry policy; the
    /// caller then aborts the dedup and keeps the sandbox warm.
    pub fn price(
        &self,
        cfg: &PlatformConfig,
        fabric: &mut Fabric,
        node: NodeId,
    ) -> Result<DedupTiming, NetError> {
        let scale = cfg.mem_scale as f64;
        let paper_pages = self.image_pages as f64 * scale;
        let lookup_extra = fabric.controller_rpc_check(node.0)?;
        let base_read = fabric.rdma_read_batch_retry(node.0, &self.remote_reads, &cfg.retry)?;
        Ok(DedupTiming {
            checkpoint: cfg
                .ckpt
                .checkpoint_time(cfg.to_paper_bytes(self.image_model_bytes)),
            lookup: LOOKUP_PER_PAGE.mul_f64(paper_pages) + lookup_extra,
            base_read,
            patch_compute: PATCH_COMPUTE_PER_PAGE.mul_f64(self.patched_pages as f64 * scale),
        })
    }

    /// The outcome of a scan priced at `timing`.
    pub fn into_outcome(self, timing: DedupTiming) -> DedupOutcome {
        DedupOutcome {
            table: self.table,
            timing,
            same_fn_pages: self.same_fn_pages,
            cross_fn_pages: self.cross_fn_pages,
            memo: self.memo,
        }
    }
}

/// The serial commit phase of a dedup op: [`DedupScan::price`], then
/// the final [`DedupOutcome`].
pub fn dedup_commit(
    cfg: &PlatformConfig,
    fabric: &mut Fabric,
    node: NodeId,
    scan: DedupScan,
) -> Result<DedupOutcome, NetError> {
    let timing = scan.price(cfg, fabric, node)?;
    Ok(scan.into_outcome(timing))
}

/// Runs the dedup op for one sandbox image: [`dedup_scan`] followed by
/// [`dedup_commit`].
///
/// `node` is the node hosting the sandbox; `func` its function. The
/// caller guarantees every candidate the registry returns resolves via
/// `bases` (the platform pins base images while referenced).
pub fn dedup_op<F>(
    cfg: &PlatformConfig,
    registry: &RegistryClient,
    fabric: &mut Fabric,
    node: NodeId,
    func: FnId,
    image: &MemoryImage,
    bases: &F,
) -> Result<DedupOutcome, NetError>
where
    F: Fn(SandboxId) -> Option<(Arc<MemoryImage>, FnId)> + ?Sized,
{
    let scan = dedup_scan(cfg, registry, node, func, image, bases);
    dedup_commit(cfg, fabric, node, scan)
}

/// Inserts every page of a base sandbox's image into the registry.
/// Returns the number of pages indexed.
pub fn index_base_sandbox(
    cfg: &PlatformConfig,
    registry: &RegistryClient,
    node: NodeId,
    sandbox: SandboxId,
    image: &MemoryImage,
) -> usize {
    let page_slices: Vec<&[u8]> = image.pages().map(|(_, page)| page).collect();
    let fps = pages_fingerprints(&page_slices, &cfg.fingerprint);
    for (idx, fp) in fps.iter().enumerate() {
        if !fp.is_empty() {
            registry.insert_page(
                fp,
                crate::registry::ChunkLoc {
                    node,
                    sandbox,
                    page: idx as u32,
                },
            );
        }
    }
    image.page_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::images::ImageFactory;
    use crate::restore::restore_op_cached;
    use medes_mem::{AslrConfig, ContentModel};
    use medes_net::NetConfig;
    use medes_obs::Json;
    use medes_sim::DetRng;
    use medes_trace::functionbench_suite;
    use std::collections::HashMap;

    fn setup() -> (PlatformConfig, ImageFactory, RegistryClient, Fabric) {
        let cfg = PlatformConfig::small_test();
        let factory = ImageFactory::new(
            &functionbench_suite()[..2],
            ContentModel::default(),
            AslrConfig::DISABLED,
            cfg.mem_scale,
        );
        let registry = RegistryClient::new();
        let fabric = Fabric::new(cfg.nodes, NetConfig);
        (cfg, factory, registry, fabric)
    }

    /// The distinct base sandboxes `table` patches against, first seen
    /// first.
    fn bases_of(table: &DedupPageTable) -> Vec<SandboxId> {
        let mut ids = Vec::new();
        table.for_each_base(|id| ids.push(id));
        ids
    }

    #[test]
    fn dedup_against_same_function_base_saves_most_memory() {
        let (cfg, mut factory, registry, mut fabric) = setup();
        let base_img = factory.pin_v(FnId(0), 100, 0);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base_img);

        let target = factory.image_v(FnId(0), 200, 0);
        let base_arc = Arc::clone(&base_img);
        let outcome = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(1),
            FnId(0),
            &target,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0))),
        )
        .expect("dedup op");
        let total = target.total_bytes();
        let saved = outcome.saved_model_bytes();
        assert!(
            saved * 100 / total > 20,
            "expected >20% savings, got {}%",
            saved * 100 / total
        );
        assert!(outcome.same_fn_pages > 0);
        assert_eq!(bases_of(&outcome.table), vec![SandboxId(1)]);
        assert!(outcome.timing.total() > SimDuration::ZERO);
    }

    #[test]
    fn dedup_reads_each_distinct_base_page_once() {
        // Synthetic images: the target is six identical clones of base
        // page 2, so every patched page elects the SAME base page.
        let synth = |pages: usize, seed: u64| {
            let mut data = vec![0u8; pages * PAGE_SIZE];
            let mut s = seed | 1;
            for b in data.iter_mut() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (s >> 33) as u8;
            }
            MemoryImage::new(vec![medes_mem::region::Region {
                kind: medes_mem::region::RegionKind::Heap,
                name: "synth".into(),
                va_base: 0x7000_0000,
                data,
            }])
        };
        let cfg = PlatformConfig::small_test();
        let registry = RegistryClient::new();
        let mut fabric = Fabric::new(cfg.nodes, medes_net::NetConfig);
        let base = Arc::new(synth(4, 0xBA5E));
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
        let mut data = Vec::new();
        for _ in 0..6 {
            data.extend_from_slice(base.page(2));
        }
        let target = MemoryImage::new(vec![medes_mem::region::Region {
            kind: medes_mem::region::RegionKind::Heap,
            name: "synth".into(),
            va_base: 0x7100_0000,
            data,
        }]);
        let b = Arc::clone(&base);
        let resolver = move |id: SandboxId| (id == SandboxId(1)).then(|| (Arc::clone(&b), FnId(0)));

        let outcome = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(1),
            FnId(0),
            &target,
            &resolver,
        )
        .expect("dedup op");
        let distinct = outcome.table.distinct_base_pages().len();
        assert!(
            distinct < outcome.table.patched_pages(),
            "duplicate base-page references must exist"
        );
        assert_eq!(fabric.stats().rdma_reads as usize, distinct);
    }

    #[test]
    fn empty_registry_keeps_everything_verbatim() {
        let (cfg, factory, registry, mut fabric) = setup();
        let target = factory.image_v(FnId(0), 1, 0);
        let outcome = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(0),
            &target,
            &|_| None,
        )
        .expect("dedup op");
        assert_eq!(outcome.table.verbatim_pages, target.page_count());
        assert_eq!(outcome.saved_model_bytes(), 0);
        assert_eq!(outcome.table.patch_bytes, 0);
    }

    #[test]
    fn cross_function_dedup_happens_via_shared_content() {
        let (cfg, mut factory, registry, mut fabric) = setup();
        // Base sandbox runs function 1; dedup a function-0 sandbox.
        let base_img = factory.pin_v(FnId(1), 50, 0);
        index_base_sandbox(&cfg, &registry, NodeId(2), SandboxId(7), &base_img);
        let target = factory.image_v(FnId(0), 60, 0);
        let base_arc = Arc::clone(&base_img);
        let outcome = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(0),
            &target,
            &move |id| (id == SandboxId(7)).then(|| (Arc::clone(&base_arc), FnId(1))),
        )
        .expect("dedup op");
        assert!(
            outcome.cross_fn_pages > 0,
            "runtime/pattern pages must dedup across functions"
        );
        assert_eq!(outcome.same_fn_pages, 0);
    }

    /// Field-by-field equality of two scans of the same sandbox against
    /// the same registry state: the table with every patch byte and
    /// `base_node`, the order-sensitive lists, the counts the op is
    /// priced from, and what the scan leaves for the next one.
    fn assert_same_scan(fresh: &DedupScan, memoised: &DedupScan, ctx: &str) {
        assert_eq!(fresh.table, memoised.table, "{ctx}");
        assert_eq!(fresh.same_fn_pages, memoised.same_fn_pages, "{ctx}");
        assert_eq!(fresh.cross_fn_pages, memoised.cross_fn_pages, "{ctx}");
        assert_eq!(fresh.remote_reads, memoised.remote_reads, "{ctx}");
        assert_eq!(fresh.patched_pages, memoised.patched_pages, "{ctx}");
        assert_eq!(fresh.image_model_bytes, memoised.image_model_bytes, "{ctx}");
        assert_eq!(fresh.image_pages, memoised.image_pages, "{ctx}");
        assert_eq!(fresh.memo.fingerprints, memoised.memo.fingerprints, "{ctx}");
        assert_eq!(fresh.memo.rejected, memoised.memo.rejected, "{ctx}");
    }

    /// Scan a sandbox, change the registry the ways a run does, scan it
    /// again with and without what the last scan remembered: the two
    /// scans must be indistinguishable, whatever happened in between.
    #[test]
    fn a_memoised_scan_equals_a_fresh_one_whatever_the_registry_did() {
        const NODES: usize = 4;
        const FUNCS: u64 = 3;
        let suite = functionbench_suite();
        let (mut reused_patches, mut reused_rejections, mut imageless) = (0u64, 0u64, 0u64);
        let mut full_outages = 0;
        for case in 0..208u64 {
            let mut rng = DetRng::new(0x19_D0D0 + case);
            let placed = case % 2 == 1;
            let mut cfg = PlatformConfig::small_test();
            let mut content = ContentModel::default();
            if case % 4 >= 2 {
                // Most patches of the calibrated mixture are larger than
                // this: rejections are the common outcome.
                content.mixture = medes_mem::ContentModelConfig::paper_calibrated();
                cfg.patch_max_frac = 0.25;
            }
            let mut factory = ImageFactory::new(
                &suite[..FUNCS as usize],
                content,
                AslrConfig::DISABLED,
                cfg.mem_scale,
            );
            let shards = 1 + rng.below(4) as usize;
            let registry = if placed {
                RegistryClient::distributed(shards, 3, NODES, NetConfig, cfg.retry, Obs::disabled())
            } else {
                RegistryClient::in_process(shards, Obs::disabled())
            };
            let mut fabric = Fabric::new(NODES, NetConfig);

            // Live bases: id -> (pinned image, function, node).
            let mut bases: HashMap<SandboxId, (Arc<MemoryImage>, FnId, NodeId)> = HashMap::new();
            let mut next_id = 1u64;
            let mut add_base = |bases: &mut HashMap<_, _>,
                                factory: &mut ImageFactory,
                                rng: &mut DetRng,
                                func: FnId| {
                let (id, node) = (SandboxId(next_id), NodeId(rng.below(NODES as u64) as usize));
                next_id += 1;
                let img = factory.pin_v(func, 0xBA5E_0000 + id.0, 0);
                index_base_sandbox(&cfg, &registry, node, id, &img);
                bases.insert(id, (img, func, node));
            };
            let crash = |bases: &mut HashMap<SandboxId, (_, _, NodeId)>, n: usize| {
                bases.retain(|&id, &mut (_, _, node)| {
                    if node.0 == n {
                        registry.remove_sandbox(id);
                    }
                    node.0 != n
                });
                registry.on_node_crash(NodeId(n));
            };

            // The sandbox under test, and at least one base of its own
            // function among the first k.
            let func = FnId(rng.below(FUNCS) as usize);
            let (seed, node) = (rng.next_u64(), NodeId(rng.below(NODES as u64) as usize));
            add_base(&mut bases, &mut factory, &mut rng, func);
            for _ in 0..rng.range(1, 4) {
                let f = FnId(rng.below(FUNCS) as usize);
                add_base(&mut bases, &mut factory, &mut rng, f);
            }
            let target = factory.image_v(func, seed, 0);
            let scan_fresh = |bases: &HashMap<SandboxId, (Arc<MemoryImage>, FnId, NodeId)>| {
                dedup_scan(&cfg, &registry, node, func, &target, &|id| {
                    bases.get(&id).map(|(img, f, _)| (Arc::clone(img), *f))
                })
            };
            let first = scan_fresh(&bases);
            assert_eq!(first.work.pages_fingerprinted, target.page_count() as u64);
            assert_eq!(first.work.pages_reused, 0);
            let mut referenced = bases_of(&first.table);
            let mut memo = first.memo.absorb(first.table);

            let rounds = rng.range(2, 5);
            for round in 0..=rounds {
                let ctx = format!("case {case} round {round}");
                // The last round changes nothing: an all-same scan.
                let ops = if round == rounds { 0 } else { rng.range(1, 3) };
                for _ in 0..ops {
                    match rng.below(5) {
                        0 => {
                            let f = FnId(rng.below(FUNCS) as usize);
                            add_base(&mut bases, &mut factory, &mut rng, f);
                        }
                        // Evict a base the sandbox patched against.
                        1 => {
                            if let Some(&id) = referenced.first() {
                                registry.remove_sandbox(id);
                                bases.remove(&id);
                            }
                        }
                        // The same pages leave the registry and come back.
                        2 => {
                            let mut ids: Vec<SandboxId> = bases.keys().copied().collect();
                            ids.sort_unstable();
                            if !ids.is_empty() {
                                let id = ids[rng.below(ids.len() as u64) as usize];
                                let (img, _, at) = &bases[&id];
                                registry.remove_sandbox(id);
                                index_base_sandbox(&cfg, &registry, *at, id, img);
                            }
                        }
                        3 => {
                            let n = rng.below(NODES as u64) as usize;
                            crash(&mut bases, n);
                            registry.on_node_restart(NodeId(n));
                        }
                        // Every node down, one at a time: under the
                        // placement no owner survives.
                        _ => {
                            (0..NODES).for_each(|n| crash(&mut bases, n));
                            (0..NODES).for_each(|n| registry.on_node_restart(NodeId(n)));
                            full_outages += usize::from(placed);
                            add_base(&mut bases, &mut factory, &mut rng, func);
                        }
                    }
                }
                registry.check_invariants().expect(&ctx);

                let fresh = scan_fresh(&bases);
                let prior_rejected = memo.rejected.clone();
                let builds = factory.builds();
                let memoised = dedup_scan_with(
                    &cfg,
                    &registry,
                    node,
                    func,
                    || factory.image_v(func, seed, 0),
                    Some(memo),
                    &|id| bases.get(&id).map(|(img, f, _)| (Arc::clone(img), *f)),
                );
                assert_same_scan(&fresh, &memoised, &ctx);
                // Each elected, resolvable page is encoded exactly once
                // by the fresh scan: it ends up patched or rejected.
                assert_eq!(
                    fresh.work.pages_encoded as usize,
                    fresh.patched_pages + fresh.memo.rejected.len(),
                    "{ctx}"
                );

                let w = memoised.work;
                assert_eq!(w.pages_fingerprinted, 0, "{ctx}");
                assert_eq!(
                    w.pages_encoded + w.pages_reused,
                    fresh.work.pages_encoded,
                    "{ctx}"
                );
                let built = factory.builds() - builds;
                assert_eq!(built, 1 - w.scans_without_image, "{ctx}");
                assert_eq!(w.scans_without_image == 1, w.pages_encoded == 0, "{ctx}");
                if ops == 0 {
                    assert_eq!((w.pages_encoded, built), (0, 0), "{ctx}");
                }
                let again = memoised
                    .memo
                    .rejected
                    .iter()
                    .filter(|r| prior_rejected.contains(r))
                    .count() as u64;
                reused_rejections += again;
                reused_patches += w.pages_reused - again;
                imageless += w.scans_without_image;

                // The table built from remembered patches restores the
                // image byte for byte.
                restore_op_cached(
                    &cfg,
                    &mut fabric,
                    node,
                    &memoised.table,
                    &|id| bases.get(&id).map(|(img, f, _)| (Arc::clone(img), *f)),
                    None,
                    Some(&target),
                )
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));

                referenced = bases_of(&memoised.table);
                memo = memoised.memo.absorb(memoised.table);
            }
        }
        assert!(reused_patches > 1000, "{reused_patches} patches reused");
        assert!(
            reused_rejections > 100,
            "{reused_rejections} rejections reused"
        );
        assert!(imageless >= 208, "{imageless} scans built no image");
        assert!(full_outages > 0, "no placed case lost every owner");
    }

    /// The checkpoint phase is the one record of the memory dump: its
    /// span carries the dump size and has no child, the lookup span the
    /// registry candidates and the op span its node. A record writes
    /// spans and no counter; without obs nothing moves.
    #[test]
    fn checkpoint_phase_records_the_dump_per_node() {
        let timing = DedupTiming {
            checkpoint: SimDuration::from_millis(120),
            lookup: SimDuration::from_millis(3),
            ..DedupTiming::default()
        };
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let root = obs.trace_root("dedup", 1, 2);
        let start = SimTime::from_micros(50);
        timing.record(&obs, start, "f", (4096, 17), root, 3);
        timing.record(&obs, start, "f", (8192, 0), TraceCtx::NONE, 1);
        let spans = obs.spans();
        let traced = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name && s.trace_id == root.trace_id)
                .unwrap_or_else(|| panic!("traced {name} span"))
        };
        let ckpt = traced("medes.dedup.checkpoint");
        assert_eq!((ckpt.start_us, ckpt.dur_us()), (50, 120_000));
        assert_eq!(ckpt.attr("paper_bytes").and_then(Json::as_u64), Some(4096));
        assert!(spans.iter().all(|s| s.parent_id != ckpt.span_id));
        let lookup = traced("medes.dedup.lookup");
        assert_eq!(lookup.attr("candidates").and_then(Json::as_u64), Some(17));
        assert_eq!(
            traced("medes.dedup.op").attr("node").and_then(Json::as_u64),
            Some(3)
        );
        let ops = spans.iter().filter(|s| s.name == "medes.dedup.op");
        assert_eq!(ops.count(), 2);
        assert!(obs.export_jsonl().ends_with("{\"metrics\":{}}\n"));
        let off = Obs::disabled();
        timing.record(&off, start, "f", (4096, 17), root, 3);
        assert_eq!(off.span_count(), 0);
        assert!(off.export_jsonl().ends_with("{\"metrics\":{}}\n"));
    }

    #[test]
    fn timing_scales_with_image_size() {
        let (cfg, mut factory, registry, mut fabric) = setup();
        let base0 = factory.pin_v(FnId(0), 1, 0);
        let base1 = factory.pin_v(FnId(1), 1, 0);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base0);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(2), &base1);
        let small = factory.image_v(FnId(0), 2, 0); // Vanilla 17MB
        let large = factory.image_v(FnId(1), 2, 0); // LinAlg 32MB
        let b0 = Arc::clone(&base0);
        let b1 = Arc::clone(&base1);
        let resolver = move |id: SandboxId| match id {
            SandboxId(1) => Some((Arc::clone(&b0), FnId(0))),
            SandboxId(2) => Some((Arc::clone(&b1), FnId(1))),
            _ => None,
        };
        let o_small = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(0),
            &small,
            &resolver,
        )
        .expect("dedup op");
        let o_large = dedup_op(
            &cfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(1),
            &large,
            &resolver,
        )
        .expect("dedup op");
        assert!(o_large.timing.lookup > o_small.timing.lookup);
        assert!(o_large.timing.total() > o_small.timing.total());
        // The paper reports ~2s (Vanilla) to ~3.3s (ModelTrain): with
        // the 80µs/page model a 17MB fn is ~0.3s+ of lookups alone.
        assert!(o_small.timing.total() > SimDuration::from_millis(100));
    }
}
