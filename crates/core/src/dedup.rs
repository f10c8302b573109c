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

use crate::config::PlatformConfig;
use crate::ids::{FnId, NodeId, SandboxId};
use crate::registry::RegistryClient;
use crate::sandbox::{DedupPageTable, PageEntry};
use medes_delta::{encode_with, EncodeConfig, EncodeScratch};
use medes_hash::sample::pages_fingerprints;
use medes_mem::{MemoryImage, PAGE_SIZE};
use medes_net::{Fabric, NetError};
use medes_obs::{LabelSet, Obs, TraceCtx};
use medes_sim::{SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

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
    /// that started at `start`, plus duration histograms and the
    /// `medes.ckpt` checkpoint metrics (`ckpt_paper_bytes` is the
    /// paper-scale dump size). Phases are laid end-to-end in execution
    /// order (checkpoint → fingerprint lookup → base read → patch
    /// compute), so span durations sum to [`DedupTiming::total`].
    ///
    /// `parent` is the causal context of the enclosing operation (a
    /// dedup trace root, or the batch span's context on the pipelined
    /// path); [`TraceCtx::NONE`] records a flat, untraced breakdown.
    ///
    /// `node` is the node being checkpointed — with dimensional
    /// telemetry on, the dedup counters/histograms gain per-node
    /// labeled twins.
    pub fn record(
        &self,
        obs: &Obs,
        start: SimTime,
        fn_name: &str,
        ckpt_paper_bytes: usize,
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
        let ckpt = op.child("medes.dedup.checkpoint", 0);
        obs.span_in("medes.dedup.checkpoint", start, ckpt).end(t1);
        obs.span_in("medes.dedup.lookup", t1, op.child("medes.dedup.lookup", 0))
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
            .attr("fn", fn_name.to_string())
            .end(t4);
        let labels = || LabelSet::new().with("node", node);
        obs.incr_with("medes.dedup.ops", labels);
        obs.record_us("medes.dedup.checkpoint_us", self.checkpoint);
        obs.record_us("medes.dedup.lookup_us", self.lookup);
        obs.record_us("medes.dedup.base_read_us", self.base_read);
        obs.record_us("medes.dedup.patch_us", self.patch_compute);
        obs.record_with(
            "medes.dedup.op_us",
            self.total().as_micros(),
            Some(op.trace_id),
            labels,
        );
        medes_ckpt::obs::record_checkpoint_in(
            obs,
            ckpt,
            start,
            ckpt_paper_bytes,
            self.checkpoint,
            node as u64,
        );
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
    /// Distinct base sandboxes referenced (for refcounting).
    pub referenced_bases: Vec<SandboxId>,
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
/// Holding no fabric or registry borrows, scans for different sandboxes
/// are independent — the parallel dedup pipeline computes them on a
/// worker pool, then commits each serially in first-enqueued order so
/// the fault-injection RNG stream (consumed per fabric op) is walked
/// identically at any worker count.
#[derive(Debug)]
pub struct DedupScan {
    /// The residual representation assembled by the scan.
    pub table: DedupPageTable,
    /// Pages deduplicated against a base page of the *same* function.
    pub same_fn_pages: usize,
    /// Pages deduplicated against a *different* function's base page.
    pub cross_fn_pages: usize,
    /// Distinct base sandboxes referenced, in first-seen order.
    pub referenced_bases: Vec<SandboxId>,
    /// Base-page reads to account on the fabric: (source node index,
    /// paper-scale bytes), one per distinct base page, in page order.
    pub remote_reads: Vec<(usize, usize)>,
    /// Pages that ended up patched (for patch-compute timing).
    pub patched_pages: usize,
    /// Model-scale image size in bytes (for checkpoint timing).
    pub image_model_bytes: usize,
    /// Model-scale page count (for lookup timing).
    pub image_pages: usize,
}

/// Runs the compute phase of the dedup op: per-page fingerprints, a
/// registry [`lookup_batch`](RegistryClient::lookup_batch)
/// (grouped by shard), base-page election, and patch encoding.
///
/// Takes the registry by `&self` and touches no fabric state, so any
/// number of scans may run concurrently on worker threads against the
/// same registry.
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
    let mut entries = Vec::with_capacity(image.page_count());
    let mut patch_bytes = 0usize;
    let mut verbatim_pages = 0usize;
    let mut same_fn_pages = 0usize;
    let mut cross_fn_pages = 0usize;
    // First-seen order with a set membership test: `referenced_bases`
    // stays deterministic without the quadratic `Vec::contains` scan.
    let mut referenced: Vec<SandboxId> = Vec::new();
    let mut referenced_set: HashSet<SandboxId> = HashSet::new();
    let mut remote_reads: Vec<(usize, usize)> = Vec::new(); // (node, bytes)

    // Each distinct base page is read once per op no matter how many
    // pages patch against it.
    let mut read_set: HashSet<(SandboxId, u32)> = HashSet::new();
    let mut patched_pages = 0usize;

    let encode_cfg = EncodeConfig::with_level(cfg.delta_level);
    let max_patch = (cfg.patch_max_frac * PAGE_SIZE as f64) as usize;

    // Fingerprint every page in one batch call (shared scan scratch),
    // then probe the registry in one batch so each shard's read lock
    // is taken once per op rather than once per page. Empty
    // fingerprints (rare) skip the registry exactly as the per-page
    // path did.
    let page_slices: Vec<&[u8]> = image.pages().map(|(_, page)| page).collect();
    let fps = pages_fingerprints(&page_slices, &cfg.fingerprint);
    let probe_fps: Vec<_> = fps.iter().filter(|fp| !fp.is_empty()).cloned().collect();
    let candidate_lists = registry.lookup_batch(&probe_fps);
    let mut probe_cursor = 0usize;
    // One encoder scratch per scan: the hash index and literal arenas
    // are reused across every candidate page of this image.
    let mut scratch = EncodeScratch::new();

    for ((_, page), fp) in image.pages().zip(&fps) {
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
                let base_page = base_img.page(cand.loc.page as usize);
                let patch = encode_with(base_page, page, &encode_cfg, &mut scratch);
                let size = patch.serialized_size();
                if size >= max_patch {
                    return None; // not worth deduplicating
                }
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
                if referenced_set.insert(loc.sandbox) {
                    referenced.push(loc.sandbox);
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

    DedupScan {
        table: DedupPageTable {
            entries,
            patch_bytes,
            verbatim_pages,
        },
        same_fn_pages,
        cross_fn_pages,
        referenced_bases: referenced,
        remote_reads,
        patched_pages,
        image_model_bytes: image.total_bytes(),
        image_pages: image.page_count(),
    }
}

/// The serial commit phase of a dedup op: accounts the controller RPC
/// and base-page reads on the fabric (the only fault-injectable,
/// RNG-consuming steps) and assembles the final [`DedupOutcome`].
///
/// Fails only under fault injection, when the controller fingerprint
/// RPC or the base-page reads stay broken past the retry policy; the
/// caller then aborts the dedup and keeps the sandbox warm.
pub fn dedup_commit(
    cfg: &PlatformConfig,
    fabric: &mut Fabric,
    node: NodeId,
    scan: DedupScan,
) -> Result<DedupOutcome, NetError> {
    let scale = cfg.mem_scale as f64;
    let paper_pages = scan.image_pages as f64 * scale;
    let lookup_extra = fabric.controller_rpc_check(node.0, &cfg.retry)?;
    let base_read = fabric
        .rdma_read_batch_retry(node.0, &scan.remote_reads, &cfg.retry)?
        .time;
    let timing = DedupTiming {
        checkpoint: cfg
            .ckpt
            .checkpoint_time(cfg.to_paper_bytes(scan.image_model_bytes)),
        lookup: cfg.lookup_per_page.mul_f64(paper_pages) + lookup_extra,
        base_read,
        patch_compute: cfg
            .patch_compute_per_page
            .mul_f64(scan.patched_pages as f64 * scale),
    };

    Ok(DedupOutcome {
        table: scan.table,
        timing,
        same_fn_pages: scan.same_fn_pages,
        cross_fn_pages: scan.cross_fn_pages,
        referenced_bases: scan.referenced_bases,
    })
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
    use medes_mem::{AslrConfig, ContentModel};
    use medes_net::NetConfig;
    use medes_trace::functionbench_suite;

    fn setup() -> (PlatformConfig, ImageFactory, RegistryClient, Fabric) {
        let cfg = PlatformConfig::small_test();
        let factory = ImageFactory::new(
            &functionbench_suite()[..2],
            ContentModel::default(),
            AslrConfig::DISABLED,
            cfg.mem_scale,
        );
        let registry = RegistryClient::new();
        let fabric = Fabric::new(cfg.nodes, NetConfig::default());
        (cfg, factory, registry, fabric)
    }

    #[test]
    fn dedup_against_same_function_base_saves_most_memory() {
        let (cfg, mut factory, registry, mut fabric) = setup();
        let base_img = factory.pin(FnId(0), 100);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base_img);

        let target = factory.image(FnId(0), 200);
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
        assert_eq!(outcome.referenced_bases, vec![SandboxId(1)]);
        assert!(outcome.timing.total() > SimDuration::ZERO);
    }

    #[test]
    fn referenced_bases_keep_first_seen_order() {
        // Two bases indexed; whatever subset the election picks, the
        // output order must equal the first appearance order in the
        // page table — the set-based membership test must not change it.
        let (cfg, mut factory, registry, mut fabric) = setup();
        let base0 = factory.pin(FnId(0), 100);
        let base1 = factory.pin(FnId(1), 100);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base0);
        index_base_sandbox(&cfg, &registry, NodeId(2), SandboxId(2), &base1);
        let target = factory.image(FnId(0), 200);
        let b0 = Arc::clone(&base0);
        let b1 = Arc::clone(&base1);
        let resolver = move |id: SandboxId| match id {
            SandboxId(1) => Some((Arc::clone(&b0), FnId(0))),
            SandboxId(2) => Some((Arc::clone(&b1), FnId(1))),
            _ => None,
        };
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
        let mut expect = Vec::new();
        for entry in &outcome.table.entries {
            if let PageEntry::Patched { base_sandbox, .. } = entry {
                if !expect.contains(base_sandbox) {
                    expect.push(*base_sandbox);
                }
            }
        }
        assert!(!expect.is_empty(), "something must dedup");
        assert_eq!(outcome.referenced_bases, expect);
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
        let mut fabric = Fabric::new(cfg.nodes, medes_net::NetConfig::default());
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
        let target = factory.image(FnId(0), 1);
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
        let base_img = factory.pin(FnId(1), 50);
        index_base_sandbox(&cfg, &registry, NodeId(2), SandboxId(7), &base_img);
        let target = factory.image(FnId(0), 60);
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

    #[test]
    fn timing_scales_with_image_size() {
        let (cfg, mut factory, registry, mut fabric) = setup();
        let base0 = factory.pin(FnId(0), 1);
        let base1 = factory.pin(FnId(1), 1);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base0);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(2), &base1);
        let small = factory.image(FnId(0), 2); // Vanilla 17MB
        let large = factory.image(FnId(1), 2); // LinAlg 32MB
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
