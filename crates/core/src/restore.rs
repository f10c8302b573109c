//! The restore operation (§4.2, Fig 6).
//!
//! A dedup sandbox is restored on demand when the scheduler assigns it a
//! request. The dedup agent:
//! 1. fetches every referenced base page, batching one-sided RDMA reads
//!    to remote nodes (no remote CPU involved);
//! 2. recomputes original pages by applying the stored patches;
//! 3. restores the sandbox from the reconstructed in-memory checkpoint —
//!    the namespace/process-tree work was done before dedup, so only the
//!    ~140 ms memory-restore path remains.

use crate::config::PlatformConfig;
use crate::dedup::BaseResolver;
use crate::ids::NodeId;
use crate::pagecache::BasePageCache;
use crate::sandbox::{DedupPageTable, PageEntry};
use medes_delta::apply_into;
use medes_mem::{MemoryImage, PAGE_SIZE};
use medes_net::{Fabric, NetError, LOCAL_MEM_BPS};
use medes_obs::{Obs, TraceCtx};
use medes_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Patch application cost per (paper-scale) page.
const PATCH_APPLY_PER_PAGE: SimDuration = SimDuration::from_micros(8);

/// Wall-time breakdown of one restore (the dedup-start latency).
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreTiming {
    /// Base-page reads (batched RDMA).
    pub base_read: SimDuration,
    /// Original-page computation (patch application).
    pub page_compute: SimDuration,
    /// Sandbox restoration from the in-memory checkpoint.
    pub ckpt_restore: SimDuration,
}

impl RestoreTiming {
    /// Total dedup-start latency contribution.
    pub fn total(&self) -> SimDuration {
        self.base_read + self.page_compute + self.ckpt_restore
    }

    /// The restore op's context under `parent` — the dispatcher mints
    /// this *before* the op runs (to parent fabric retry spans) and
    /// [`RestoreTiming::record`] re-derives the identical ids after.
    pub fn op_ctx(parent: TraceCtx) -> TraceCtx {
        parent.child("medes.restore.op", 0)
    }

    /// The base-read phase context under an op minted by
    /// [`RestoreTiming::op_ctx`] (parents fabric retry spans).
    pub fn base_read_ctx(op: TraceCtx) -> TraceCtx {
        op.child("medes.restore.base_read", 0)
    }

    /// Emits the per-phase spans (`medes.restore.*`) for one restore
    /// that started at `start`.
    /// Phases are laid end-to-end in the order they happen (base read →
    /// page compute → checkpoint restore), so span durations sum to
    /// [`RestoreTiming::total`] exactly — the JSONL trace reproduces the
    /// Fig 8 breakdown.
    ///
    /// `parent` is the causal context of the enclosing operation
    /// (usually the request trace root); pass [`TraceCtx::NONE`] for a
    /// flat, untraced record. The emitted tree is
    /// `op → {base_read, page_compute, ckpt}` (fabric retry spans hang
    /// under `base_read`), and the phase spans tile the op span
    /// exactly, so per-node self-times sum to the op duration.
    /// `(cache_hits, cache_misses)` are the distinct base pages the
    /// node's base-page cache served and missed; they are attributes
    /// of the `base_read` span, the phase the cache accelerates.
    ///
    /// `node` is the node performing the restore; the op span carries
    /// it. The spans are the one record of each phase's duration.
    pub fn record(
        &self,
        obs: &Obs,
        start: SimTime,
        fn_name: &str,
        parent: TraceCtx,
        node: usize,
        (cache_hits, cache_misses): (u64, u64),
    ) {
        if !obs.enabled() {
            return;
        }
        let op = Self::op_ctx(parent);
        let t1 = start + self.base_read;
        let t2 = t1 + self.page_compute;
        let t3 = t2 + self.ckpt_restore;
        obs.span_in("medes.restore.base_read", start, Self::base_read_ctx(op))
            .attr("cache_hits", cache_hits)
            .attr("cache_misses", cache_misses)
            .end(t1);
        obs.span_in(
            "medes.restore.page_compute",
            t1,
            op.child("medes.restore.page_compute", 0),
        )
        .end(t2);
        obs.span_in("medes.restore.ckpt", t2, op.child("medes.restore.ckpt", 0))
            .end(t3);
        obs.span_in("medes.restore.op", start, op)
            .attr("fn", fn_name)
            .attr("node", node)
            .end(t3);
    }
}

/// Result of one restore op.
#[derive(Debug, Clone, Copy)]
pub struct RestoreOutcome {
    /// Timing breakdown (this is what Fig 8 plots).
    pub timing: RestoreTiming,
    /// Paper-scale bytes transiently read for reconstruction — the
    /// `m_R` overhead in the §5 policy model: one page per *distinct
    /// base page* ([`DedupPageTable::distinct_base_pages`]), cache hits
    /// included (they still occupy transient reconstruction memory).
    pub read_paper_bytes: usize,
    /// Distinct base pages served from the node's base-page cache.
    pub cache_hits: u64,
    /// Distinct base pages that had to be fetched over the fabric.
    pub cache_misses: u64,
}

/// Restore failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A referenced base sandbox is gone — a refcounting bug.
    MissingBase {
        /// The missing base sandbox id.
        sandbox: u64,
    },
    /// A patch failed to apply or reproduced wrong bytes.
    Corrupt {
        /// Page index that failed.
        page: usize,
    },
    /// Base-page reads failed even after the configured retries — the
    /// caller should fall back to a cold start (§5.3).
    Net(NetError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::MissingBase { sandbox } => {
                write!(f, "base sandbox sb{sandbox} missing during restore")
            }
            RestoreError::Corrupt { page } => write!(f, "page {page} failed to reconstruct"),
            RestoreError::Net(e) => write!(f, "base-page reads failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Runs the restore op (§4.2), with an optional per-node base-page
/// cache.
///
/// The read set is the table's distinct `(base sandbox, base page)`
/// pairs; pairs present in `cache` are served from local memory
/// (`LOCAL_MEM_BPS`) without touching the fabric, and the remaining
/// pages are fetched in one batched RDMA read and recorded in the
/// cache, by key, once the transfer succeeds.
///
/// When `verify_against` is provided, every patched page is actually
/// reconstructed and compared byte-for-byte with the original image —
/// the end-to-end correctness check of the whole dedup pipeline.
pub fn restore_op_cached(
    cfg: &PlatformConfig,
    fabric: &mut Fabric,
    node: NodeId,
    table: &DedupPageTable,
    bases: &BaseResolver<'_>,
    mut cache: Option<&mut BasePageCache>,
    verify_against: Option<&MemoryImage>,
) -> Result<RestoreOutcome, RestoreError> {
    let scale = cfg.mem_scale;
    let page_paper = PAGE_SIZE * scale;
    let patched = table.patched_pages();
    let distinct = table.distinct_base_pages();

    // Resolve every referenced base up front: a failed resolve must
    // return before anything is accounted — no phantom reads.
    let mut imgs: HashMap<u64, Arc<MemoryImage>> = HashMap::new();
    for (sb, _, _) in &distinct {
        if let std::collections::hash_map::Entry::Vacant(slot) = imgs.entry(sb.0) {
            let Some((img, _)) = bases(*sb) else {
                return Err(RestoreError::MissingBase { sandbox: sb.0 });
            };
            slot.insert(img);
        }
    }

    // Cache pass over the read set: a hit copies nothing, misses join
    // the fabric batch.
    let mut reads: Vec<(usize, usize)> = Vec::new();
    let mut missed: Vec<usize> = Vec::new();
    let mut hits = 0u64;
    for (i, (sb, bnode, page)) in distinct.iter().enumerate() {
        if cache.as_mut().is_some_and(|c| c.hit(*sb, *page)) {
            hits += 1;
        } else {
            missed.push(i);
            reads.push((bnode.0, page_paper));
        }
    }

    // Reconstruct and compare every patched page. An entry the restore
    // path made is a key only, so its bytes come from the resolved base
    // image; an entry holding bytes (`BasePageCache::insert`) is read
    // as held, so wrong bytes in it surface as corruption.
    if let Some(original) = verify_against {
        let cached = cache.as_deref();
        // One reusable output buffer across all patched pages: the
        // apply path allocates once, not once per page.
        let mut rebuilt = Vec::new();
        for (idx, entry) in table.entries.iter().enumerate() {
            let PageEntry::Patched {
                base_sandbox,
                base_page,
                patch,
                ..
            } = entry
            else {
                continue;
            };
            let base_bytes = cached
                .and_then(|c| c.get(*base_sandbox, *base_page))
                .unwrap_or_else(|| imgs[&base_sandbox.0].page(*base_page as usize));
            apply_into(base_bytes, patch, &mut rebuilt)
                .map_err(|_| RestoreError::Corrupt { page: idx })?;
            if rebuilt != original.page(idx) {
                return Err(RestoreError::Corrupt { page: idx });
            }
        }
    }

    let mut base_read = fabric
        .rdma_read_batch_retry(node.0, &reads, &cfg.retry)
        .map_err(RestoreError::Net)?;
    if hits > 0 {
        base_read +=
            SimDuration::from_secs_f64((hits as usize * page_paper) as f64 / LOCAL_MEM_BPS);
    }
    // Fetched pages enter the cache only after the transfer succeeded.
    if let Some(c) = cache.as_mut() {
        for &i in &missed {
            let (sb, _, page) = distinct[i];
            c.record(sb, page);
        }
    }

    let ckpt = cfg.ckpt.restore_time(
        table.full_paper_bytes(scale),
        &medes_ckpt::ProcessSpec::default(),
        &medes_ckpt::RestoreOptions::MEDES,
    );
    Ok(RestoreOutcome {
        timing: RestoreTiming {
            base_read,
            page_compute: PATCH_APPLY_PER_PAGE.mul_f64(patched as f64 * scale as f64),
            ckpt_restore: ckpt.total(),
        },
        read_paper_bytes: distinct.len() * page_paper,
        cache_hits: hits,
        cache_misses: missed.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::{dedup_op, index_base_sandbox};
    use crate::ids::{FnId, SandboxId};
    use crate::images::ImageFactory;
    use crate::registry::RegistryClient;
    use medes_mem::{AslrConfig, ContentModel};
    use medes_net::NetConfig;
    use medes_obs::Json;
    use medes_trace::functionbench_suite;
    use std::sync::Arc;

    /// A page-aligned image of deterministic pseudo-random content.
    fn synth_image(pages: usize, seed: u64) -> MemoryImage {
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
    }

    fn pipeline() -> (
        PlatformConfig,
        Fabric,
        DedupPageTable,
        Arc<MemoryImage>,
        Arc<MemoryImage>,
    ) {
        let cfg = PlatformConfig::small_test();
        let mut factory = ImageFactory::new(
            &functionbench_suite()[..1],
            ContentModel::default(),
            AslrConfig::DISABLED,
            cfg.mem_scale,
        );
        let registry = RegistryClient::new();
        let mut fabric = Fabric::new(cfg.nodes, NetConfig);
        let base = factory.pin_v(FnId(0), 10, 0);
        index_base_sandbox(&cfg, &registry, NodeId(0), SandboxId(1), &base);
        let target = factory.image_v(FnId(0), 20, 0);
        let base_arc = Arc::clone(&base);
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
        (cfg, fabric, outcome.table, base, target)
    }

    #[test]
    fn restore_verifies_byte_for_byte() {
        let (cfg, mut fabric, table, base, target) = pipeline();
        assert!(table.patched_pages() > 0, "pipeline must dedup something");
        let base_arc = Arc::clone(&base);
        let out = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0))),
            None,
            Some(&target),
        )
        .expect("restore must succeed");
        assert!(out.timing.total() > SimDuration::from_millis(50));
        assert!(out.read_paper_bytes > 0);
    }

    #[test]
    fn missing_base_is_detected() {
        let (cfg, mut fabric, table, _base, _target) = pipeline();
        let err = restore_op_cached(&cfg, &mut fabric, NodeId(1), &table, &|_| None, None, None)
            .unwrap_err();
        assert!(matches!(err, RestoreError::MissingBase { sandbox: 1 }));
    }

    #[test]
    fn missing_base_accounts_no_phantom_reads() {
        // A failed base resolve must leave the fabric untouched: no
        // reads, no bytes, as if the op never started.
        let (cfg, mut fabric, table, _base, _target) = pipeline();
        let before = fabric.stats();
        let err = restore_op_cached(&cfg, &mut fabric, NodeId(1), &table, &|_| None, None, None)
            .unwrap_err();
        assert!(matches!(err, RestoreError::MissingBase { sandbox: 1 }));
        let after = fabric.stats();
        assert_eq!(after.rdma_reads, before.rdma_reads);
        assert_eq!(after.rdma_bytes, before.rdma_bytes);
    }

    /// Property over random page tables: the read set is the distinct
    /// base pages, `m_R` is priced from it, every distinct page is
    /// either a cache hit or a fabric read, and the CRIU pass is fed
    /// the full image (`m_W`) however many pages were patched.
    #[test]
    fn read_set_is_the_distinct_base_pages() {
        const BASES: u64 = 3;
        const BASE_PAGES: usize = 8;
        let cfg = PlatformConfig::small_test();
        let imgs: Vec<Arc<MemoryImage>> = (0..BASES)
            .map(|i| Arc::new(synth_image(BASE_PAGES, 0xBA5E + i)))
            .collect();
        let resolver = |id: SandboxId| {
            imgs.get(id.0 as usize)
                .map(|img| (Arc::clone(img), FnId(0)))
        };
        let page_paper = PAGE_SIZE * cfg.mem_scale;
        let mut seeds = medes_sim::DetRng::new(0x5EED_7AB1E);
        for case in 0..64 {
            let mut rng = medes_sim::DetRng::new(seeds.next_u64());
            let len = 1 + rng.below(40) as usize;
            let mut table = DedupPageTable::default();
            for _ in 0..len {
                if rng.below(4) == 0 {
                    table.verbatim_pages += 1;
                    table.entries.push(PageEntry::Verbatim);
                } else {
                    let sb = rng.below(BASES);
                    table.entries.push(PageEntry::Patched {
                        base_sandbox: SandboxId(sb),
                        // Never the restoring node: local reads skip the NIC.
                        base_node: NodeId(2 + sb as usize % 2),
                        base_page: rng.below(BASE_PAGES as u64) as u32,
                        patch: medes_delta::Patch::from_instrs(
                            PAGE_SIZE as u32,
                            PAGE_SIZE as u32,
                            &[],
                        ),
                    });
                }
            }
            let distinct = table.distinct_base_pages().len();
            assert!(distinct <= table.patched_pages(), "case {case}");

            // A cache too small for the whole read set on some cases,
            // so the repeat restore mixes hits and misses.
            let cap = rng.below(2 * distinct as u64 + 1) as usize * page_paper;
            let mut cache = crate::pagecache::BasePageCache::new(cap, cfg.mem_scale);
            let mut fabric = Fabric::new(cfg.nodes, NetConfig);
            for pass in 0..2 {
                let reads_before = fabric.stats().rdma_reads;
                let out = restore_op_cached(
                    &cfg,
                    &mut fabric,
                    NodeId(1),
                    &table,
                    &resolver,
                    Some(&mut cache),
                    None,
                )
                .expect("restore");
                assert_eq!(out.read_paper_bytes, distinct * page_paper, "case {case}");
                assert_eq!(
                    (out.cache_hits + out.cache_misses) as usize,
                    distinct,
                    "case {case} pass {pass}"
                );
                assert_eq!(
                    fabric.stats().rdma_reads - reads_before,
                    out.cache_misses,
                    "case {case} pass {pass}: every miss is exactly one fabric read"
                );
                if pass == 0 {
                    assert_eq!(out.cache_hits, 0, "case {case}: cold cache");
                }
                let ckpt = cfg.ckpt.restore_time(
                    table.full_paper_bytes(cfg.mem_scale),
                    &medes_ckpt::ProcessSpec::default(),
                    &medes_ckpt::RestoreOptions::MEDES,
                );
                assert_eq!(out.timing.ckpt_restore, ckpt.total(), "case {case}");
            }
        }
    }

    #[test]
    fn cache_serves_repeat_restore_without_fabric_reads() {
        let (cfg, mut fabric, table, base, target) = pipeline();
        let mut cache = crate::pagecache::BasePageCache::new(64 << 20, cfg.mem_scale);

        let resolver = {
            let base_arc = Arc::clone(&base);
            move |id: SandboxId| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0)))
        };
        let cold = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &resolver,
            Some(&mut cache),
            Some(&target),
        )
        .unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.cache_misses > 0);
        // The cold restore recorded keys only; the bytes stay in the base
        // image, which the warm restore below verifies against.
        let distinct = table.distinct_base_pages();
        assert_eq!(cache.len(), distinct.len());
        assert!(distinct
            .iter()
            .all(|&(sb, _, p)| cache.get(sb, p).is_none()));
        let after_first = fabric.stats();

        let warm = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &resolver,
            Some(&mut cache),
            Some(&target),
        )
        .unwrap();
        assert_eq!(warm.cache_misses, 0, "every page must hit the cache");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(cache.stats().hits, warm.cache_hits);
        assert_eq!(
            fabric.stats().rdma_bytes,
            after_first.rdma_bytes,
            "a fully cached restore must not touch the fabric"
        );
        assert!(
            warm.timing.base_read < cold.timing.base_read,
            "local-memory hits must beat the wire"
        );
        // `m_R` (transient reconstruction bytes) is unchanged by hits.
        assert_eq!(warm.read_paper_bytes, cold.read_paper_bytes);
    }

    /// A restore is recorded as one span per phase: three spans tile
    /// the op and none has a child, the cache counts ride on the
    /// base-read phase, the op span carries its node, and the phase
    /// durations are recorded nowhere else.
    #[test]
    fn restore_record_is_one_span_per_phase() {
        let timing = RestoreTiming {
            base_read: SimDuration::from_millis(2),
            page_compute: SimDuration::from_millis(1),
            ckpt_restore: SimDuration::from_millis(140),
        };
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let root = obs.trace_root("request", 1, 2);
        timing.record(&obs, SimTime::from_micros(10), "f", root, 2, (5, 7));
        let spans = obs.spans();
        assert_eq!(spans.len(), 4);
        let op = spans.iter().find(|s| s.name == "medes.restore.op").unwrap();
        let phases: Vec<_> = spans.iter().filter(|s| s.parent_id == op.span_id).collect();
        let names: Vec<_> = phases.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "medes.restore.base_read",
                "medes.restore.page_compute",
                "medes.restore.ckpt"
            ]
        );
        let tiled: u64 = phases.iter().map(|s| s.dur_us()).sum();
        assert_eq!(tiled, op.dur_us());
        assert_eq!(phases[0].attr("cache_hits").and_then(Json::as_u64), Some(5));
        assert_eq!(
            phases[0].attr("cache_misses").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(op.attr("node").and_then(Json::as_u64), Some(2));
        // The spans are the whole record: the run counts its restores.
        assert!(obs.export_jsonl().ends_with("{\"metrics\":{}}\n"));
    }

    #[test]
    fn stale_cache_entry_surfaces_as_corruption() {
        // Poison the cache with wrong bytes for every distinct base
        // page: verification must use the cached bytes and fail.
        let (cfg, mut fabric, table, base, target) = pipeline();
        let mut cache = crate::pagecache::BasePageCache::new(64 << 20, cfg.mem_scale);
        for (sb, _, page) in table.distinct_base_pages() {
            cache.insert(sb, page, &vec![0xEE; PAGE_SIZE]);
        }
        let base_arc = Arc::clone(&base);
        let err = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0))),
            Some(&mut cache),
            Some(&target),
        )
        .unwrap_err();
        assert!(matches!(err, RestoreError::Corrupt { .. }));
    }

    #[test]
    fn corruption_is_detected() {
        let (cfg, mut fabric, table, base, _target) = pipeline();
        // Verify against the WRONG original: must report corruption.
        let factory = ImageFactory::new(
            &functionbench_suite()[..1],
            ContentModel::default(),
            AslrConfig::DISABLED,
            cfg.mem_scale,
        );
        let wrong = factory.image_v(FnId(0), 999, 0);
        let base_arc = Arc::clone(&base);
        let err = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0))),
            None,
            Some(&wrong),
        )
        .unwrap_err();
        assert!(matches!(err, RestoreError::Corrupt { .. }));
    }

    #[test]
    fn dedup_start_faster_than_cold_start() {
        let (cfg, mut fabric, table, base, target) = pipeline();
        let base_arc = Arc::clone(&base);
        let out = restore_op_cached(
            &cfg,
            &mut fabric,
            NodeId(1),
            &table,
            &move |id| (id == SandboxId(1)).then(|| (Arc::clone(&base_arc), FnId(0))),
            None,
            Some(&target),
        )
        .unwrap();
        let cold = functionbench_suite()[0].cold_start();
        assert!(
            out.timing.total() < cold,
            "dedup start {:?} must beat cold start {:?}",
            out.timing.total(),
            cold
        );
    }
}
