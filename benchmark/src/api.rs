//! Every call into the `medes` workspace lives in this file, so that an
//! API change in the workspace (retiring a legacy path, renaming a
//! builder method) is repaired here and nowhere else. The rest of the
//! benchmark sees plain data: [`RunSummary`], [`ReplayStats`] and the
//! spans the replay records into a [`SpanBuf`].
//!
//! Only the *surviving* side of each fork named in ROADMAP item 2 is
//! used: the cached, coalesced restore read path, the batched dedup
//! pipeline with one worker, and the entropy-mixture content model.

use crate::spans::SpanBuf;
use crate::workloads::{Policy, Workload, STRUCTURE_SEED};
use medes::ckpt::{CheckpointImage, ProcessSpec, RestoreOptions};
use medes::delta::{apply_into, encode_with, EncodeConfig, EncodeScratch};
use medes::hash::fnv::Fnv1a;
use medes::hash::sample::pages_fingerprints;
use medes::hash::Sha1;
use medes::mem::{ContentModelConfig, MemoryImage, PAGE_SIZE};
use medes::net::Fabric;
use medes::obs::{Obs, ObsConfig};
use medes::platform::config::{PlatformConfig, PolicyKind, RestoreReadConfig};
use medes::platform::dedup::{dedup_commit, dedup_scan};
use medes::platform::ids::{FnId, NodeId, SandboxId};
use medes::platform::images::ImageFactory;
use medes::platform::pagecache::BasePageCache;
use medes::platform::registry::{ChunkLoc, RegistryClient};
use medes::platform::restore::restore_op_cached;
use medes::platform::sandbox::PageEntry;
use medes::platform::{Platform, RunReport, StartType};
use medes::policy::medes::{solve, FunctionState, Objective};
use medes::policy::MedesPolicyConfig;
use medes::sim::fault::FaultPlan;
use medes::sim::{DetRng, EventQueue, SimDuration, SimTime};
use medes::trace::{
    azure_like_trace, functionbench_suite, rolling_deploy_scenario, FunctionProfile,
    ScenarioConfig, Trace, TraceGenConfig,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workspace's JSON value, parser and writer.
pub mod json {
    pub use medes::obs::json::{parse, Json, JsonMap};
}

/// Each arrival of the pinned trace is delayed by a seed-drawn amount
/// below this, µs.
const ARRIVAL_JITTER_US: u64 = 1_000_000;
/// Bytes per memory page (`units` of `mem.image_build` spans are pages).
pub const PAGE_BYTES: usize = PAGE_SIZE;
/// Capacity of each node's base-page cache, paper bytes.
const PAGE_CACHE_BYTES: usize = 64 << 20;

/// The seed of sub-run `sub` of a benchmark run started with `seed`.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    DetRng::new(seed).fork(0x5AB_0000 + sub as u64).next_u64()
}

/// Everything one simulated run consumes.
pub struct Inputs {
    platform: Platform,
    trace: Trace,
    /// Warm footprint of each function, paper bytes (for `dedup.saved_frac`).
    fn_memory: Vec<f64>,
}

fn function_names(suite: &[FunctionProfile]) -> Vec<String> {
    suite.iter().map(|p| p.name.clone()).collect()
}

/// The workload's trace for `seed`: the repo's standard Azure-like
/// trace (generator seed pinned, see `workloads.rs`) with every arrival
/// delayed by a seed-drawn jitter.
fn build_trace(w: &Workload, names: &[String], seed: u64) -> Trace {
    let base = azure_like_trace(
        names,
        &TraceGenConfig {
            duration_secs: w.trace_secs,
            scale: w.arrival_scale,
            seed: STRUCTURE_SEED,
            ..Default::default()
        },
    );
    let mut rng = DetRng::new(seed).fork(0x7A17);
    let last = base.duration_us.saturating_sub(1);
    let mut arrivals = vec![Vec::new(); base.functions.len()];
    for inv in &base.invocations {
        let t = (inv.time_us + rng.below(ARRIVAL_JITTER_US)).min(last);
        arrivals[inv.function].push(SimTime::from_micros(t));
    }
    let duration = base.duration();
    Trace::from_arrivals(base.functions, arrivals, duration)
}

fn medes_policy(objective: Objective) -> PolicyKind {
    // The standard knobs of the repo's experiments (`crates/bench`).
    PolicyKind::Medes(MedesPolicyConfig {
        objective,
        idle_period: SimDuration::from_secs(15),
        keep_dedup: SimDuration::from_mins(15),
        keep_alive: SimDuration::from_mins(10),
        base_threshold: 40,
    })
}

fn build_config(
    w: &Workload,
    names: &[String],
    seed: u64,
    policy: Policy,
    obs: bool,
) -> PlatformConfig {
    let node_mem = w.node_mem_mib << 20;
    let policy = match policy {
        Policy::MedesLatency { alpha } => medes_policy(Objective::LatencyTarget { alpha }),
        Policy::MedesBudget { capacity_frac } => medes_policy(Objective::MemoryBudget {
            budget_bytes: (w.nodes * node_mem) as f64 * capacity_frac,
        }),
        Policy::FixedKeepAlive { mins } => PolicyKind::FixedKeepAlive(SimDuration::from_mins(mins)),
    };
    let mut b = PlatformConfig::builder()
        .nodes(w.nodes)
        .node_mem_bytes(node_mem)
        .mem_scale(w.mem_scale)
        .policy(policy)
        .seed(seed)
        .read_path(RestoreReadConfig::cached(PAGE_CACHE_BYTES))
        .shards(w.registry_owners.max(1))
        .workers(1)
        .verify_restores(w.verify_restores)
        .tweak(|c| c.content.mixture = ContentModelConfig::paper_calibrated());
    if obs {
        b = b.obs(ObsConfig::enabled());
    }
    if w.fault_rate > 0.0 {
        // Which nodes crash and which links degrade is pinned; the
        // probabilistic drops inside those windows follow the seed.
        let mut plan = FaultPlan::synthesize(
            STRUCTURE_SEED,
            w.nodes,
            SimTime::from_secs(w.trace_secs),
            w.fault_rate,
        );
        plan.seed = seed;
        b = b.faults(plan);
    }
    if w.deploy_epochs > 0 {
        let scenario = rolling_deploy_scenario(
            names,
            &ScenarioConfig {
                duration_secs: w.trace_secs,
                scale: w.arrival_scale,
                seed,
                nodes: w.nodes,
                node_mem_bytes: node_mem,
                epochs: w.deploy_epochs,
                ..Default::default()
            },
        );
        b = b.deploys(scenario.deploys);
    }
    if w.registry_owners > 0 {
        b = b.registry_owners(w.registry_owners);
    }
    b.build()
        .unwrap_or_else(|e| panic!("workload {} has an invalid configuration: {e}", w.name))
}

/// Builds the inputs of one simulated run: suite, trace, fault plan,
/// deploy schedule, validated configuration and the platform object.
/// This is what `setup_s` times.
pub fn build_inputs(w: &Workload, seed: u64, obs: bool) -> Inputs {
    build_inputs_with_policy(w, seed, w.policy, obs)
}

fn build_inputs_with_policy(w: &Workload, seed: u64, policy: Policy, obs: bool) -> Inputs {
    let suite = functionbench_suite();
    let names = function_names(&suite);
    let trace = build_trace(w, &names, seed);
    let cfg = build_config(w, &names, seed, policy, obs);
    Inputs {
        fn_memory: suite.iter().map(|p| p.memory_bytes as f64).collect(),
        platform: Platform::new(cfg, suite),
        trace,
    }
}

/// Seconds to generate the workload's trace once.
pub fn time_trace_gen(w: &Workload, seed: u64) -> f64 {
    let names = function_names(&functionbench_suite());
    let t = Instant::now();
    black_box(build_trace(w, &names, seed));
    t.elapsed().as_secs_f64()
}

/// Per-function counts and means of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnSummary {
    /// Warm footprint of the function, paper bytes.
    pub memory_bytes: f64,
    /// Cold starts (each spawns a sandbox).
    pub cold_starts: u64,
    /// Completed dedup ops.
    pub dedup_ops: u64,
    /// Completed restores (dedup starts).
    pub restores: u64,
    /// Mean paper bytes saved per dedup op.
    pub saved_paper_bytes_mean: f64,
    /// Mean simulated restore breakdown, µs: base read, compute, ckpt.
    pub restore_us_mean: (f64, f64, f64),
}

/// What the benchmark keeps of one `RunReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// FNV-1a digest of the whole report: equal digests mean equal
    /// simulated results.
    pub digest: u64,
    /// Invocations in the trace.
    pub invocations: usize,
    /// Invocations that completed (have a request record).
    pub completed: usize,
    /// Simulated duration, seconds.
    pub sim_secs: f64,
    /// Sum of startup latencies, µs.
    pub startup_sum_us: f64,
    /// p99.9 of end-to-end latency over execution time.
    pub slowdown_p999: f64,
    /// Cold starts.
    pub cold_starts: u64,
    /// Dedup starts.
    pub dedup_starts: u64,
    /// Sum of startup latencies of dedup starts, µs.
    pub dedup_startup_sum_us: f64,
    /// Time-weighted mean cluster memory, paper GiB.
    pub mem_mean_gib: f64,
    /// Sandboxes spawned.
    pub spawned: u64,
    /// Evictions under memory pressure.
    pub evictions: u64,
    /// Registry lookups served.
    pub registry_lookups: u64,
    /// Peak registry entries.
    pub registry_peak_entries: usize,
    /// Registry locations left on dead nodes (must be 0).
    pub registry_dead_node_locs: usize,
    /// Restores that fell back to a cold start.
    pub fallback_cold_starts: u64,
    /// RDMA bytes moved.
    pub rdma_bytes: u64,
    /// Fabric retries.
    pub net_retries: u64,
    /// Fabric failures.
    pub net_failures: u64,
    /// Base-page cache hits.
    pub cache_hits: u64,
    /// Base-page cache misses.
    pub cache_misses: u64,
    /// Base-page cache invalidations.
    pub cache_invalidations: u64,
    /// Pages deduplicated against the same function.
    pub same_fn_pages: u64,
    /// Pages deduplicated against another function.
    pub cross_fn_pages: u64,
    /// Node crashes injected.
    pub node_crashes: u64,
    /// Sandboxes and bases purged by version bumps.
    pub version_purges: u64,
    /// Per function, in suite order.
    pub per_fn: Vec<FnSummary>,
}

/// Counters read from the observability handle of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounts {
    /// Spans recorded (buffered + dropped from the ring).
    pub spans: u64,
    /// Dedup ops aborted by injected faults after their scan ran.
    pub dedup_aborts: u64,
    /// Registry RPCs routed over the fabric (distributed placement).
    pub registry_rpcs: u64,
}

fn digest(report: &mut RunReport) -> u64 {
    // The request list can hold a million records: hash it field by
    // field, and everything else through its (round-trip exact) Debug
    // rendering so a new report field is covered without editing this.
    let requests = std::mem::take(&mut report.requests);
    let mut h = Fnv1a::new();
    for r in &requests {
        for v in [
            r.id,
            r.func as u64,
            r.arrival_us,
            r.startup_us,
            r.exec_us,
            r.e2e_us,
        ] {
            h.update(&v.to_le_bytes());
        }
        h.update(&[r.start as u8]);
    }
    h.update(format!("{report:?}").as_bytes());
    report.requests = requests;
    h.finish()
}

fn summarise(mut report: RunReport, invocations: usize, suite_memory: &[f64]) -> RunSummary {
    let digest = digest(&mut report);
    let mut seen = vec![false; invocations];
    let mut completed = 0usize;
    let mut startup_sum_us = 0.0;
    let mut dedup_startup_sum_us = 0.0;
    let mut dedup_starts = 0u64;
    let mut slowdowns = Vec::with_capacity(report.requests.len());
    for r in &report.requests {
        if let Some(slot) = seen.get_mut(r.id as usize) {
            if !*slot {
                *slot = true;
                completed += 1;
            }
        }
        startup_sum_us += r.startup_us as f64;
        if r.start == StartType::Dedup {
            dedup_starts += 1;
            dedup_startup_sum_us += r.startup_us as f64;
        }
        slowdowns.push(r.slowdown());
    }
    let slowdowns = crate::stats::sorted(slowdowns);
    let cold = report.cold_starts();
    let per_fn = report
        .dedup_stats
        .iter()
        .enumerate()
        .map(|(f, d)| FnSummary {
            memory_bytes: suite_memory[f],
            cold_starts: cold[f],
            dedup_ops: d.dedup_ops,
            restores: d.restores,
            saved_paper_bytes_mean: d.mean_saved_paper_bytes,
            restore_us_mean: d.mean_restore_us,
        })
        .collect();
    RunSummary {
        digest,
        invocations,
        completed,
        sim_secs: report.duration_us as f64 / 1e6,
        startup_sum_us,
        slowdown_p999: crate::stats::percentile(&slowdowns, 0.999).unwrap_or(0.0),
        cold_starts: report.total_cold_starts(),
        dedup_starts,
        dedup_startup_sum_us,
        mem_mean_gib: report.mem_mean_bytes / (1u64 << 30) as f64,
        spawned: report.sandboxes_spawned,
        evictions: report.evictions,
        registry_lookups: report.registry_lookups,
        registry_peak_entries: report.registry_peak_entries,
        registry_dead_node_locs: report.registry_dead_node_locs,
        fallback_cold_starts: report.fallback_cold_starts,
        rdma_bytes: report.rdma_bytes,
        net_retries: report.net_retries,
        net_failures: report.net_failures,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        cache_invalidations: report.cache_invalidations,
        same_fn_pages: report.same_fn_pages,
        cross_fn_pages: report.cross_fn_pages,
        node_crashes: report.node_crashes,
        version_purges: report.version_purges,
        per_fn,
    }
}

/// Runs the platform over the inputs. The returned wall seconds cover
/// `Platform::run` only; summarising the report is outside the window.
pub fn run_platform(inputs: &Inputs) -> (f64, RunSummary, ObsCounts) {
    let t = Instant::now();
    let outcome = inputs.platform.run(&inputs.trace);
    let wall_s = t.elapsed().as_secs_f64();
    let obs = ObsCounts {
        spans: outcome.obs.span_count() as u64 + outcome.obs.spans_dropped(),
        dedup_aborts: outcome.obs.counter("medes.platform.dedup_aborts"),
        registry_rpcs: outcome.obs.counter("medes.registry.rpc_total"),
    };
    let summary = summarise(outcome.report, inputs.trace.len(), &inputs.fn_memory);
    (wall_s, summary, obs)
}

/// Cold starts of the same trace, faults and deploys under a fixed
/// 10-minute keep-alive (the denominator of `policy.cold_vs_fixed`).
pub fn fixed_keepalive_cold_starts(w: &Workload, seed: u64) -> u64 {
    let inputs = build_inputs_with_policy(w, seed, Policy::FixedKeepAlive { mins: 10 }, false);
    run_platform(&inputs).1.cold_starts
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// ---------------------------------------------------------------------
// Layer replay.
// ---------------------------------------------------------------------

/// What the replay should imitate, taken from the traced run.
#[derive(Debug, Clone)]
pub struct ReplayMix {
    /// Relative weight of each function among replayed dedup/restore
    /// cycles (its dedup ops + restores in the run; all ones when the
    /// run had none).
    pub fn_weight: Vec<u64>,
    /// Registry size to time lookups against (the run's peak entries).
    pub registry_entries: usize,
    /// Event-queue depth to time push/pop at.
    pub queue_depth: usize,
}

/// Counts the replay takes beside its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Dedup + restore cycles replayed.
    pub cycles: u64,
    /// Base sandboxes pinned and indexed.
    pub bases: u64,
    /// Registry entries after indexing.
    pub registry_entries: u64,
    /// Pages fingerprinted.
    pub fingerprints: u64,
    /// Fingerprints with no sampled chunk.
    pub empty_fingerprints: u64,
    /// Fingerprints probed against the registry.
    pub probes: u64,
    /// Probes that returned at least one candidate.
    pub probe_hits: u64,
    /// Patches encoded.
    pub encodes: u64,
    /// Patches thrown away for exceeding `patch_max_frac`.
    pub encode_rejects: u64,
    /// Serialized bytes of the patches kept.
    pub patch_bytes: u64,
    /// Cycles whose call-by-call scan disagreed with `dedup_scan`, or
    /// whose restore failed byte verification. Must be 0.
    pub mismatches: u64,
}

/// A shuffled cycle of about 120 function indices in which each
/// function appears in proportion to its weight (at least once when the
/// weight is not zero).
fn weighted_cycle(weights: &[u64], rng: &mut DetRng) -> Vec<usize> {
    const SLOTS: u64 = 120;
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut cycle = Vec::new();
    for (f, &w) in weights.iter().enumerate() {
        let n = if w == 0 {
            0
        } else {
            (w * SLOTS).div_ceil(total)
        };
        cycle.extend(std::iter::repeat_n(f, n as usize));
    }
    rng.shuffle(&mut cycle);
    cycle
}

/// Replays the workload's operation mix through the public calls of
/// each layer, one span per call, until `budget` is spent.
///
/// Operations (span names in brackets; `units` in parentheses):
/// * `op.pin` — `ImageFactory::pin_v` [`mem.image_build` (pages)],
///   `pages_fingerprints` [`hash.fingerprint` (pages)], `insert_page`
///   into an in-process and a 3-owner registry [`registry.insert`,
///   `registry.dist3.insert`];
/// * `op.spawn` — `ImageFactory::model_pages` [`mem.image_build`];
/// * `op.dedup` — image build, `dedup_scan` as one call [`dedup.scan`],
///   then the same scan call by call under `dedup.parts`
///   [`hash.fingerprint`, `registry.lookup_batch` (fingerprints),
///   `registry.dist3.lookup_batch`, `delta.encode`], `dedup_commit`
///   [`dedup.commit`];
/// * `op.restore` — verification image build, `restore_op_cached` as one
///   call [`restore.op`], then call by call under `restore.parts`
///   [`pagecache.lookup`, `net.rdma_batch`, `pagecache.insert`,
///   `delta.apply`, `ckpt.restore_time`];
/// * `op.micro` — batched loops for calls too short for one window
///   [`sim.queue_push_pop`, `hash.sha1_64`, `net.rpc`, `ckpt.from_image`,
///   `policy.solve`, `obs.noop`], and `remove_sandbox` of every base
///   [`registry.remove_sandbox`, `registry.dist3.remove_sandbox`].
pub fn replay(
    w: &Workload,
    seed: u64,
    mix: &ReplayMix,
    budget: Duration,
    spans: &mut SpanBuf,
) -> ReplayStats {
    let started = Instant::now();
    let suite = functionbench_suite();
    let names = function_names(&suite);
    let cfg = build_config(w, &names, seed, w.policy, false);
    let mut stats = ReplayStats::default();
    let mut rng = DetRng::new(seed).fork(0x2E91A7);
    let mut factory = ImageFactory::new(&suite, cfg.content.clone(), cfg.aslr, cfg.mem_scale);
    let inproc = RegistryClient::in_process(1, Obs::disabled());
    let dist3 =
        RegistryClient::distributed(3, 3, cfg.nodes, cfg.net.clone(), cfg.retry, Obs::disabled());
    let primary = if w.registry_owners > 0 {
        &dist3
    } else {
        &inproc
    };
    let mut fabric = Fabric::new(cfg.nodes, cfg.net.clone());
    let new_caches = || -> Vec<BasePageCache> {
        (0..cfg.nodes)
            .map(|_| BasePageCache::new(cfg.read_path.page_cache_bytes, cfg.mem_scale))
            .collect()
    };
    let mut caches = new_caches();
    let mut caches_parts = new_caches();
    let mut bases: HashMap<SandboxId, (FnId, Arc<MemoryImage>)> = HashMap::new();
    let cycle = weighted_cycle(&mix.fn_weight, &mut rng);

    // --- op.pin: fill the registry to the run's peak size. ---------
    let pin_deadline = started + budget.mul_f64(0.15);
    let mut next_sandbox = 0u64;
    while stats.bases < suite.len() as u64
        || (inproc.entries() < mix.registry_entries && Instant::now() < pin_deadline)
    {
        let f = cycle[stats.bases as usize % cycle.len()];
        let id = SandboxId(next_sandbox);
        next_sandbox += 1;
        let node = NodeId(id.0 as usize % cfg.nodes);
        let instance = rng.next_u64();
        spans.begin_op(f);
        let root = spans.enter("op.pin");
        let s = spans.enter("mem.image_build");
        let img = factory.pin_v(FnId(f), instance, 0);
        spans.exit(s, img.page_count());
        let pages: Vec<&[u8]> = img.pages().map(|(_, p)| p).collect();
        let fps = spans.time("hash.fingerprint", pages.len(), || {
            pages_fingerprints(&pages, &cfg.fingerprint)
        });
        for (idx, fp) in fps.iter().enumerate().filter(|(_, fp)| !fp.is_empty()) {
            let loc = ChunkLoc {
                node,
                sandbox: id,
                page: idx as u32,
            };
            spans.time("registry.insert", 1, || inproc.insert_page(fp, loc));
            spans.time("registry.dist3.insert", 1, || dist3.insert_page(fp, loc));
        }
        spans.exit(root, 1);
        bases.insert(id, (FnId(f), img));
        stats.bases += 1;
    }
    stats.registry_entries = inproc.entries() as u64;

    // --- op.spawn -----------------------------------------------------
    for _ in 0..20 {
        for f in 0..suite.len() {
            spans.begin_op(f);
            let root = spans.enter("op.spawn");
            let s = spans.enter("mem.image_build");
            let pages = factory.model_pages(FnId(f));
            spans.exit(s, pages);
            spans.exit(root, 1);
        }
    }

    micro_ops(&cfg, &suite, mix, &factory, &mut rng, spans);

    // --- op.dedup + op.restore cycles ---------------------------------
    let resolver = |bid: SandboxId| bases.get(&bid).map(|(f, img)| (Arc::clone(img), *f));
    let encode_cfg = EncodeConfig::with_level(cfg.delta_level);
    let max_patch = (cfg.patch_max_frac * PAGE_SIZE as f64) as usize;
    let mut scratch = EncodeScratch::new();
    let mut rebuilt = Vec::new();
    while stats.cycles < cycle.len() as u64 / 4 || started.elapsed() < budget {
        let f = cycle[stats.cycles as usize % cycle.len()];
        let func = FnId(f);
        let node = NodeId(stats.cycles as usize % cfg.nodes);
        let instance = rng.next_u64();
        stats.cycles += 1;

        spans.begin_op(f);
        let root = spans.enter("op.dedup");
        let s = spans.enter("mem.image_build");
        let image = factory.image_v(func, instance, 0);
        spans.exit(s, image.page_count());
        let scan = spans.time("dedup.scan", 1, || {
            dedup_scan(&cfg, primary, node, func, &image, &resolver)
        });

        let parts = spans.enter("dedup.parts");
        let pages: Vec<&[u8]> = image.pages().map(|(_, p)| p).collect();
        let fps = spans.time("hash.fingerprint", pages.len(), || {
            pages_fingerprints(&pages, &cfg.fingerprint)
        });
        let probe: Vec<_> = fps.iter().filter(|fp| !fp.is_empty()).cloned().collect();
        stats.fingerprints += fps.len() as u64;
        stats.empty_fingerprints += (fps.len() - probe.len()) as u64;
        let cands = spans.time("registry.lookup_batch", probe.len(), || {
            inproc.lookup_batch(&probe)
        });
        let cands_dist = spans.time("registry.dist3.lookup_batch", probe.len(), || {
            dist3.lookup_batch(&probe)
        });
        let mut kept = 0usize;
        let mut kept_bytes = 0usize;
        let probed_pages = pages.iter().zip(&fps).filter(|(_, fp)| !fp.is_empty());
        for ((page, _), list) in probed_pages.zip(&cands) {
            stats.probes += 1;
            // The election rule of `dedup_scan`: most votes, then a
            // local base page, then the oldest sandbox.
            let Some(best) = list.iter().max_by_key(|c| {
                (
                    c.votes,
                    c.loc.node == node,
                    std::cmp::Reverse(c.loc.sandbox),
                )
            }) else {
                continue;
            };
            stats.probe_hits += 1;
            let base_page = bases[&best.loc.sandbox].1.page(best.loc.page as usize);
            let patch = spans.time("delta.encode", 1, || {
                encode_with(base_page, page, &encode_cfg, &mut scratch)
            });
            stats.encodes += 1;
            let size = patch.serialized_size();
            if size >= max_patch {
                stats.encode_rejects += 1;
            } else {
                kept += 1;
                kept_bytes += size;
            }
        }
        spans.exit(parts, 1);
        stats.patch_bytes += kept_bytes as u64;
        if kept != scan.patched_pages || kept_bytes != scan.table.patch_bytes || cands != cands_dist
        {
            stats.mismatches += 1;
        }
        let outcome = spans
            .time("dedup.commit", 1, || {
                dedup_commit(&cfg, &mut fabric, node, scan)
            })
            .expect("the replay injects no faults");
        spans.exit(root, 1);

        // Restore the table just produced, on the next node over.
        let table = outcome.table;
        let rnode = NodeId((node.0 + 1) % cfg.nodes);
        spans.begin_op(f);
        let root = spans.enter("op.restore");
        let verify = if cfg.verify_restores {
            let s = spans.enter("mem.image_build");
            let img = factory.image_v(func, instance, 0);
            spans.exit(s, img.page_count());
            Some(img)
        } else {
            None
        };
        let restored = spans.time("restore.op", 1, || {
            restore_op_cached(
                &cfg,
                &mut fabric,
                rnode,
                &table,
                &resolver,
                Some(&mut caches[rnode.0]),
                verify.as_deref(),
            )
        });
        let parts = spans.enter("restore.parts");
        let distinct = table.distinct_base_pages();
        let cache = &mut caches_parts[rnode.0];
        let mut hit_bytes: HashMap<(SandboxId, u32), Vec<u8>> = HashMap::new();
        let mut missed = Vec::new();
        for &(sb, bnode, page) in &distinct {
            match spans.time("pagecache.lookup", 1, || cache.lookup(sb, page)) {
                Some(bytes) => {
                    hit_bytes.insert((sb, page), bytes);
                }
                None => missed.push((sb, bnode, page)),
            }
        }
        let reads: Vec<(usize, usize)> = missed
            .iter()
            .map(|&(_, bnode, _)| (bnode.0, PAGE_SIZE * cfg.mem_scale))
            .collect();
        spans
            .time("net.rdma_batch", 1, || {
                fabric.rdma_read_batch_retry(rnode.0, &reads, &cfg.retry)
            })
            .expect("the replay injects no faults");
        for &(sb, _, page) in &missed {
            let bytes = bases[&sb].1.page(page as usize);
            spans.time("pagecache.insert", 1, || cache.insert(sb, page, bytes));
        }
        // Patches are applied (and checked against the image the dedup
        // op started from) on every workload, so `delta.apply` is timed
        // on this workload's pages even where the platform itself only
        // applies patches under `verify_restores`.
        let mut ok = restored.is_ok();
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
            let base_bytes: &[u8] = match hit_bytes.get(&(*base_sandbox, *base_page)) {
                Some(b) => b,
                None => bases[base_sandbox].1.page(*base_page as usize),
            };
            let applied = spans.time("delta.apply", 1, || {
                apply_into(base_bytes, patch, &mut rebuilt)
            });
            ok &= applied.is_ok() && rebuilt == image.page(idx);
        }
        spans.time("ckpt.restore_time", 1, || {
            black_box(cfg.ckpt.restore_time(
                table.full_paper_bytes(cfg.mem_scale),
                &ProcessSpec::default(),
                &RestoreOptions::MEDES,
            ))
        });
        spans.exit(parts, 1);
        spans.exit(root, 1);
        if !ok {
            stats.mismatches += 1;
        }
    }

    // --- registry removal, once per base -------------------------------
    spans.begin_op(0);
    let root = spans.enter("op.micro");
    let mut ids: Vec<SandboxId> = bases.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        spans.time("registry.remove_sandbox", 1, || inproc.remove_sandbox(id));
        spans.time("registry.dist3.remove_sandbox", 1, || {
            dist3.remove_sandbox(id)
        });
    }
    spans.exit(root, 1);
    stats
}

/// Calls too short for one timing window each: every span covers a
/// batch and carries the batch size as `units`.
fn micro_ops(
    cfg: &PlatformConfig,
    suite: &[FunctionProfile],
    mix: &ReplayMix,
    factory: &ImageFactory,
    rng: &mut DetRng,
    spans: &mut SpanBuf,
) {
    const WINDOWS: usize = 1500;
    spans.begin_op(0);
    let root = spans.enter("op.micro");

    // Event queue at the run's depth: every arrival of the trace is
    // scheduled before the run starts, so the queue drains from the
    // trace length down. The payload is sized like the platform's
    // largest event.
    let mut queue: EventQueue<[u64; 9]> = EventQueue::new();
    let horizon_us = 3_600_000_000u64;
    for i in 0..mix.queue_depth as u64 {
        queue.push(SimTime::from_micros(rng.below(horizon_us)), [i; 9]);
    }
    for _ in 0..WINDOWS {
        let s = spans.enter("sim.queue_push_pop");
        for _ in 0..16 {
            let (t, ev) = queue.pop().expect("queue is prefilled");
            queue.push(t + SimDuration::from_micros(1 + ev[0] % 1_000_000), ev);
        }
        spans.exit(s, 16);
    }
    drop(queue);

    let mut block = [0u8; 64];
    for i in 0..WINDOWS {
        block[0] = i as u8;
        block[1] = (i >> 8) as u8;
        spans.time("hash.sha1_64", 16, || {
            for k in 0..16u8 {
                block[2] = k;
                black_box(Sha1::digest64(black_box(&block)));
            }
        });
    }

    let mut fabric = Fabric::new(cfg.nodes, cfg.net.clone());
    for i in 0..WINDOWS {
        spans.time("net.rpc", 16, || {
            for k in 0..16 {
                black_box(fabric.rpc(i % cfg.nodes, (i + k + 1) % cfg.nodes, 256, 1024)).ok();
            }
        });
    }

    let images: Vec<Arc<MemoryImage>> = (0..suite.len())
        .map(|f| factory.image_v(FnId(f), rng.next_u64(), 0))
        .collect();
    for i in 0..WINDOWS.min(1000) {
        let img = &images[i % images.len()];
        spans.time("ckpt.from_image", 1, || {
            black_box(CheckpointImage::from_image(img, ProcessSpec::default()));
        });
    }

    let policy = MedesPolicyConfig::default();
    let states: Vec<FunctionState> = suite
        .iter()
        .map(|p| FunctionState {
            arrival_rate: 0.5 + rng.f64() * 4.0,
            exec_time: p.exec_time(),
            warm_start: p.warm_start(),
            dedup_start: SimDuration::from_millis(200),
            mem_warm: p.memory_bytes as f64,
            mem_dedup: p.memory_bytes as f64 * 0.4,
            mem_restore: p.memory_bytes as f64 * 0.3,
            sandboxes: 12,
        })
        .collect();
    for i in 0..WINDOWS {
        spans.time("policy.solve", 16, || {
            for k in 0..16 {
                black_box(solve(&policy, black_box(&states[(i + k) % states.len()])));
            }
        });
    }

    let off = Obs::disabled();
    for i in 0..WINDOWS {
        let t = SimTime::from_micros(i as u64);
        spans.time("obs.noop", 64, || {
            for _ in 0..32 {
                black_box(&off).incr("medes.bench.noop");
                black_box(&off).span("medes.bench.noop", t).end(t);
            }
        });
    }
    spans.exit(root, 1);
}
