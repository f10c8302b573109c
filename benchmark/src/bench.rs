//! The two measurement procedures behind `run`: the untraced
//! end-to-end pass (`--trace 0`) and the traced per-layer pass
//! (`--trace 1`).

use crate::api::{self, ObsCounts, ReplayMix, ReplayStats, RunSummary};
use crate::result::{Check, MetricValue, RunResult};
use crate::spans::{Span, SpanBuf, NO_PARENT};
use crate::stats::{percentile, ratio, sorted, Quartiles};
use crate::workloads::{Policy, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rebuilds of the inputs behind `setup_s`.
const SETUP_REPEATS: usize = 21;
/// Spans written to the JSONL file at most.
const MAX_EXPORTED_SPANS: usize = 100_000;

fn check(checks: &mut Vec<Check>, what: impl Into<String>, ok: bool) {
    checks.push(Check {
        what: what.into(),
        ok,
    });
}

/// Output checks every simulated run must pass.
fn check_run(w: &Workload, sub: usize, s: &RunSummary, checks: &mut Vec<Check>) -> u64 {
    let mut failed = (s.invocations - s.completed) as u64;
    check(
        checks,
        format!(
            "sub-run {sub}: completed requests == trace length ({})",
            s.invocations
        ),
        s.completed == s.invocations,
    );
    check(
        checks,
        format!("sub-run {sub}: no registry location left on a dead node"),
        s.registry_dead_node_locs == 0,
    );
    if matches!(w.policy, Policy::FixedKeepAlive { .. }) {
        check(
            checks,
            format!("sub-run {sub}: bypass workload made no registry lookup"),
            s.registry_lookups == 0,
        );
    }
    if w.verify_restores && w.fault_rate == 0.0 {
        // Without injected faults the only way a restore can fall back
        // to a cold start is a failed byte verification.
        failed += s.fallback_cold_starts;
        check(
            checks,
            format!("sub-run {sub}: every restore reproduced its image byte for byte"),
            s.fallback_cold_starts == 0,
        );
    }
    failed
}

/// `--trace 0`: end-to-end metrics over `w.sub_runs` simulated clusters.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let mut checks = Vec::new();
    let seeds: Vec<u64> = (0..w.sub_runs).map(|k| api::sub_seed(seed, k)).collect();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        let inputs = api::build_inputs(w, seeds[r % seeds.len()], false);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(inputs);
    }

    // One discarded run lets the allocator and page cache settle; its
    // digest doubles as the replay-determinism reference for sub-run 0.
    let warm_digest = api::run_platform(&api::build_inputs(w, seeds[0], false))
        .1
        .digest;

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut first: Vec<RunSummary> = Vec::with_capacity(seeds.len());
    let mut repeatable = true;
    let measuring = Instant::now();
    let mut rounds = 0usize;
    loop {
        for (k, &s) in seeds.iter().enumerate() {
            let inputs = api::build_inputs(w, s, false);
            let (wall, summary, _) = api::run_platform(&inputs);
            walls[k].push(wall);
            match first.get(k) {
                Some(prev) => repeatable &= prev.digest == summary.digest,
                None => first.push(summary),
            }
        }
        rounds += 1;
        // Whole rounds only, so every sub-seed has the same number of
        // samples; stop when another round would overrun `--seconds`.
        let elapsed = measuring.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds as f64 > seconds {
            break;
        }
    }
    repeatable &= first[0].digest == warm_digest;
    check(
        &mut checks,
        "report digest identical across repeats of a sub-seed",
        repeatable,
    );

    let mut failed = 0;
    for (k, s) in first.iter().enumerate() {
        failed += check_run(w, k, s, &mut checks);
    }
    let attempted: u64 = first.iter().map(|s| s.invocations as u64).sum();
    let completed: f64 = first.iter().map(|s| s.completed as f64).sum();
    let per_sub = |f: &dyn Fn(&RunSummary) -> f64| -> Vec<f64> { first.iter().map(f).collect() };
    let spread = |v: &[f64]| Quartiles::of(v).expect("at least one sub-run");

    let wall_medians: Vec<f64> = walls.iter().map(|v| spread(v).median).collect();
    let startup = per_sub(&|s| ratio(s.startup_sum_us, s.completed as f64) / 1e3);
    let cold = per_sub(&|s| ratio(s.cold_starts as f64, s.completed as f64));
    let mem = per_sub(&|s| s.mem_mean_gib);
    let slowdown = per_sub(&|s| s.slowdown_p999);
    let metrics = vec![
        MetricValue::median("wall_s", &wall_medians),
        MetricValue::median("setup_s", &setup_s),
        MetricValue::exact("peak_rss_mib", api::peak_rss_mib().unwrap_or(0.0)),
        MetricValue::new(
            "startup_mean_ms",
            ratio(first.iter().map(|s| s.startup_sum_us).sum(), completed) / 1e3,
            spread(&startup),
        ),
        MetricValue::median("slowdown_p999", &slowdown),
        MetricValue::new(
            "cold_start_frac",
            ratio(first.iter().map(|s| s.cold_starts as f64).sum(), completed),
            spread(&cold),
        ),
        MetricValue::new(
            "mem_mean_gib",
            mem.iter().sum::<f64>() / mem.len() as f64,
            spread(&mem),
        ),
    ];
    RunResult {
        workload: w.name.to_string(),
        seed,
        traced: false,
        attempted,
        failed,
        checks,
        digests: first.iter().map(|s| format!("{:016x}", s.digest)).collect(),
        metrics,
        notes: vec![
            format!(
                "{} sub-runs x {rounds} round(s); wall_s is the median sub-run, simulated metrics pool all sub-runs",
                seeds.len()
            ),
            format!(
                "{} nodes x {} MiB, {} s trace x{}, mem_scale {}, {} requests per sub-run",
                w.nodes,
                w.node_mem_mib,
                w.trace_secs,
                w.arrival_scale,
                w.mem_scale,
                first[0].invocations
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Traced pass.
// ---------------------------------------------------------------------

/// Layers of the share table, in catalogue order.
const LAYERS: [&str; 11] = [
    "medes-sim",
    "medes-mem",
    "medes-hash",
    "medes-delta",
    "medes-net",
    "medes-ckpt",
    "medes-policy",
    "medes-obs",
    "core-registry",
    "core-dedup",
    "core-restore",
];

fn layer_index(layer: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .unwrap_or_else(|| panic!("unknown layer {layer}"))
}

/// Host time one replayed operation spent in each layer, ns.
type LayerCost = [f64; LAYERS.len()];

/// Splits one operation's spans into per-layer cost. A call made as a
/// whole (`dedup.scan`, `restore.op`) is charged to its own layer only
/// for what its call-by-call twin does not account for.
fn op_layer_cost(kind: &str, spans: &[Span], distributed: bool, verify: bool) -> LayerCost {
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let (insert, lookup) = if distributed {
        ("registry.dist3.insert", "registry.dist3.lookup_batch")
    } else {
        ("registry.insert", "registry.lookup_batch")
    };
    let mut c = [0.0; LAYERS.len()];
    c[layer_index("medes-mem")] = sum("mem.image_build");
    match kind {
        "op.pin" => {
            c[layer_index("medes-hash")] = sum("hash.fingerprint");
            c[layer_index("core-registry")] = sum(insert);
        }
        "op.dedup" => {
            let (fp, look, enc) = (sum("hash.fingerprint"), sum(lookup), sum("delta.encode"));
            c[layer_index("medes-hash")] = fp;
            c[layer_index("core-registry")] = look;
            c[layer_index("medes-delta")] = enc;
            c[layer_index("core-dedup")] = (sum("dedup.scan") - fp - look - enc).max(0.0);
            c[layer_index("medes-net")] = sum("dedup.commit");
        }
        "op.restore" => {
            // The platform applies patches only to verify a restore.
            let apply = if verify { sum("delta.apply") } else { 0.0 };
            let (rdma, ckpt) = (sum("net.rdma_batch"), sum("ckpt.restore_time"));
            c[layer_index("medes-delta")] = apply;
            c[layer_index("medes-net")] = rdma;
            c[layer_index("medes-ckpt")] = ckpt;
            c[layer_index("core-restore")] = (sum("restore.op") - apply - rdma - ckpt).max(0.0);
        }
        _ => {}
    }
    c
}

/// Median per-layer cost of each (operation kind, function), with the
/// kind's overall median as the fallback for functions never replayed.
struct OpCosts {
    by_fn: HashMap<(&'static str, u16), LayerCost>,
    overall: HashMap<&'static str, LayerCost>,
}

impl OpCosts {
    fn from_spans(spans: &[Span], distributed: bool, verify: bool) -> Self {
        let mut samples: HashMap<(&'static str, u16), Vec<LayerCost>> = HashMap::new();
        let mut start = 0;
        while start < spans.len() {
            let op = spans[start].op;
            let end = start + spans[start..].iter().take_while(|s| s.op == op).count();
            let root = &spans[start];
            debug_assert_eq!(root.parent, NO_PARENT);
            samples
                .entry((root.name, root.func))
                .or_default()
                .push(op_layer_cost(
                    root.name,
                    &spans[start..end],
                    distributed,
                    verify,
                ));
            start = end;
        }
        let median = |costs: &[&LayerCost]| -> LayerCost {
            let mut m = [0.0; LAYERS.len()];
            for (l, slot) in m.iter_mut().enumerate() {
                let v = sorted(costs.iter().map(|c| c[l]).collect());
                *slot = percentile(&v, 0.5).unwrap_or(0.0);
            }
            m
        };
        let mut by_kind: HashMap<&'static str, Vec<&LayerCost>> = HashMap::new();
        for ((kind, _), v) in &samples {
            by_kind.entry(kind).or_default().extend(v.iter());
        }
        OpCosts {
            by_fn: samples
                .iter()
                .map(|(k, v)| (*k, median(&v.iter().collect::<Vec<_>>())))
                .collect(),
            overall: by_kind.iter().map(|(k, v)| (*k, median(v))).collect(),
        }
    }

    fn cost(&self, kind: &'static str, func: usize) -> LayerCost {
        self.by_fn
            .get(&(kind, func as u16))
            .or_else(|| self.overall.get(kind))
            .copied()
            .unwrap_or([0.0; LAYERS.len()])
    }
}

/// How often the run performed each operation, per function. Dedup ops
/// aborted by faults ran their scan, so they count; base pins are not
/// reported by the platform and are estimated from its demarcation rule
/// (the first dedup of a function, one more per 40, again after every
/// deploy).
struct OpCounts {
    spawn: Vec<f64>,
    pin: Vec<f64>,
    dedup: Vec<f64>,
    restore: Vec<f64>,
}

impl OpCounts {
    fn of(w: &Workload, s: &RunSummary, obs: &ObsCounts) -> Self {
        let total_ops: f64 = s.per_fn.iter().map(|f| f.dedup_ops as f64).sum();
        let abort_share = ratio(obs.dedup_aborts as f64, total_ops);
        OpCounts {
            spawn: s.per_fn.iter().map(|f| f.cold_starts as f64).collect(),
            pin: s
                .per_fn
                .iter()
                .map(|f| {
                    if f.dedup_ops == 0 {
                        0.0
                    } else {
                        ((1 + f.dedup_ops / 40) * (1 + w.deploy_epochs)) as f64
                    }
                })
                .collect(),
            dedup: s
                .per_fn
                .iter()
                .map(|f| f.dedup_ops as f64 * (1.0 + abort_share))
                .collect(),
            restore: s.per_fn.iter().map(|f| f.restores as f64).collect(),
        }
    }

    fn image_builds(&self, verify: bool) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        sum(&self.spawn)
            + sum(&self.pin)
            + sum(&self.dedup)
            + if verify { sum(&self.restore) } else { 0.0 }
    }
}

fn timing(out: &mut Vec<MetricValue>, name: &str, samples_ns: Vec<f64>, ns_per_unit: f64) {
    let v: Vec<f64> = sorted(samples_ns).iter().map(|x| x / ns_per_unit).collect();
    let q = Quartiles::of(&v).unwrap_or(Quartiles::exact(0.0));
    out.push(MetricValue::new(name, q.median, q));
    out.push(MetricValue::exact(
        &format!("{name}.p99"),
        percentile(&v, 0.99).unwrap_or(0.0),
    ));
}

/// `--trace 1`: per-layer metrics from one traced run and the replay.
/// Spans go to `spans_out` when given.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, spans_out: Option<&Path>) -> RunResult {
    let started = Instant::now();
    let mut checks = Vec::new();
    let sub = api::sub_seed(seed, 0);

    let gen_s: Vec<f64> = (0..5).map(|_| api::time_trace_gen(w, sub)).collect();

    // The half-length run is also this process's warm-up.
    let half = Workload {
        trace_secs: w.trace_secs / 2,
        ..w.clone()
    };
    let (wall_half, sum_half, _) = api::run_platform(&api::build_inputs(&half, sub, false));
    let fixed_cold = match w.policy {
        Policy::FixedKeepAlive { .. } => None,
        _ => Some(api::fixed_keepalive_cold_starts(w, sub)),
    };
    let (wall, summary, _) = api::run_platform(&api::build_inputs(w, sub, false));
    let (wall_traced, traced_summary, obs) = api::run_platform(&api::build_inputs(w, sub, true));
    check(
        &mut checks,
        "traced run's report equals the untraced one",
        traced_summary == summary,
    );
    let failed = check_run(w, 0, &summary, &mut checks);

    let mix = ReplayMix {
        fn_weight: {
            let v: Vec<u64> = summary
                .per_fn
                .iter()
                .map(|f| f.dedup_ops + f.restores)
                .collect();
            if v.iter().all(|&x| x == 0) {
                vec![1; v.len()]
            } else {
                v
            }
        },
        registry_entries: summary.registry_peak_entries,
        queue_depth: summary.invocations / 2,
    };
    let budget = (seconds - started.elapsed().as_secs_f64()).max(0.35 * seconds);
    let mut spans = SpanBuf::new();
    let replay = api::replay(w, sub, &mix, Duration::from_secs_f64(budget), &mut spans);
    check(
        &mut checks,
        "replay: call-by-call scans match dedup_scan and every restore verifies",
        replay.mismatches == 0,
    );

    let metrics = layer_metrics(
        w,
        &summary,
        &obs,
        &replay,
        &spans,
        &Measured {
            wall,
            wall_traced,
            wall_half,
            requests_half: sum_half.completed,
            fixed_cold,
            gen_s,
        },
    );
    let mut notes = vec![format!(
        "replay: {} dedup+restore cycles, {} bases, {} registry entries (run peak {}), {} spans",
        replay.cycles,
        replay.bases,
        replay.registry_entries,
        summary.registry_peak_entries,
        spans.spans().len()
    )];
    if let Some(path) = spans_out {
        match write_spans(path, &spans, w.name) {
            Ok(n) => notes.push(format!("wrote {n} spans to {}", path.display())),
            Err(e) => check(&mut checks, format!("write {}: {e}", path.display()), false),
        }
    }
    RunResult {
        workload: w.name.to_string(),
        seed,
        traced: true,
        attempted: summary.invocations as u64,
        failed: failed + replay.mismatches,
        checks,
        digests: vec![format!("{:016x}", summary.digest)],
        metrics,
        notes,
    }
}

fn write_spans(path: &Path, spans: &SpanBuf, workload: &str) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = spans.write_jsonl(&mut out, workload, MAX_EXPORTED_SPANS)?;
    out.flush()?;
    Ok(n)
}

/// Host timings of the traced pass's whole runs.
struct Measured {
    wall: f64,
    wall_traced: f64,
    wall_half: f64,
    requests_half: usize,
    fixed_cold: Option<u64>,
    gen_s: Vec<f64>,
}

fn layer_metrics(
    w: &Workload,
    s: &RunSummary,
    obs: &ObsCounts,
    replay: &ReplayStats,
    spans: &SpanBuf,
    m: &Measured,
) -> Vec<MetricValue> {
    let mut out = Vec::new();
    let distributed = w.registry_owners > 0;
    let counts = OpCounts::of(w, s, obs);
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let dedup_ops: f64 = s.per_fn.iter().map(|f| f.dedup_ops as f64).sum();
    let restores: f64 = s.per_fn.iter().map(|f| f.restores as f64).sum();
    let requests = s.completed as f64;

    timing(
        &mut out,
        "sim.queue_push_pop_ns",
        spans.per_unit_ns("sim.queue_push_pop"),
        1.0,
    );
    out.push(MetricValue::median("trace.gen_s", &m.gen_s));
    out.push(MetricValue::exact(
        "trace.invocations",
        s.invocations as f64,
    ));

    let builds: Vec<&Span> = spans
        .spans()
        .iter()
        .filter(|x| x.name == "mem.image_build")
        .collect();
    timing(
        &mut out,
        "mem.image_build_us",
        builds.iter().map(|x| x.dur_ns() as f64).collect(),
        1e3,
    );
    let built_mib = builds.iter().map(|x| x.units as f64).sum::<f64>() * api::PAGE_BYTES as f64
        / (1u64 << 20) as f64;
    let build_secs = builds.iter().map(|x| x.dur_ns() as f64).sum::<f64>() / 1e9;
    out.push(MetricValue::exact(
        "mem.image_mib_per_s",
        ratio(built_mib, build_secs),
    ));
    out.push(MetricValue::exact(
        "mem.builds_per_run",
        counts.image_builds(w.verify_restores),
    ));

    timing(
        &mut out,
        "hash.fingerprint_ns_per_page",
        spans.per_unit_ns("hash.fingerprint"),
        1.0,
    );
    timing(
        &mut out,
        "hash.sha1_64_ns",
        spans.per_unit_ns("hash.sha1_64"),
        1.0,
    );
    out.push(MetricValue::exact(
        "hash.empty_fp_frac",
        ratio(replay.empty_fingerprints as f64, replay.fingerprints as f64),
    ));

    timing(
        &mut out,
        "delta.encode_ns_per_page",
        spans.per_unit_ns("delta.encode"),
        1.0,
    );
    timing(
        &mut out,
        "delta.apply_ns_per_page",
        spans.per_unit_ns("delta.apply"),
        1.0,
    );
    out.push(MetricValue::exact(
        "delta.patch_bytes_mean",
        ratio(
            replay.patch_bytes as f64,
            (replay.encodes - replay.encode_rejects) as f64,
        ),
    ));
    out.push(MetricValue::exact(
        "delta.patch_reject_frac",
        ratio(replay.encode_rejects as f64, replay.encodes as f64),
    ));

    for (prefix, span_prefix) in [
        ("registry", "registry"),
        ("registry.dist3", "registry.dist3"),
    ] {
        timing(
            &mut out,
            &format!("{prefix}.lookup_ns"),
            spans.per_unit_ns(&format!("{span_prefix}.lookup_batch")),
            1.0,
        );
        timing(
            &mut out,
            &format!("{prefix}.insert_ns"),
            spans.per_unit_ns(&format!("{span_prefix}.insert")),
            1.0,
        );
        timing(
            &mut out,
            &format!("{prefix}.remove_sandbox_us"),
            spans.per_unit_ns(&format!("{span_prefix}.remove_sandbox")),
            1e3,
        );
    }
    out.push(MetricValue::exact(
        "registry.hit_frac",
        ratio(replay.probe_hits as f64, replay.probes as f64),
    ));
    out.push(MetricValue::exact(
        "registry.rpcs",
        obs.registry_rpcs as f64,
    ));
    out.push(MetricValue::exact(
        "registry.peak_entries",
        s.registry_peak_entries as f64,
    ));

    timing(
        &mut out,
        "dedup.scan_us",
        spans.per_unit_ns("dedup.scan"),
        1e3,
    );
    timing(
        &mut out,
        "dedup.commit_us",
        spans.per_unit_ns("dedup.commit"),
        1e3,
    );
    out.push(MetricValue::exact("dedup.ops", dedup_ops));
    let (saved, full) = s.per_fn.iter().fold((0.0, 0.0), |(a, b), f| {
        (
            a + f.dedup_ops as f64 * f.saved_paper_bytes_mean,
            b + f.dedup_ops as f64 * f.memory_bytes,
        )
    });
    out.push(MetricValue::exact("dedup.saved_frac", ratio(saved, full)));
    out.push(MetricValue::exact(
        "dedup.same_fn_frac",
        ratio(
            s.same_fn_pages as f64,
            (s.same_fn_pages + s.cross_fn_pages) as f64,
        ),
    ));

    timing(
        &mut out,
        "restore.op_us",
        spans.per_unit_ns("restore.op"),
        1e3,
    );
    out.push(MetricValue::exact("restore.ops", restores));
    out.push(MetricValue::exact(
        "restore.dedup_start_mean",
        ratio(s.dedup_startup_sum_us, s.dedup_starts as f64) / 1e3,
    ));
    let phase = |pick: &dyn Fn(&(f64, f64, f64)) -> f64| -> f64 {
        let weighted: f64 = s
            .per_fn
            .iter()
            .map(|f| f.restores as f64 * pick(&f.restore_us_mean))
            .sum();
        ratio(weighted, restores) / 1e3
    };
    out.push(MetricValue::exact("restore.sim_base_read", phase(&|t| t.0)));
    out.push(MetricValue::exact("restore.sim_compute", phase(&|t| t.1)));
    out.push(MetricValue::exact("restore.sim_ckpt", phase(&|t| t.2)));
    out.push(MetricValue::exact(
        "restore.fallback_frac",
        ratio(
            s.fallback_cold_starts as f64,
            restores + s.fallback_cold_starts as f64,
        ),
    ));
    timing(
        &mut out,
        "pagecache.lookup_ns",
        spans.per_unit_ns("pagecache.lookup"),
        1.0,
    );
    timing(
        &mut out,
        "pagecache.insert_ns",
        spans.per_unit_ns("pagecache.insert"),
        1.0,
    );
    out.push(MetricValue::exact(
        "pagecache.hit_frac",
        ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
    ));
    out.push(MetricValue::exact(
        "pagecache.invalidations",
        s.cache_invalidations as f64,
    ));

    timing(
        &mut out,
        "net.rdma_batch_ns",
        spans.per_unit_ns("net.rdma_batch"),
        1.0,
    );
    timing(&mut out, "net.rpc_ns", spans.per_unit_ns("net.rpc"), 1.0);
    out.push(MetricValue::exact(
        "net.rdma_gib",
        s.rdma_bytes as f64 / (1u64 << 30) as f64,
    ));
    out.push(MetricValue::exact("net.retries", s.net_retries as f64));
    out.push(MetricValue::exact("net.failures", s.net_failures as f64));

    timing(
        &mut out,
        "ckpt.from_image_us",
        spans.per_unit_ns("ckpt.from_image"),
        1e3,
    );
    timing(
        &mut out,
        "ckpt.restore_time_ns",
        spans.per_unit_ns("ckpt.restore_time"),
        1.0,
    );

    timing(
        &mut out,
        "policy.solve_ns",
        spans.per_unit_ns("policy.solve"),
        1.0,
    );
    out.push(MetricValue::exact(
        "policy.cold_vs_fixed",
        m.fixed_cold
            .map_or(1.0, |fixed| ratio(s.cold_starts as f64, fixed as f64)),
    ));

    out.push(MetricValue::exact(
        "obs.overhead_frac",
        (m.wall_traced - m.wall) / m.wall,
    ));
    out.push(MetricValue::exact("obs.spans", obs.spans as f64));
    timing(&mut out, "obs.noop_ns", spans.per_unit_ns("obs.noop"), 1.0);

    out.push(MetricValue::exact(
        "platform.host_us_per_req",
        m.wall * 1e6 / requests,
    ));
    out.push(MetricValue::exact("platform.spawned", s.spawned as f64));
    out.push(MetricValue::exact("platform.evictions", s.evictions as f64));
    out.push(MetricValue::exact(
        "platform.wall_growth_exp",
        (m.wall / m.wall_half).ln() / (requests / m.requests_half as f64).ln(),
    ));

    // Share table: Σ (median layer cost per operation × operations in
    // the run) / wall_s, plus the fixed per-event and per-tick costs.
    let costs = OpCosts::from_spans(spans.spans(), distributed, w.verify_restores);
    let mut layer_ns = [0.0; LAYERS.len()];
    let kinds: [(&'static str, &[f64]); 4] = [
        ("op.spawn", &counts.spawn),
        ("op.pin", &counts.pin),
        ("op.dedup", &counts.dedup),
        ("op.restore", &counts.restore),
    ];
    for (kind, per_fn) in kinds {
        for (f, &n) in per_fn.iter().enumerate().filter(|(_, &n)| n > 0.0) {
            for (slot, c) in layer_ns.iter_mut().zip(costs.cost(kind, f)) {
                *slot += n * c;
            }
        }
    }
    let p50 = |name: &str| {
        out.iter()
            .find(|v| v.def.name == name)
            .map_or(0.0, |v| v.value)
    };
    // Lower bound on events: arrival and completion of every request,
    // one completion event per spawn, restore and dedup op.
    let events = 2.0 * requests + s.spawned as f64 + restores + total(&counts.dedup);
    layer_ns[layer_index("medes-sim")] += events * p50("sim.queue_push_pop_ns");
    if !matches!(w.policy, Policy::FixedKeepAlive { .. }) {
        // The controller re-solves every function's targets each 10 s tick.
        let solves = (s.sim_secs / 10.0 + 1.0) * s.per_fn.len() as f64;
        layer_ns[layer_index("medes-policy")] += solves * p50("policy.solve_ns");
    }
    // One disabled-handle call per span the traced run recorded.
    layer_ns[layer_index("medes-obs")] += obs.spans as f64 * p50("obs.noop_ns");
    let shares: Vec<f64> = layer_ns.iter().map(|ns| ns / 1e9 / m.wall).collect();
    out.push(MetricValue::exact(
        "platform.residual_frac",
        1.0 - shares.iter().sum::<f64>(),
    ));
    for (layer, share) in LAYERS.iter().zip(&shares) {
        out.push(MetricValue::exact(&format!("share.{layer}"), *share));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            func: 2,
            units: 1,
        }
    }

    #[test]
    fn whole_calls_are_charged_only_for_what_their_parts_leave() {
        let spans = [
            span("op.dedup", 0, 1000, NO_PARENT, 1),
            span("mem.image_build", 0, 100, 0, 1),
            span("dedup.scan", 100, 500, 0, 1),
            span("dedup.parts", 500, 900, 0, 1),
            span("hash.fingerprint", 500, 600, 3, 1),
            span("registry.lookup_batch", 600, 650, 3, 1),
            span("registry.dist3.lookup_batch", 650, 750, 3, 1),
            span("delta.encode", 750, 800, 3, 1),
            span("delta.encode", 800, 900, 3, 1),
            span("dedup.commit", 900, 1000, 0, 1),
        ];
        let c = op_layer_cost("op.dedup", &spans, false, true);
        assert_eq!(c[layer_index("medes-mem")], 100.0);
        assert_eq!(c[layer_index("medes-hash")], 100.0);
        assert_eq!(c[layer_index("core-registry")], 50.0);
        assert_eq!(c[layer_index("medes-delta")], 150.0);
        assert_eq!(c[layer_index("core-dedup")], 100.0); // 400 − 300
        assert_eq!(c[layer_index("medes-net")], 100.0);
        // With the distributed registry the other lookup span is charged.
        let d = op_layer_cost("op.dedup", &spans, true, true);
        assert_eq!(d[layer_index("core-registry")], 100.0);
        assert_eq!(d[layer_index("core-dedup")], 50.0);

        let costs = OpCosts::from_spans(&spans, false, true);
        assert_eq!(costs.cost("op.dedup", 2), c);
        // A function never replayed falls back to the kind's median.
        assert_eq!(costs.cost("op.dedup", 7), c);
        assert_eq!(costs.cost("op.restore", 2), [0.0; LAYERS.len()]);
    }
}
