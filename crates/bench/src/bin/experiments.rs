//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <id>... [--quick] [--results <dir>] [--obs] [--faults rate=<f>[,seed=<u64>]] [--cache <MiB>] [--shards <n>] [--workers <n>]
//! experiments all [--quick]
//! experiments list
//! experiments trace summarize <trace.jsonl> [--top <n>]
//! experiments trace analyze <trace.jsonl> [--top <n>] [--anomaly-k <f>] [--folded <path>]
//! ```
//!
//! `--obs` turns on the `medes-obs` tracing layer: every platform run
//! also exports a JSONL span trace into the results directory, which
//! `trace summarize` renders as a per-phase latency breakdown and
//! `trace analyze` reconstructs into causal trees — critical paths,
//! per-phase self times, anomalous ops, and a folded-stacks file
//! (`<trace>.folded` by default) for flamegraph rendering.
//! `--sample <n>` keeps only one in `n` trace trees (deterministic
//! head sampling; SLO accounting still sees every request).
//!
//! `--faults` injects a deterministic fault plan (node crashes, RDMA
//! link-fault windows, RPC drops) into every cluster run, synthesized
//! from the seed at the experiment's scale. The `chaos` experiment
//! sweeps fault rates on its own and ignores this flag.
//!
//! `--cache <MiB>` gives every node a base-page cache of that capacity
//! in front of the restore read path (default 0: no cache). The
//! `cache` experiment sweeps capacities on its own and ignores this
//! flag.
//!
//! `--shards <n>` and `--workers <n>` set the fingerprint-registry
//! shard count and the dedup scan worker-pool size (default 1 each) in
//! every cluster run; reports are bit-identical at any value. The
//! `pipeline` experiment sweeps both on its own and ignores these
//! flags. All flag combinations are validated through
//! `PlatformConfig::builder`, so nonsense (zero shards, zero workers,
//! cache larger than node memory) is rejected up front instead of
//! mutating config fields ad hoc.
//!
//! `--registry-owners <n>` places the fingerprint registry's shards on
//! the first `n` worker nodes (the distributed placement, DESIGN.md §15)
//! in every cluster run; registry traffic is routed as priced RPCs and
//! reported through obs counters, while the `RunReport` stays
//! byte-identical to the in-process placement. The `registry` experiment
//! sweeps placements on its own and ignores this flag.
//!
//! `--content-model` switches every cluster run to the calibrated
//! entropy-mixture content model (DESIGN.md §13): per-region
//! low/medium/high-entropy page mixes with dispersed per-instance
//! noise. Figure sweeps assert paper-shaped (non-flat) orderings when
//! it is on; without the flag every experiment stays byte-identical
//! to the legacy content model. The new `scenarios` experiment runs
//! five adversarial production scenario classes (rolling deploys,
//! flash crowds, tenant skew, heterogeneous node memory, preemption
//! waves) against Medes and the keep-alive baselines, self-asserting
//! determinism and the expected orderings.
//!
//! `--stream` (with `--obs`) streams spans to the trace file as they
//! finish, bounding span memory to the ring; `--timeseries <ms>` turns
//! on the deterministic sim-time sampler, exporting per-metric series
//! as `.timeseries.jsonl` next to the trace. `trace timeline` renders
//! those series with min/p50/p95/max tables and monotonic-leak
//! detection; `trace diff <base> <cand>` compares two run exports and
//! exits 1 when any metric regressed past `--threshold` (relative,
//! default 0.10).

use medes_bench::common::{ExpConfig, FaultSpec};
use medes_bench::{analyze, attribute, diff, experiments, summarize, timeline};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>... [--quick] [--results <dir>] [--obs] [--labels] [--sample <n>] [--stream] [--timeseries <ms>] [--faults rate=<f>[,seed=<u64>]] [--cache <MiB>] [--shards <n>] [--workers <n>] [--registry-owners <n>] [--content-model]\n       experiments all [--quick]\n       experiments list\n       experiments trace summarize <trace.jsonl> [--top <n>]\n       experiments trace analyze <trace.jsonl> [--top <n>] [--anomaly-k <f>] [--folded <path>]\n       experiments trace timeline <trace.timeseries.jsonl> [--group-by <label>]\n       experiments trace diff <base.jsonl> <cand.jsonl> [--threshold <f>] [--group-by <label>]\n       experiments trace attribute <trace.jsonl> [--top <n>]\nids: {}",
        experiments::ALL.join(", ")
    );
    std::process::exit(2);
}

/// `trace summarize <file.jsonl> [--top <n>]`.
fn run_summarize(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                top = n;
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        usage();
    }
    for path in files {
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let report = summarize::summarize(&name, &contents, top);
        println!("{}", report.text());
    }
}

/// `trace analyze <file.jsonl> [--top <n>] [--anomaly-k <f>] [--folded <path>]`.
fn run_analyze(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut top = 10usize;
    let mut anomaly_k = 2.0f64;
    let mut folded_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                top = n;
            }
            "--anomaly-k" => {
                let Some(k) = it.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                anomaly_k = k;
            }
            "--folded" => {
                let Some(p) = it.next() else { usage() };
                folded_path = Some(PathBuf::from(p));
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        usage();
    }
    for path in files {
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let (report, folded) = analyze::analyze(&name, &contents, anomaly_k, top);
        println!("{}", report.text());
        let out = folded_path
            .clone()
            .unwrap_or_else(|| path.with_extension("folded"));
        match std::fs::write(&out, &folded) {
            Ok(()) => println!("folded stacks -> {}", out.display()),
            Err(e) => eprintln!("cannot write {}: {e}", out.display()),
        }
    }
}

/// `trace timeline <file.timeseries.jsonl>... [--group-by <label>]`.
fn run_timeline(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut group_by: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--group-by" => {
                let Some(l) = it.next() else { usage() };
                group_by = Some(l.clone());
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        usage();
    }
    for path in files {
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let (report, _leaks) = timeline::timeline_by(&name, &contents, group_by.as_deref());
        println!("{}", report.text());
    }
}

/// `trace attribute <trace.jsonl> [--top <n>]`. Exits 1
/// when any attribution is found — the drill-down doubles as a gate.
fn run_attribute(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                top = n;
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    let [trace_path] = files.as_slice() else {
        usage();
    };
    let trace = match std::fs::read_to_string(trace_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {}: {e}", trace_path.display());
            std::process::exit(1);
        }
    };
    let name = trace_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| trace_path.display().to_string());
    let (report, attributions) = attribute::attribute(&name, &trace, top);
    println!("{}", report.text());
    if !attributions.is_empty() {
        std::process::exit(1);
    }
}

/// Loads one `trace diff` side: the trace itself plus its
/// `.timeseries.jsonl` sibling when present.
fn load_diff_side(path: &Path) -> diff::TraceExport {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let ts = std::fs::read_to_string(path.with_extension("timeseries.jsonl")).ok();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    diff::TraceExport::load(&name, &contents, ts.as_deref())
}

/// `trace diff <base.jsonl> <cand.jsonl> [--threshold <f>]`. Exits 1
/// when any metric regressed past the thresholds.
fn run_diff(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut th = diff::DiffThresholds::default();
    let mut group_by: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let Some(t) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    usage();
                };
                th.rel = t;
            }
            "--group-by" => {
                let Some(l) = it.next() else { usage() };
                group_by = Some(l.clone());
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    let [base, cand] = files.as_slice() else {
        usage();
    };
    let (report, regressions) = diff::diff_by(
        &load_diff_side(base),
        &load_diff_side(cand),
        &th,
        group_by.as_deref(),
    );
    println!("{}", report.text());
    if !regressions.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        match args.get(1).map(String::as_str) {
            Some("summarize") => return run_summarize(&args[2..]),
            Some("analyze") => return run_analyze(&args[2..]),
            Some("timeline") => return run_timeline(&args[2..]),
            Some("diff") => return run_diff(&args[2..]),
            Some("attribute") => return run_attribute(&args[2..]),
            _ => usage(),
        }
    }
    let mut ids: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::full();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--obs" => cfg.obs = true,
            "--labels" => cfg.labels = true,
            "--sample" => {
                let Some(n) = it.next().and_then(|s| s.parse::<u64>().ok()) else {
                    usage();
                };
                cfg.sample = Some(n);
            }
            "--stream" => cfg.stream = true,
            "--content-model" => cfg.content_model = true,
            "--timeseries" => {
                let Some(ms) = it.next().and_then(|s| s.parse::<u64>().ok()) else {
                    usage();
                };
                cfg.timeseries_ms = Some(ms);
            }
            "--results" => {
                let Some(dir) = it.next() else { usage() };
                cfg.results_dir = PathBuf::from(dir);
            }
            "--faults" => {
                let Some(spec) = it.next().and_then(|s| FaultSpec::parse(s)) else {
                    usage();
                };
                cfg.faults = Some(spec);
            }
            "--cache" => {
                let Some(mib) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                cfg.cache_mib = mib;
            }
            "--shards" => {
                let Some(n) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                cfg.shards = n;
            }
            "--workers" => {
                let Some(n) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                cfg.workers = n;
            }
            "--registry-owners" => {
                let Some(n) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                cfg.registry_owners = Some(n);
            }
            "list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    // Validate the flag combination once, up front, through the
    // config builder: a bad mix fails with a clear message instead of
    // panicking deep inside an experiment.
    if let Err(e) = cfg.try_platform() {
        eprintln!("invalid flag combination: {e}");
        std::process::exit(2);
    }
    // An alias runs its id's experiment (fig11 is produced by the
    // fig10 run): run each experiment once, however it was named.
    let mut seen: Vec<&str> = Vec::new();
    ids.retain(|id| match experiments::resolve(id) {
        Some((canon, _)) if seen.contains(&canon) => false,
        Some((canon, _)) => {
            seen.push(canon);
            true
        }
        None => true,
    });

    for id in &ids {
        let t0 = Instant::now();
        match experiments::run(id, &cfg) {
            Some(report) => {
                report.emit(&cfg.results_dir);
                let wall_s = t0.elapsed().as_secs_f64();
                eprintln!("[{id} finished in {wall_s:.1}s]\n");
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
}
