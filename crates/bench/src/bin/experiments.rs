//! Experiment runner: regenerates every table and figure of the paper,
//! and renders the JSONL traces those runs export. [`usage`] is the
//! synopsis — every subcommand and every flag; this header says what
//! the flags mean.
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
//! in front of the restore read path (default 0: no cache).
//!
//! `--shards <n>` and `--workers <n>` set the fingerprint-registry
//! shard count and the dedup scan worker-pool size (default 1 each) in
//! every cluster run; reports are bit-identical at any value. All flag
//! combinations are validated through `PlatformConfig::builder`, so
//! nonsense (zero shards, zero workers, cache larger than node memory)
//! is rejected up front instead of mutating config fields ad hoc.
//!
//! `--registry-owners <n>` places the fingerprint registry's shards on
//! the first `n` worker nodes (the distributed placement, DESIGN.md §15)
//! in every cluster run; registry traffic is routed as priced RPCs and
//! reported through obs counters, while the `RunReport` stays
//! byte-identical to the in-process placement.
//!
//! `--content-model` switches every cluster run to the calibrated
//! entropy-mixture content model (DESIGN.md §13): per-region
//! low/medium/high-entropy page mixes with dispersed per-instance
//! noise. Figure sweeps assert paper-shaped (non-flat) orderings when
//! it is on; without the flag every experiment stays byte-identical
//! to the legacy content model. The `scenarios` experiment runs five
//! adversarial production scenario classes (rolling deploys, flash
//! crowds, tenant skew, heterogeneous node memory, preemption waves)
//! against Medes and the keep-alive baselines, self-asserting
//! determinism and the expected orderings.
//!
//! `--stream` (with `--obs`) streams spans to the trace file as they
//! finish, bounding span memory to the ring; `--timeseries <ms>` turns
//! on the deterministic sim-time sampler, exporting per-metric series
//! as `.timeseries.jsonl` next to the trace. `trace timeline` renders
//! those series with min/p50/p95/max tables and monotonic-leak
//! detection; `trace diff <base> <cand>` compares two run exports and
//! exits 1 when any metric regressed past `--threshold` (relative,
//! default 0.10); `trace attribute` exits 1 when it finds anything to
//! pin the tail on.
//!
//! Usage errors exit 2 before any experiment starts: an unknown id, an
//! unknown `--flag`, a flag missing its value, an invalid combination.

use medes_bench::common::{ExpConfig, FaultSpec};
use medes_bench::experiments::{self, RunFn};
use medes_bench::{analyze, attribute, diff, summarize, timeline};
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>... [--quick] [--results <dir>] [--obs] [--labels] [--sample <n>] [--stream] [--timeseries <ms>] [--faults rate=<f>[,seed=<u64>]] [--cache <MiB>] [--shards <n>] [--workers <n>] [--registry-owners <n>] [--content-model]\n       experiments all [--quick]\n       experiments list\n       experiments trace summarize <trace.jsonl> [--top <n>]\n       experiments trace analyze <trace.jsonl> [--top <n>] [--anomaly-k <f>] [--folded <path>]\n       experiments trace timeline <trace.timeseries.jsonl> [--group-by <label>]\n       experiments trace diff <base.jsonl> <cand.jsonl> [--threshold <f>] [--group-by <label>]\n       experiments trace attribute <trace.jsonl> [--top <n>]\nids: {}",
        experiments::ALL.join(", ")
    );
    std::process::exit(2);
}

/// A usage error that names the offending word first.
fn bad_word(what: &str, word: &str) -> ! {
    eprintln!("{what}: {word}");
    usage()
}

/// The next argument parsed as a flag's value; missing or malformed is
/// a usage error.
fn value<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a String>) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// A `trace` subcommand's arguments: file operands and flag values.
struct TraceArgs<'a> {
    files: Vec<&'a Path>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> TraceArgs<'a> {
    /// Splits `args` into files and the values of the (value-taking)
    /// flags the subcommand `accepts`. Any other `--word`, or a flag
    /// with no value, is a usage error — not a file to fail to read.
    fn parse(args: &'a [String], accepts: &[&str]) -> Self {
        let mut parsed = TraceArgs {
            files: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if accepts.contains(&a.as_str()) {
                let Some(v) = it.next() else { usage() };
                parsed.flags.push((a, v));
            } else if a.starts_with("--") {
                bad_word("unknown flag", a);
            } else {
                parsed.files.push(Path::new(a));
            }
        }
        parsed
    }

    /// The value of `flag` as given (the last one wins).
    fn get(&self, flag: &str) -> Option<&'a str> {
        let given = self.flags.iter().rev().find(|(f, _)| *f == flag);
        given.map(|&(_, v)| v)
    }

    /// The parsed value of `flag`, or `default` when it was not given.
    fn get_or<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag)
            .map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    }
}

/// Reads one trace file, exiting 1 when it cannot be read; returns its
/// display name (the file name) and its contents.
fn read_named(path: &Path) -> (String, String) {
    let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    let name = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    (name, contents)
}

/// `trace summarize <file.jsonl>... [--top <n>]`.
fn run_summarize(args: &[String]) {
    let args = TraceArgs::parse(args, &["--top"]);
    let top = args.get_or("--top", 10usize);
    if args.files.is_empty() {
        usage();
    }
    for &path in &args.files {
        let (name, contents) = read_named(path);
        println!("{}", summarize::summarize(&name, &contents, top).text());
    }
}

/// `trace analyze <file.jsonl>... [--top <n>] [--anomaly-k <f>] [--folded <path>]`.
fn run_analyze(args: &[String]) {
    let args = TraceArgs::parse(args, &["--top", "--anomaly-k", "--folded"]);
    let top = args.get_or("--top", 10usize);
    let anomaly_k = args.get_or("--anomaly-k", 2.0f64);
    if args.files.is_empty() {
        usage();
    }
    for &path in &args.files {
        let (name, contents) = read_named(path);
        let (report, folded) = analyze::analyze(&name, &contents, anomaly_k, top);
        println!("{}", report.text());
        let out = args
            .get("--folded")
            .map_or_else(|| path.with_extension("folded"), Into::into);
        match std::fs::write(&out, &folded) {
            Ok(()) => println!("folded stacks -> {}", out.display()),
            Err(e) => eprintln!("cannot write {}: {e}", out.display()),
        }
    }
}

/// `trace timeline <file.timeseries.jsonl>... [--group-by <label>]`.
fn run_timeline(args: &[String]) {
    let args = TraceArgs::parse(args, &["--group-by"]);
    if args.files.is_empty() {
        usage();
    }
    for &path in &args.files {
        let (name, contents) = read_named(path);
        let (report, _leaks) = timeline::timeline_by(&name, &contents, args.get("--group-by"));
        println!("{}", report.text());
    }
}

/// `trace attribute <trace.jsonl> [--top <n>]`. Exits 1
/// when any attribution is found — the drill-down doubles as a gate.
fn run_attribute(args: &[String]) {
    let args = TraceArgs::parse(args, &["--top"]);
    let [path] = args.files.as_slice() else {
        usage();
    };
    let (name, trace) = read_named(path);
    let (report, attributions) = attribute::attribute(&name, &trace, args.get_or("--top", 10));
    println!("{}", report.text());
    if !attributions.is_empty() {
        std::process::exit(1);
    }
}

/// Loads one `trace diff` side: the trace itself plus its
/// `.timeseries.jsonl` sibling when present.
fn load_diff_side(path: &Path) -> diff::TraceExport {
    let (name, contents) = read_named(path);
    let ts = std::fs::read_to_string(path.with_extension("timeseries.jsonl")).ok();
    diff::TraceExport::load(&name, &contents, ts.as_deref())
}

/// `trace diff <base.jsonl> <cand.jsonl> [--threshold <f>] [--group-by <label>]`.
/// Exits 1 when any metric regressed past the thresholds.
fn run_diff(args: &[String]) {
    let args = TraceArgs::parse(args, &["--threshold", "--group-by"]);
    let mut th = diff::DiffThresholds::default();
    th.rel = args.get_or("--threshold", th.rel);
    let [base, cand] = args.files.as_slice() else {
        usage();
    };
    let (report, regressions) = diff::diff_by(
        &load_diff_side(base),
        &load_diff_side(cand),
        &th,
        args.get("--group-by"),
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
    // Every word is resolved here, before the first experiment starts:
    // a mistyped id or flag must not cost a full run. An alias runs its
    // id's experiment (fig11 is produced by the fig10 run), and each
    // experiment runs once, however often and however it was named.
    let mut runs: Vec<(&'static str, RunFn)> = Vec::new();
    let mut add = |run: (&'static str, RunFn)| {
        if !runs.iter().any(|&(id, _)| id == run.0) {
            runs.push(run);
        }
    };
    let mut cfg = ExpConfig::full();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--obs" => cfg.obs = true,
            "--labels" => cfg.labels = true,
            "--stream" => cfg.stream = true,
            "--content-model" => cfg.content_model = true,
            "--sample" => cfg.sample = Some(value(&mut it)),
            "--timeseries" => cfg.timeseries_ms = Some(value(&mut it)),
            "--results" => cfg.results_dir = value(&mut it),
            "--cache" => cfg.cache_mib = value(&mut it),
            "--shards" => cfg.shards = value(&mut it),
            "--workers" => cfg.workers = value(&mut it),
            "--registry-owners" => cfg.registry_owners = Some(value(&mut it)),
            "--faults" => {
                let Some(spec) = it.next().and_then(|s| FaultSpec::parse(s)) else {
                    usage();
                };
                cfg.faults = Some(spec);
            }
            "list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => {
                for &(id, _, run) in experiments::TABLE {
                    add((id, run));
                }
            }
            flag if flag.starts_with("--") => bad_word("unknown flag", flag),
            name => match experiments::resolve(name) {
                Some(run) => add(run),
                None => bad_word("unknown experiment id", name),
            },
        }
    }
    if runs.is_empty() {
        usage();
    }
    // Validate the flag combination once, up front, through the
    // config builder: a bad mix fails with a clear message instead of
    // panicking deep inside an experiment.
    if let Err(e) = cfg.try_platform() {
        eprintln!("invalid flag combination: {e}");
        std::process::exit(2);
    }

    for (id, run) in runs {
        let t0 = Instant::now();
        run(&cfg).emit(&cfg.results_dir);
        let wall_s = t0.elapsed().as_secs_f64();
        eprintln!("[{id} finished in {wall_s:.1}s]\n");
    }
}
