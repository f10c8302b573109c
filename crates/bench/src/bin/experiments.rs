//! Experiment runner: regenerates every table and figure of the paper,
//! and renders the JSONL traces those runs export. [`usage`] is the
//! synopsis; README.md walks through each flag:
//!
//! * `--quick` shrinks workloads to smoke-test size;
//! * `--obs` streams a JSONL span trace per platform run to the results
//!   directory; `--timeseries <ms>` (ms > 0, only with `--obs`) adds the
//!   sampled series to the trace's tail;
//! * `--faults`, `--cache` and `--content-model` set the fault plan,
//!   the base-page cache and the content model of every cluster run.
//!
//! Every flag combination is validated through
//! `PlatformConfig::builder` before anything runs, so nonsense (a cache
//! larger than node memory) is a usage error, not a panic deep inside
//! an experiment.
//!
//! `trace report <trace.jsonl>` renders one run export and writes its
//! folded stacks to `<trace>.folded`; it exits 1 when it finds a
//! tail-latency attribution or, with `--against <base.jsonl>`, a
//! regression (`medes_bench::trace`).
//!
//! Exit codes: 2 for a usage error — an unknown id, subcommand or
//! `--flag`, a flag missing its value, an invalid combination
//! (`--timeseries` without `--obs` among them) — before
//! any experiment starts; 1 for an unreadable trace or an unwritable
//! folded-stacks file.

use medes_bench::common::{ExpConfig, FaultSpec};
use medes_bench::experiments::{self, RunFn};
use medes_bench::trace;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>... [--quick] [--results <dir>] [--obs] [--timeseries <ms>] [--faults rate=<f>[,seed=<u64>]] [--cache <MiB>] [--content-model]\n       experiments all [--quick]\n       experiments list\n       experiments trace report <trace.jsonl> [--against <base.jsonl>]\nids: {}",
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

/// Fails the process with exit code 1 and `msg`.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Loads one run export, labeled with its path.
fn load(path: &Path) -> trace::Export {
    let label = path.display().to_string();
    let trace =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {label}: {e}")));
    trace::load(&label, &trace)
}

/// `trace report <trace.jsonl> [--against <base.jsonl>]`: prints the
/// report, writes `<trace>.folded`, and exits 1 when the report's gate
/// fails.
fn run_trace(args: &[String]) {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("report") {
        usage();
    }
    let (mut file, mut against) = (None, None);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--against" => against = Some(value::<PathBuf>(&mut it)),
            flag if flag.starts_with("--") => bad_word("unknown flag", flag),
            _ if file.is_none() => file = Some(Path::new(a)),
            extra => bad_word("unexpected operand", extra),
        }
    }
    let Some(path) = file else { usage() };
    let run = load(path);
    let base = against.as_deref().map(load);
    let (report, findings) = trace::report(&run, base.as_ref());
    println!("{}", report.text());
    let folded = path.with_extension("folded");
    if let Err(e) = std::fs::write(&folded, run.forest.folded_stacks()) {
        fail(format!("cannot write {}: {e}", folded.display()));
    }
    println!("folded stacks -> {}", folded.display());
    std::process::exit(findings.gate().into());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
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
            "--content-model" => cfg.content_model = true,
            "--timeseries" => cfg.timeseries_ms = Some(value(&mut it)),
            "--results" => cfg.results_dir = value(&mut it),
            "--cache" => cfg.cache_mib = value(&mut it),
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
    // --timeseries shapes an --obs trace; without one, or with a zero
    // sampling period, it would be accepted and change nothing.
    match cfg.timeseries_ms {
        Some(_) if !cfg.obs => bad_word("needs --obs", "--timeseries"),
        Some(0) => bad_word("sampling period must be positive", "--timeseries 0"),
        _ => {}
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
