//! Experiment runner: regenerates every table and figure of the paper,
//! and renders the JSONL traces those runs export. [`usage`] is the
//! synopsis; README.md walks through each flag:
//!
//! * `--quick` shrinks workloads to smoke-test size;
//! * `--obs` exports a JSONL span trace per platform run; `--labels`
//!   adds labeled series, exemplars and SLO violators, `--sample <n>`
//!   keeps one trace tree in `n`, `--stream` writes spans as they
//!   finish, `--timeseries <ms>` samples series into a
//!   `.timeseries.jsonl` sibling;
//! * `--faults`, `--cache`, `--shards`, `--workers`,
//!   `--registry-owners` and `--content-model` set the fault plan, the
//!   base-page cache, the registry shards, the scan workers, the
//!   registry placement and the content model of every cluster run.
//!
//! Every flag combination is validated through
//! `PlatformConfig::builder` before anything runs, so nonsense (zero
//! shards or workers, a cache larger than node memory) is a usage
//! error, not a panic deep inside an experiment.
//!
//! `trace report <trace.jsonl>` renders one run export (and its
//! `.timeseries.jsonl` sibling) and writes its folded stacks to
//! `<trace>.folded`; it exits 1 when it finds a tail-latency
//! attribution or, with `--against <base.jsonl>`, a regression
//! (`medes_bench::trace`).
//!
//! Exit codes: 2 for a usage error — an unknown id, subcommand or
//! `--flag`, a flag missing its value, an invalid combination — before
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
        "usage: experiments <id>... [--quick] [--results <dir>] [--obs] [--labels] [--sample <n>] [--stream] [--timeseries <ms>] [--faults rate=<f>[,seed=<u64>]] [--cache <MiB>] [--shards <n>] [--workers <n>] [--registry-owners <n>] [--content-model]\n       experiments all [--quick]\n       experiments list\n       experiments trace report <trace.jsonl> [--against <base.jsonl>] [--group-by <label>]\nids: {}",
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

/// Loads one run export — the trace, plus its `.timeseries.jsonl`
/// sibling when one exists — labeled with its path.
fn load(path: &Path) -> trace::Export {
    let label = path.display().to_string();
    let trace =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {label}: {e}")));
    let series = std::fs::read_to_string(path.with_extension("timeseries.jsonl")).ok();
    trace::load(&label, &trace, series.as_deref())
}

/// `trace report <trace.jsonl> [--against <base.jsonl>] [--group-by
/// <label>]`: prints the report, writes `<trace>.folded`, and exits 1
/// when the report's gate fails.
fn run_trace(args: &[String]) {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("report") {
        usage();
    }
    let (mut file, mut against, mut group_by) = (None, None, None);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--against" => against = Some(value::<PathBuf>(&mut it)),
            "--group-by" => group_by = Some(value::<String>(&mut it)),
            flag if flag.starts_with("--") => bad_word("unknown flag", flag),
            _ if file.is_none() => file = Some(Path::new(a)),
            extra => bad_word("unexpected operand", extra),
        }
    }
    let Some(path) = file else { usage() };
    let run = load(path);
    let base = against.as_deref().map(load);
    let (report, findings) = trace::report(&run, base.as_ref(), group_by.as_deref());
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
