//! Command line: `run`, `compare`, `list`.

use crate::result::{merge_into_file, Stamp};
use crate::workloads::{self, DEFAULT_SEED};
use crate::{bench, compare, manifest};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  medes-benchmark run --workload <paper|dedup|fleet|churn> [--seed <u64>] [--seconds <n>]
                      [--trace <0|1>] [--smoke] [--out <result-set.json>] [--commit <hash>]
  medes-benchmark compare <base.json> <candidate.json> [--benchmark-json <path>]
  medes-benchmark layers [--seed <u64>] <result-set.json>...   (markdown table of the traced runs)
  medes-benchmark list
  medes-benchmark manifest        (prints BENCHMARK.json)";

/// Exit code for a malformed command line.
const EXIT_USAGE: i32 = 2;

fn usage(problem: &str) -> i32 {
    eprintln!("{problem}\n{USAGE}");
    EXIT_USAGE
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("layers") => layers_cmd(&args[1..]),
        Some("list") => {
            for w in workloads::all() {
                println!("{:<6} {}", w.name, w.why);
            }
            0
        }
        Some("manifest") => {
            println!("{}", manifest::benchmark_json().to_string_pretty());
            0
        }
        _ => usage("expected a subcommand"),
    }
}

/// `--flag value` pairs and bare words of a command line.
struct Parsed<'a> {
    flags: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    words: Vec<&'a str>,
}

fn parse<'a>(args: &'a [String], switches: &[&str]) -> Result<Parsed<'a>, String> {
    let mut p = Parsed {
        flags: Vec::new(),
        switches: Vec::new(),
        words: Vec::new(),
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if switches.contains(&a) {
            p.switches.push(a);
        } else if a.starts_with("--") {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            p.flags.push((a, v));
        } else {
            p.words.push(a);
        }
    }
    Ok(p)
}

impl<'a> Parsed<'a> {
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    fn unknown(&self, known: &[&str]) -> Option<&'a str> {
        self.flags
            .iter()
            .map(|(f, _)| *f)
            .find(|f| !known.contains(f))
    }
}

/// Where the traced pass leaves its spans.
fn spans_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"))
}

fn run(args: &[String]) -> i32 {
    let p = match parse(args, &["--smoke"]) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if let Some(f) = p.unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--commit",
    ]) {
        return usage(&format!("unknown flag {f}"));
    }
    let Some(name) = p.get("--workload") else {
        return usage("--workload is required");
    };
    let Some(mut workload) = workloads::by_name(name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let Ok(seed) = p.get("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed must be an unsigned integer");
    };
    let seconds = match p
        .get("--seconds")
        .map_or(Ok(manifest::RUN_SECONDS as f64), str::parse::<f64>)
    {
        Ok(s) if s > 0.0 && s.is_finite() => s,
        _ => return usage("--seconds must be a positive number"),
    };
    let traced = match p.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    if p.switches.contains(&"--smoke") {
        workload = workload.smoke();
    }
    let result = if traced {
        bench::run_traced(&workload, seed, seconds, Some(&spans_path(workload.name)))
    } else {
        bench::run_end_to_end(&workload, seed, seconds)
    };
    if let Some(out) = p.get("--out") {
        if let Err(e) = merge_into_file(Path::new(out), &Stamp::here(p.get("--commit")), &result) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    print!("{}", result.table());
    println!("{}", result.driver_line());
    if result.correct() {
        0
    } else {
        1
    }
}

/// `BENCHMARK.json`: in the working directory (the driver runs from the
/// repository root), else beside this package.
fn find_benchmark_json(explicit: Option<&str>) -> Result<String, String> {
    let candidates: Vec<PathBuf> = match explicit {
        Some(p) => vec![PathBuf::from(p)],
        None => vec![
            PathBuf::from("BENCHMARK.json"),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ],
    };
    candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or_else(|| format!("cannot read BENCHMARK.json (tried {candidates:?})"))
}

fn compare_cmd(args: &[String]) -> i32 {
    let p = match parse(args, &[]) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if let Some(f) = p.unknown(&["--benchmark-json"]) {
        return usage(&format!("unknown flag {f}"));
    }
    let [base, cand] = p.words[..] else {
        return usage("compare takes two result files");
    };
    let loaded = find_benchmark_json(p.get("--benchmark-json"))
        .and_then(|text| compare::bounds_from(&text))
        .and_then(|bounds| {
            Ok((
                bounds,
                compare::load_runs(Path::new(base))?,
                compare::load_runs(Path::new(cand))?,
            ))
        });
    match loaded {
        Ok((bounds, base, cand)) => {
            let cmp = compare::compare(&base, &cand, &bounds);
            print!("{}", cmp.table());
            i32::from(cmp.any_worse())
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn layers_cmd(args: &[String]) -> i32 {
    let p = match parse(args, &[]) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let Ok(seed) = p.get("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed must be an unsigned integer");
    };
    let mut runs = Vec::new();
    for file in &p.words {
        match compare::load_runs(Path::new(file)) {
            Ok(r) => runs.extend(r),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    print!("{}", compare::layers_table(&runs, seed));
    0
}
