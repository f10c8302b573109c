//! Shared experiment setup: standard workloads and configurations.

use crate::report::f;
use medes_core::config::{ConfigError, PlatformConfig, RestoreReadConfig};
use medes_core::metrics::{FnDedupStats, RunReport};
use medes_core::platform::Platform;
use medes_policy::medes::Objective;
use medes_policy::MedesPolicyConfig;
use medes_sim::fault::FaultPlan;
use medes_sim::{SimDuration, SimTime};
use medes_trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
use std::cell::Cell;
use std::path::PathBuf;

/// Default seed for synthesized fault plans (`--faults` without `seed=`).
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// A `--faults rate=<f>[,seed=<u64>]` specification: the fault plan is
/// synthesized deterministically from the seed at the experiment's
/// cluster size and trace duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault intensity knob passed to [`FaultPlan::synthesize`].
    pub rate: f64,
    /// Plan seed (deterministic across runs).
    pub seed: u64,
}

impl FaultSpec {
    /// Parses `rate=<f>[,seed=<u64>]` (order-insensitive). Returns
    /// `None` on malformed input so the caller can print usage, and for
    /// a rate outside [0, 20] (NaN included).
    pub fn parse(s: &str) -> Option<Self> {
        let mut rate = None;
        let mut seed = DEFAULT_FAULT_SEED;
        for part in s.split(',') {
            let (k, v) = part.split_once('=')?;
            match k.trim() {
                "rate" => rate = Some(v.trim().parse::<f64>().ok()?),
                "seed" => seed = v.trim().parse::<u64>().ok()?,
                _ => return None,
            }
        }
        // Above 20 the plan's RPC drop probability, 0.05·rate, passes 1.
        let rate = rate.filter(|r| (0.0..=20.0).contains(r))?;
        Some(FaultSpec { rate, seed })
    }
}

/// Experiment-suite configuration: sizes shrink under `--quick`. Not
/// `Clone`: a clone would hand out its trace-file numbers again.
#[derive(Debug)]
pub struct ExpConfig {
    /// Quick mode (CI/smoke): short traces, coarse scales.
    pub quick: bool,
    /// Where JSON results land.
    pub results_dir: PathBuf,
    /// Enable the `medes-obs` tracing layer (`--obs`): each traced run
    /// of [`ExpConfig::run`] writes a JSONL span trace to
    /// `<results_dir>/trace-run-<n>.jsonl`, `n` counting this config's
    /// traced runs from 0 in the order they start.
    pub obs: bool,
    /// Optional fault injection (`--faults`): synthesized into a
    /// [`FaultPlan`] by [`ExpConfig::platform`]. `None` keeps every
    /// experiment byte-identical to the fault-free build.
    pub faults: Option<FaultSpec>,
    /// Per-node base-page cache capacity in MiB (`--cache`) for every
    /// platform built by [`ExpConfig::platform`]; 0 means no cache.
    pub cache_mib: usize,
    /// Entropy-mixture content model (`--content-model`): every
    /// platform built by [`ExpConfig::platform`] uses the calibrated
    /// per-region low/medium/high-entropy mixture with dispersed
    /// per-instance noise (DESIGN.md §13). `false` keeps the default
    /// weights, `ContentModelConfig::legacy()`.
    pub content_model: bool,
    /// Traced runs started so far: the `n` of the next trace file.
    traced_runs: Cell<u32>,
}

impl ExpConfig {
    /// Full-size experiments.
    pub fn full() -> Self {
        ExpConfig {
            quick: false,
            results_dir: PathBuf::from("results"),
            obs: false,
            faults: None,
            cache_mib: 0,
            content_model: false,
            traced_runs: Cell::new(0),
        }
    }

    /// Quick smoke-test sizes.
    pub fn quick() -> Self {
        ExpConfig {
            quick: true,
            ..Self::full()
        }
    }

    /// Trace duration for end-to-end runs: the paper uses one-hour
    /// traces; quick mode uses 4 minutes.
    pub fn trace_secs(&self) -> u64 {
        if self.quick {
            240
        } else {
            1800
        }
    }

    /// Memory-image scale denominator for cluster runs.
    pub fn mem_scale(&self) -> usize {
        if self.quick {
            512
        } else {
            128
        }
    }

    /// Content scale for the byte-level measurement study (Fig 1).
    pub fn study_scale(&self) -> usize {
        if self.quick {
            64
        } else {
            8
        }
    }

    /// The full FunctionBench catalog.
    pub fn suite(&self) -> Vec<FunctionProfile> {
        functionbench_suite()
    }

    /// The §7.5 representative subset.
    pub fn representative_suite(&self) -> Vec<FunctionProfile> {
        functionbench_suite()
            .into_iter()
            .filter(|p| ["LinAlg", "FeatureGen", "ModelTrain"].contains(&p.name.as_str()))
            .collect()
    }

    /// The §7.5 representative trace: the three-function subset with
    /// burst gaps that straddle the keep-alive windows under test
    /// (6 min / 12 min / periodic 8 min), driven hard enough to pressure
    /// a small pool — the regime where keep-alive settings matter.
    pub fn representative_trace(&self, suite: &[FunctionProfile]) -> Trace {
        use medes_sim::{DetRng, SimTime};
        use medes_trace::ArrivalPattern;
        let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
        let duration = SimTime::from_secs(self.trace_secs());
        let mut rng = DetRng::new(0xBEEF);
        let patterns = [
            // LinAlg: intense bursts, 12-minute gaps.
            ArrivalPattern::Bursty {
                rate_per_min: 960.0,
                on_secs: 60.0,
                off_secs: 720.0,
            },
            // FeatureGen: medium bursts, ~6-minute gaps.
            ArrivalPattern::Bursty {
                rate_per_min: 240.0,
                on_secs: 90.0,
                off_secs: 380.0,
            },
            // ModelTrain: timer-triggered every 8 minutes.
            ArrivalPattern::Periodic {
                interval_secs: 480.0,
                jitter_frac: 0.1,
            },
        ];
        let arrivals: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, _)| patterns[i % patterns.len()].generate(&mut rng, duration))
            .collect();
        Trace::from_arrivals(names, arrivals, duration)
    }

    /// The standard full-benchmark trace (5× Azure-like, §7.1).
    pub fn full_trace(&self, suite: &[FunctionProfile]) -> Trace {
        let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
        azure_like_trace(
            &names,
            &TraceGenConfig {
                duration_secs: self.trace_secs(),
                scale: 5.0,
                ..Default::default()
            },
        )
    }

    /// The standard platform configuration (§7.1 testbed), adapted to
    /// the experiment scale. The per-node limit is chosen so the cluster
    /// is *oversubscribed* by the standard trace, exactly as the paper
    /// does with its 2 GB/node software limit (§7.2).
    pub fn platform(&self) -> PlatformConfig {
        self.try_platform()
            .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
    }

    /// Builds the standard platform configuration through the
    /// validating [`PlatformConfig::builder`], so harness flags cannot
    /// smuggle in nonsense (a cache larger than node memory): bad
    /// combinations surface here as a [`ConfigError`] before any run
    /// starts. The registry is in-process, with one shard: a run's
    /// report is the same at any other shard count or placement
    /// (`tests/registry_backend.rs`).
    pub fn try_platform(&self) -> Result<PlatformConfig, ConfigError> {
        // 12 x 192 MiB: demand-saturated, like the paper's 2 GB limit.
        let nodes = if self.quick { 6 } else { 12 };
        let mut b = PlatformConfig::builder()
            .mem_scale(self.mem_scale())
            .node_mem_bytes(192 << 20)
            .nodes(nodes)
            .read_path(RestoreReadConfig::cached(
                self.cache_mib.saturating_mul(1 << 20),
            ));
        if self.obs {
            b = b.obs(medes_obs::ObsConfig::enabled());
        }
        if let Some(spec) = &self.faults {
            b = b.faults(FaultPlan::synthesize(
                spec.seed,
                nodes,
                SimTime::from_secs(self.trace_secs()),
                spec.rate,
            ));
        }
        if self.content_model {
            b = b.tweak(|c| {
                c.content.mixture = medes_mem::ContentModelConfig::paper_calibrated();
            });
        }
        b.build()
    }

    /// A Medes policy config with the standard knobs.
    pub fn medes_policy(&self, objective: Objective) -> MedesPolicyConfig {
        MedesPolicyConfig {
            objective,
            idle_period: SimDuration::from_secs(15),
            // Dedup sandboxes cost a fraction of a warm one, so they are
            // retained longer than the keep-alive window — that is the
            // point of the cheaper state (the Fig 15 sweep tunes this).
            keep_dedup: SimDuration::from_mins(15),
            keep_alive: SimDuration::from_mins(10),
            base_threshold: 40,
        }
    }

    /// Runs one platform configuration over a trace, returning the
    /// report. Under `--obs` a traced run gets the next trace file.
    pub fn run(
        &self,
        mut cfg: PlatformConfig,
        suite: &[FunctionProfile],
        trace: &Trace,
    ) -> RunReport {
        if self.obs && cfg.obs.enabled {
            let n = self.traced_runs.replace(self.traced_runs.get() + 1);
            cfg.obs.trace_file = Some(self.results_dir.join(format!("trace-run-{n}.jsonl")));
        }
        Platform::new(cfg, suite.to_vec()).run(trace).report
    }
}

/// The mean of `stat` over the functions that deduplicated (0 when
/// none did).
pub fn dedup_mean(r: &RunReport, stat: impl Fn(&FnDedupStats) -> f64) -> f64 {
    let active = r.dedup_stats.iter().filter(|s| s.dedup_ops > 0);
    active.clone().map(stat).sum::<f64>() / active.count().max(1) as f64
}

/// The headers of [`per_fn_rows`]' table.
pub const PER_FN_HEADERS: [&str; 7] = [
    "function",
    "cold fixed",
    "cold adaptive",
    "cold medes",
    "p99.9 fixed",
    "p99.9 adaptive",
    "p99.9 medes",
];

/// Fig 7b's and Fig 10b/11's table: per function, the cold starts and
/// then the p99.9 end-to-end latency (ms) under fixed keep-alive,
/// adaptive keep-alive and Medes.
pub fn per_fn_rows(medes: &RunReport, fixed: &RunReport, adaptive: &RunReport) -> Vec<Vec<String>> {
    let (cm, cf, ca) = (
        medes.cold_starts(),
        fixed.cold_starts(),
        adaptive.cold_starts(),
    );
    let row = |(i, name): (usize, &String)| {
        let p999 = |r: &RunReport| f(r.e2e_quantile_ms(i, 0.999).unwrap_or(0.0), 0);
        vec![
            name.clone(),
            cf[i].to_string(),
            ca[i].to_string(),
            cm[i].to_string(),
            p999(fixed),
            p999(adaptive),
            p999(medes),
        ]
    };
    medes.functions.iter().enumerate().map(row).collect()
}

/// A run's inputs and its report may cross threads, so independent
/// runs can fan out one per thread; the `Platform` that runs one holds
/// an `Rc<Obs>` and stays on its thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PlatformConfig>();
    assert_send::<RunReport>();
    assert_send::<ExpConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use medes_core::config::RegistryPlacement;
    use std::collections::BTreeSet;

    #[test]
    fn quick_config_is_smaller() {
        let q = ExpConfig::quick();
        let f = ExpConfig::full();
        assert!(q.trace_secs() < f.trace_secs());
        assert!(q.mem_scale() > f.mem_scale());
        assert_eq!(q.representative_suite().len(), 3);
        assert_eq!(q.suite().len(), 10);
    }

    #[test]
    fn fault_spec_parses() {
        assert_eq!(
            FaultSpec::parse("rate=0.5"),
            Some(FaultSpec {
                rate: 0.5,
                seed: DEFAULT_FAULT_SEED
            })
        );
        assert_eq!(
            FaultSpec::parse("rate=1.0,seed=7"),
            Some(FaultSpec { rate: 1.0, seed: 7 })
        );
        assert_eq!(
            FaultSpec::parse("seed=9,rate=2"),
            Some(FaultSpec { rate: 2.0, seed: 9 })
        );
        assert_eq!(FaultSpec::parse("seed=9"), None);
        assert_eq!(FaultSpec::parse("rate=x"), None);
        assert_eq!(FaultSpec::parse("rate=0").map(|f| f.rate), Some(0.0));
        assert_eq!(FaultSpec::parse("rate=20").map(|f| f.rate), Some(20.0));
        for bad in ["nan", "inf", "-0.5", "20.5", "1e300"] {
            assert_eq!(FaultSpec::parse(&format!("rate={bad}")), None, "{bad}");
        }
        assert_eq!(FaultSpec::parse("bogus=1"), None);
    }

    #[test]
    fn fault_spec_populates_platform_plan() {
        let mut cfg = ExpConfig::quick();
        assert!(cfg.platform().faults.is_empty());
        cfg.faults = Some(FaultSpec {
            rate: 1.0,
            seed: 42,
        });
        let plan = cfg.platform().faults;
        assert!(!plan.is_empty());
        // Same spec, same plan: synthesis is deterministic.
        assert_eq!(plan, cfg.platform().faults);
    }

    #[test]
    fn cache_and_pipeline_flags_reach_the_platform() {
        let mut cfg = ExpConfig::quick();
        let p = cfg.platform();
        assert_eq!(p.read_path.page_cache_bytes, 0);
        // No flag sets the registry: the builder's one shard, in
        // process.
        assert_eq!(p.shards, 1);
        assert_eq!(p.registry, RegistryPlacement::InProcess);
        cfg.cache_mib = 64;
        assert_eq!(cfg.platform().read_path.page_cache_bytes, 64 << 20);
        // The validating builder rejects a cache larger than a node.
        cfg.cache_mib = 1 << 10;
        assert!(cfg.try_platform().is_err());
    }

    /// A tiny two-function workload for runs that only name files.
    fn tiny_workload() -> (Vec<FunctionProfile>, Trace) {
        let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(2).collect();
        let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
        let trace = azure_like_trace(
            &names,
            &TraceGenConfig {
                duration_secs: 30,
                scale: 1.0,
                seed: 5,
            },
        );
        (suite, trace)
    }

    #[test]
    fn obs_flag_streams_to_the_results_dir() {
        let dir = std::env::temp_dir().join(format!("medes-bench-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (suite, trace) = tiny_workload();
        let mut cfg = ExpConfig::quick();
        cfg.results_dir = dir.clone();
        // Without --obs nothing is traced or streamed.
        let obs = cfg.platform().obs;
        assert!(!obs.enabled);
        assert!(obs.trace_file.is_none());
        // With it, tracing is on and the run names its trace file in
        // the results dir, so every span streams there.
        cfg.obs = true;
        let pcfg = cfg.platform();
        assert!(pcfg.obs.enabled);
        cfg.run(pcfg, &suite, &trace);
        let file = std::fs::read_to_string(dir.join("trace-run-0.jsonl")).expect("trace file");
        assert!(!medes_obs::parse_jsonl(&file).is_empty());
        assert!(medes_obs::parse_tail(&file).is_some(), "a complete file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The harness numbers its traced runs in the order they start; a
    /// fresh config starts again at 0, and an untraced run takes no
    /// number.
    #[test]
    fn traced_runs_are_numbered_in_run_order() {
        let dir = std::env::temp_dir().join(format!("medes-bench-seq-{}", std::process::id()));
        let (suite, trace) = tiny_workload();
        let traced = PlatformConfig {
            obs: medes_obs::ObsConfig::enabled(),
            ..PlatformConfig::small_test()
        };
        let untraced = PlatformConfig::small_test();
        let files = |runs: &[&PlatformConfig]| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = ExpConfig::quick();
            cfg.obs = true;
            cfg.results_dir = dir.clone();
            let listing = || -> BTreeSet<String> {
                let entries = std::fs::read_dir(&dir).into_iter().flatten().flatten();
                entries
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            };
            // The file each run added to the results dir, if any.
            let mut seen = BTreeSet::new();
            let mut added = Vec::new();
            for &run in runs {
                cfg.run(run.clone(), &suite, &trace);
                let now = listing();
                added.push(now.difference(&seen).next().cloned());
                seen = now;
            }
            added
        };
        let name = |n: u32| Some(format!("trace-run-{n}.jsonl"));
        assert_eq!(
            files(&[&traced, &traced, &traced]),
            [name(0), name(1), name(2)]
        );
        assert_eq!(
            files(&[&untraced, &traced, &untraced, &traced]),
            [None, name(0), None, name(1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traces_generate() {
        let c = ExpConfig::quick();
        let suite = c.suite();
        let t = c.full_trace(&suite);
        assert!(!t.is_empty());
        assert_eq!(t.functions.len(), 10);
    }
}
