//! Shared experiment setup: standard workloads and configurations.

use medes_core::config::{ConfigError, PlatformConfig, PolicyKind, RestoreReadConfig};
use medes_core::metrics::RunReport;
use medes_core::platform::{Platform, RunOutcome};
use medes_policy::medes::Objective;
use medes_policy::MedesPolicyConfig;
use medes_sim::fault::FaultPlan;
use medes_sim::{SimDuration, SimTime};
use medes_trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
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
    /// `None` on malformed input so the caller can print usage.
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
        Some(FaultSpec { rate: rate?, seed })
    }
}

/// Experiment-suite configuration: sizes shrink under `--quick`.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Quick mode (CI/smoke): short traces, coarse scales.
    pub quick: bool,
    /// Where JSON results land.
    pub results_dir: PathBuf,
    /// Enable the `medes-obs` tracing layer (`--obs`): platform runs
    /// export a JSONL span trace to `<results_dir>/trace-<n>.jsonl`.
    pub obs: bool,
    /// Optional head-sampling rate (`--sample <n>`, with `--obs`):
    /// keep one in `n` trace trees, decided deterministically at the
    /// trace root so whole trees are kept or dropped together. SLO
    /// accounting is unaffected — it sees every request.
    pub sample: Option<u64>,
    /// Optional fault injection (`--faults`): synthesized into a
    /// [`FaultPlan`] by [`ExpConfig::platform`]. `None` keeps every
    /// experiment byte-identical to the fault-free build.
    pub faults: Option<FaultSpec>,
    /// Per-node base-page cache capacity in MiB (`--cache`) for every
    /// platform built by [`ExpConfig::platform`]; 0 means no cache.
    pub cache_mib: usize,
    /// Fingerprint-registry shard count (`--shards`).
    pub shards: usize,
    /// Dedup scan worker-pool size (`--workers`). Reports are
    /// bit-identical at any shard and worker count.
    pub workers: usize,
    /// Streamed span export (`--stream`, with `--obs`): spans go to the
    /// trace file as they finish, so long traces run in O(ring) memory.
    /// Inert without `--obs`.
    pub stream: bool,
    /// Deterministic time-series sampling interval in simulated ms
    /// (`--timeseries <ms>`, with `--obs`): the platform snapshots its
    /// gauge/counter set every interval into `.timeseries.jsonl` next
    /// to the trace. Inert without `--obs`.
    pub timeseries_ms: Option<u64>,
    /// Optional distributed registry placement (`--registry-owners`):
    /// the fingerprint registry's shards are placed on the first `n`
    /// worker nodes and all registry traffic is routed as priced RPCs
    /// (DESIGN.md §15). `None` keeps the in-process registry (and, by
    /// design, byte-identical reports either way).
    pub registry_owners: Option<usize>,
    /// Dimensional telemetry (`--labels`, with `--obs`): hot call
    /// sites additionally keep bounded labeled twins of their metrics
    /// (per node, per function class, per link, per shard owner),
    /// histogram buckets retain exemplar trace ids, and the SLO
    /// tracker keeps its top violators per function — the inputs of
    /// `trace report`'s attribution. Off by default: label-off runs export
    /// byte-identical traces. Inert without `--obs`.
    pub labels: bool,
    /// Entropy-mixture content model (`--content-model`): every
    /// platform built by [`ExpConfig::platform`] uses the calibrated
    /// per-region low/medium/high-entropy mixture with dispersed
    /// per-instance noise (DESIGN.md §13) instead of the legacy tile
    /// model. `false` keeps every experiment byte-identical to the
    /// legacy build.
    pub content_model: bool,
}

impl ExpConfig {
    /// Full-size experiments.
    pub fn full() -> Self {
        ExpConfig {
            quick: false,
            results_dir: PathBuf::from("results"),
            obs: false,
            sample: None,
            faults: None,
            cache_mib: 0,
            shards: 1,
            workers: 1,
            stream: false,
            timeseries_ms: None,
            registry_owners: None,
            labels: false,
            content_model: false,
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
    /// smuggle in nonsense (zero shards, cache larger than node
    /// memory): bad combinations surface here as a [`ConfigError`]
    /// before any run starts.
    pub fn try_platform(&self) -> Result<PlatformConfig, ConfigError> {
        // 12 x 192 MiB: demand-saturated, like the paper's 2 GB limit.
        let nodes = if self.quick { 6 } else { 12 };
        let mut b = PlatformConfig::builder()
            .mem_scale(self.mem_scale())
            .node_mem_bytes(192 << 20)
            .nodes(nodes)
            .read_path(RestoreReadConfig::cached(self.cache_mib << 20))
            .shards(self.shards)
            .workers(self.workers);
        if self.obs {
            let mut oc = medes_obs::ObsConfig::enabled();
            oc.set_export_dir(self.results_dir.clone());
            if let Some(n) = self.sample {
                oc = oc.sampled(n);
            }
            if self.stream {
                oc = oc.streamed();
            }
            if let Some(ms) = self.timeseries_ms {
                oc = oc.sampled_every_ms(ms);
            }
            if self.labels {
                oc = oc.labeled();
            }
            b = b.obs(oc);
        }
        if let Some(spec) = &self.faults {
            b = b.faults(FaultPlan::synthesize(
                spec.seed,
                nodes,
                SimTime::from_secs(self.trace_secs()),
                spec.rate,
            ));
        }
        if let Some(owners) = self.registry_owners {
            b = b.registry_owners(owners);
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
}

/// Runs one platform configuration over a trace, returning the report.
pub fn run(cfg: PlatformConfig, suite: &[FunctionProfile], trace: &Trace) -> RunReport {
    Platform::new(cfg, suite.to_vec()).run(trace).report
}

/// Runs one platform configuration over a trace, returning the full
/// [`RunOutcome`] (report + observability handle + scan wall time).
/// Experiments that read counters or the `pipeline` wall-time gate use
/// this.
pub fn run_outcome(cfg: PlatformConfig, suite: &[FunctionProfile], trace: &Trace) -> RunOutcome {
    Platform::new(cfg, suite.to_vec()).run(trace)
}

/// Runs the three §7.2 policies over the same trace.
pub fn run_three(
    base: &PlatformConfig,
    suite: &[FunctionProfile],
    trace: &Trace,
    medes_policy: MedesPolicyConfig,
) -> (RunReport, RunReport, RunReport) {
    let medes = run(
        base.clone().with_policy(PolicyKind::Medes(medes_policy)),
        suite,
        trace,
    );
    let fixed = run(
        base.clone()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10))),
        suite,
        trace,
    );
    let adaptive = run(
        base.clone().with_policy(PolicyKind::AdaptiveKeepAlive),
        suite,
        trace,
    );
    (medes, fixed, adaptive)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(cfg.platform().read_path.page_cache_bytes, 0);
        cfg.cache_mib = 64;
        cfg.shards = 4;
        cfg.workers = 2;
        let p = cfg.platform();
        assert_eq!(p.read_path.page_cache_bytes, 64 << 20);
        assert_eq!((p.pipeline.shards, p.pipeline.workers), (4, 2));
        // The validating builder rejects an empty worker pool.
        cfg.workers = 0;
        assert!(cfg.try_platform().is_err());
    }

    #[test]
    fn sample_flag_requires_obs_and_sets_rate() {
        let mut cfg = ExpConfig::quick();
        cfg.sample = Some(8);
        // Without --obs the sampling knob is inert (tracing is off).
        assert!(!cfg.platform().obs.enabled);
        cfg.obs = true;
        let obs = cfg.platform().obs;
        assert!(obs.enabled);
        assert_eq!(obs.sample_one_in, 8);
    }

    #[test]
    fn stream_and_timeseries_flags_require_obs() {
        let mut cfg = ExpConfig::quick();
        cfg.stream = true;
        cfg.timeseries_ms = Some(500);
        // Without --obs both knobs are inert (tracing is off).
        let obs = cfg.platform().obs;
        assert!(!obs.enabled);
        cfg.obs = true;
        let obs = cfg.platform().obs;
        assert!(obs.enabled);
        assert!(obs.stream);
        assert_eq!(obs.sample_every_ms, 500);
        assert!(obs.export_dir.is_some());
    }

    #[test]
    fn labels_flag_requires_obs() {
        let mut cfg = ExpConfig::quick();
        cfg.labels = true;
        // Without --obs the labels knob is inert (tracing is off).
        assert!(!cfg.platform().obs.enabled);
        assert!(!cfg.platform().obs.labels);
        cfg.obs = true;
        let obs = cfg.platform().obs;
        assert!(obs.enabled);
        assert!(obs.labels);
    }

    #[test]
    fn registry_owners_flag_selects_distributed_backend() {
        use medes_core::config::RegistryPlacement;
        let mut cfg = ExpConfig::quick();
        assert_eq!(cfg.platform().registry, RegistryPlacement::InProcess);
        cfg.registry_owners = Some(3);
        assert_eq!(
            cfg.platform().registry,
            RegistryPlacement::Distributed { owners: 3 }
        );
        // The validating builder rejects placements wider than the cluster.
        cfg.registry_owners = Some(100);
        assert!(cfg.try_platform().is_err());
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
