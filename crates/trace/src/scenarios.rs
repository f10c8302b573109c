//! Adversarial production scenario generators.
//!
//! The paper evaluates Medes only on steady Azure-like arrival classes,
//! but a real fleet also sees version churn, flash crowds, tenant skew,
//! heterogeneous hardware and spot preemption. Each generator here
//! produces a [`Scenario`] — a [`Trace`] plus the non-arrival knobs the
//! scenario needs (a rolling-deploy [`DeploySchedule`], a
//! [`FaultPlan`], a per-node memory profile) — fully deterministic in
//! the [`ScenarioConfig`] seed, exactly like
//! [`azure_like_trace`](crate::azure::azure_like_trace).

use crate::azure::ArrivalPattern;
use crate::trace::Trace;
use medes_sim::fault::{FaultPlan, NodeCrash};
use medes_sim::{DetRng, SimTime};

/// One per-function deploy event: at `at`, `function` moves to
/// `version`. Sandboxes and demarcated base pages of older versions are
/// invalidated by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionBump {
    /// Index of the function being deployed (into the suite order).
    pub function: usize,
    /// When the new version goes live.
    pub at: SimTime,
    /// The new version number (monotonic per function, starts at 1).
    pub version: u64,
}

/// A rolling-deploy schedule: a time-ordered list of [`VersionBump`]s.
/// The empty schedule is the provable no-op (no platform behaviour
/// changes at all).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeploySchedule {
    /// The deploy events, sorted by `(at, function)`.
    pub bumps: Vec<VersionBump>,
}

impl DeploySchedule {
    /// True when no deploys are scheduled.
    pub fn is_empty(&self) -> bool {
        self.bumps.is_empty()
    }
}

/// The five adversarial scenario classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Per-function version epochs that invalidate base pages.
    RollingDeploy,
    /// A massive one-off burst on functions that were never warm.
    FlashCrowd,
    /// Zipf-skewed invocation volume across tenants.
    TenantSkew,
    /// Nodes with different memory capacities.
    HeteroMemory,
    /// Spot-preemption waves: batches of nodes crash and rejoin.
    PreemptionWave,
}

impl ScenarioKind {
    /// All classes, in canonical order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::RollingDeploy,
        ScenarioKind::FlashCrowd,
        ScenarioKind::TenantSkew,
        ScenarioKind::HeteroMemory,
        ScenarioKind::PreemptionWave,
    ];

    /// Stable kebab-case identifier (used in reports and JSON).
    pub fn id(&self) -> &'static str {
        match self {
            ScenarioKind::RollingDeploy => "rolling-deploy",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::TenantSkew => "tenant-skew",
            ScenarioKind::HeteroMemory => "hetero-memory",
            ScenarioKind::PreemptionWave => "preemption-wave",
        }
    }
}

/// A generated scenario: the arrival trace plus every non-arrival knob
/// the class needs. Fields not used by a class stay at their no-op
/// defaults (empty schedule / empty plan / uniform memory).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which class this is.
    pub kind: ScenarioKind,
    /// The arrival trace.
    pub trace: Trace,
    /// Rolling-deploy schedule (empty unless [`ScenarioKind::RollingDeploy`]).
    pub deploys: DeploySchedule,
    /// Fault plan (empty unless [`ScenarioKind::PreemptionWave`]).
    pub faults: FaultPlan,
    /// Per-node memory bytes (empty = uniform; only
    /// [`ScenarioKind::HeteroMemory`] fills this).
    pub node_mem: Vec<usize>,
}

/// Configuration shared by every scenario generator.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Trace duration, seconds.
    pub duration_secs: u64,
    /// Volume scale factor (the paper uses 5×).
    pub scale: f64,
    /// RNG seed; every class forks an independent stream from it.
    pub seed: u64,
    /// Cluster size (for heterogeneous memory and preemption waves).
    pub nodes: usize,
    /// Uniform per-node memory, bytes (heterogeneous profiles scale it).
    pub node_mem_bytes: usize,
    /// Rolling-deploy epochs per function.
    pub epochs: u64,
    /// Number of preemption waves.
    pub waves: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            duration_secs: 3600,
            scale: 5.0,
            seed: 20220405,
            nodes: 19,
            node_mem_bytes: 2 << 30,
            epochs: 3,
            waves: 3,
        }
    }
}

// Per-class fork tags: each class draws from an independent stream, so
// adding or reordering classes never perturbs the others.
const TAG_DEPLOY: u64 = 0x5C_0001;
const TAG_FLASH: u64 = 0x5C_0002;
const TAG_TENANT: u64 = 0x5C_0003;
const TAG_HETERO: u64 = 0x5C_0004;
const TAG_PREEMPT: u64 = 0x5C_0005;

/// Derives an independent sub-seed for one scenario class.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    DetRng::new(seed).fork(tag).next_u64()
}

/// The shared background arrival process for scenario classes whose
/// adversarial ingredient is *not* the arrival shape (deploys, node
/// memory, preemptions). Like [`azure_like_trace`], bursty event
/// streams dominate — but burst cycles are proportional to the trace
/// length, so a quick 4-minute run exercises the same
/// reuse-after-idle-gap dynamics as a full half-hour one. Gaps between
/// bursts are what separate sandbox-retention policies: too short and
/// every policy serves warm, too long and every pool expires.
fn scenario_backdrop(function_names: &[String], cfg: &ScenarioConfig, tag: u64) -> Trace {
    let duration = SimTime::from_secs(cfg.duration_secs);
    let span = cfg.duration_secs as f64;
    let root = DetRng::new(cfg.seed).fork(tag);
    let mut arrivals = Vec::with_capacity(function_names.len());
    for (i, _) in function_names.iter().enumerate() {
        let mut rng = root.fork(i as u64 + 1);
        let base_rate = rng.range_f64(0.2, 1.2);
        let pattern = match i % 3 {
            0 => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 90.0,
                on_secs: span * 0.08,
                off_secs: span * 0.28,
            },
            1 => ArrivalPattern::Poisson {
                rate_per_min: base_rate,
            },
            _ => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 50.0,
                on_secs: span * 0.12,
                off_secs: span * 0.40,
            },
        };
        arrivals.push(pattern.scaled(cfg.scale).generate(&mut rng, duration));
    }
    Trace::from_arrivals(function_names.to_vec(), arrivals, duration)
}

fn no_op(kind: ScenarioKind, trace: Trace) -> Scenario {
    Scenario {
        kind,
        trace,
        deploys: DeploySchedule::default(),
        faults: FaultPlan::default(),
        node_mem: Vec::new(),
    }
}

/// Rolling deploys: an Azure-like trace plus `cfg.epochs` staggered
/// deploy waves. Each wave walks the suite in order with a small random
/// stagger (a rolling rollout), bumping every function's version — which
/// invalidates its demarcated base pages and collapses dedup savings
/// until new bases are elected.
pub fn rolling_deploy_scenario(function_names: &[String], cfg: &ScenarioConfig) -> Scenario {
    let trace = scenario_backdrop(function_names, cfg, TAG_DEPLOY);
    let mut rng = DetRng::new(cfg.seed).fork(TAG_DEPLOY);
    let span = cfg.duration_secs as f64;
    let mut bumps = Vec::new();
    for epoch in 1..=cfg.epochs {
        let wave_start = span * epoch as f64 / (cfg.epochs + 1) as f64;
        for (i, _) in function_names.iter().enumerate() {
            // Rolling stagger: functions deploy one after another over
            // up to 5 % of the trace.
            let at = wave_start + rng.range_f64(0.0, span * 0.05);
            bumps.push(VersionBump {
                function: i,
                at: SimTime::from_micros((at * 1e6) as u64),
                version: epoch,
            });
        }
    }
    bumps.sort_by_key(|b| (b.at, b.function));
    Scenario {
        deploys: DeploySchedule { bumps },
        ..no_op(ScenarioKind::RollingDeploy, trace)
    }
}

/// Flash crowds: half the suite serves a steady low-rate backdrop; the
/// other half is stone cold until a one-off crowd arrives (a viral
/// event), hammering a function that has no warm or dedup pool yet.
pub fn flash_crowd_scenario(function_names: &[String], cfg: &ScenarioConfig) -> Scenario {
    let duration = SimTime::from_secs(cfg.duration_secs);
    let span = cfg.duration_secs as f64;
    let root = DetRng::new(cfg.seed).fork(TAG_FLASH);
    let mut arrivals = Vec::with_capacity(function_names.len());
    for (i, _) in function_names.iter().enumerate() {
        let mut rng = root.fork(i as u64 + 1);
        if i % 2 == 0 {
            let pattern = ArrivalPattern::Poisson {
                rate_per_min: rng.range_f64(0.5, 2.0),
            };
            arrivals.push(pattern.scaled(cfg.scale).generate(&mut rng, duration));
        } else {
            // Cold until the crowd hits: a dense Poisson burst starting
            // somewhere in the middle of the trace. The rate is chosen
            // to force cold-start scaling of an unprepared function
            // without drowning the whole cluster in a standing queue.
            let t0 = rng.range_f64(0.35, 0.70) * span;
            let burst_secs = rng.range_f64(45.0, 120.0);
            let rate_per_min = 40.0 * cfg.scale;
            let mean_gap = 60.0 / rate_per_min;
            let mut out = Vec::new();
            let mut t = t0 + rng.exponential(mean_gap);
            let end = (t0 + burst_secs).min(span);
            while t < end {
                out.push(SimTime::from_micros((t * 1e6) as u64));
                t += rng.exponential(mean_gap);
            }
            arrivals.push(out);
        }
    }
    no_op(
        ScenarioKind::FlashCrowd,
        Trace::from_arrivals(function_names.to_vec(), arrivals, duration),
    )
}

/// Number of tenants for the skew scenario.
const TENANTS: usize = 4;
/// Zipf exponent for tenant popularity.
const ZIPF_S: f64 = 1.1;

/// Multi-tenant skew: every function belongs to a tenant drawn from a
/// Zipf distribution over `TENANTS` tenants, and its arrival volume is
/// multiplied by its tenant's popularity weight — a Zipf layer on top of
/// the usual [`ArrivalPattern`] class rotation.
pub fn tenant_skew_scenario(function_names: &[String], cfg: &ScenarioConfig) -> Scenario {
    let duration = SimTime::from_secs(cfg.duration_secs);
    let root = DetRng::new(cfg.seed).fork(TAG_TENANT);
    // Tenant popularity weights 1/(rank+1)^s, normalized to mean 1 so
    // the total volume stays comparable to the unskewed trace.
    let raw: Vec<f64> = (0..TENANTS)
        .map(|t| 1.0 / ((t + 1) as f64).powf(ZIPF_S))
        .collect();
    let mean = raw.iter().sum::<f64>() / TENANTS as f64;
    let weights: Vec<f64> = raw.iter().map(|w| w / mean).collect();
    let mut arrivals = Vec::with_capacity(function_names.len());
    for (i, _) in function_names.iter().enumerate() {
        let mut rng = root.fork(i as u64 + 1);
        let tenant = rng.zipf(TENANTS as u64, ZIPF_S) as usize;
        let base_rate = rng.range_f64(0.8, 3.0) * weights[tenant];
        // Burst cycles proportional to the trace length (see
        // `scenario_backdrop`), so the skew plays out over several
        // reuse-after-gap rounds at any duration.
        let span = cfg.duration_secs as f64;
        let pattern = match i % 4 {
            0 => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 90.0,
                on_secs: span * 0.08,
                off_secs: span * 0.30,
            },
            1 => ArrivalPattern::Poisson {
                rate_per_min: base_rate,
            },
            2 => ArrivalPattern::Diurnal {
                base_per_min: base_rate * 6.0,
                amplitude: 0.9,
                period_secs: span * 0.4,
            },
            _ => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 45.0,
                on_secs: span * 0.10,
                off_secs: span * 0.40,
            },
        };
        arrivals.push(pattern.scaled(cfg.scale).generate(&mut rng, duration));
    }
    no_op(
        ScenarioKind::TenantSkew,
        Trace::from_arrivals(function_names.to_vec(), arrivals, duration),
    )
}

/// Heterogeneous node memory: an Azure-like trace plus a per-node
/// memory profile mixing small (¾×), standard (1×) and large (1½×)
/// nodes. The platform's placement and eviction must respect per-node
/// capacity instead of a uniform constant.
pub fn hetero_memory_scenario(function_names: &[String], cfg: &ScenarioConfig) -> Scenario {
    let trace = scenario_backdrop(function_names, cfg, TAG_HETERO);
    let mut rng = DetRng::new(cfg.seed).fork(TAG_HETERO);
    let node_mem: Vec<usize> = (0..cfg.nodes)
        .map(|_| {
            let u = rng.f64();
            let factor = if u < 0.35 {
                0.75
            } else if u < 0.75 {
                1.0
            } else {
                1.5
            };
            (cfg.node_mem_bytes as f64 * factor) as usize
        })
        .collect();
    Scenario {
        node_mem,
        ..no_op(ScenarioKind::HeteroMemory, trace)
    }
}

/// Spot-preemption waves: `cfg.waves` evenly spaced waves, each
/// preempting about a quarter of the cluster with short per-node stagger
/// and a 30–90 s rejoin (the provider hands back capacity). Composed as
/// a plain [`FaultPlan`], so it replays through the PR 2 fault layer
/// bit-for-bit.
pub fn preemption_wave_scenario(function_names: &[String], cfg: &ScenarioConfig) -> Scenario {
    let trace = scenario_backdrop(function_names, cfg, TAG_PREEMPT);
    let mut rng = DetRng::new(cfg.seed).fork(TAG_PREEMPT);
    let span = cfg.duration_secs as f64;
    let batch = (cfg.nodes / 4).max(1);
    let mut crashes = Vec::new();
    for w in 0..cfg.waves {
        let wave_t = span * (w + 1) as f64 / (cfg.waves + 1) as f64;
        // Pick `batch` distinct victims for this wave.
        let mut victims: Vec<usize> = (0..cfg.nodes).collect();
        rng.shuffle(&mut victims);
        victims.truncate(batch);
        victims.sort_unstable();
        for &node in &victims {
            let at = wave_t + rng.range_f64(0.0, 10.0);
            let down_secs = rng.range_f64(30.0, 90.0);
            crashes.push(NodeCrash {
                node,
                at: SimTime::from_micros((at * 1e6) as u64),
                restart: Some(SimTime::from_micros(((at + down_secs) * 1e6) as u64)),
            });
        }
    }
    crashes.sort_by_key(|c| (c.at, c.node));
    Scenario {
        faults: FaultPlan {
            seed: sub_seed(cfg.seed, TAG_PREEMPT),
            crashes,
            links: Vec::new(),
            rpc_drop_prob: 0.0,
        },
        ..no_op(ScenarioKind::PreemptionWave, trace)
    }
}

/// All five scenarios in [`ScenarioKind::ALL`] order.
pub fn all_scenarios(function_names: &[String], cfg: &ScenarioConfig) -> Vec<Scenario> {
    vec![
        rolling_deploy_scenario(function_names, cfg),
        flash_crowd_scenario(function_names, cfg),
        tenant_skew_scenario(function_names, cfg),
        hetero_memory_scenario(function_names, cfg),
        preemption_wave_scenario(function_names, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        (0..8).map(|i| format!("F{i}")).collect()
    }

    fn cfg() -> ScenarioConfig {
        ScenarioConfig {
            duration_secs: 900,
            nodes: 8,
            node_mem_bytes: 1 << 30,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn every_class_is_seed_deterministic() {
        let n = names();
        let a = all_scenarios(&n, &cfg());
        let b = all_scenarios(&n, &cfg());
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            // Equal traces (every arrival), not just equal lengths.
            assert!(
                x.trace == y.trace,
                "{} trace must replay identically",
                x.kind.id()
            );
            assert_eq!(x.deploys, y.deploys, "{}", x.kind.id());
            assert_eq!(x.faults, y.faults, "{}", x.kind.id());
            assert_eq!(x.node_mem, y.node_mem, "{}", x.kind.id());
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let n = names();
        let a = all_scenarios(&n, &cfg());
        let other = ScenarioConfig { seed: 999, ..cfg() };
        let b = all_scenarios(&n, &other);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.trace != y.trace, "{}", x.kind.id());
        }
    }

    #[test]
    fn classes_draw_independent_streams() {
        // The rolling-deploy and hetero traces must differ even though
        // both start from azure_like_trace with the same root seed.
        let n = names();
        let c = cfg();
        let a = rolling_deploy_scenario(&n, &c);
        let b = hetero_memory_scenario(&n, &c);
        assert!(a.trace != b.trace);
    }

    #[test]
    fn rolling_deploy_schedule_shape() {
        let n = names();
        let c = cfg();
        let s = rolling_deploy_scenario(&n, &c);
        assert_eq!(s.deploys.bumps.len(), n.len() * c.epochs as usize);
        assert!(s.deploys.bumps.windows(2).all(|w| w[0].at <= w[1].at));
        for b in &s.deploys.bumps {
            assert!(b.function < n.len());
            assert!((1..=c.epochs).contains(&b.version));
            assert!(b.at < SimTime::from_secs(c.duration_secs));
        }
        // Other knobs stay no-op.
        assert!(s.faults.is_empty());
        assert!(s.node_mem.is_empty());
    }

    #[test]
    fn flash_crowd_has_cold_functions_with_late_bursts() {
        let n = names();
        let c = cfg();
        let s = flash_crowd_scenario(&n, &c);
        let span = c.duration_secs as f64;
        for (i, _) in n.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            let times: Vec<f64> = s
                .trace
                .invocations
                .iter()
                .filter(|inv| inv.function == i)
                .map(|inv| inv.time_us as f64 / 1e6)
                .collect();
            assert!(!times.is_empty(), "function {i} never got its crowd");
            let first = times.first().copied().unwrap();
            let last = times.last().copied().unwrap();
            assert!(first > 0.3 * span, "crowd starts late, got {first}");
            assert!(last - first < 130.0, "crowd is a short burst");
            // Crowd density: way above the steady backdrop.
            assert!(times.len() > 50, "only {} crowd arrivals", times.len());
        }
    }

    #[test]
    fn tenant_skew_concentrates_volume() {
        let n: Vec<String> = (0..16).map(|i| format!("F{i}")).collect();
        let s = tenant_skew_scenario(&n, &cfg());
        let counts = s.trace.counts();
        let max = *counts.iter().max().unwrap();
        let min = counts
            .iter()
            .filter(|&&c| c > 0)
            .min()
            .copied()
            .unwrap_or(1);
        assert!(
            max as f64 >= 4.0 * min as f64,
            "expected tenant skew, got {counts:?}"
        );
    }

    #[test]
    fn hetero_memory_profile_is_mixed_and_bounded() {
        let c = cfg();
        let s = hetero_memory_scenario(&names(), &c);
        assert_eq!(s.node_mem.len(), c.nodes);
        let lo = (c.node_mem_bytes as f64 * 0.75) as usize;
        let hi = (c.node_mem_bytes as f64 * 1.5) as usize;
        for &m in &s.node_mem {
            assert!((lo..=hi).contains(&m), "node mem {m} out of band");
        }
        let distinct: std::collections::BTreeSet<usize> = s.node_mem.iter().copied().collect();
        assert!(distinct.len() > 1, "profile should actually be mixed");
    }

    #[test]
    fn preemption_waves_have_restarts_and_survivors() {
        let c = cfg();
        let s = preemption_wave_scenario(&names(), &c);
        assert!(!s.faults.crashes.is_empty());
        for cr in &s.faults.crashes {
            assert!(cr.node < c.nodes);
            let restart = cr.restart.expect("spot nodes always rejoin");
            assert!(restart > cr.at);
        }
        // Each wave kills at most a quarter of the cluster.
        assert_eq!(s.faults.crashes.len(), (c.nodes / 4).max(1) * c.waves);
        assert!(s.faults.links.is_empty());
        assert_eq!(s.faults.rpc_drop_prob, 0.0);
    }

    #[test]
    fn scaled_preserves_mean_rate_at_edges() {
        // Satellite: mean-rate × k within tolerance at k = 0 and k ≫ 1.
        let patterns = [
            ArrivalPattern::Poisson { rate_per_min: 12.0 },
            ArrivalPattern::Bursty {
                rate_per_min: 120.0,
                on_secs: 60.0,
                off_secs: 240.0,
            },
            ArrivalPattern::Diurnal {
                base_per_min: 24.0,
                amplitude: 0.8,
                period_secs: 600.0,
            },
            ArrivalPattern::Periodic {
                interval_secs: 30.0,
                jitter_frac: 0.1,
            },
        ];
        for p in &patterns {
            let base = p.mean_rate_per_min();
            // k = 0: the scaled pattern generates (almost) nothing.
            let z = p.scaled(0.0);
            assert!(
                z.mean_rate_per_min() < 1e-6,
                "k=0 mean rate {}",
                z.mean_rate_per_min()
            );
            let mut rng = DetRng::new(77);
            let arrivals = z.generate(&mut rng, SimTime::from_secs(3600));
            assert!(arrivals.len() <= 1, "k=0 generated {}", arrivals.len());
            // k ≫ 1: analytic mean rate scales exactly, generated volume
            // within 10 %.
            let k = 1000.0;
            let s = p.scaled(k);
            let rel = (s.mean_rate_per_min() - base * k).abs() / (base * k);
            assert!(rel < 1e-6, "k=1000 analytic rate off by {rel}");
            let mut rng = DetRng::new(78);
            // Bursty volume is dominated by how many on/off cycles land
            // in the horizon, so it needs a long window and a wide band;
            // the others concentrate tightly over one diurnal period.
            let (horizon_min, tol) = if matches!(p, ArrivalPattern::Bursty { .. }) {
                (120.0, 0.50)
            } else {
                (10.0, 0.10)
            };
            let got = s
                .generate(&mut rng, SimTime::from_secs(60 * horizon_min as u64))
                .len() as f64;
            let want = s.mean_rate_per_min() * horizon_min;
            assert!(
                (got - want).abs() / want < tol,
                "{p:?} scaled {k}: got {got} want {want}"
            );
        }
    }
}
