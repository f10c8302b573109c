//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] describes everything that can go wrong during a run:
//! node crashes (with optional restarts), per-link RDMA fault windows
//! (error injection or latency spikes) and a cluster-wide RPC drop
//! probability. Plans are plain data — building one does not draw any
//! randomness — and the compiled [`FaultSchedule`] derives every
//! probabilistic decision from a [`DetRng`] forked off the plan's seed,
//! so a chaos run is exactly as reproducible as a fault-free one.
//!
//! The empty plan ([`FaultPlan::default`]) is the provable no-op: the
//! fabric skips the fault layer entirely when no schedule is installed.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A scheduled node crash, and optionally when the node comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// The node that fails.
    pub node: usize,
    /// When it fails.
    pub at: SimTime,
    /// When it rejoins the cluster (`None` = never).
    pub restart: Option<SimTime>,
}

/// What a link-fault window does to traffic crossing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// Every operation through the window fails with this probability.
    Error {
        /// Per-operation failure probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// Wire time is multiplied by this factor (≥ 1).
    LatencySpike {
        /// Latency multiplier.
        factor: f64,
    },
}

/// A time window during which a link misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultWindow {
    /// Source node filter (`None` matches any source).
    pub src: Option<usize>,
    /// Destination node filter (`None` matches any destination).
    pub dst: Option<usize>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// What happens inside the window.
    pub kind: LinkFaultKind,
}

impl LinkFaultWindow {
    fn matches(&self, src: usize, dst: usize, t: SimTime) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && t >= self.from
            && t < self.until
    }
}

/// A complete, seeded fault plan. The default plan is empty: no crashes,
/// no link windows, no RPC drops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic fault decision.
    pub seed: u64,
    /// Scheduled node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Link fault windows.
    pub links: Vec<LinkFaultWindow>,
    /// Probability that any RPC round trip is dropped.
    pub rpc_drop_prob: f64,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.links.is_empty() && self.rpc_drop_prob <= 0.0
    }

    /// Synthesizes a plan of intensity `rate` ∈ [0, 20] for a cluster of
    /// `nodes` nodes over `duration`: ~`rate·nodes/4` crashes (mostly
    /// with restarts, and never so many permanent ones that fewer than
    /// half the nodes survive), `rate·nodes` link fault windows and an
    /// RPC drop probability of `0.05·rate` (hence the bound on `rate`).
    /// `rate <= 0` yields the empty plan. Deterministic in `(seed, nodes, duration, rate)`.
    pub fn synthesize(seed: u64, nodes: usize, duration: SimTime, rate: f64) -> Self {
        if rate <= 0.0 || nodes == 0 || duration == SimTime::ZERO {
            return FaultPlan {
                seed,
                ..FaultPlan::default()
            };
        }
        let mut rng = DetRng::new(seed).fork(0xFA17);
        let span = duration.as_micros();
        let at_frac = |rng: &mut DetRng, lo: f64, hi: f64| {
            SimTime::from_micros((span as f64 * rng.range_f64(lo, hi)) as u64)
        };

        let mut crashes = Vec::new();
        let n_crashes = ((rate * nodes as f64 / 4.0).round() as usize).max(1);
        let mut permanent = 0usize;
        for _ in 0..n_crashes {
            let node = rng.below(nodes as u64) as usize;
            let at = at_frac(&mut rng, 0.2, 0.8);
            // Most crashes restart; cap permanent losses so at least
            // half the cluster always survives.
            let may_be_permanent = permanent + 1 < nodes.div_ceil(2);
            let restart = if may_be_permanent && rng.chance(0.25) {
                permanent += 1;
                None
            } else {
                Some(at + SimDuration::from_micros((span as f64 * rng.range_f64(0.1, 0.25)) as u64))
            };
            crashes.push(NodeCrash { node, at, restart });
        }

        let mut links = Vec::new();
        for _ in 0..((rate * nodes as f64).round() as usize) {
            let from = at_frac(&mut rng, 0.1, 0.9);
            let until =
                from + SimDuration::from_micros((span as f64 * rng.range_f64(0.02, 0.10)) as u64);
            let kind = if rng.chance(0.5) {
                LinkFaultKind::Error {
                    drop_prob: rng.range_f64(0.3, 0.9),
                }
            } else {
                LinkFaultKind::LatencySpike {
                    factor: rng.range_f64(2.0, 10.0),
                }
            };
            links.push(LinkFaultWindow {
                src: Some(rng.below(nodes as u64) as usize),
                dst: None,
                from,
                until,
                kind,
            });
        }

        FaultPlan {
            seed,
            crashes,
            links,
            rpc_drop_prob: 0.05 * rate,
        }
    }
}

/// A [`FaultPlan`] compiled for query-time use, carrying the forked RNG
/// that decides probabilistic outcomes. Queries that can fail draw from
/// the RNG **only** when a matching fault exists, so fault-free traffic
/// never consumes randomness.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    crashes: Vec<NodeCrash>,
    links: Vec<LinkFaultWindow>,
    rpc_drop_prob: f64,
    rng: DetRng,
}

impl FaultSchedule {
    /// Compiles a plan into a queryable schedule.
    pub fn compile(plan: &FaultPlan) -> Self {
        FaultSchedule {
            crashes: plan.crashes.clone(),
            links: plan.links.clone(),
            rpc_drop_prob: plan.rpc_drop_prob,
            rng: DetRng::new(plan.seed).fork(0x5C4ED),
        }
    }

    /// Whether `node` is down at instant `t`.
    pub fn node_down(&self, node: usize, t: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && t >= c.at && c.restart.is_none_or(|r| t < r))
    }

    /// Whether an operation on link `src → dst` at `t` fails. Draws the
    /// RNG once per matching error window.
    pub fn link_error(&mut self, src: usize, dst: usize, t: SimTime) -> bool {
        for i in 0..self.links.len() {
            let w = self.links[i];
            if let LinkFaultKind::Error { drop_prob } = w.kind {
                if w.matches(src, dst, t) && self.rng.chance(drop_prob) {
                    return true;
                }
            }
        }
        false
    }

    /// The latency multiplier on link `src → dst` at `t` (max over
    /// matching spike windows; 1.0 when none matches).
    pub fn latency_factor(&self, src: usize, dst: usize, t: SimTime) -> f64 {
        let mut factor = 1.0f64;
        for w in &self.links {
            if let LinkFaultKind::LatencySpike { factor: k } = w.kind {
                if w.matches(src, dst, t) {
                    factor = factor.max(k);
                }
            }
        }
        factor
    }

    /// Whether an RPC at `t` is dropped. Draws the RNG only when the
    /// drop probability is nonzero.
    pub fn rpc_dropped(&mut self, _t: SimTime) -> bool {
        self.rpc_drop_prob > 0.0 && self.rng.chance(self.rpc_drop_prob)
    }

    /// The schedule's RNG, for callers that need to flavor a failure
    /// (e.g. choosing between timeout and partial read) without keeping
    /// a second seeded stream.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::synthesize(1, 8, SimTime::from_secs(60), 0.0).is_empty());
        let plan = FaultPlan::synthesize(1, 8, SimTime::from_secs(60), 0.5);
        assert!(!plan.is_empty());
    }

    #[test]
    fn synthesize_is_deterministic() {
        let a = FaultPlan::synthesize(7, 12, SimTime::from_secs(600), 0.5);
        let b = FaultPlan::synthesize(7, 12, SimTime::from_secs(600), 0.5);
        assert_eq!(a, b);
        let c = FaultPlan::synthesize(8, 12, SimTime::from_secs(600), 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn synthesize_scales_with_rate_and_keeps_half_the_cluster() {
        for nodes in [2usize, 4, 12] {
            for rate in [0.25, 0.5, 1.0] {
                let plan = FaultPlan::synthesize(3, nodes, SimTime::from_secs(600), rate);
                assert!(!plan.crashes.is_empty());
                let permanent = plan.crashes.iter().filter(|c| c.restart.is_none()).count();
                assert!(
                    permanent < nodes.div_ceil(2),
                    "{permanent} permanent crashes on {nodes} nodes"
                );
                assert!(plan.rpc_drop_prob > 0.0 && plan.rpc_drop_prob <= 0.05);
            }
        }
    }

    #[test]
    fn node_down_respects_restart() {
        let plan = FaultPlan {
            crashes: vec![
                NodeCrash {
                    node: 1,
                    at: SimTime::from_secs(10),
                    restart: Some(SimTime::from_secs(20)),
                },
                NodeCrash {
                    node: 2,
                    at: SimTime::from_secs(5),
                    restart: None,
                },
            ],
            ..FaultPlan::default()
        };
        let s = FaultSchedule::compile(&plan);
        assert!(!s.node_down(1, SimTime::from_secs(9)));
        assert!(s.node_down(1, SimTime::from_secs(10)));
        assert!(s.node_down(1, SimTime::from_secs(19)));
        assert!(!s.node_down(1, SimTime::from_secs(20)));
        assert!(s.node_down(2, SimTime::from_secs(1000)));
        assert!(!s.node_down(0, SimTime::from_secs(1000)));
    }

    #[test]
    fn link_windows_match_and_spike() {
        let plan = FaultPlan {
            links: vec![
                LinkFaultWindow {
                    src: Some(0),
                    dst: None,
                    from: SimTime::from_secs(1),
                    until: SimTime::from_secs(2),
                    kind: LinkFaultKind::Error { drop_prob: 1.0 },
                },
                LinkFaultWindow {
                    src: None,
                    dst: Some(3),
                    from: SimTime::from_secs(1),
                    until: SimTime::from_secs(2),
                    kind: LinkFaultKind::LatencySpike { factor: 4.0 },
                },
            ],
            ..FaultPlan::default()
        };
        let mut s = FaultSchedule::compile(&plan);
        // Inside the window with drop_prob = 1 every op fails.
        assert!(s.link_error(0, 2, SimTime::from_millis(1500)));
        // Outside the window, or from a different source, nothing fails.
        assert!(!s.link_error(0, 2, SimTime::from_millis(2500)));
        assert!(!s.link_error(1, 2, SimTime::from_millis(1500)));
        assert_eq!(s.latency_factor(1, 3, SimTime::from_millis(1500)), 4.0);
        assert_eq!(s.latency_factor(1, 2, SimTime::from_millis(1500)), 1.0);
        assert_eq!(s.latency_factor(1, 3, SimTime::from_millis(2500)), 1.0);
    }

    #[test]
    fn schedule_outcomes_are_reproducible() {
        let plan = FaultPlan {
            links: vec![LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::ZERO,
                until: SimTime::from_secs(100),
                kind: LinkFaultKind::Error { drop_prob: 0.5 },
            }],
            rpc_drop_prob: 0.3,
            seed: 99,
            ..FaultPlan::default()
        };
        let mut a = FaultSchedule::compile(&plan);
        let mut b = FaultSchedule::compile(&plan);
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 10);
            assert_eq!(a.link_error(0, 1, t), b.link_error(0, 1, t));
            assert_eq!(a.rpc_dropped(t), b.rpc_dropped(t));
        }
    }
}
