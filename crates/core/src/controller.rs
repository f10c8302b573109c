//! Controller-side per-function policy state.
//!
//! The controller tracks, per function: the deployed code version,
//! arrival-rate estimates, EWMA estimates of the quantities the §5
//! optimizer needs (dedup start latency, dedup footprint, restore
//! overhead), the targets the policy solver produced at the last tick,
//! and the requests waiting for capacity. Which sandboxes exist and
//! which of them are bases is not kept here: the platform's `Lifecycle`
//! and `Bases` own that, and hand the counts in.

use medes_policy::medes::{divide_budget, solve, Decision, FunctionState, Objective};
use medes_policy::MedesPolicyConfig;
use medes_sim::{SimDuration, SimTime};
use medes_trace::FunctionProfile;
use std::collections::VecDeque;

/// EWMA smoothing factor for measured quantities.
const EWMA_ALPHA: f64 = 0.2;
/// How often the controller re-solves policy targets; also the width of
/// one arrival-rate bucket.
pub(crate) const POLICY_TICK: SimDuration = SimDuration::from_secs(10);
/// Arrival-rate window: number of policy ticks whose maximum defines
/// λ_max. Twelve 10 s ticks (120–130 s): a burst keeps λ_max (and with it
/// the aggressive-dedup phase, §5.2.3) alive well past its end, which is
/// what converts post-burst idle pools into dedup sandboxes.
const RATE_WINDOW_TICKS: usize = 12;

/// A request on its way to a sandbox: travelling through dispatch, or
/// parked in its function's wait queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqInfo {
    /// Trace request id.
    pub id: u64,
    pub func: usize,
    /// Arrival time (queue wait counts into the end-to-end latency).
    pub arrival: SimTime,
}

/// Per-function controller state.
#[derive(Debug)]
pub(crate) struct FunctionRuntime {
    /// The function's profile.
    pub profile: FunctionProfile,
    /// Deployed code version (rolling deploys bump it; 0 without a
    /// deploy schedule). New sandboxes spawn with it.
    pub version: u64,
    /// The `(mu, sigma)` of the function's log-normal execution time;
    /// `None` when its execution time does not vary.
    pub exec_dist: Option<(f64, f64)>,
    /// Arrivals since the last policy tick.
    pub arrivals_this_tick: u32,
    /// Per-tick arrival counts (bounded window).
    tick_history: VecDeque<u32>,
    /// EWMA of measured dedup-start latency, µs.
    pub dedup_start_ewma_us: f64,
    /// EWMA of measured dedup footprint, paper-scale bytes.
    pub mem_dedup_ewma: f64,
    /// EWMA of measured restore read overhead, paper-scale bytes.
    pub mem_restore_ewma: f64,
    /// Latest policy targets.
    pub target: Decision,
    /// Requests waiting for capacity.
    pub wait_queue: VecDeque<ReqInfo>,
    /// Whether a RetryQueue timer is outstanding for this function
    /// (exactly one retry chain per function, never more).
    pub retry_armed: bool,
}

impl FunctionRuntime {
    /// Creates fresh state for a function.
    pub fn new(profile: FunctionProfile) -> Self {
        // Initial estimates before any measurement: dedup start ≈ 300 ms,
        // dedup footprint ≈ 50 % of warm, restore reads ≈ 30 % of warm.
        let mem = profile.memory_bytes as f64;
        let cv = profile.exec_cv.max(0.0);
        let exec_dist = (cv >= 1e-9).then(|| {
            let sigma2 = (1.0 + cv * cv).ln();
            let mu = profile.exec_time().as_secs_f64().ln() - sigma2 / 2.0;
            (mu, sigma2.sqrt())
        });
        FunctionRuntime {
            profile,
            version: 0,
            exec_dist,
            arrivals_this_tick: 0,
            tick_history: VecDeque::new(),
            dedup_start_ewma_us: 300_000.0,
            mem_dedup_ewma: mem * 0.5,
            mem_restore_ewma: mem * 0.3,
            target: Decision {
                target_warm: 0,
                target_dedup: 0,
                feasible: true,
            },
            wait_queue: VecDeque::new(),
            retry_armed: false,
        }
    }

    /// Records a request arrival (rate estimation).
    pub fn on_arrival(&mut self) {
        self.arrivals_this_tick += 1;
    }

    /// Rolls the arrival window at a policy tick.
    fn roll_tick(&mut self) {
        self.tick_history.push_back(self.arrivals_this_tick);
        self.arrivals_this_tick = 0;
        while self.tick_history.len() > RATE_WINDOW_TICKS {
            self.tick_history.pop_front();
        }
    }

    /// Peak arrival rate (requests/second) over the recent window.
    fn lambda_max(&self) -> f64 {
        let peak = self
            .tick_history
            .iter()
            .copied()
            .chain(std::iter::once(self.arrivals_this_tick))
            .max()
            .unwrap_or(0);
        peak as f64 / POLICY_TICK.as_secs_f64()
    }

    /// Folds a measured dedup-start latency into the estimate.
    pub fn record_dedup_start(&mut self, latency: SimDuration) {
        self.dedup_start_ewma_us =
            EWMA_ALPHA * latency.as_micros() as f64 + (1.0 - EWMA_ALPHA) * self.dedup_start_ewma_us;
    }

    /// Folds a measured dedup footprint (paper bytes) into the estimate.
    pub fn record_dedup_footprint(&mut self, paper_bytes: usize) {
        self.mem_dedup_ewma =
            EWMA_ALPHA * paper_bytes as f64 + (1.0 - EWMA_ALPHA) * self.mem_dedup_ewma;
    }

    /// Folds a measured restore read volume (paper bytes) into `m_R`.
    pub fn record_restore_reads(&mut self, paper_bytes: usize) {
        self.mem_restore_ewma =
            EWMA_ALPHA * paper_bytes as f64 + (1.0 - EWMA_ALPHA) * self.mem_restore_ewma;
    }

    /// Builds the optimizer input from current estimates; `sandboxes`
    /// is the function's live sandbox count, the optimizer's `C`.
    fn function_state(&self, sandboxes: u32) -> FunctionState {
        FunctionState {
            arrival_rate: self.lambda_max(),
            exec_time: self.profile.exec_time(),
            warm_start: self.profile.warm_start(),
            dedup_start: SimDuration::from_micros(self.dedup_start_ewma_us as u64),
            mem_warm: self.profile.memory_bytes as f64,
            mem_dedup: self.mem_dedup_ewma,
            mem_restore: self.mem_restore_ewma,
            sandboxes,
        }
    }
}

/// Whether a function with `dedup_total` dedup (or restoring) sandboxes
/// and `bases` base sandboxes should demarcate one more: `D/B > T`, or
/// no base exists yet (§4.1.3).
pub(crate) fn needs_base(dedup_total: u32, bases: usize, threshold: u32) -> bool {
    bases == 0 || dedup_total as f64 / bases as f64 > threshold as f64
}

/// One policy tick: rolls every function's arrival window and re-solves
/// its targets. `sandboxes(f)` is function `f`'s live sandbox count.
pub(crate) fn solve_targets(
    fns: &mut [FunctionRuntime],
    medes: &MedesPolicyConfig,
    sandboxes: impl Fn(usize) -> u32,
) {
    // Memory-budget objectives divide the cluster budget by
    // arrival-rate share (§5.3).
    let budgets = if let Objective::MemoryBudget { budget_bytes } = medes.objective {
        let rates: Vec<f64> = fns.iter().map(FunctionRuntime::lambda_max).collect();
        Some(divide_budget(budget_bytes, &rates))
    } else {
        None
    };
    // `solve` reads only the objective, which a memory budget makes
    // per-function.
    let mut cfg_i = medes.clone();
    for (i, rt) in fns.iter_mut().enumerate() {
        rt.roll_tick();
        let state = rt.function_state(sandboxes(i));
        if let Some(b) = &budgets {
            cfg_i.objective = Objective::MemoryBudget { budget_bytes: b[i] };
        }
        rt.target = solve(&cfg_i, &state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_trace::functionbench_suite;

    fn runtime() -> FunctionRuntime {
        FunctionRuntime::new(functionbench_suite()[0].clone())
    }

    #[test]
    fn lambda_max_tracks_peak_tick() {
        let mut rt = runtime();
        for n in [5u32, 50, 10] {
            rt.arrivals_this_tick = n;
            rt.roll_tick();
        }
        assert!((rt.lambda_max() - 5.0).abs() < 1e-9, "50 per 10s tick");
        // Window bounded: old peaks age out.
        for _ in 0..RATE_WINDOW_TICKS {
            rt.roll_tick();
        }
        assert_eq!(rt.lambda_max(), 0.0);
    }

    #[test]
    fn ewma_estimates_move_toward_measurements() {
        let mut rt = runtime();
        let before = rt.dedup_start_ewma_us;
        rt.record_dedup_start(SimDuration::from_millis(150));
        assert!(rt.dedup_start_ewma_us < before);
        let mem_before = rt.mem_dedup_ewma;
        rt.record_dedup_footprint(1 << 20);
        assert!(rt.mem_dedup_ewma < mem_before);
        let mr_before = rt.mem_restore_ewma;
        rt.record_restore_reads(1 << 20);
        assert!(rt.mem_restore_ewma < mr_before);
    }

    #[test]
    fn base_demarcation_rule() {
        assert!(needs_base(0, 0, 40), "no base yet: must demarcate");
        assert!(!needs_base(40, 1, 40), "D/B = 40 is not > 40");
        assert!(needs_base(41, 1, 40), "D/B = 41 > 40");
        assert!(!needs_base(41, 2, 40), "second base resets the ratio");
    }

    #[test]
    fn function_state_reflects_profile() {
        let rt = runtime();
        let s = rt.function_state(0);
        assert_eq!(s.mem_warm, rt.profile.memory_bytes as f64);
        assert_eq!(s.sandboxes, 0);
        assert!(s.dedup_start > s.warm_start);
    }
}
