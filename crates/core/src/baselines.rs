//! Convenience runners for the paper's baseline comparisons.

use crate::config::{PlatformConfig, PolicyKind};
use crate::metrics::RunReport;
use crate::platform::Platform;
use medes_sim::SimDuration;
use medes_trace::{FunctionProfile, Trace};

/// The three policies of §7.2 side by side.
#[derive(Debug)]
pub struct Comparison {
    /// Medes (the configured policy if already Medes).
    pub medes: RunReport,
    /// Fixed keep-alive (10 min unless overridden).
    pub fixed: RunReport,
    /// Adaptive keep-alive.
    pub adaptive: RunReport,
}

/// Runs the same trace under Medes, fixed keep-alive, and adaptive
/// keep-alive, holding everything else constant (§7.2 methodology).
pub fn run_comparison(
    cfg: &PlatformConfig,
    profiles: &[FunctionProfile],
    trace: &Trace,
    fixed_window: SimDuration,
) -> Comparison {
    let medes_cfg = if cfg.is_medes() {
        cfg.clone()
    } else {
        cfg.clone()
            .with_policy(PolicyKind::Medes(Default::default()))
    };
    let medes = Platform::new(medes_cfg, profiles.to_vec())
        .run(trace)
        .report;
    let fixed = Platform::new(
        cfg.clone()
            .with_policy(PolicyKind::FixedKeepAlive(fixed_window)),
        profiles.to_vec(),
    )
    .run(trace)
    .report;
    let adaptive = Platform::new(
        cfg.clone().with_policy(PolicyKind::AdaptiveKeepAlive),
        profiles.to_vec(),
    )
    .run(trace)
    .report;
    Comparison {
        medes,
        fixed,
        adaptive,
    }
}

/// Runs a sweep of fixed keep-alive windows (§7.5) and returns
/// `(window, report)` pairs.
pub fn keep_alive_sweep(
    cfg: &PlatformConfig,
    profiles: &[FunctionProfile],
    trace: &Trace,
    windows: &[SimDuration],
) -> Vec<(SimDuration, RunReport)> {
    windows
        .iter()
        .map(|&w| {
            let report = Platform::new(
                cfg.clone().with_policy(PolicyKind::FixedKeepAlive(w)),
                profiles.to_vec(),
            )
            .run(trace)
            .report;
            (w, report)
        })
        .collect()
}

/// Snapshot-restore latency of the emulated Catalyzer (§7.6).
pub const CATALYZER_RESTORE: SimDuration = SimDuration::from_millis(150);

/// The emulated-Catalyzer preset (§7.6): the same functions, with every
/// cold start replaced by a snapshot restore. A spawn is the only
/// reader of a profile's cold-start time, so no platform knob is needed.
pub fn catalyzer_profiles(profiles: &[FunctionProfile]) -> Vec<FunctionProfile> {
    profiles
        .iter()
        .map(|p| FunctionProfile {
            cold_start_us: CATALYZER_RESTORE.as_micros(),
            ..p.clone()
        })
        .collect()
}

/// Runs the emulated-Catalyzer experiment (§7.6): cold starts are
/// replaced by snapshot restores, with and without Medes on top.
pub fn catalyzer_comparison(
    cfg: &PlatformConfig,
    profiles: &[FunctionProfile],
    trace: &Trace,
) -> (RunReport, RunReport) {
    let profiles = catalyzer_profiles(profiles);
    let plain = cfg
        .clone()
        .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
    let without_medes = Platform::new(plain, profiles.clone()).run(trace).report;

    let with = if cfg.is_medes() {
        cfg.clone()
    } else {
        cfg.clone()
            .with_policy(PolicyKind::Medes(Default::default()))
    };
    let with_medes = Platform::new(with, profiles).run(trace).report;
    (without_medes, with_medes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_trace::{azure_like_trace, functionbench_suite, TraceGenConfig};

    fn setup() -> (PlatformConfig, Vec<FunctionProfile>, Trace) {
        let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(3).collect();
        let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
        let trace = azure_like_trace(
            &names,
            &TraceGenConfig {
                duration_secs: 120,
                scale: 2.0,
                seed: 3,
                ..Default::default()
            },
        );
        (PlatformConfig::small_test(), suite, trace)
    }

    #[test]
    fn comparison_runs_all_three() {
        let (cfg, suite, trace) = setup();
        let c = run_comparison(&cfg, &suite, &trace, SimDuration::from_mins(10));
        assert_eq!(c.medes.requests.len(), trace.len());
        assert_eq!(c.fixed.requests.len(), trace.len());
        assert_eq!(c.adaptive.requests.len(), trace.len());
        assert_eq!(c.fixed.sandboxes_deduped, 0);
        assert_eq!(c.adaptive.sandboxes_deduped, 0);
    }

    #[test]
    fn sweep_covers_all_windows() {
        let (cfg, suite, trace) = setup();
        let windows = [SimDuration::from_mins(5), SimDuration::from_mins(10)];
        let results = keep_alive_sweep(&cfg, &suite, &trace, &windows);
        assert_eq!(results.len(), 2);
        for (_, r) in &results {
            assert_eq!(r.requests.len(), trace.len());
        }
    }

    #[test]
    fn catalyzer_preset_shrinks_cold_start_latency() {
        let (cfg, suite, trace) = setup();
        let (plain, with_medes) = catalyzer_comparison(&cfg, &suite, &trace);
        assert_eq!(plain.requests.len(), trace.len());
        assert_eq!(with_medes.requests.len(), trace.len());
        // Cold starts now cost the snapshot-restore time: their startup
        // must be ≤ the restore time + scheduling slack.
        let cap_us = CATALYZER_RESTORE.as_micros() + 200_000;
        for r in plain
            .requests
            .iter()
            .filter(|r| r.start == crate::metrics::StartType::Cold && r.startup_us < 500_000)
        {
            assert!(
                r.startup_us <= cap_us,
                "catalyzer cold start {}us",
                r.startup_us
            );
        }
    }
}
