//! Azure-like arrival pattern generation.
//!
//! Shahrad et al. characterize production serverless workloads as a mix
//! of pattern classes: steady Poisson-ish APIs, strongly periodic timers
//! (cron-style triggers dominate), diurnal user-facing load, and bursty
//! on/off event streams; invocation volume is heavily skewed across
//! functions. [`azure_like_trace`] assigns each function a pattern class
//! and a Pareto-skewed base rate, then scales everything by the paper's
//! 5× factor.

use crate::trace::Trace;
use medes_sim::{DetRng, SimTime};

/// A per-function arrival pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals at `rate_per_min`.
    Poisson {
        /// Mean arrivals per minute.
        rate_per_min: f64,
    },
    /// On/off bursts: Poisson at `rate_per_min` while on.
    Bursty {
        /// In-burst arrival rate (per minute).
        rate_per_min: f64,
        /// Mean burst length, seconds (exponential).
        on_secs: f64,
        /// Mean gap between bursts, seconds (exponential).
        off_secs: f64,
    },
    /// Sinusoidal rate: `base × (1 + amplitude·sin(2πt/period))`,
    /// sampled via thinning.
    Diurnal {
        /// Mean arrivals per minute.
        base_per_min: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
        /// Period, seconds.
        period_secs: f64,
    },
    /// Timer-triggered: one invocation every `interval_secs` ± jitter.
    Periodic {
        /// Trigger interval, seconds.
        interval_secs: f64,
        /// Uniform jitter as a fraction of the interval.
        jitter_frac: f64,
    },
}

impl ArrivalPattern {
    /// Generates arrival times over `[0, duration)`.
    pub fn generate(&self, rng: &mut DetRng, duration: SimTime) -> Vec<SimTime> {
        let horizon = duration.as_secs_f64();
        let mut out = Vec::new();
        match *self {
            ArrivalPattern::Poisson { rate_per_min } => {
                let mean_gap = 60.0 / rate_per_min.max(1e-9);
                let mut t = rng.exponential(mean_gap);
                while t < horizon {
                    out.push(SimTime::from_micros((t * 1e6) as u64));
                    t += rng.exponential(mean_gap);
                }
            }
            ArrivalPattern::Bursty {
                rate_per_min,
                on_secs,
                off_secs,
            } => {
                let mean_gap = 60.0 / rate_per_min.max(1e-9);
                let mut t = 0.0;
                loop {
                    // Off period, then a burst.
                    t += rng.exponential(off_secs);
                    let burst_end = t + rng.exponential(on_secs);
                    while t < burst_end && t < horizon {
                        t += rng.exponential(mean_gap);
                        if t < horizon && t < burst_end {
                            out.push(SimTime::from_micros((t * 1e6) as u64));
                        }
                    }
                    if t >= horizon {
                        break;
                    }
                    t = burst_end;
                }
            }
            ArrivalPattern::Diurnal {
                base_per_min,
                amplitude,
                period_secs,
            } => {
                // Thinning against the peak rate.
                let amp = amplitude.clamp(0.0, 1.0);
                let peak = base_per_min * (1.0 + amp);
                let mean_gap = 60.0 / peak.max(1e-9);
                let mut t = rng.exponential(mean_gap);
                while t < horizon {
                    let rate = base_per_min
                        * (1.0 + amp * (2.0 * std::f64::consts::PI * t / period_secs).sin());
                    if rng.chance(rate / peak) {
                        out.push(SimTime::from_micros((t * 1e6) as u64));
                    }
                    t += rng.exponential(mean_gap);
                }
            }
            ArrivalPattern::Periodic {
                interval_secs,
                jitter_frac,
            } => {
                let mut k = 0f64;
                loop {
                    let jitter = interval_secs * jitter_frac * (rng.f64() - 0.5) * 2.0;
                    let t = k * interval_secs + jitter.max(0.0);
                    if t >= horizon {
                        break;
                    }
                    out.push(SimTime::from_micros((t * 1e6) as u64));
                    k += 1.0;
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Scales the pattern's volume by `k` (the paper magnifies the Azure
    /// rates 5×).
    pub fn scaled(&self, k: f64) -> ArrivalPattern {
        match *self {
            ArrivalPattern::Poisson { rate_per_min } => ArrivalPattern::Poisson {
                rate_per_min: rate_per_min * k,
            },
            ArrivalPattern::Bursty {
                rate_per_min,
                on_secs,
                off_secs,
            } => ArrivalPattern::Bursty {
                rate_per_min: rate_per_min * k,
                on_secs,
                off_secs,
            },
            ArrivalPattern::Diurnal {
                base_per_min,
                amplitude,
                period_secs,
            } => ArrivalPattern::Diurnal {
                base_per_min: base_per_min * k,
                amplitude,
                period_secs,
            },
            ArrivalPattern::Periodic {
                interval_secs,
                jitter_frac,
            } => ArrivalPattern::Periodic {
                interval_secs: interval_secs / k.max(1e-9),
                jitter_frac,
            },
        }
    }
}

/// Configuration for [`azure_like_trace`].
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Trace duration, seconds.
    pub duration_secs: u64,
    /// Volume scale factor (the paper uses 5×).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            duration_secs: 3600,
            scale: 5.0,
            seed: 20220405, // EuroSys'22 dates
        }
    }
}

/// Pareto shape for per-function base rates (lower = more skew).
const RATE_PARETO_SHAPE: f64 = 1.2;
/// Minimum per-function base rate, arrivals/min (before scaling).
const MIN_RATE_PER_MIN: f64 = 0.6;

/// Generates an Azure-like multi-function trace for the named functions.
///
/// Pattern classes rotate across functions deterministically; base rates
/// are Pareto-skewed; everything is scaled by `cfg.scale`.
pub fn azure_like_trace(function_names: &[String], cfg: &TraceGenConfig) -> Trace {
    let duration = SimTime::from_secs(cfg.duration_secs);
    let root = DetRng::new(cfg.seed);
    let mut arrivals = Vec::with_capacity(function_names.len());
    for (i, _) in function_names.iter().enumerate() {
        let mut rng = root.fork(i as u64 + 1);
        // Capped at ≤ 2 requests/second before scaling.
        let base_rate = (MIN_RATE_PER_MIN * rng.pareto(1.0, RATE_PARETO_SHAPE)).min(120.0);
        // Class mix: bursty event streams dominate (they are what
        // creates pools of simultaneously-idle sandboxes), with steady,
        // diurnal and timer-triggered functions mixed in.
        let pattern = match i % 4 {
            0 => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 120.0,
                on_secs: 75.0,
                off_secs: 650.0,
            },
            1 => ArrivalPattern::Poisson {
                rate_per_min: base_rate,
            },
            2 => ArrivalPattern::Diurnal {
                base_per_min: base_rate * 8.0,
                amplitude: 0.9,
                period_secs: 900.0,
            },
            _ => ArrivalPattern::Bursty {
                rate_per_min: base_rate * 60.0,
                on_secs: 120.0,
                off_secs: 800.0,
            },
        };
        arrivals.push(pattern.scaled(cfg.scale).generate(&mut rng, duration));
    }
    Trace::from_arrivals(function_names.to_vec(), arrivals, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArrivalPattern {
        /// Approximate mean rate in arrivals per minute: the oracle the
        /// generator and `scaled` tests measure against.
        pub(crate) fn mean_rate_per_min(&self) -> f64 {
            match *self {
                ArrivalPattern::Poisson { rate_per_min } => rate_per_min,
                ArrivalPattern::Bursty {
                    rate_per_min,
                    on_secs,
                    off_secs,
                } => rate_per_min * on_secs / (on_secs + off_secs),
                ArrivalPattern::Diurnal { base_per_min, .. } => base_per_min,
                ArrivalPattern::Periodic { interval_secs, .. } => 60.0 / interval_secs,
            }
        }
    }

    fn hour() -> SimTime {
        SimTime::from_secs(3600)
    }

    #[test]
    fn poisson_rate_converges() {
        let mut rng = DetRng::new(1);
        let p = ArrivalPattern::Poisson { rate_per_min: 30.0 };
        let times = p.generate(&mut rng, hour());
        let per_min = times.len() as f64 / 60.0;
        assert!((per_min - 30.0).abs() < 3.0, "rate {per_min}/min");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Exponential gaps have a coefficient of variation of exactly 1,
    /// and the sample CV of `n` of them has a standard error of about
    /// `1/√n` (delta method: Var(s) = 2σ²/n, Var(m) = σ²/n,
    /// Cov(s, m) = σ²/n). Each seed's CV must lie within four of those.
    #[test]
    fn poisson_inter_arrival_cv_is_one() {
        for seed in 0..8 {
            let mut rng = DetRng::new(0x9015_5017).fork(seed);
            let p = ArrivalPattern::Poisson { rate_per_min: 30.0 };
            let times = p.generate(&mut rng, hour());
            let gaps: Vec<f64> = times
                .windows(2)
                .map(|w| (w[1].as_micros() - w[0].as_micros()) as f64)
                .collect();
            let n = gaps.len() as f64;
            let mean = gaps.iter().sum::<f64>() / n;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let cv = var.sqrt() / mean;
            let tol = 4.0 / n.sqrt();
            assert!(
                (cv - 1.0).abs() < tol,
                "seed {seed}: CV {cv}, n {n}, tol {tol}"
            );
        }
    }

    #[test]
    fn bursty_is_clumped() {
        let mut rng = DetRng::new(2);
        let p = ArrivalPattern::Bursty {
            rate_per_min: 120.0,
            on_secs: 30.0,
            off_secs: 300.0,
        };
        let times = p.generate(&mut rng, hour());
        assert!(!times.is_empty());
        // Burstiness: the squared-CV of inter-arrival gaps must exceed 1
        // (Poisson would be ≈ 1).
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1].as_micros() - w[0].as_micros()) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.5, "bursty CV^2 {cv2}");
    }

    #[test]
    fn periodic_intervals_are_regular() {
        let mut rng = DetRng::new(3);
        let p = ArrivalPattern::Periodic {
            interval_secs: 60.0,
            jitter_frac: 0.05,
        };
        let times = p.generate(&mut rng, hour());
        assert_eq!(times.len(), 60);
        for w in times.windows(2) {
            let gap = (w[1].as_micros() - w[0].as_micros()) as f64 / 1e6;
            assert!((50.0..70.0).contains(&gap), "gap {gap}s");
        }
    }

    #[test]
    fn diurnal_rate_varies_over_period() {
        let mut rng = DetRng::new(4);
        let p = ArrivalPattern::Diurnal {
            base_per_min: 60.0,
            amplitude: 0.9,
            period_secs: 1800.0,
        };
        let times = p.generate(&mut rng, hour());
        // Compare first quarter-period (rising) against the third
        // (trough): counts must differ visibly.
        let q = 450u64;
        let c1 = times.iter().filter(|t| t.as_secs_f64() < q as f64).count();
        let c3 = times
            .iter()
            .filter(|t| {
                let s = t.as_secs_f64();
                (2.0 * q as f64..3.0 * q as f64).contains(&s)
            })
            .count();
        assert!(
            c1 as f64 > 1.5 * c3 as f64,
            "peak {c1} vs trough {c3} arrivals"
        );
    }

    #[test]
    fn scaling_multiplies_volume() {
        let mut rng1 = DetRng::new(5);
        let mut rng2 = DetRng::new(5);
        let p = ArrivalPattern::Poisson { rate_per_min: 10.0 };
        let base = p.generate(&mut rng1, hour()).len();
        let scaled = p.scaled(5.0).generate(&mut rng2, hour()).len();
        let ratio = scaled as f64 / base as f64;
        assert!((4.0..6.0).contains(&ratio), "scale ratio {ratio}");
    }

    #[test]
    fn azure_trace_is_deterministic_and_skewed() {
        let names: Vec<String> = (0..10).map(|i| format!("F{i}")).collect();
        let cfg = TraceGenConfig {
            duration_secs: 1800,
            ..Default::default()
        };
        let t1 = azure_like_trace(&names, &cfg);
        let t2 = azure_like_trace(&names, &cfg);
        assert_eq!(t1.len(), t2.len());
        assert!(!t1.is_empty());
        let counts = t1.counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max as f64 >= 3.0 * (min.max(1)) as f64,
            "expected skew, got {counts:?}"
        );
    }

    #[test]
    fn mean_rate_estimates() {
        let p = ArrivalPattern::Bursty {
            rate_per_min: 100.0,
            on_secs: 60.0,
            off_secs: 240.0,
        };
        assert!((p.mean_rate_per_min() - 20.0).abs() < 1e-9);
        let p = ArrivalPattern::Periodic {
            interval_secs: 30.0,
            jitter_frac: 0.0,
        };
        assert!((p.mean_rate_per_min() - 2.0).abs() < 1e-9);
    }
}
