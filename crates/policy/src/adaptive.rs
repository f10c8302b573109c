//! Adaptive keep-alive — the hybrid-histogram policy of Shahrad et al.
//! ("Serverless in the Wild", the paper's \[29\]), as adopted by Azure
//! Functions.
//!
//! Per function, a histogram of request inter-arrival times (1-minute
//! bins over a 4-hour range) is maintained. The keep-alive window is
//! chosen to cover a target percentile (99 %) of observed inter-arrival
//! times, with a margin, clamped to `[min, max]`. Functions whose
//! arrivals mostly fall outside the histogram range (strongly sparse)
//! get the maximum window; functions with no history get a conservative
//! default.

use crate::keepalive::KeepAlivePolicy;
use medes_sim::stats::Histogram;
use medes_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Tuning for [`AdaptiveKeepAlive`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Histogram bin width.
    pub bin: SimDuration,
    /// Number of bins (range = bin × bins).
    pub bins: usize,
    /// Percentile of inter-arrival times to cover.
    pub percentile: f64,
    /// Multiplicative safety margin on the chosen window.
    pub margin: f64,
    /// Window bounds.
    pub min_window: SimDuration,
    /// Upper bound on the window.
    pub max_window: SimDuration,
    /// Window used before enough observations accumulate.
    pub default_window: SimDuration,
    /// Observations needed before the histogram is trusted.
    pub min_samples: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            bin: SimDuration::from_mins(1),
            bins: 240,
            percentile: 0.99,
            margin: 1.10,
            min_window: SimDuration::from_mins(1),
            max_window: SimDuration::from_mins(30),
            default_window: SimDuration::from_mins(10),
            min_samples: 8,
        }
    }
}

#[derive(Debug)]
struct FunctionHistory {
    last_arrival: Option<SimTime>,
    histogram: Histogram,
    samples: u64,
}

/// The adaptive keep-alive policy.
#[derive(Debug)]
pub struct AdaptiveKeepAlive {
    cfg: AdaptiveConfig,
    functions: HashMap<usize, FunctionHistory>,
}

impl AdaptiveKeepAlive {
    /// Creates the policy.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveKeepAlive {
            cfg,
            functions: HashMap::new(),
        }
    }

    /// Creates the policy with default (paper-like) tuning.
    pub fn paper_default() -> Self {
        Self::new(AdaptiveConfig::default())
    }

    /// Number of inter-arrival samples recorded for a function.
    pub fn samples(&self, function: usize) -> u64 {
        self.functions.get(&function).map_or(0, |h| h.samples)
    }
}

impl KeepAlivePolicy for AdaptiveKeepAlive {
    fn on_request(&mut self, function: usize, now: SimTime) {
        let cfg = &self.cfg;
        let entry = self
            .functions
            .entry(function)
            .or_insert_with(|| FunctionHistory {
                last_arrival: None,
                histogram: Histogram::new(cfg.bin.as_secs_f64(), cfg.bins),
                samples: 0,
            });
        if let Some(last) = entry.last_arrival {
            let gap = now.since(last).as_secs_f64();
            entry.histogram.record(gap);
            entry.samples += 1;
        }
        entry.last_arrival = Some(now);
    }

    fn keep_alive(&self, function: usize) -> SimDuration {
        let Some(h) = self.functions.get(&function) else {
            return self.cfg.default_window;
        };
        if h.samples < self.cfg.min_samples {
            return self.cfg.default_window;
        }
        // Heavily out-of-range functions: arrivals are so sparse that
        // keeping sandboxes is futile below the max window.
        if h.histogram.overflow_fraction() > 0.5 {
            return self.cfg.max_window;
        }
        let Some(bound_secs) = h.histogram.quantile_upper_bound(self.cfg.percentile) else {
            return self.cfg.default_window;
        };
        let window = SimDuration::from_secs_f64(bound_secs * self.cfg.margin);
        window.clamp(self.cfg.min_window, self.cfg.max_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(policy: &mut AdaptiveKeepAlive, function: usize, gaps_secs: &[u64]) {
        let mut t = SimTime::ZERO;
        policy.on_request(function, t);
        for &g in gaps_secs {
            t += SimDuration::from_secs(g);
            policy.on_request(function, t);
        }
    }

    #[test]
    fn no_history_gives_default() {
        let p = AdaptiveKeepAlive::paper_default();
        assert_eq!(p.keep_alive(0), AdaptiveConfig::default().default_window);
    }

    #[test]
    fn frequent_function_gets_short_window() {
        let mut p = AdaptiveKeepAlive::paper_default();
        arrivals(&mut p, 0, &[20; 50]); // arrivals every 20 s
        let w = p.keep_alive(0);
        assert!(
            w <= SimDuration::from_mins(2),
            "frequent function window {w:?}"
        );
        assert_eq!(p.samples(0), 50);
    }

    #[test]
    fn sparse_function_gets_long_window() {
        let mut p = AdaptiveKeepAlive::paper_default();
        arrivals(&mut p, 1, &[20 * 60; 20]); // every 20 min
        let w = p.keep_alive(1);
        assert!(
            w >= SimDuration::from_mins(20),
            "sparse function window {w:?}"
        );
    }

    #[test]
    fn window_respects_bounds() {
        let mut p = AdaptiveKeepAlive::paper_default();
        arrivals(&mut p, 2, &[1; 30]); // every second
        assert!(p.keep_alive(2) >= AdaptiveConfig::default().min_window);
        let mut p2 = AdaptiveKeepAlive::paper_default();
        arrivals(&mut p2, 3, &[10 * 3600; 10]); // every 10 h: overflow
        assert_eq!(p2.keep_alive(3), AdaptiveConfig::default().max_window);
    }

    #[test]
    fn functions_are_independent() {
        let mut p = AdaptiveKeepAlive::paper_default();
        arrivals(&mut p, 0, &[20; 50]);
        arrivals(&mut p, 1, &[1500; 20]);
        assert!(p.keep_alive(0) < p.keep_alive(1));
    }

    #[test]
    fn mixed_gaps_track_the_tail_percentile() {
        let mut p = AdaptiveKeepAlive::paper_default();
        // 95 short gaps, 5 nine-minute gaps: p99 should cover ~9 min.
        let mut gaps = vec![30u64; 95];
        gaps.extend([9 * 60; 5]);
        arrivals(&mut p, 0, &gaps);
        let w = p.keep_alive(0);
        assert!(w >= SimDuration::from_mins(9), "tail-tracking window {w:?}");
    }
}
