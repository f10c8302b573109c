//! Statistics for the metrics pipeline.
//!
//! The evaluation reports means, medians, extreme percentiles (p99.9),
//! CDFs, and time-weighted memory usage. [`Percentiles`] keeps every
//! sample and interpolates between ranks, [`Histogram`] buckets a
//! signal at a fixed width, and [`TimeWeighted`] integrates a
//! piecewise-constant one — without pulling in a stats crate.

use crate::time::{SimDuration, SimTime};

/// Exact percentile tracker: stores all samples, sorts lazily.
///
/// The experiments record at most a few hundred thousand latency samples,
/// so exact storage is cheap and avoids approximation artifacts in the
/// p99.9 numbers the paper reports.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`, clamped): linear
    /// interpolation between the two samples around rank
    /// `q · (n − 1)` of the sorted samples, so the median of 0..=9 is
    /// 4.5. Returns `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Returns `(value, cumulative_fraction)` pairs suitable for plotting
    /// a CDF, downsampled to at most `points` points.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let step = (n.max(points) / points).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = 0;
        while i < n {
            out.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(_, f)| f) != Some(1.0) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }
}

/// Fixed-width histogram over `[0, width * bins)`, with an overflow
/// bucket. Used by the adaptive keep-alive policy (idle-time histogram)
/// and by reporting code.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` buckets of `width` each.
    pub fn new(width: f64, bins: usize) -> Self {
        assert!(width > 0.0 && bins > 0);
        Histogram {
            width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Records an observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.counts[0] += 1;
            return;
        }
        let idx = (x / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile, or `None` if
    /// empty. Overflowed observations map to `None` bound (represented by
    /// the histogram's full range).
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i + 1) as f64 * self.width);
            }
        }
        Some(self.counts.len() as f64 * self.width)
    }

    /// Fraction of observations in the overflow bucket.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }
}

/// A time-weighted scalar series: tracks the integral of a piecewise-
/// constant signal (e.g. cluster memory usage) and produces its
/// time-weighted mean plus sampled points for plotting.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    started: bool,
    samples: Vec<(SimTime, f64)>,
    point_every: SimDuration,
    next_sample: SimTime,
    values: Percentiles,
}

impl TimeWeighted {
    /// Creates a series that additionally snapshots the value every
    /// `point_every` (for time-series plots).
    pub fn new(point_every: SimDuration) -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            integral: 0.0,
            started: false,
            samples: Vec::new(),
            point_every,
            next_sample: SimTime::ZERO,
            values: Percentiles::new(),
        }
    }

    /// Records that the signal changed to `value` at `now`.
    pub fn update(&mut self, now: SimTime, value: f64) {
        if self.started {
            let dt = now.since(self.last_time).as_secs_f64();
            self.integral += self.last_value * dt;
            while self.next_sample <= now {
                self.samples.push((self.next_sample, self.last_value));
                self.values.record(self.last_value);
                self.next_sample += self.point_every;
            }
        } else {
            self.started = true;
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// Time-weighted mean over `[0, end]`.
    pub fn mean_until(&self, end: SimTime) -> f64 {
        let span = end.as_secs_f64();
        if span <= 0.0 {
            return self.last_value;
        }
        let tail = end.since(self.last_time).as_secs_f64() * self.last_value;
        (self.integral + tail) / span
    }

    /// Median of the periodic snapshots.
    pub fn median(&mut self) -> Option<f64> {
        self.values.quantile(0.5)
    }

    /// The sampled `(time, value)` series.
    pub fn series(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// The value of the last update; `None` before the first.
    pub fn last(&self) -> Option<f64> {
        self.started.then_some(self.last_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_quantiles() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.record(i as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.quantile(0.5).unwrap() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.99).unwrap() - 99.01).abs() < 0.02);
        assert!(p.quantile(2.0).unwrap() <= 100.0);
    }

    #[test]
    fn percentiles_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert!(p.cdf(10).is_empty());
    }

    #[test]
    fn cdf_monotone_and_terminates_at_one() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.record((i % 97) as f64);
        }
        let cdf = p.cdf(50);
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = Histogram::new(1.0, 10);
        for x in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5] {
            h.record(x);
        }
        assert_eq!(h.total, 10);
        assert_eq!(h.quantile_upper_bound(0.5), Some(5.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(10.0));
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(1.0, 4);
        h.record(100.0);
        h.record(1.5);
        assert_eq!(h.overflow, 1);
        assert!((h.overflow_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(h.counts, [0, 1, 0, 0]);
        assert_eq!(h.total, 2);
    }

    #[test]
    fn percentiles_single_sample() {
        let mut p = Percentiles::new();
        p.record(42.0);
        // Every quantile of a one-sample distribution is that sample.
        assert_eq!(p.quantile(0.0), Some(42.0));
        assert_eq!(p.quantile(0.5), Some(42.0));
        assert_eq!(p.quantile(1.0), Some(42.0));
        assert_eq!(p.cdf(10), vec![(42.0, 1.0)]);
    }

    #[test]
    fn percentiles_extreme_q_clamps() {
        let mut p = Percentiles::new();
        for x in [3.0, 1.0, 2.0] {
            p.record(x);
        }
        // Out-of-range q clamps to the min/max sample, never panics.
        assert_eq!(p.quantile(-1.0), Some(1.0));
        assert_eq!(p.quantile(2.0), Some(3.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(3.0));
    }

    #[test]
    fn time_weighted_out_of_order_update_is_safe() {
        let mut tw = TimeWeighted::new(SimDuration::from_secs(1));
        tw.update(SimTime::from_secs(10), 4.0);
        // A stale (earlier) update must not subtract from the integral:
        // `since` saturates, so the interval contributes zero weight.
        tw.update(SimTime::from_secs(5), 8.0);
        assert_eq!(tw.last(), Some(8.0), "the last update wins, stale or not");
        let mean = tw.mean_until(SimTime::from_secs(10));
        assert!(mean.is_finite());
        assert!(mean >= 0.0, "mean {mean}");
    }

    #[test]
    fn time_weighted_zero_duration_updates() {
        let mut tw = TimeWeighted::new(SimDuration::from_secs(1));
        // Two updates at the same instant: the later value wins and the
        // zero-length interval adds no weight.
        tw.update(SimTime::from_secs(1), 100.0);
        tw.update(SimTime::from_secs(1), 2.0);
        tw.update(SimTime::from_secs(3), 2.0);
        let mean = tw.mean_until(SimTime::from_secs(3));
        // [1s,3s) at value 2.0 over a 3s window -> integral 4/3s... but
        // the first second (before any update) weighs zero.
        assert!((mean - 2.0 * 2.0 / 3.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn time_weighted_mean_until_zero_span() {
        let mut tw = TimeWeighted::new(SimDuration::from_secs(1));
        assert_eq!(tw.last(), None);
        tw.update(SimTime::ZERO, 7.0);
        // Zero-length window: falls back to the current value rather
        // than dividing by zero.
        assert_eq!(tw.mean_until(SimTime::ZERO), 7.0);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(SimDuration::from_secs(1));
        tw.update(SimTime::ZERO, 10.0);
        tw.update(SimTime::from_secs(10), 20.0);
        // 10s at 10.0, then 10s at 20.0 -> mean 15.0 at t=20s.
        let mean = tw.mean_until(SimTime::from_secs(20));
        assert!((mean - 15.0).abs() < 1e-9, "mean {mean}");
        assert!(!tw.series().is_empty());
    }
}
