//! Sample statistics and the regression-bound rule. No workspace types.

/// Quantile of an ascending-sorted slice by sample index `⌊N·q⌋`,
/// clamped to the last sample. `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64) * q).floor() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// Sorts samples ascending (total order; the benchmark never records NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile (index `⌊N/4⌋`).
    pub q1: f64,
    /// Median: the middle sample, or the mean of the two middle ones.
    pub median: f64,
    /// Third quartile (index `⌊3N/4⌋`).
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let s = sorted(samples.to_vec());
        let n = s.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Some(Quartiles {
            q1: percentile(&s, 0.25)?,
            median,
            q3: percentile(&s, 0.75)?,
            n,
        })
    }

    /// A single exact value (simulated metrics repeat exactly).
    pub fn exact(v: f64) -> Self {
        Quartiles {
            q1: v,
            median: v,
            q3: v,
            n: 1,
        }
    }
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// The `better` field of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `cand` is worse than `base` by more than the relative bound
/// `rel`: `cand > base·(1+rel)` for lower-is-better, `cand < base·(1−rel)`
/// for higher-is-better (the `trace diff` rule with no absolute floor,
/// as `BENCHMARK.json` carries one number per metric).
pub fn exceeds_bound(base: f64, cand: f64, rel: f64, better: Better) -> bool {
    match better {
        Better::Lower => cand > base * (1.0 + rel),
        Better::Higher => cand < base * (1.0 - rel),
    }
}

/// Verdict of comparing one metric of a candidate run against a base run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median and bad-side quartile both improved by more than the bound.
    Better,
    /// Neither verdict applies: the change is inside the bound.
    Within,
    /// Median past the bound, but the candidate's good-side quartile is
    /// not: the runs do not resolve the question.
    Unresolved,
    /// Median and good-side quartile both worse by more than the bound.
    Worse,
}

impl Verdict {
    /// Row label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Applies the bound rule to the candidate's median, qualified by its
/// quartiles; "better" is the mirror image of "worse".
pub fn judge(base: &Quartiles, cand: &Quartiles, rel: f64, better: Better) -> Verdict {
    let (good_side, bad_side, opposite) = match better {
        Better::Lower => (cand.q1, cand.q3, Better::Higher),
        Better::Higher => (cand.q3, cand.q1, Better::Lower),
    };
    if exceeds_bound(base.median, cand.median, rel, better) {
        if exceeds_bound(base.median, good_side, rel, better) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if exceeds_bound(base.median, cand.median, rel, opposite)
        && exceeds_bound(base.median, bad_side, rel, opposite)
    {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `a / b`, or 0 when `b` is 0 (ratios over empty populations).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_floor_index() {
        let s: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.99), Some(9.0));
        assert_eq!(percentile(&s, 0.0), Some(0.0));
        // q = 1 would index one past the end; it clamps to the maximum.
        assert_eq!(percentile(&s, 1.0), Some(9.0));
        let t: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&t, 0.999), Some(999.0));
        assert_eq!(percentile(&t, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_of_known_samples() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 2.5, 4.0, 4));
        let q = Quartiles::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.0, 3.0, 5.0, 3));
        assert!(Quartiles::of(&[]).is_none());
    }

    #[test]
    fn bound_rule_at_its_edges() {
        // Lower is better: exactly on the limit is not a regression.
        assert!(!exceeds_bound(100.0, 110.0, 0.10, Better::Lower));
        assert!(exceeds_bound(100.0, 110.0001, 0.10, Better::Lower));
        assert!(!exceeds_bound(100.0, 50.0, 0.10, Better::Lower));
        // Higher is better mirrors it.
        assert!(!exceeds_bound(100.0, 90.0, 0.10, Better::Higher));
        assert!(exceeds_bound(100.0, 89.9999, 0.10, Better::Higher));
        // A zero bound tolerates equality only.
        assert!(!exceeds_bound(3.0, 3.0, 0.0, Better::Lower));
        assert!(exceeds_bound(3.0, 3.0000001, 0.0, Better::Lower));
    }

    #[test]
    fn verdicts() {
        let base = Quartiles {
            q1: 9.0,
            median: 10.0,
            q3: 11.0,
            n: 5,
        };
        let at = |q1, median, q3| Quartiles {
            q1,
            median,
            q3,
            n: 5,
        };
        assert_eq!(
            judge(&base, &at(9.5, 10.5, 11.5), 0.1, Better::Lower),
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &at(7.0, 8.0, 8.9), 0.1, Better::Lower),
            Verdict::Better
        );
        // Improved, but the upper quartile is still inside the bound.
        assert_eq!(
            judge(&base, &at(7.0, 8.0, 9.5), 0.1, Better::Lower),
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &at(11.5, 12.0, 13.0), 0.1, Better::Higher),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &at(10.5, 11.5, 12.0), 0.1, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&base, &at(11.2, 11.5, 12.0), 0.1, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &at(8.0, 8.5, 8.8), 0.1, Better::Higher),
            Verdict::Worse
        );
        // Exact (n = 1) values: a change inside the bound is within.
        let e = Quartiles::exact(2.0);
        assert_eq!(judge(&e, &e, 0.0, Better::Lower), Verdict::Within);
        assert_eq!(
            judge(&e, &Quartiles::exact(1.99), 0.02, Better::Lower),
            Verdict::Within
        );
        assert_eq!(
            judge(&e, &Quartiles::exact(2.1), 0.02, Better::Lower),
            Verdict::Worse
        );
    }
}
