//! Invocation traces.

use medes_sim::SimTime;

/// One function invocation request. Its request id is its index in
/// [`Trace::invocations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Arrival time, microseconds since trace start.
    pub time_us: u64,
    /// Index of the function in the trace's function table.
    pub function: usize,
}

impl Invocation {
    /// Arrival time as a [`SimTime`].
    pub fn time(&self) -> SimTime {
        SimTime::from_micros(self.time_us)
    }
}

/// A time-sorted multi-function invocation trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Function names, indexed by [`Invocation::function`].
    pub functions: Vec<String>,
    /// Invocations sorted by arrival time; a request's id is its index.
    pub invocations: Vec<Invocation>,
    /// Trace duration in microseconds.
    pub duration_us: u64,
}

impl Trace {
    /// Builds a trace from per-function arrival-time lists.
    ///
    /// `arrivals[f]` holds arrival times for function `f`; the trace is
    /// ordered by `(time_us, function)`.
    ///
    /// # Panics
    /// Panics if a time and a function index do not fit in one `u64`.
    pub fn from_arrivals(
        functions: Vec<String>,
        arrivals: Vec<Vec<SimTime>>,
        duration: SimTime,
    ) -> Self {
        assert_eq!(functions.len(), arrivals.len());
        // One `time_us << bits | function` key per arrival, sorted.
        let bits = u64::BITS - (functions.len().max(1) as u64 - 1).leading_zeros();
        let mut keys = Vec::with_capacity(arrivals.iter().map(Vec::len).sum());
        for (f, times) in arrivals.into_iter().enumerate() {
            for t in times {
                let time_us = t.as_micros();
                assert!(time_us.leading_zeros() >= bits, "key overflow");
                keys.push(time_us << bits | f as u64);
            }
        }
        keys.sort();
        let invocations = keys.iter().map(|&k| Invocation {
            time_us: k >> bits,
            function: (k & ((1 << bits) - 1)) as usize,
        });
        Trace {
            functions,
            invocations: invocations.collect(),
            duration_us: duration.as_micros(),
        }
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Index of the first invocation that arrives before its
    /// predecessor; `None` when the invocations are sorted by arrival
    /// time, as everything that replays a trace requires.
    pub fn first_out_of_order(&self) -> Option<usize> {
        let sorted = |w: &[Invocation]| w[0].time_us <= w[1].time_us;
        Some(self.invocations.windows(2).position(|w| !sorted(w))? + 1)
    }

    /// Trace duration.
    pub fn duration(&self) -> SimTime {
        SimTime::from_micros(self.duration_us)
    }

    /// Per-function invocation counts.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.functions.len()];
        for inv in &self.invocations {
            counts[inv.function] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample() -> Trace {
        Trace::from_arrivals(
            vec!["A".into(), "B".into()],
            vec![vec![t(10), t(30)], vec![t(20)]],
            SimTime::from_secs(60),
        )
    }

    #[test]
    fn build_sorts_and_ids() {
        let tr = sample();
        assert_eq!(tr.len(), 3);
        let times: Vec<u64> = tr.invocations.iter().map(|i| i.time_us).collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
        let fns: Vec<usize> = tr.invocations.iter().map(|i| i.function).collect();
        assert_eq!(fns, vec![0, 1, 0]);
        assert_eq!(tr.counts(), vec![2, 1]);
    }

    /// The packed-key sort orders exactly as sorting `(time_us,
    /// function)` pairs does.
    #[test]
    fn packed_keys_sort_like_time_function_pairs() {
        let mut rng = medes_sim::DetRng::new(0x50_27);
        for seed in 0..60u64 {
            let fns = 1 + rng.below(40) as usize;
            // Jittered (unsorted per function), run-shaped (one sorted
            // run per function) and tie-heavy (a handful of instants).
            let span = [1_000_000_000, 1_000_000_000, 4][(seed % 3) as usize];
            let arrivals: Vec<Vec<SimTime>> = (0..fns)
                .map(|_| {
                    let n = rng.below(300) as usize;
                    let mut ts: Vec<u64> = (0..n).map(|_| rng.below(span)).collect();
                    if seed % 3 == 1 {
                        ts.sort_unstable();
                    }
                    ts.into_iter().map(SimTime::from_micros).collect()
                })
                .collect();
            let mut expect: Vec<(u64, usize)> = Vec::new();
            for (f, ts) in arrivals.iter().enumerate() {
                expect.extend(ts.iter().map(|t| (t.as_micros(), f)));
            }
            expect.sort_by_key(|&k| k);
            let names = (0..fns).map(|f| f.to_string()).collect();
            let tr = Trace::from_arrivals(names, arrivals, SimTime::from_secs(1));
            let got: Vec<(u64, usize)> = tr
                .invocations
                .iter()
                .map(|i| (i.time_us, i.function))
                .collect();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "key overflow")]
    fn packed_key_must_fit() {
        let late = SimTime::from_micros(1 << 63);
        Trace::from_arrivals(vec!["A".into(), "B".into()], vec![vec![late], vec![]], late);
    }

    #[test]
    fn rates() {
        let tr = sample();
        // Arrivals per function over the trace's 60 s.
        assert_eq!(
            (tr.counts(), tr.duration()),
            (vec![2, 1], SimTime::from_secs(60))
        );
    }

    #[test]
    fn first_out_of_order_finds_the_first_late_arrival() {
        let mut tr = sample();
        assert_eq!(tr.first_out_of_order(), None);
        tr.invocations.swap(1, 2);
        assert_eq!(tr.first_out_of_order(), Some(2));
        // Equal arrival times are in order.
        tr.invocations[2].time_us = tr.invocations[1].time_us;
        assert_eq!(tr.first_out_of_order(), None);
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::default();
        assert!(tr.is_empty());
    }
}
