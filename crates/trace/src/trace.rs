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
    /// `arrivals[f]` holds arrival times for function `f`; each list is
    /// sorted in place and merged into `(time_us, function)` order.
    pub fn from_arrivals(
        functions: Vec<String>,
        mut arrivals: Vec<Vec<SimTime>>,
        duration: SimTime,
    ) -> Self {
        assert_eq!(functions.len(), arrivals.len());
        for times in &mut arrivals {
            times.sort_unstable();
        }
        Trace {
            functions,
            invocations: merge(&arrivals),
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

/// Merges sorted per-function lists into one list in `(time_us,
/// function)` order through a loser tree: each output costs one match
/// per level, about `log2(lists)`, and nothing is held beyond the
/// output and one head per list.
fn merge(lists: &[Vec<SimTime>]) -> Vec<Invocation> {
    let (k, total) = (lists.len(), lists.iter().map(Vec::len).sum());
    let mut out = Vec::with_capacity(total);
    // A head as one key: the time above the list's index, so equal
    // times go to the lower index; an exhausted list never wins.
    let key = |f: usize, i: usize| {
        lists[f]
            .get(i)
            .map_or(u128::MAX, |t| (t.as_micros() as u128) << 64 | f as u128)
    };
    let mut next = vec![0usize; k];
    let mut heads: Vec<u128> = (0..k).map(|f| key(f, 0)).collect();
    // Node n in 1..k holds the loser of the match played there, and
    // list f is leaf k + f; the first round plays every match once.
    let mut losers = vec![0usize; k];
    let mut winners: Vec<usize> = (0..k).chain(0..k).collect();
    for n in (1..k).rev() {
        let (a, b) = (winners[2 * n], winners[2 * n + 1]);
        (winners[n], losers[n]) = if heads[a] < heads[b] { (a, b) } else { (b, a) };
    }
    let mut win = winners.get(1).copied().unwrap_or_default();
    for _ in 0..total {
        out.push(Invocation {
            time_us: (heads[win] >> 64) as u64,
            function: win,
        });
        next[win] += 1;
        let mut wk = key(win, next[win]);
        heads[win] = wk;
        // Replay the winner's path. Which side wins is data, so the
        // matches are selects, not branches.
        let mut n = (k + win) / 2;
        while n > 0 {
            let (l, lk) = (losers[n], heads[losers[n]]);
            let swap = lk < wk;
            losers[n] = if swap { win } else { l };
            (win, wk) = if swap { (l, lk) } else { (win, wk) };
            n /= 2;
        }
    }
    out
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

    /// The merge orders exactly as sorting `(time_us, function)` pairs
    /// does.
    #[test]
    fn merge_orders_like_sorted_time_function_pairs() {
        let check = |arrivals: Vec<Vec<SimTime>>, what: &str| {
            let mut expect: Vec<(u64, usize)> = Vec::new();
            for (f, ts) in arrivals.iter().enumerate() {
                expect.extend(ts.iter().map(|t| (t.as_micros(), f)));
            }
            expect.sort_unstable();
            let names = (0..arrivals.len()).map(|f| f.to_string()).collect();
            let tr = Trace::from_arrivals(names, arrivals, SimTime::from_secs(1));
            let got: Vec<(u64, usize)> = tr
                .invocations
                .iter()
                .map(|i| (i.time_us, i.function))
                .collect();
            assert_eq!(got, expect, "{what}");
        };
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
            check(arrivals, &format!("seed {seed}"));
        }
        let at = |us: &[u64]| us.iter().map(|&u| SimTime::from_micros(u)).collect();
        check(
            vec![at(&[5, 1]), vec![], at(&[3, 1])],
            "a function with none",
        );
        check(vec![at(&[9, 2, 2, 7])], "one function");
        check(vec![at(&[4, 4]), at(&[4]), at(&[4])], "one instant");
        check(vec![vec![], vec![]], "no arrivals");
    }

    /// No key has to fit a packing: an arrival late in the `u64` range,
    /// with 40 functions, builds.
    #[test]
    fn late_arrival_with_many_functions_builds() {
        let late = SimTime::from_micros(1 << 62);
        let mut arrivals = vec![vec![]; 40];
        arrivals[39] = vec![late];
        let names = (0..40).map(|f| f.to_string()).collect();
        let tr = Trace::from_arrivals(names, arrivals, late);
        assert_eq!(
            tr.invocations,
            vec![Invocation {
                time_us: 1 << 62,
                function: 39
            }]
        );
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
