//! Invocation traces.

use medes_obs::json::{self, Json, JsonMap};
use medes_sim::SimTime;

/// One function invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Arrival time, microseconds since trace start.
    pub time_us: u64,
    /// Index of the function in the trace's function table.
    pub function: usize,
    /// Unique request id (dense, assigned at trace build).
    pub id: u64,
}

impl Invocation {
    /// Arrival time as a [`SimTime`].
    pub fn time(&self) -> SimTime {
        SimTime::from_micros(self.time_us)
    }
}

/// A time-sorted multi-function invocation trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Function names, indexed by [`Invocation::function`].
    pub functions: Vec<String>,
    /// Invocations sorted by arrival time.
    pub invocations: Vec<Invocation>,
    /// Trace duration in microseconds.
    pub duration_us: u64,
}

impl Trace {
    /// Builds a trace from per-function arrival-time lists.
    ///
    /// `arrivals[f]` holds arrival times for function `f`.
    pub fn from_arrivals(
        functions: Vec<String>,
        arrivals: Vec<Vec<SimTime>>,
        duration: SimTime,
    ) -> Self {
        assert_eq!(functions.len(), arrivals.len());
        let mut invocations: Vec<Invocation> = arrivals
            .into_iter()
            .enumerate()
            .flat_map(|(f, times)| {
                times.into_iter().map(move |t| Invocation {
                    time_us: t.as_micros(),
                    function: f,
                    id: 0,
                })
            })
            .collect();
        invocations.sort_by_key(|i| (i.time_us, i.function));
        for (id, inv) in invocations.iter_mut().enumerate() {
            inv.id = id as u64;
        }
        Trace {
            functions,
            invocations,
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

    /// Average arrival rate of one function, in requests per second.
    pub fn rate_per_sec(&self, function: usize) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs == 0.0 || function >= self.functions.len() {
            return 0.0;
        }
        self.counts()[function] as f64 / secs
    }

    /// Restricts the trace to a subset of functions (used by the
    /// representative-workload experiments, §7.5). Function indices are
    /// remapped densely; request ids are reassigned.
    pub fn filter_functions(&self, keep: &[&str]) -> Trace {
        let mut map = vec![usize::MAX; self.functions.len()];
        let mut functions = Vec::new();
        for (i, name) in self.functions.iter().enumerate() {
            if keep.contains(&name.as_str()) {
                map[i] = functions.len();
                functions.push(name.clone());
            }
        }
        let mut invocations: Vec<Invocation> = self
            .invocations
            .iter()
            .filter(|inv| map[inv.function] != usize::MAX)
            .map(|inv| Invocation {
                time_us: inv.time_us,
                function: map[inv.function],
                id: 0,
            })
            .collect();
        for (id, inv) in invocations.iter_mut().enumerate() {
            inv.id = id as u64;
        }
        Trace {
            functions,
            invocations,
            duration_us: self.duration_us,
        }
    }

    /// Serializes to JSON. Invocations are stored as compact
    /// `[time_us, function, id]` triples.
    pub fn to_json(&self) -> String {
        let mut obj = JsonMap::new();
        obj.insert(
            "functions",
            Json::Array(self.functions.iter().map(Json::from).collect()),
        );
        obj.insert(
            "invocations",
            Json::Array(
                self.invocations
                    .iter()
                    .map(|inv| {
                        Json::Array(vec![
                            Json::from(inv.time_us),
                            Json::from(inv.function),
                            Json::from(inv.id),
                        ])
                    })
                    .collect(),
            ),
        );
        obj.insert("duration_us", self.duration_us);
        Json::Object(obj).to_string()
    }

    /// Parses a JSON trace produced by [`Trace::to_json`]. Invocations
    /// that are not sorted by arrival time are an error.
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let functions = v
            .get("functions")
            .and_then(Json::as_array)
            .ok_or("missing functions array")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("non-string function"))
            .collect::<Result<Vec<_>, _>>()?;
        let invocations = v
            .get("invocations")
            .and_then(Json::as_array)
            .ok_or("missing invocations array")?
            .iter()
            .map(|item| {
                let triple = item.as_array().filter(|a| a.len() == 3);
                let triple = triple.ok_or("invocation is not a [time, fn, id] triple")?;
                Ok(Invocation {
                    time_us: triple[0].as_u64().ok_or("bad time_us")?,
                    function: triple[1].as_u64().ok_or("bad function index")? as usize,
                    id: triple[2].as_u64().ok_or("bad id")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let duration_us = v
            .get("duration_us")
            .and_then(Json::as_u64)
            .ok_or("missing duration_us")?;
        let trace = Trace {
            functions,
            invocations,
            duration_us,
        };
        match trace.first_out_of_order() {
            Some(i) => Err(format!(
                "invocation {i} arrives before invocation {}: a trace is sorted by arrival time",
                i - 1
            )),
            None => Ok(trace),
        }
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
        let ids: Vec<u64> = tr.invocations.iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(tr.counts(), vec![2, 1]);
    }

    #[test]
    fn rates() {
        let tr = sample();
        assert!((tr.rate_per_sec(0) - 2.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn filter_remaps_functions() {
        let tr = sample();
        let only_b = tr.filter_functions(&["B"]);
        assert_eq!(only_b.functions, vec!["B".to_string()]);
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b.invocations[0].function, 0);
        assert_eq!(only_b.invocations[0].id, 0);
    }

    #[test]
    fn json_roundtrip() {
        let tr = sample();
        let back = Trace::from_json(&tr.to_json()).unwrap();
        assert_eq!(back.len(), tr.len());
        assert_eq!(back.functions, tr.functions);
        assert_eq!(back.duration_us, tr.duration_us);
        assert_eq!(back.invocations, tr.invocations);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Trace::from_json("not json").is_err());
        assert!(Trace::from_json("{}").is_err());
        assert!(
            Trace::from_json(r#"{"functions": [], "invocations": [[1]], "duration_us": 5}"#)
                .is_err()
        );
    }

    #[test]
    fn from_json_rejects_out_of_order_arrivals() {
        let mut tr = sample();
        assert_eq!(tr.first_out_of_order(), None);
        tr.invocations.swap(1, 2);
        assert_eq!(tr.first_out_of_order(), Some(2));
        let err = Trace::from_json(&tr.to_json()).unwrap_err();
        assert!(err.contains("invocation 2 arrives before"), "{err}");
        // Equal arrival times are in order.
        tr.invocations[2].time_us = tr.invocations[1].time_us;
        assert!(Trace::from_json(&tr.to_json()).is_ok());
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::default();
        assert!(tr.is_empty());
        assert_eq!(tr.rate_per_sec(0) as i64, 0);
    }
}
