//! The FunctionBench function catalog (paper Tables 1 and 2).

use medes_sim::SimDuration;

/// One serverless function's profile.
#[derive(Debug, Clone)]
pub struct FunctionProfile {
    /// Function name, e.g. `"FeatureGen"`.
    pub name: String,
    /// Imported python libraries (Table 1) — these drive memory-content
    /// sharing across functions.
    pub libs: Vec<String>,
    /// Average execution time (Table 2), microseconds.
    pub exec_time_us: u64,
    /// Coefficient of variation of execution time (log-normal).
    pub exec_cv: f64,
    /// Resident memory (Table 2), bytes.
    pub memory_bytes: usize,
    /// Cold-start latency (environment initialization + imports),
    /// microseconds. Calibrated to the cold-start bars of Fig 8.
    pub cold_start_us: u64,
    /// Processes in the sandbox (MapReduce forks workers).
    pub processes: u32,
}

impl FunctionProfile {
    /// Average execution time.
    pub fn exec_time(&self) -> SimDuration {
        SimDuration::from_micros(self.exec_time_us)
    }

    /// Cold-start latency.
    pub fn cold_start(&self) -> SimDuration {
        SimDuration::from_micros(self.cold_start_us)
    }

    /// Warm-start latency: 1–20 ms depending on the runtime (paper §1).
    /// We charge a size-dependent cost within that band.
    pub fn warm_start(&self) -> SimDuration {
        let mb = self.memory_bytes as f64 / (1 << 20) as f64;
        SimDuration::from_millis_f64(1.0 + (mb / 10.0).min(14.0))
    }
}

fn profile(
    name: &str,
    libs: &[&str],
    exec_ms: u64,
    mem_mb_x10: usize,
    cold_ms: u64,
    processes: u32,
) -> FunctionProfile {
    FunctionProfile {
        name: name.to_string(),
        libs: libs.iter().map(|s| s.to_string()).collect(),
        exec_time_us: exec_ms * 1000,
        exec_cv: 0.2,
        memory_bytes: mem_mb_x10 * (1 << 20) / 10,
        cold_start_us: cold_ms * 1000,
        processes,
    }
}

/// The ten FunctionBench functions with the execution times and memory
/// footprints of Table 2. Cold-start values follow the relative shape of
/// Fig 8 (heavier imports → slower cold starts).
pub fn functionbench_suite() -> Vec<FunctionProfile> {
    vec![
        profile("Vanilla", &["math", "time"], 150, 170, 550, 1),
        profile("LinAlg", &["numpy", "time"], 250, 320, 800, 1),
        profile("ImagePro", &["numpy", "pillow"], 1200, 264, 900, 1),
        profile("VideoPro", &["numpy", "opencv"], 2000, 480, 1400, 1),
        profile("MapReduce", &["multiprocessing"], 500, 320, 700, 5),
        profile("HTMLServe", &["chameleon", "json"], 400, 223, 750, 1),
        profile("AuthEnc", &["pyaes", "json"], 400, 223, 700, 1),
        profile(
            "FeatureGen",
            &["sklearn-tfidf", "pandas"],
            1000,
            660,
            1800,
            1,
        ),
        profile("RNNModel", &["pytorch"], 1000, 900, 2500, 1),
        profile(
            "ModelTrain",
            &["sklearn-tfidf", "sklearn-lr"],
            3000,
            875,
            2200,
            1,
        ),
    ]
}

/// Looks a profile up by name.
pub fn by_name(name: &str) -> Option<FunctionProfile> {
    functionbench_suite().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table2() {
        let suite = functionbench_suite();
        assert_eq!(suite.len(), 10);
        let vanilla = &suite[0];
        assert_eq!(vanilla.name, "Vanilla");
        assert_eq!(vanilla.exec_time().as_millis_f64(), 150.0);
        assert_eq!(vanilla.memory_bytes, 17 << 20);
        let mt = suite.iter().find(|p| p.name == "ModelTrain").unwrap();
        assert_eq!(mt.exec_time().as_millis_f64(), 3000.0);
        assert_eq!(mt.memory_bytes, 87 * (1 << 20) + (1 << 20) / 2);
    }

    #[test]
    fn warm_starts_in_paper_band() {
        for p in functionbench_suite() {
            let ms = p.warm_start().as_millis_f64();
            assert!((1.0..=20.0).contains(&ms), "{}: {ms}ms", p.name);
            assert!(
                p.warm_start() < p.cold_start(),
                "{} warm must beat cold",
                p.name
            );
        }
    }

    #[test]
    fn cold_starts_track_memory_roughly() {
        let suite = functionbench_suite();
        let small = suite.iter().find(|p| p.name == "Vanilla").unwrap();
        let big = suite.iter().find(|p| p.name == "RNNModel").unwrap();
        assert!(big.cold_start() > small.cold_start());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("VideoPro").is_some());
        assert!(by_name("NoSuchFn").is_none());
    }
}
