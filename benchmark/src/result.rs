//! The result of one benchmark run: printing, the driver's JSON line,
//! and the result-set files `compare` reads.

use crate::api::json::{parse, Json, JsonMap};
use crate::metrics::{self, MetricDef};
use crate::stats::Quartiles;
use std::path::Path;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Its catalogue entry.
    pub def: &'static MetricDef,
    /// The reported value (a median for host timings).
    pub value: f64,
    /// Spread of the samples behind `value` (`n == 1` for exact values).
    pub q: Quartiles,
}

impl MetricValue {
    /// A metric with its spread.
    pub fn new(name: &str, value: f64, q: Quartiles) -> Self {
        let def =
            metrics::def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        MetricValue { def, value, q }
    }

    /// A metric without spread.
    pub fn exact(name: &str, value: f64) -> Self {
        Self::new(name, value, Quartiles::exact(value))
    }

    /// A host timing: the median of `samples`.
    pub fn median(name: &str, samples: &[f64]) -> Self {
        let q = Quartiles::of(samples).unwrap_or_else(|| panic!("metric {name} has no samples"));
        Self::new(name, q.median, q)
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one `run` invocation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--trace 1`?
    pub traced: bool,
    /// Operations attempted (trace invocations).
    pub attempted: u64,
    /// Operations that failed (invocations never completed, restores
    /// that failed byte verification).
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Report digest of each sub-run, hex.
    pub digests: Vec<String>,
    /// Metrics, in catalogue order.
    pub metrics: Vec<MetricValue>,
    /// Free-form lines for the human reader (sizes, sample counts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// True when every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The metric called `name`, if present.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.def.name == name)
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# medes benchmark: workload {} seed {} trace {}\n",
            self.workload, self.seed, self.traced as u8
        );
        for n in &self.notes {
            out += &format!("# {n}\n");
        }
        out += &format!(
            "{:<36} {:>16} {:<7} {:<7} {}\n",
            "metric", "value", "unit", "better", "q1 .. q3 (n)"
        );
        for m in &self.metrics {
            let spread = if m.q.n > 1 {
                format!("{:.6} .. {:.6} ({})", m.q.q1, m.q.q3, m.q.n)
            } else {
                String::new()
            };
            out += &format!(
                "{:<36} {:>16.6} {:<7} {:<7} {}\n",
                m.def.name,
                m.value,
                m.def.unit,
                m.def.better.as_str(),
                spread
            );
        }
        for c in &self.checks {
            out += &format!(
                "check {:<60} {}\n",
                c.what,
                if c.ok { "ok" } else { "FAILED" }
            );
        }
        for (i, d) in self.digests.iter().enumerate() {
            out += &format!("digest sub-run {i}: {d}\n");
        }
        out += &format!("attempted {} failed {}\n", self.attempted, self.failed);
        out
    }

    /// Metrics as a JSON object: value and unit, plus direction and
    /// spread when `full`.
    fn metrics_json(&self, full: bool) -> JsonMap {
        let mut metrics = JsonMap::new();
        for m in &self.metrics {
            let mut entry = JsonMap::new();
            entry.insert("value", m.value);
            entry.insert("unit", m.def.unit);
            if full {
                entry.insert("better", m.def.better.as_str());
                entry.insert("q1", m.q.q1);
                entry.insert("q3", m.q.q3);
                entry.insert("n", m.q.n);
            }
            metrics.insert(m.def.name, entry);
        }
        metrics
    }

    /// The one-line JSON object the driver reads.
    pub fn driver_line(&self) -> String {
        let mut obj = JsonMap::new();
        obj.insert("correct", self.correct());
        obj.insert("attempted", self.attempted);
        obj.insert("failed", self.failed);
        obj.insert("metrics", self.metrics_json(false));
        Json::Object(obj).to_string()
    }

    /// The full record kept in result-set files.
    pub fn to_json(&self) -> Json {
        let mut obj = JsonMap::new();
        obj.insert("workload", self.workload.as_str());
        obj.insert("seed", self.seed);
        obj.insert("trace", self.traced as u8);
        obj.insert("correct", self.correct());
        obj.insert("attempted", self.attempted);
        obj.insert("failed", self.failed);
        obj.insert(
            "digests",
            Json::Array(
                self.digests
                    .iter()
                    .map(|d| Json::from(d.as_str()))
                    .collect(),
            ),
        );
        obj.insert("metrics", self.metrics_json(true));
        Json::Object(obj)
    }
}

/// Where a result set was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Commit the program was built from (`--commit`, else "unknown").
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Hardware threads available.
    pub nproc: usize,
}

impl Stamp {
    /// Stamps the current machine and toolchain.
    pub fn here(commit: Option<&str>) -> Self {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Stamp {
            commit: commit.unwrap_or("unknown").to_string(),
            rustc,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Adds `run` to the result-set file at `path` (created if missing),
/// replacing an earlier run of the same workload, seed and trace mode.
pub fn merge_into_file(path: &Path, stamp: &Stamp, run: &RunResult) -> Result<(), String> {
    let mut runs: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let record = run.to_json();
    let same = |r: &Json| {
        ["workload", "seed", "trace"]
            .iter()
            .all(|k| r.get(k) == record.get(k))
    };
    runs.retain(|r| !same(r));
    runs.push(record);
    let mut st = JsonMap::new();
    st.insert("commit", stamp.commit.as_str());
    st.insert("rustc", stamp.rustc.as_str());
    st.insert("nproc", stamp.nproc);
    let mut obj = JsonMap::new();
    obj.insert("stamp", st);
    obj.insert("runs", Json::Array(runs));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, Json::Object(obj).to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
