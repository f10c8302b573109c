//! `compare <a.json> <b.json>`: applies each end-to-end metric's bound
//! from `BENCHMARK.json` to two result sets (base `a`, candidate `b`).

use crate::api::json::{parse, Json};
use crate::stats::{judge, Better, Quartiles, Verdict};
use std::path::Path;

/// Bound and direction of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Which direction is good.
    pub better: Better,
    /// Allowed worsening, share of the base median.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json` text.
pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end array")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad `better`"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// The runs of a result-set file (or the single run of a run record).
pub fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("runs").and_then(Json::as_array) {
        Some(runs) => Ok(runs.to_vec()),
        None if doc.get("workload").is_some() => Ok(vec![doc]),
        None => Err(format!(
            "{}: neither a result set nor a run record",
            path.display()
        )),
    }
}

fn quartiles_of(metric: &Json) -> Option<Quartiles> {
    let value = metric.get("value")?.as_f64()?;
    let field = |k: &str| metric.get(k).and_then(Json::as_f64).unwrap_or(value);
    Some(Quartiles {
        q1: field("q1"),
        median: value,
        q3: field("q3"),
        n: metric.get("n").and_then(Json::as_u64).unwrap_or(1) as usize,
    })
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `workload/seed`.
    pub run: String,
    /// Metric name, or `digest`.
    pub metric: String,
    /// Base value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Verdict; `None` for rows that carry no bound (per-layer metrics).
    pub verdict: Option<Verdict>,
}

/// The outcome of a comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One row per run × metric present on both sides.
    pub rows: Vec<Row>,
    /// `workload/seed/trace` keys whose report digests differ.
    pub digest_changes: Vec<String>,
    /// Runs present in the base but not in the candidate.
    pub missing: Vec<String>,
}

impl Comparison {
    /// True when any bounded metric is worse than its bound allows.
    pub fn any_worse(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Some(Verdict::Worse))
    }

    /// The printed report.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<18} {:<36} {:>14} {:>14} {:>8}  {}\n",
            "run", "metric", "base", "candidate", "change", "verdict"
        );
        for r in &self.rows {
            let change = if r.base == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (r.cand - r.base) / r.base)
            };
            out += &format!(
                "{:<18} {:<36} {:>14.6} {:>14.6} {:>8}  {}\n",
                r.run,
                r.metric,
                r.base,
                r.cand,
                change,
                r.verdict.map_or("(no bound)", Verdict::as_str)
            );
        }
        for k in &self.digest_changes {
            out += &format!("{k}: report digest differs (simulated results changed)\n");
        }
        for k in &self.missing {
            out += &format!("{k}: missing from the candidate\n");
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == Some(v)).count();
        out += &format!(
            "{} better, {} within bound, {} unresolved, {} worse\n",
            count(Verdict::Better),
            count(Verdict::Within),
            count(Verdict::Unresolved),
            count(Verdict::Worse)
        );
        out
    }
}

/// Compares candidate runs against base runs, matched by workload,
/// seed and trace mode.
pub fn compare(base: &[Json], cand: &[Json], bounds: &[Bound]) -> Comparison {
    let key = |r: &Json| {
        format!(
            "{}/{}/{}",
            r.get("workload").and_then(Json::as_str).unwrap_or("?"),
            r.get("seed").and_then(Json::as_u64).unwrap_or(0),
            r.get("trace").and_then(Json::as_u64).unwrap_or(0)
        )
    };
    let mut out = Comparison::default();
    for b in base {
        let k = key(b);
        let Some(c) = cand.iter().find(|c| key(c) == k) else {
            out.missing.push(k);
            continue;
        };
        if b.get("digests") != c.get("digests") {
            out.digest_changes.push(k.clone());
        }
        let (Some(bm), Some(cm)) = (
            b.get("metrics").and_then(Json::as_object),
            c.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        let run = k
            .rsplit_once('/')
            .map_or(k.as_str(), |(head, _)| head)
            .to_string();
        for (name, bv) in bm.iter() {
            let (Some(bq), Some(cq)) = (quartiles_of(bv), cm.get(name).and_then(quartiles_of))
            else {
                continue;
            };
            let verdict = bounds
                .iter()
                .find(|x| x.name == name)
                .map(|x| judge(&bq, &cq, x.bound, x.better));
            out.rows.push(Row {
                run: run.clone(),
                metric: name.to_string(),
                base: bq.median,
                cand: cq.median,
                verdict,
            });
        }
    }
    out
}

/// Markdown table of the traced runs of `seed`: one row per per-layer
/// metric, one column per workload.
pub fn layers_table(runs: &[Json], seed: u64) -> String {
    let traced: Vec<&Json> = runs
        .iter()
        .filter(|r| {
            r.get("trace").and_then(Json::as_u64) == Some(1)
                && r.get("seed").and_then(Json::as_u64) == Some(seed)
        })
        .collect();
    let name = |r: &Json| {
        r.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out =
        format!("Per-layer metrics, seed {seed} (p50 unless suffixed).\n\n| metric | unit |");
    for r in &traced {
        out += &format!(" {} |", name(r));
    }
    out += "\n|---|---|";
    out += &"---:|".repeat(traced.len());
    out.push('\n');
    for def in crate::metrics::PER_LAYER {
        out += &format!("| `{}` | {} |", def.name, def.unit);
        for r in &traced {
            let v = r
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            out += &v.map_or(" |".to_string(), |v| format!(" {} |", significant(v)));
        }
        out.push('\n');
    }
    out
}

/// Four significant digits, without exponent notation.
fn significant(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".to_string();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "mem_mean_gib", "unit": "GiB", "better": "lower", "bound": 0.03}]}"#;

    fn run(wall: (f64, f64, f64), mem: f64, digest: &str) -> Json {
        parse(&format!(
            r#"{{"workload": "paper", "seed": 7, "trace": 0, "digests": ["{digest}"],
                "metrics": {{
                  "wall_s": {{"value": {}, "q1": {}, "q3": {}, "n": 5}},
                  "mem_mean_gib": {{"value": {mem}, "q1": {mem}, "q3": {mem}, "n": 1}},
                  "share.medes-mem": {{"value": 0.5}}}}}}"#,
            wall.1, wall.0, wall.2
        ))
        .unwrap()
    }

    #[test]
    fn same_commit_compares_clean() {
        let bounds = bounds_from(BENCH).unwrap();
        let a = [run((0.95, 1.0, 1.05), 1.8, "ab")];
        let b = [run((0.97, 1.02, 1.08), 1.8, "ab")];
        let cmp = compare(&a, &b, &bounds);
        assert!(!cmp.any_worse());
        assert!(cmp.digest_changes.is_empty() && cmp.missing.is_empty());
        assert_eq!(cmp.rows.len(), 3);
        let unbounded = cmp
            .rows
            .iter()
            .find(|r| r.metric == "share.medes-mem")
            .unwrap();
        assert_eq!(unbounded.verdict, None);
    }

    #[test]
    fn regressions_digest_changes_and_missing_runs_are_reported() {
        let bounds = bounds_from(BENCH).unwrap();
        let a = [run((0.95, 1.0, 1.05), 1.8, "ab")];
        let slow = [run((1.2, 1.25, 1.3), 1.9, "cd")];
        let cmp = compare(&a, &slow, &bounds);
        assert!(cmp.any_worse());
        assert_eq!(cmp.digest_changes, vec!["paper/7/0".to_string()]);
        let verdict = |m: &str| cmp.rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("wall_s"), Some(Verdict::Worse));
        assert_eq!(verdict("mem_mean_gib"), Some(Verdict::Worse));
        // Median past the bound but the lower quartile is not: unresolved.
        let noisy = [run((1.0, 1.12, 1.3), 1.8, "ab")];
        let cmp = compare(&a, &noisy, &bounds);
        assert!(!cmp.any_worse());
        assert_eq!(cmp.rows[0].verdict, Some(Verdict::Unresolved));
        assert_eq!(compare(&a, &[], &bounds).missing.len(), 1);
        assert!(cmp.table().contains("unresolved"));
    }

    #[test]
    fn layers_table_has_a_column_per_traced_workload() {
        let run = parse(
            r#"{"workload": "fleet", "seed": 7, "trace": 1,
                "metrics": {"share.medes-mem": {"value": 0.22073}, "dedup.ops": {"value": 0}}}"#,
        )
        .unwrap();
        let table = layers_table(&[run], 7);
        assert!(table.contains("| metric | unit | fleet |"));
        assert!(table.contains("| `share.medes-mem` | ratio | 0.2207 |"));
        assert!(table.contains("| `dedup.ops` | count | 0 |"));
        assert_eq!(significant(12345.6), "12346");
        assert_eq!(significant(0.00012346), "0.0001235");
    }
}
