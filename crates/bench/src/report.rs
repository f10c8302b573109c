//! Plain-text tables + JSON output for experiments.

use medes_obs::json;
use medes_obs::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// A lightweight experiment report: titled sections of aligned tables,
/// plus a JSON value mirrored to disk.
#[derive(Debug, Default)]
pub struct Report {
    /// Experiment id (`fig7a`, `table3`, ...).
    pub id: String,
    text: String,
    json: Json,
}

impl Report {
    /// Creates a report for an experiment id.
    pub fn new(id: &str, title: &str) -> Self {
        let mut r = Report {
            id: id.to_string(),
            text: String::new(),
            json: json!({ "id": id, "title": title }),
        };
        let bar = "=".repeat(72);
        let _ = writeln!(r.text, "{bar}\n{id}: {title}\n{bar}");
        r
    }

    /// Adds a free-form line.
    pub fn line(&mut self, s: &str) {
        let _ = writeln!(self.text, "{s}");
    }

    /// Adds a section heading.
    pub fn section(&mut self, s: &str) {
        let _ = writeln!(self.text, "\n--- {s} ---");
    }

    /// Adds an aligned table: `header` then `rows` (column widths are
    /// computed from content).
    pub fn table<R: AsRef<[String]>>(
        &mut self,
        header: &[&str],
        rows: impl IntoIterator<Item = R>,
    ) {
        let rows: Vec<R> = rows.into_iter().collect();
        let cols = header.len();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.as_ref().iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut line = String::new();
        for (i, h) in header.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(self.text, "{}", line.trim_end());
        let _ = writeln!(self.text, "{}", "-".repeat(line.trim_end().len()));
        for row in &rows {
            let mut line = String::new();
            for (i, cell) in row.as_ref().iter().enumerate().take(cols) {
                let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(self.text, "{}", line.trim_end());
        }
    }

    /// Attaches a JSON field to the report record.
    pub fn json_set(&mut self, key: &str, value: Json) {
        if !matches!(self.json, Json::Object(_)) {
            self.json = Json::object();
        }
        self.json.insert(key, value);
    }

    /// The attached JSON record.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// The rendered text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Prints to stdout and writes `results/<id>.json` (creating the
    /// results directory if needed).
    pub fn emit(&self, results_dir: &Path) {
        println!("{}", self.text);
        match std::fs::create_dir_all(results_dir) {
            Ok(()) => {
                let path = results_dir.join(format!("{}.json", self.id));
                if let Err(e) = std::fs::write(&path, self.json.to_string_pretty()) {
                    eprintln!("warning: failed to write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: failed to create {}: {e}", results_dir.display()),
        }
    }
}

/// Formats a float with `prec` decimals.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats bytes as MiB with 1 decimal.
pub fn mib(bytes: f64) -> String {
    format!("{:.1}", bytes / (1u64 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("t", "test");
        r.table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2.5".into()],
            ],
        );
        let text = r.text();
        assert!(text.contains("longer-name"));
        assert!(text.contains("name"));
    }

    #[test]
    fn json_fields_accumulate() {
        let mut r = Report::new("x", "t");
        r.json_set("k", json!([1, 2, 3]));
        assert_eq!(r.json["k"][1], 2);
        assert_eq!(r.json["id"], "x");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(mib(3.0 * 1048576.0), "3.0");
    }

    #[test]
    fn emit_creates_missing_results_dir() {
        let dir = std::env::temp_dir().join(format!("medes-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("results").join("deep");
        let mut r = Report::new("probe", "dir creation");
        r.json_set("ok", json!(true));
        r.emit(&nested);
        let path = nested.join("probe.json");
        assert!(path.exists(), "emit must create {}", nested.display());
        let back = medes_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back["id"], "probe");
        assert_eq!(back["ok"], Json::Bool(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
