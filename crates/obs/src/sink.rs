//! The JSONL trace file.
//!
//! [`crate::Obs`] formats span lines into its own buffer and hands them
//! over here in large batches, whole lines only; the file is the one
//! destination of a handle with a trace file, and the same bytes that
//! [`crate::Obs::export_jsonl`] returns for a handle without one.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// An open trace file. Owned by [`crate::Obs`]; lines are appended via
/// [`SpanSink::write`] and the file is completed (last lines plus the
/// metrics tail) by [`SpanSink::finish`].
#[derive(Debug)]
pub(crate) struct SpanSink {
    file: File,
    path: PathBuf,
}

impl SpanSink {
    /// Creates the trace file at `path` (parent directories included).
    pub(crate) fn create(path: PathBuf) -> std::io::Result<SpanSink> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(&path)?;
        Ok(SpanSink { file, path })
    }

    /// Appends whole JSONL lines.
    pub(crate) fn write(&mut self, lines: &str) -> std::io::Result<()> {
        self.file.write_all(lines.as_bytes())
    }

    /// Appends the last lines, then the metrics tail, and returns the
    /// path.
    pub(crate) fn finish(mut self, lines: &str, tail: &str) -> std::io::Result<PathBuf> {
        self.write(lines)?;
        self.write(tail)?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_streams_lines_and_tail() {
        let dir = std::env::temp_dir().join(format!("medes-sink-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("t.jsonl");
        let mut sink = SpanSink::create(path.clone()).expect("create");
        let line = "{\"span\":\"medes.test.op\",\"start_us\":1,\"end_us\":5,\"dur_us\":4}\n";
        sink.write(line).unwrap();
        let out = sink.finish(line, "{\"metrics\":{}}\n").unwrap();
        assert_eq!(out, path);
        let contents = std::fs::read_to_string(&out).unwrap();
        assert_eq!(contents, line.repeat(2) + "{\"metrics\":{}}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
