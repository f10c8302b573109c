//! The JSONL trace file.
//!
//! Every finished span is written to the export file the moment it is
//! recorded, through a buffered writer, *before* it can be evicted from
//! the in-memory ring. The ring then only serves in-process readers, so
//! an hours-long trace runs in O(ring) memory while the file stays
//! complete — and, as long as the ring never overflowed, byte-identical
//! to what [`crate::Obs::export_jsonl`] renders.

use crate::span::SpanRecord;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// An open trace file. Owned by [`crate::Obs`]; spans are appended via
/// [`SpanSink::write_span`] and the file is completed (metrics tail +
/// flush) by [`SpanSink::finish`].
#[derive(Debug)]
pub(crate) struct SpanSink {
    w: BufWriter<File>,
    path: PathBuf,
}

impl SpanSink {
    /// Creates the trace file at `path` (parent directories included).
    pub(crate) fn create(path: PathBuf) -> std::io::Result<SpanSink> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(&path)?;
        Ok(SpanSink {
            w: BufWriter::new(file),
            path,
        })
    }

    /// Appends one span as a JSONL line — the same bytes
    /// `export_jsonl` emits for it.
    pub(crate) fn write_span(&mut self, span: &SpanRecord) -> std::io::Result<()> {
        let mut line = span.to_json().to_string();
        line.push('\n');
        self.w.write_all(line.as_bytes())
    }

    /// Writes the metrics tail, flushes, and returns the path.
    pub(crate) fn finish(mut self, tail: &str) -> std::io::Result<PathBuf> {
        self.w.write_all(tail.as_bytes())?;
        self.w.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;

    #[test]
    fn sink_streams_lines_and_tail() {
        let dir = std::env::temp_dir().join(format!("medes-sink-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("t.jsonl");
        let mut sink = SpanSink::create(path.clone()).expect("create");
        let span = SpanRecord {
            name: "medes.test.op",
            start_us: 1,
            end_us: 5,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            attrs: vec![("k", AttrValue::Uint(9))],
        };
        sink.write_span(&span).unwrap();
        sink.write_span(&span).unwrap();
        let out = sink.finish("{\"metrics\":{}}\n").unwrap();
        assert_eq!(out, path);
        let contents = std::fs::read_to_string(&out).unwrap();
        let mut expected = String::new();
        expected.push_str(&span.to_json().to_string());
        expected.push('\n');
        let expected = expected.repeat(2) + "{\"metrics\":{}}\n";
        assert_eq!(contents, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
