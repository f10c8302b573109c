//! In-memory span buffer for the layer replay: one span per call into a
//! layer, written out as JSONL when the benchmark ends. No workspace types.

use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`SpanBuf`].
pub type SpanId = u32;

/// Parent marker of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the part before the first dot is the layer.
    pub name: &'static str,
    /// Start, ns since the buffer was created.
    pub start_ns: u64,
    /// End, ns since the buffer was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Identifier shared by all spans of one replayed operation.
    pub op: u32,
    /// Function index the operation ran for.
    pub func: u16,
    /// How many items (pages, fingerprints, batched calls) the call
    /// covered; per-item timings divide by it.
    pub units: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in call order. `enter`/`exit` nest like the calls they
/// wrap: the parent of a span is whichever span was open when it began.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    open: Vec<SpanId>,
    origin: Instant,
    op: u32,
    func: u16,
}

impl Default for SpanBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBuf {
    /// An empty buffer; its clock starts now.
    pub fn new() -> Self {
        SpanBuf {
            spans: Vec::new(),
            open: Vec::new(),
            origin: Instant::now(),
            op: 0,
            func: 0,
        }
    }

    /// Starts a new operation: following spans carry a fresh `op` id
    /// and `func`.
    pub fn begin_op(&mut self, func: usize) {
        self.op += 1;
        self.func = func as u16;
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            func: self.func,
            units: 1,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId, units: usize) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.units = units.max(1) as u32;
    }

    /// Times one call.
    pub fn time<R>(&mut self, name: &'static str, units: usize, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id, units);
        r
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-item durations (ns) of every span called `name`.
    pub fn per_unit_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / s.units as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (children may overlap each
    /// other; the covered part is the union of their intervals).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Writes at most `max_spans` spans as JSONL (whole operations only:
    /// the cut falls on an `op` boundary). Returns how many were written.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        max_spans: usize,
    ) -> std::io::Result<usize> {
        let selfs = self.self_times_ns();
        let mut cut = self.spans.len().min(max_spans);
        if cut < self.spans.len() {
            let boundary_op = self.spans[cut].op;
            while cut > 0 && self.spans[cut - 1].op == boundary_op {
                cut -= 1;
            }
        }
        for (i, s) in self.spans[..cut].iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"op\":{},\"fn\":{},\"units\":{},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns, selfs[i], s.op, s.func, s.units
            )?;
        }
        Ok(cut)
    }
}

/// See [`SpanBuf::self_times_ns`].
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op: 1,
            func: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(30, 60, 0), // overlaps the previous child by 10
            span(80, 90, 0),
            span(35, 38, 2), // grandchild: only its own parent loses it
        ];
        // Children cover [10,60) ∪ [80,90) = 60 of the root's 100.
        assert_eq!(self_times_ns(&spans), vec![40, 30, 27, 10, 3]);
    }

    #[test]
    fn self_time_clamps_children_to_parent() {
        let spans = [span(10, 20, NO_PARENT), span(5, 15, 0), span(18, 30, 0)];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn enter_exit_builds_the_call_tree() {
        let mut b = SpanBuf::new();
        b.begin_op(3);
        let root = b.enter("op.x");
        b.time("a.b", 4, || ());
        let mid = b.enter("c.d");
        b.time("e.f", 1, || ());
        b.exit(mid, 1);
        b.exit(root, 1);
        let s = b.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[2].parent, 0);
        assert_eq!(s[3].parent, 2);
        assert!(s.iter().all(|x| x.op == 1 && x.func == 3));
        assert_eq!(s[1].units, 4);
        let selfs = b.self_times_ns();
        assert!(selfs[0] <= s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
    }

    #[test]
    fn export_cuts_on_operation_boundaries() {
        let mut b = SpanBuf::new();
        for f in 0..3 {
            b.begin_op(f);
            let r = b.enter("op.x");
            b.time("a.b", 1, || ());
            b.exit(r, 1);
        }
        let mut out = Vec::new();
        assert_eq!(b.write_jsonl(&mut out, "w", 3).unwrap(), 2);
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
