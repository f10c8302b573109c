//! Causal trees: the forest every `trace report` section reads self
//! times and critical paths from, and the report's operations section.
//!
//! The `trace_id`/`span_id`/`parent_id` fields rebuild each operation's
//! **tree** — request → restore op → {base read → cache, retries; page
//! compute; ckpt → CRIU resume} — which answers what grouping spans by
//! name cannot:
//!
//! * **critical path** per operation: the chain of last-ending spans
//!   from the root down, i.e. what actually gated completion;
//! * **self time** per span: its duration minus the union of its
//!   children's intervals. Because the platform's phase spans tile
//!   their parent exactly, the self times of a tree sum to its root's
//!   duration;
//! * **folded stacks**: `root;child;...;leaf self_us` lines, the input
//!   format of standard flamegraph renderers;
//! * **anomalies**: roots whose duration exceeds [`ANOMALY_K`]` ×` the
//!   p99 of their kind — the ops worth pulling up individually.
//!
//! Spans whose parent never made it into the buffer (head-sampling of
//! an enclosing op, eviction, or a fault-aborted op that skipped its
//! phase records) are promoted to roots of their trace rather than
//! dropped, so a truncated trace still analyzes.

use crate::report::{f, Report};
use crate::trace::{fmt_attr, percentiles, TOP};
use medes_obs::ParsedSpan;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// A root slower than this multiple of its kind's p99 is anomalous.
const ANOMALY_K: f64 = 2.0;

/// One reconstructed causal tree (all spans sharing a `trace_id`).
#[derive(Debug)]
pub struct TraceTree {
    /// The shared trace id.
    pub trace_id: u64,
    /// Indices (into the forest's spans) of this trace's roots: spans
    /// with no parent, plus orphans promoted to roots. Sorted by
    /// `(start_us, end_us, name)`.
    pub roots: Vec<usize>,
}

/// A trace's spans and the causal trees over them.
#[derive(Debug)]
pub struct Forest {
    /// Every span, in file order.
    pub spans: Vec<ParsedSpan>,
    /// Trees sorted by first root start time (ties: trace id).
    pub trees: Vec<TraceTree>,
    /// `children[i]` = indices of the spans parented under span `i`,
    /// sorted by `(start_us, end_us, name)`.
    pub children: Vec<Vec<usize>>,
    /// Spans with `trace_id == 0` (untraced flat records), excluded
    /// from every tree.
    pub untraced: usize,
}

impl Forest {
    /// Reconstructs the forest. Orphans (parent id set but no such
    /// span in the trace) become roots; a duplicate span id keeps the
    /// first occurrence as the parent target (later duplicates still
    /// appear as nodes).
    pub fn build(spans: Vec<ParsedSpan>) -> Forest {
        let traced = || spans.iter().enumerate().filter(|(_, s)| s.trace_id != 0);
        let mut by_id: HashMap<(u64, u64), usize> = HashMap::new();
        for (i, s) in traced() {
            by_id.entry((s.trace_id, s.span_id)).or_insert(i);
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in traced() {
            match by_id.get(&(s.trace_id, s.parent_id)) {
                Some(&p) if s.parent_id != 0 && p != i => children[p].push(i),
                _ => roots.entry(s.trace_id).or_default().push(i),
            }
        }
        let order = |&a: &usize, &b: &usize| {
            let (x, y) = (&spans[a], &spans[b]);
            (x.start_us, x.end_us, &x.name).cmp(&(y.start_us, y.end_us, &y.name))
        };
        children.iter_mut().for_each(|c| c.sort_by(order));
        let mut trees: Vec<TraceTree> = roots
            .into_iter()
            .map(|(trace_id, mut roots)| {
                roots.sort_by(order);
                TraceTree { trace_id, roots }
            })
            .collect();
        trees.sort_by_key(|t| (spans[t.roots[0]].start_us, t.trace_id));
        let untraced = spans.iter().filter(|s| s.trace_id == 0).count();
        Forest {
            spans,
            trees,
            children,
            untraced,
        }
    }

    /// Self time of span `i`: its duration minus the union of its
    /// children's intervals (clipped to the span). Time spent in a
    /// phase itself, as opposed to waiting on sub-phases.
    pub fn self_time_us(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let (mut covered, mut cursor) = (0, s.start_us);
        // Children are in start order, so one sweep merges their
        // intervals.
        for c in self.children[i].iter().map(|&c| &self.spans[c]) {
            let (a, b) = (c.start_us.max(cursor), c.end_us.min(s.end_us));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        s.dur_us().saturating_sub(covered)
    }

    /// Sum of self times over the whole tree rooted at `r` — equals the
    /// root's duration when every level's children tile their parent.
    pub fn tree_self_sum(&self, r: usize) -> u64 {
        let mut sum = 0u64;
        let mut stack = vec![r];
        while let Some(i) = stack.pop() {
            sum += self.self_time_us(i);
            stack.extend_from_slice(&self.children[i]);
        }
        sum
    }

    /// The critical path from span `i` down: at every node, descend
    /// into the **last-ending** child (ties: later start, then name) —
    /// the chain of spans that gated the operation's completion.
    /// Always non-empty (contains at least `i`).
    pub fn critical_path(&self, mut i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let last_ending = |c: &&usize| {
            let s = &self.spans[**c];
            (s.end_us, s.start_us, &s.name)
        };
        while let Some(&next) = self.children[i].iter().max_by_key(last_ending) {
            path.push(next);
            i = next;
        }
        path
    }

    /// Folded-stack lines (`root;child;…;leaf self_us\n`), aggregated
    /// over every tree and sorted by stack — the input format of
    /// flamegraph renderers. Zero-self-time stacks are left out.
    pub fn folded_stacks(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        // Iterative DFS carrying each node's depth, so `path` is the
        // name chain from the root.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut path: Vec<&str> = Vec::new();
        for &root in self.trees.iter().flat_map(|t| &t.roots) {
            stack.push((root, 0));
            while let Some((i, depth)) = stack.pop() {
                path.truncate(depth);
                path.push(&self.spans[i].name);
                let self_us = self.self_time_us(i);
                if self_us > 0 {
                    *folded.entry(path.join(";")).or_default() += self_us;
                }
                // Push in reverse so children pop in start order.
                stack.extend(self.children[i].iter().rev().map(|&c| (c, depth + 1)));
            }
        }
        folded.iter().map(|(s, us)| format!("{s} {us}\n")).collect()
    }

    /// Tree roots grouped by span name.
    fn roots_by_name(&self) -> BTreeMap<&str, Vec<usize>> {
        let mut kinds: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &r in self.trees.iter().flat_map(|t| &t.roots) {
            kinds.entry(&self.spans[r].name).or_default().push(r);
        }
        kinds
    }
}

/// The critical path from span `root` as a table, one row per span,
/// indented by depth — the one renderer of the operations and
/// attribution sections.
pub(crate) fn critical_path_table(report: &mut Report, forest: &Forest, root: usize) {
    let rows = forest
        .critical_path(root)
        .into_iter()
        .enumerate()
        .map(|(depth, i)| {
            let s = &forest.spans[i];
            let mut row = vec![format!("{}{}", "  ".repeat(depth), s.name)];
            row.extend([s.start_us, s.dur_us(), forest.self_time_us(i)].map(|n| n.to_string()));
            row
        });
    report.table(&["phase", "start_us", "dur_us", "self_us"], rows);
}

/// The operations section: per root kind, count, mean/p99 duration and
/// how much of the roots' time their trees' self times account for
/// (1.0 when phases tile their parents exactly); the critical path of
/// each kind's slowest instance; and the anomalies — roots slower than
/// [`ANOMALY_K`]` ×` their kind's p99, among kinds with at least 10
/// roots (fewer make too noisy a p99 to flag against).
pub(crate) fn operations(report: &mut Report, forest: &Forest) {
    let dur = |r: usize| forest.spans[r].dur_us();
    let (mut rows, mut anomalies) = (Vec::new(), Vec::new());
    report.section("operations (tree roots)");
    for (name, roots) in forest.roots_by_name() {
        let total: u64 = roots.iter().map(|&r| dur(r)).sum();
        let accounted: u64 = roots.iter().map(|&r| forest.tree_self_sum(r)).sum();
        let p99 = percentiles(roots.iter().map(|&r| dur(r) as f64)).quantile(0.99);
        let p99 = p99.unwrap_or(0.0);
        rows.push([
            name.to_string(),
            roots.len().to_string(),
            f(total as f64 / roots.len() as f64, 1),
            f(p99, 1),
            f(accounted as f64 / total.max(1) as f64, 3),
        ]);
        if roots.len() >= 10 {
            let slow = roots.iter().filter(|&&r| dur(r) as f64 > ANOMALY_K * p99);
            anomalies.extend(slow.map(|&r| (r, p99)));
        }
    }
    report.table(&["op", "count", "mean_us", "p99_us", "self_coverage"], rows);

    report.section("critical path (slowest instance per op)");
    for roots in forest.roots_by_name().values() {
        let slowest = roots
            .iter()
            .max_by_key(|&&r| (dur(r), Reverse(forest.spans[r].start_us)));
        critical_path_table(report, forest, *slowest.expect("kind has roots"));
    }

    if !anomalies.is_empty() {
        anomalies.sort_by_key(|&(r, _)| (Reverse(dur(r)), r));
        report.section(&format!(
            "anomalous ops (> {ANOMALY_K} x p99 of their kind; top {TOP})"
        ));
        let rows = anomalies.into_iter().take(TOP).map(|(r, p99)| {
            let s = &forest.spans[r];
            let mut row = vec![s.name.clone(), fmt_attr(s, "id"), fmt_attr(s, "fn")];
            row.extend([s.start_us, s.dur_us()].map(|n| n.to_string()));
            row.push(f(p99, 1));
            row
        });
        report.table(&["op", "id", "fn", "start_us", "dur_us", "p99_us"], rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{load, report};
    use medes_obs::{parse_jsonl, Obs, ObsConfig};
    use medes_sim::SimTime;

    /// Emits a toy forest: two traced request trees (request → op →
    /// {a, b}) plus one untraced flat span.
    fn toy_trace() -> String {
        let obs = Obs::new(ObsConfig::enabled());
        let t = SimTime::from_micros;
        for req in 0..2u64 {
            let root = obs.trace_root("request", 1, req);
            let op = root.child("op", 0);
            let base = req * 1000;
            obs.span_in("phase.a", t(base), op.child("phase.a", 0))
                .end(t(base + 30));
            obs.span_in("phase.b", t(base + 30), op.child("phase.b", 0))
                .end(t(base + 100));
            obs.span_in("op", t(base), op).end(t(base + 100));
            obs.span_in("request", t(base), root).end(t(base + 140));
        }
        obs.span("flat", t(5)).end(t(6));
        obs.export_jsonl()
    }

    fn toy_forest() -> Forest {
        Forest::build(parse_jsonl(&toy_trace()))
    }

    #[test]
    fn forest_reconstructs_trees_and_self_times() {
        let forest = toy_forest();
        assert_eq!(forest.trees.len(), 2);
        assert_eq!(forest.untraced, 1);
        for tree in &forest.trees {
            assert_eq!(tree.roots.len(), 1);
            let root = tree.roots[0];
            assert_eq!(forest.spans[root].name, "request");
            // request(140) = op(100) + 40 self; op = 30 + 70 children.
            assert_eq!(forest.self_time_us(root), 40);
            let op = forest.children[root][0];
            assert_eq!(forest.self_time_us(op), 0);
            // The whole tree's self times sum to the root duration.
            assert_eq!(forest.tree_self_sum(root), forest.spans[root].dur_us());
            // Critical path follows the last-ending child chain.
            let path: Vec<&str> = forest
                .critical_path(root)
                .iter()
                .map(|&i| forest.spans[i].name.as_str())
                .collect();
            assert_eq!(path, ["request", "op", "phase.b"]);
        }
    }

    #[test]
    fn orphans_are_promoted_to_roots() {
        let obs = Obs::new(ObsConfig::enabled());
        let t = SimTime::from_micros;
        let root = obs.trace_root("request", 9, 9);
        let op = root.child("op", 0);
        // Only a grandchild is emitted: its parent (`op`) is missing.
        obs.span_in("phase.a", t(0), op.child("phase.a", 0))
            .end(t(10));
        let forest = Forest::build(parse_jsonl(&obs.export_jsonl()));
        assert_eq!(forest.trees.len(), 1);
        assert_eq!(forest.trees[0].roots.len(), 1);
        assert_eq!(forest.spans[forest.trees[0].roots[0]].name, "phase.a");
    }

    #[test]
    fn folded_stacks_aggregate_identical_paths() {
        // Two identical trees fold into one set of stacks, doubled;
        // `op` has zero self time, so it never appears as a leaf line.
        let folded = toy_forest().folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            [
                "request 80",
                "request;op;phase.a 60",
                "request;op;phase.b 140"
            ]
        );
    }

    #[test]
    fn anomalies_flag_slow_roots() {
        let obs = Obs::new(ObsConfig::enabled());
        let t = SimTime::from_micros;
        for i in 0..100u64 {
            let root = obs.trace_root("request", 3, i);
            let dur = if i == 99 { 10_000 } else { 100 };
            obs.span_in("request", t(i * 100_000), root)
                .end(t(i * 100_000 + dur));
        }
        let spans = parse_jsonl(&obs.export_jsonl());
        let operations = |spans: &[ParsedSpan]| {
            let mut report = Report::new("t", "t");
            operations(&mut report, &Forest::build(spans.to_vec()));
            report.text().to_string()
        };
        let text = operations(&spans);
        let anomalies = text
            .split("anomalous ops")
            .nth(1)
            .expect("anomalies flagged");
        let rows: Vec<&str> = anomalies.lines().skip(3).collect();
        assert_eq!(rows.len(), 1, "{anomalies}");
        assert!(rows[0].contains(" 10000 "), "{anomalies}");
        // Fewer than 10 samples of a kind are never flagged.
        assert!(!operations(&spans[..5]).contains("anomalous ops"));
    }

    #[test]
    fn analyze_renders_report_and_folded_output() {
        let run = load("toy.jsonl", &toy_trace(), None);
        let text = report(&run, None, None).0.text().to_string();
        assert!(text.contains("2 causal trees"));
        assert!(text.contains("critical path"));
        assert!(text.contains("self_s"));
        assert!(run
            .forest
            .folded_stacks()
            .contains("request;op;phase.b 140"));
    }

    #[test]
    fn analyze_handles_empty_and_untraced_input() {
        let run = load("empty", "", None);
        assert!(report(&run, None, None).0.text().contains("0 spans"));
        assert!(run.forest.folded_stacks().is_empty());
        // A purely untraced (pre-causal) trace yields zero trees.
        let obs = Obs::new(ObsConfig::enabled());
        obs.span("flat", SimTime::ZERO).end(SimTime::from_micros(5));
        let run = load("flat", &obs.export_jsonl(), None);
        assert!(report(&run, None, None).0.text().contains("0 causal trees"));
    }
}
