//! # medes-bench — the experiment harness
//!
//! One experiment per table and figure in the paper's evaluation
//! (§2 and §7), plus two sweeps EXPERIMENTS.md reports beside them
//! (`chaos`, `scenarios`). Run them with:
//!
//! ```text
//! cargo run --release -p medes-bench --bin experiments -- <id> [--quick]
//! cargo run --release -p medes-bench --bin experiments -- all
//! ```
//!
//! Each experiment prints the same rows/series the paper reports, next
//! to the paper's reference values, and writes a machine-readable,
//! byte-reproducible JSON record to `results/<id>.json`. The `--quick`
//! flag shrinks workloads for smoke testing (used by the integration
//! tests).
//!
//! An experiment produces numbers. A property that must merely hold —
//! reports invariant under shards, workers, registry placement and
//! telemetry; the cache's benefit; bounded streaming; slow-node
//! attribution — is asserted by a test, in the root `tests/` and in
//! this crate's `tests/` (EXPERIMENTS.md, "Gates that live in tests"),
//! not by an experiment id.
//!
//! Host-time measurement is not this crate's job. What a run costs end
//! to end and per layer (SHA-1, fingerprint scan, delta encode/apply,
//! image build, registry lookups, the dedup/restore ops, the
//! observability no-op path) is timed by the repository benchmark:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload <w> --trace 1
//! ```
//!
//! Its rows are named in `BENCHMARK.json` (`hash.sha1_64_ns`,
//! `delta.encode_ns_per_page`, `dedup.scan_us`, `obs.noop_ns`, …).
//!
//! `trace summarize <trace.jsonl>` renders the per-phase latency
//! breakdown of a JSONL span trace exported by `medes-obs` (run any
//! experiment with `--obs` to produce one). `trace analyze` goes a
//! step further: it rebuilds each operation's causal tree from the
//! `trace_id`/`parent_id` fields, prints critical paths and per-phase
//! self times, flags anomalous ops, and writes a folded-stacks file
//! for flamegraph rendering (see [`analyze`]).
//!
//! `trace timeline <trace.timeseries.jsonl>` summarizes the
//! deterministic sampler's per-metric series (run any experiment with
//! `--obs --timeseries <ms>`) and flags monotonic-leak patterns
//! (see [`timeline`]). `trace diff <base.jsonl> <cand.jsonl>` compares
//! two run exports — counters, histogram p99s, SLO violations, phase
//! self times, series endpoints — and exits nonzero on regression (see
//! [`diff`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod attribute;
pub mod common;
pub mod diff;
pub mod experiments;
pub mod report;
pub mod summarize;
pub mod timeline;

pub use common::ExpConfig;
pub use report::Report;
