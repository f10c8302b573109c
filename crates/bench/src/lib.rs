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
//! reports invariant under registry shards and placement and under
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
//! `trace report <trace.jsonl> [--against <base.jsonl>]` reads the
//! JSONL export of any run made with `--obs` and renders one report:
//! per-phase latency and self time, causal-tree critical paths, the
//! slowest requests, counters, tail attribution and, against a base
//! export, regressions (see [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod attribute;
pub mod common;
mod diff;
pub mod experiments;
pub mod report;
mod slo;
mod summarize;
pub mod trace;

pub use common::ExpConfig;
pub use report::Report;
