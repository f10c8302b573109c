//! # Medes — memory deduplication for serverless computing
//!
//! A from-scratch Rust reproduction of *"Memory Deduplication for
//! Serverless Computing with Medes"* (EuroSys 2022). Medes introduces a
//! third sandbox state — **dedup** — between warm (fast, memory-hungry)
//! and cold (free, seconds-slow): a deduplicated sandbox keeps only the
//! memory that is unique in the cluster, storing every other page as a
//! compact patch against a similar *base page*, and restores in a few
//! hundred milliseconds by fetching base pages over RDMA and applying
//! the patches.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`sim`] | deterministic discrete-event kernel, RNG, statistics |
//! | [`hash`] | SHA-1, value-sampled fingerprints |
//! | [`delta`] | binary diff/patch (the Xdelta3 stand-in) |
//! | [`mem`] | sandbox memory images + the synthetic content model |
//! | [`ckpt`] | CRIU-like checkpoint/restore with the paper's timings |
//! | [`net`] | RDMA/RPC fabric cost model |
//! | [`obs`] | tracing/metrics layer: spans, streamed JSONL export, final counters |
//! | [`trace`] | FunctionBench profiles + Azure-like workload generator |
//! | [`policy`] | fixed/adaptive keep-alive + the §5 Medes optimizer |
//! | [`platform`] | the full platform: controller, registry, dedup & restore ops |
//!
//! ## Quick start
//!
//! ```
//! use medes::platform::{Platform, PlatformConfig};
//! use medes::trace::{azure_like_trace, functionbench_suite, TraceGenConfig};
//!
//! // The ten FunctionBench functions of the paper's Tables 1-2.
//! let suite = functionbench_suite();
//! let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
//!
//! // A 60-second Azure-like arrival trace.
//! let trace = azure_like_trace(
//!     &names,
//!     &TraceGenConfig { duration_secs: 60, scale: 1.0, ..Default::default() },
//! );
//!
//! // Run it on a Medes cluster and inspect the outcome. `run` returns
//! // a `RunOutcome`: the report plus the observability handle.
//! let report = Platform::new(PlatformConfig::small_test(), suite).run(&trace).report;
//! println!(
//!     "{} requests, {} cold starts, {:.1}% sandboxes deduplicated",
//!     report.requests.len(),
//!     report.total_cold_starts(),
//!     100.0 * report.dedup_fraction()
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use medes_ckpt as ckpt;
pub use medes_core as platform;
pub use medes_delta as delta;
pub use medes_hash as hash;
pub use medes_mem as mem;
pub use medes_net as net;
pub use medes_obs as obs;
pub use medes_policy as policy;
pub use medes_sim as sim;
pub use medes_trace as trace;

/// The crate version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _ = crate::platform::PlatformConfig::small_test();
        let _ = crate::trace::functionbench_suite();
        assert!(!crate::VERSION.is_empty());
    }
}
