//! # medes-core — the Medes serverless platform
//!
//! This crate is the paper's primary contribution: a serverless platform
//! with a third sandbox state — **dedup** — between warm and cold, plus
//! the machinery that makes it practical:
//!
//! * [`registry`] — the controller's **global fingerprint registry**:
//!   value-sampled RSC hashes of *base sandboxes* → cluster locations.
//! * [`dedup`] — the dedup op (§4.1): checkpoint → per-page fingerprint
//!   → registry lookup → base-page election → Xdelta-style patch.
//! * [`restore`] — the restore op (§4.2): batched RDMA base-page reads →
//!   patch application → optimized CRIU restore (~140 ms path).
//! * [`pagecache`] — the per-node base-page LRU cache in front of the
//!   restore read path; repeat restores of hot base pages skip the
//!   fabric entirely.
//! * [`sandbox`] — sandbox state and the dedup page table (the Fig 4b
//!   edges are the platform lifecycle's mutators).
//! * `controller` — per-function policy state: arrival rates, EWMA
//!   estimates, the `D/B > T` demarcation rule, policy targets.
//! * [`platform`] — the discrete-event cluster simulation tying it all
//!   together over a [`medes_trace::Trace`]; produces [`metrics`]. Its
//!   state has three owners (node memory, sandbox lifecycle, bases);
//!   the event loop only routes.
//! * [`baselines`] — the same platform running fixed/adaptive keep-alive
//!   policies (no dedup state), and the Catalyzer profile preset of
//!   Fig 13 (§7.6).
//!
//! ## Quick start
//!
//! ```
//! use medes_core::config::{PlatformConfig, PolicyKind};
//! use medes_core::platform::Platform;
//! use medes_trace::{azure_like_trace, functionbench_suite, TraceGenConfig};
//!
//! let suite = functionbench_suite();
//! let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
//! let trace = azure_like_trace(
//!     &names,
//!     &TraceGenConfig { duration_secs: 60, scale: 1.0, ..Default::default() },
//! );
//! let cfg = PlatformConfig::small_test();
//! let report = Platform::new(cfg, suite).run(&trace).report;
//! assert_eq!(report.requests.len(), trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub(crate) mod controller;
pub mod dedup;
pub mod ids;
pub mod images;
pub mod metrics;
pub mod pagecache;
pub mod platform;
pub mod registry;
pub mod restore;
pub mod sandbox;

pub use config::{PlatformConfig, PolicyKind};
pub use metrics::{RunReport, StartType};
pub use platform::Platform;
