//! Layered benchmark of the Medes simulator. See `README.md` for what is
//! measured and why; `BENCHMARK.json` at the repository root lists the
//! same metrics and workloads for the driver.
//!
//! The system under test is measured only from outside, through its
//! public API, and every call into it lives in [`api`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bench;
pub mod cli;
pub mod compare;
pub mod manifest;
pub mod metrics;
pub mod result;
pub mod spans;
pub mod stats;
pub mod workloads;
