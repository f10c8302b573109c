//! # medes-sim — discrete-event simulation kernel
//!
//! The Medes reproduction evaluates a cluster-scale serverless platform.
//! Rather than depending on wall-clock time, every component runs on a
//! simulated clock driven by this crate's event queue. The kernel is
//! deliberately small and fully deterministic:
//!
//! * [`time`] — microsecond-resolution simulated time and durations.
//! * [`event`] — a stable `(time, push order)` event queue
//!   ([`event::EventQueue`]): a monotone lane in front of a binary heap.
//! * [`fault`] — seeded fault-injection plans ([`fault::FaultPlan`]):
//!   node crashes, link fault windows, RPC drops — all reproducible.
//! * [`engine`] — a minimal driver loop ([`engine::Simulation`]) for
//!   worlds that implement [`engine::World`]; a time-sorted input (a
//!   trace's arrivals) is streamed into it rather than queued.
//! * [`rng`] — a from-scratch deterministic RNG ([`rng::DetRng`],
//!   SplitMix64-seeded xoshiro256**) with the distributions the workload
//!   generators need (exponential, normal, Pareto).
//! * [`stats`] — streaming statistics, percentile trackers, histograms
//!   and time-weighted series used by the metrics pipeline.
//!
//! Determinism is a hard requirement: the same seed must reproduce the
//! same experiment byte-for-byte, so nothing in this crate reads the OS
//! clock or OS entropy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Simulation, World};
pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
