//! # medes-policy — sandbox management policies
//!
//! Three policies from the paper's evaluation:
//!
//! * [`keepalive::FixedKeepAlive`] — the AWS-Lambda/OpenWhisk-style
//!   fixed keep-alive window (the paper's main baseline, 10 min).
//! * [`adaptive::AdaptiveKeepAlive`] — the Azure-style policy of
//!   Shahrad et al.: a per-function histogram of inter-arrival times
//!   picks a keep-alive window covering a target percentile.
//! * [`medes`] — the paper's contribution (§5): given
//!   per-function measurements (arrival rate, reuse periods, memory
//!   footprints, startup latencies), solve the optimization problem P1
//!   (min memory s.t. latency ≤ α·s_W) or P2 (min latency s.t. memory ≤
//!   M₀) for the warm/dedup split, falling back to aggressive
//!   deduplication when infeasible (§5.2.3).
//!
//! Because `W + D = C` makes both objectives linear in `D`, the LP is
//! solved exactly in closed form ([`medes::solve`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod keepalive;
pub mod medes;

pub use adaptive::AdaptiveKeepAlive;
pub use keepalive::{FixedKeepAlive, KeepAlivePolicy};
pub use medes::{Decision, FunctionState, MedesPolicyConfig, Objective};
