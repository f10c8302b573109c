//! # medes-trace — workloads: FunctionBench profiles + Azure-like traces
//!
//! The paper drives its evaluation with (a) the ten FunctionBench
//! functions (Tables 1–2) and (b) request arrival patterns taken from
//! the Azure Functions production traces, scaled 5×. The Azure dataset
//! is not redistributable, so per `DESIGN.md` this crate generates
//! *Azure-like* arrivals reproducing the characteristics reported by
//! Shahrad et al. (the paper's \[29\]): heavy skew across functions, a mix
//! of bursty / periodic / diurnal per-function patterns, and long idle
//! gaps that punish naive keep-alive policies.
//!
//! * [`functionbench`] — the function catalog (libraries, execution
//!   times, memory footprints, cold-start costs).
//! * [`azure`] — per-function arrival pattern generators.
//! * [`trace`] — the merged, time-sorted invocation trace with JSON
//!   serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod azure;
pub mod functionbench;
pub mod scenarios;
pub mod trace;

pub use azure::{azure_like_trace, ArrivalPattern, TraceGenConfig};
pub use functionbench::{functionbench_suite, FunctionProfile};
pub use scenarios::{
    all_scenarios, flash_crowd_scenario, hetero_memory_scenario, preemption_wave_scenario,
    rolling_deploy_scenario, tenant_skew_scenario, DeploySchedule, Scenario, ScenarioConfig,
    ScenarioKind, VersionBump,
};
pub use trace::{Invocation, Trace};
