//! Quickstart: run a Medes cluster against an Azure-like workload and
//! compare it with the fixed keep-alive baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use medes::platform::baselines::{run_comparison, runner};
use medes::platform::PlatformConfig;
use medes::sim::SimDuration;
use medes::trace::{azure_like_trace, functionbench_suite, TraceGenConfig};

fn main() {
    // 1. The workload: the ten FunctionBench functions (paper Tables
    //    1-2) with 5x-scaled Azure-like arrivals over 10 minutes.
    let suite = functionbench_suite();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 600,
            scale: 5.0,
            ..Default::default()
        },
    );
    println!(
        "workload: {} invocations across {} functions over {:.0} minutes",
        trace.len(),
        trace.functions.len(),
        trace.duration().as_secs_f64() / 60.0
    );

    // 2. The platform: the paper's testbed shape (19 workers, 2 GB
    //    memory limit each), scaled for a laptop run.
    let mut cfg = PlatformConfig::paper_default();
    cfg.mem_scale = 256;
    cfg.node_mem_bytes = 256 << 20; // oversubscribed, as in the paper
    cfg.nodes = 12;

    // 3. Run Medes and both baselines over the same trace.
    let c = run_comparison(&cfg, &suite, SimDuration::from_mins(10), runner(&trace));

    println!(
        "\n{:<22} {:>12} {:>14} {:>16}",
        "policy", "cold starts", "p99 e2e (ms)", "mean mem (GiB)"
    );
    for (name, r) in [
        ("Medes", &c.medes),
        ("Fixed keep-alive", &c.fixed),
        ("Adaptive keep-alive", &c.adaptive),
    ] {
        println!(
            "{:<22} {:>12} {:>14.0} {:>16.2}",
            name,
            r.total_cold_starts(),
            r.e2e_quantile_all_ms(0.99).unwrap_or(0.0),
            r.mem_mean_bytes / (1u64 << 30) as f64,
        );
    }

    println!(
        "\nMedes deduplicated {:.1}% of {} sandboxes; {} dedup starts served",
        100.0 * c.medes.dedup_fraction(),
        c.medes.sandboxes_spawned,
        c.medes.dedup_starts().iter().sum::<u64>(),
    );
}
