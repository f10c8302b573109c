//! Medes under memory pressure (§7.4): shrink the cluster pool and
//! watch the cold-start gap widen in Medes's favour.
//!
//! ```text
//! cargo run --release --example memory_pressure
//! ```

use medes::platform::baselines::{run_comparison, runner};
use medes::platform::PlatformConfig;
use medes::sim::SimDuration;
use medes::trace::{azure_like_trace, functionbench_suite, TraceGenConfig};

fn main() {
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
        "{:<10} {:>12} {:>12} {:>12} {:>18}",
        "pool", "fixed cold", "adapt cold", "medes cold", "medes advantage"
    );
    for (label, frac) in [("full", 1.0), ("3/4", 0.75), ("1/2", 0.5)] {
        let mut cfg = PlatformConfig::paper_default();
        cfg.mem_scale = 256;
        cfg.node_mem_bytes = 256 << 20;
        cfg.nodes = ((19.0 * frac) as usize).max(2);
        let c = run_comparison(&cfg, &suite, SimDuration::from_mins(10), runner(&trace));
        let adv = 100.0
            * (1.0
                - c.medes.total_cold_starts() as f64 / c.fixed.total_cold_starts().max(1) as f64);
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>17.1}%",
            label,
            c.fixed.total_cold_starts(),
            c.adaptive.total_cold_starts(),
            c.medes.total_cold_starts(),
            adv
        );
    }
    println!("\npaper: the Medes advantage grows as the pool shrinks (22% -> 37% -> 41%).");
}
