//! Cache — per-node base-page cache capacity sweep.
//!
//! Not a paper figure: this experiment quantifies what the base-page
//! LRU cache in front of the restore read path buys. The same
//! pressured Medes configuration runs at a sweep of per-node cache
//! capacities starting at 0 (no cache); the report shows the
//! restore-latency and RDMA-byte deltas plus the cache counters. Every
//! non-zero capacity must beat the uncached run on both axes — the
//! asserts below are the regression gate, not decoration.

use crate::common::{run as run_platform, ExpConfig};
use crate::report::{f, mib, Report};
use medes_core::config::{PolicyKind, RestoreReadConfig};
use medes_core::metrics::RunReport;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Weighted mean restore latency (ms): each function's mean base-read +
/// patch + CRIU-restore time, weighted by its restore count.
fn mean_restore_ms(r: &RunReport) -> f64 {
    let mut total_us = 0.0;
    let mut n = 0u64;
    for s in &r.dedup_stats {
        let (base, patch, ckpt) = s.mean_restore_us;
        total_us += s.restores as f64 * (base + patch + ckpt);
        n += s.restores;
    }
    if n == 0 {
        0.0
    } else {
        total_us / n as f64 / 1000.0
    }
}

fn total_restores(r: &RunReport) -> u64 {
    r.dedup_stats.iter().map(|s| s.restores).sum()
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "cache",
        "restore read path: per-node base-page cache capacity sweep",
    );
    let caps_mib: &[usize] = if cfg.quick {
        &[0, 16, 64]
    } else {
        &[0, 8, 32, 128]
    };
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    // The sweep measures the restore read path, so the cluster must be
    // restore-heavy rather than memory-starved: enough node memory that
    // the cache is a small fraction of it (a cache squeezed into an
    // oversubscribed node just trades restore bytes for extra dedup
    // churn), and an aggressive idle period so sandboxes are deduped
    // between arrivals and restored on the next one.
    let mut base = cfg.platform();
    base.node_mem_bytes = 1 << 30;
    let mut policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    policy.idle_period = SimDuration::from_secs(2);

    report.section("Cache capacity sweep (Medes policy, latency-target objective)");
    report.line(&format!(
        "{} nodes x {} MiB, {}s trace; cache capacity is per node",
        base.nodes,
        base.node_mem_bytes >> 20,
        cfg.trace_secs()
    ));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut uncached: Option<RunReport> = None;
    for &mib_cap in caps_mib {
        let label = &format!("cache {mib_cap} MiB");
        let mut pcfg = base.clone().with_policy(PolicyKind::Medes(policy.clone()));
        pcfg.read_path = RestoreReadConfig::cached(mib_cap << 20);
        let r = run_platform(pcfg.clone(), &suite, &trace);
        // The cache changes restore timings, which perturbs the whole
        // closed-loop trajectory — so determinism must be re-pinned per
        // capacity, not just for the uncached run.
        let r2 = run_platform(pcfg, &suite, &trace);
        assert_eq!(r, r2, "cache run must be deterministic for {label}");

        let restores = total_restores(&r);
        assert!(restores > 0, "sweep needs restores to measure ({label})");
        let restore_ms = mean_restore_ms(&r);
        let p99 = r.e2e_quantile_all_ms(0.99).unwrap_or(0.0);
        rows.push(vec![
            label.clone(),
            restores.to_string(),
            f(restore_ms, 3),
            mib(r.rdma_bytes as f64),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.cache_evictions.to_string(),
            mib(r.cache_bytes_saved as f64),
            r.total_cold_starts().to_string(),
            f(p99, 1),
        ]);
        json_rows.push(medes_obs::json!({
            "cache_mib": mib_cap,
            "restores": restores,
            "mean_restore_ms": restore_ms,
            "rdma_bytes": r.rdma_bytes,
            "cache_hits": r.cache_hits,
            "cache_misses": r.cache_misses,
            "cache_evictions": r.cache_evictions,
            "cache_invalidations": r.cache_invalidations,
            "cache_bytes_saved": r.cache_bytes_saved,
            "cold_starts": r.total_cold_starts(),
            "p99_ms": p99,
            "mem_mean_bytes": r.mem_mean_bytes,
        }));

        if let Some(ref u) = uncached {
            // The regression gate: every cached capacity must win on
            // both restore latency and fabric bytes, and actually
            // serve repeat restores from memory.
            assert!(
                r.cache_hits > 0,
                "{label}: repeat restores must hit the cache"
            );
            assert!(
                mean_restore_ms(&r) <= mean_restore_ms(u),
                "{label}: cached mean restore latency must not exceed uncached \
                 ({:.3} ms vs {:.3} ms)",
                mean_restore_ms(&r),
                mean_restore_ms(u)
            );
            assert!(
                r.rdma_bytes < u.rdma_bytes,
                "{label}: cached run must move fewer RDMA bytes than uncached \
                 ({} vs {})",
                r.rdma_bytes,
                u.rdma_bytes
            );
        } else {
            assert_eq!(r.cache_hits + r.cache_misses, 0, "capacity 0 is no cache");
            uncached = Some(r);
        }
    }
    report.table(
        &[
            "capacity",
            "restores",
            "mean restore (ms)",
            "rdma (MiB)",
            "hits",
            "misses",
            "evictions",
            "saved (MiB)",
            "cold starts",
            "p99 (ms)",
        ],
        &rows,
    );
    let u = uncached.expect("capacity 0 always runs");
    report.line(&format!(
        "without a cache {} MiB cross the fabric at {} ms mean restore; every cached \
         capacity moved fewer bytes at equal-or-lower latency",
        mib(u.rdma_bytes as f64),
        f(mean_restore_ms(&u), 3)
    ));
    report.json_set("sweep", medes_obs::Json::Array(json_rows));
    report
}
