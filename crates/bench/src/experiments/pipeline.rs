//! Pipeline — sharded-registry + batch-parallel dedup sweep.
//!
//! Not a paper figure: this experiment is the regression gate for the
//! dedup pipeline. One pressured Medes configuration runs at a sweep
//! of shard × worker counts. The pipeline's determinism contract —
//! `RunReport` is bit-identical at any shard count and any worker
//! count — is asserted for every combination against the serial
//! (1 shard, 1 worker) run, and the scan-phase host wall time
//! (`RunOutcome::dedup_scan_wall_us`, deliberately kept out of the
//! report and of every obs export) must drop strictly below serial
//! once workers > 1. The wall-time gate needs real parallel hardware,
//! so it is skipped on single-core hosts; the equality gates always run.

use crate::common::{run_outcome, ExpConfig};
use crate::report::{f, Report};
use medes_core::config::{DedupPipelineConfig, PlatformConfig, PolicyKind};
use medes_core::metrics::RunReport;
use medes_policy::medes::Objective;
use medes_sim::SimDuration;

/// Flush cadence for every run: long enough that several
/// idle sandboxes accumulate per batch, short enough that dedup still
/// lands well inside the keep-dedup window.
const FLUSH: SimDuration = SimDuration::from_secs(5);

fn total_dedups(r: &RunReport) -> u64 {
    r.sandboxes_deduped
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "pipeline",
        "sharded fingerprint registry + batch-parallel dedup sweep",
    );
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let mut policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    // Aggressive idle period so sandboxes go idle (and queue for
    // dedup) between arrivals: the batches must be real for the
    // worker-count claims to mean anything.
    policy.idle_period = SimDuration::from_secs(2);

    // Heavier images than the default harness scale: the wall-time
    // gate measures actual chunk-hashing work, and at the quick-mode
    // scale thread-spawn overhead would drown the signal.
    let mem_scale = (cfg.mem_scale() / 4).max(1);
    let base = {
        let mut b = cfg.platform();
        b.mem_scale = mem_scale;
        b.with_policy(PolicyKind::Medes(policy.clone()))
    };
    let with_pipeline = |shards: usize, workers: usize| -> PlatformConfig {
        let mut p = base.clone();
        p.pipeline = DedupPipelineConfig {
            shards,
            workers,
            flush_interval: FLUSH,
        };
        p
    };

    report.section("Shards x workers sweep (Medes policy, latency-target objective)");
    report.line(&format!(
        "{} nodes x {} MiB, {}s trace, mem_scale {}, flush interval {}s",
        base.nodes,
        base.node_mem_bytes >> 20,
        cfg.trace_secs(),
        mem_scale,
        FLUSH.as_secs_f64(),
    ));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    let combos: &[(usize, usize)] = &[(1, 1), (4, 1), (16, 1), (1, 8), (4, 8), (16, 8)];
    let mut serial: Option<RunReport> = None;
    let mut wall_by_combo: Vec<(usize, usize, u64)> = Vec::new();
    for &(shards, workers) in combos {
        let outcome = run_outcome(with_pipeline(shards, workers), &suite, &trace);
        let r = outcome.report;
        let wall_us = outcome.dedup_scan_wall_us;
        wall_by_combo.push((shards, workers, wall_us));
        rows.push(vec![
            shards.to_string(),
            workers.to_string(),
            r.dedup_batches.to_string(),
            r.dedup_batch_peak.to_string(),
            total_dedups(&r).to_string(),
            f(wall_us as f64 / 1000.0, 2),
            f(r.e2e_quantile_all_ms(0.99).unwrap_or(0.0), 1),
        ]);
        json_rows.push(medes_obs::json!({
            "shards": shards,
            "workers": workers,
            "batches": r.dedup_batches,
            "batch_peak": r.dedup_batch_peak,
            "deduped": total_dedups(&r),
            "scan_wall_us": wall_us,
            "p99_ms": r.e2e_quantile_all_ms(0.99).unwrap_or(0.0),
        }));

        match &serial {
            None => {
                // The (1, 1) reference: must actually batch, and must
                // replay deterministically before anything compares
                // against it.
                assert!(r.dedup_batches > 0, "run formed no batches");
                assert!(
                    r.dedup_batch_peak >= 2,
                    "flush interval never accumulated a multi-sandbox batch \
                     (peak {})",
                    r.dedup_batch_peak
                );
                assert!(total_dedups(&r) > 0, "run deduped nothing");
                let replay = run_outcome(with_pipeline(shards, workers), &suite, &trace);
                assert_eq!(r, replay.report, "serial run must be deterministic");
                serial = Some(r);
            }
            Some(s) => {
                // The determinism contract: scans are pure and commits
                // merge in first-enqueued order, so shard and worker
                // counts must not leak into the report.
                assert_eq!(
                    &r, s,
                    "RunReport diverged from the serial run at {shards} shards x \
                     {workers} workers"
                );
            }
        }
    }
    report.table(
        &[
            "shards",
            "workers",
            "batches",
            "peak batch",
            "deduped",
            "scan wall (ms)",
            "p99 (ms)",
        ],
        &rows,
    );

    let s = serial.expect("serial combo always runs");
    report.line(&format!(
        "all {} shard x worker combinations produced bit-identical reports \
         ({} batches, peak batch {}, {} sandboxes deduped)",
        combos.len(),
        s.dedup_batches,
        s.dedup_batch_peak,
        total_dedups(&s)
    ));

    // Wall-time gate: with real cores available, the parallel compute
    // phase must be strictly faster than the serial one at the same
    // shard count. Host wall time is the one quantity here that is
    // hardware-dependent, so a single-core host skips the assert — and
    // so does quick mode, whose ~12 ms of scan work is below
    // thread-spawn cost on a throttled host: it reports the ratio. CI
    // runs `--quick`, so only a full-mode run on a multi-core host
    // asserts.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wall_of = |shards: usize, workers: usize| -> u64 {
        wall_by_combo
            .iter()
            .find(|&&(s, w, _)| s == shards && w == workers)
            .map(|&(_, _, us)| us)
            .expect("combo ran")
    };
    // Best-of-three per side: host wall time on a shared runner is
    // noisy, and the gate claims a structural speedup, not a lucky one.
    let best_of = |shards: usize, workers: usize, first: u64| -> u64 {
        (0..2)
            .map(|_| run_outcome(with_pipeline(shards, workers), &suite, &trace).dedup_scan_wall_us)
            .fold(first, u64::min)
    };
    let ser_us = best_of(16, 1, wall_of(16, 1));
    let par_us = best_of(16, 8, wall_of(16, 8));
    let timing = format!(
        "scan wall time {} ms at 1 worker -> {} ms at 8 workers ({hw} cores): {:.2}x",
        f(ser_us as f64 / 1000.0, 2),
        f(par_us as f64 / 1000.0, 2),
        ser_us as f64 / par_us.max(1) as f64
    );
    if hw >= 2 && !cfg.quick {
        assert!(ser_us > 0, "serial scan wall time was not measured");
        assert!(
            par_us < ser_us,
            "parallel dedup scans must beat serial on a {hw}-core host \
             ({par_us} us at 8 workers vs {ser_us} us at 1)"
        );
        report.line(&timing);
    } else {
        report.line(&format!("{timing} (reported, not asserted)"));
    }
    report.json_set("hw_threads", medes_obs::json!(hw));
    report.json_set("sweep", medes_obs::Json::Array(json_rows));
    report
}
