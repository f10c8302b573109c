//! `medes.ckpt.*` metric helpers.
//!
//! The [`crate::TimingModel`] itself is a pure cost function; callers
//! (the dedup/restore ops in `medes-core`) report what they charged
//! through these helpers so checkpoint/restore timing shows up in the
//! metrics snapshot of an obs-enabled run.

use medes_obs::{LabelSet, Obs, TraceCtx};
use medes_sim::{SimDuration, SimTime};

/// Records one sandbox checkpoint: a `medes.ckpt.checkpoint` span
/// covering `[start, start + took)` as a child of `parent` (the dedup
/// op's checkpoint phase, so the memory dump shows up inside the
/// reconstructed trace tree), the op counter, dumped paper-scale bytes,
/// and a duration histogram (`medes.ckpt.checkpoint_us`). `node` is
/// the node being checkpointed; with dimensional telemetry on it keys
/// the per-node series.
pub fn record_checkpoint_in(
    obs: &Obs,
    parent: TraceCtx,
    start: SimTime,
    paper_bytes: usize,
    took: SimDuration,
    node: u64,
) {
    if !obs.enabled() {
        return;
    }
    obs.span_in(
        "medes.ckpt.checkpoint",
        start,
        parent.child("medes.ckpt.checkpoint", 0),
    )
    .attr("paper_bytes", paper_bytes)
    .end(start + took);
    let labels = || LabelSet::new().with("node", node);
    obs.incr_with("medes.ckpt.checkpoints", labels);
    obs.counter_add_with("medes.ckpt.checkpoint_bytes", paper_bytes as u64, labels);
    obs.record_with(
        "medes.ckpt.checkpoint_us",
        took.as_micros(),
        Some(parent.trace_id),
        labels,
    );
    // Cumulative-time counter: the time-series sampler skips
    // histograms, so this is what makes checkpoint time visible as a
    // sampled series.
    obs.counter_add("medes.ckpt.checkpoint_us_total", took.as_micros());
}

/// Records one restore-from-checkpoint (the memory-restore path): a
/// `medes.ckpt.restore` span covering `[start, start + took)` as a
/// child of `parent` (the restore op's checkpoint phase), the op
/// counter and a duration histogram (`medes.ckpt.restore_us`). `node`
/// is the restoring node (see [`record_checkpoint_in`]).
pub fn record_restore_in(
    obs: &Obs,
    parent: TraceCtx,
    start: SimTime,
    took: SimDuration,
    node: u64,
) {
    if !obs.enabled() {
        return;
    }
    obs.span_in(
        "medes.ckpt.restore",
        start,
        parent.child("medes.ckpt.restore", 0),
    )
    .end(start + took);
    let labels = || LabelSet::new().with("node", node);
    obs.incr_with("medes.ckpt.restores", labels);
    obs.record_with(
        "medes.ckpt.restore_us",
        took.as_micros(),
        Some(parent.trace_id),
        labels,
    );
    // Same cumulative mirror as `checkpoint_us_total`, for restores.
    obs.counter_add("medes.ckpt.restore_us_total", took.as_micros());
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_obs::ObsConfig;

    #[test]
    fn checkpoint_and_restore_are_recorded() {
        let obs = Obs::new(ObsConfig::enabled());
        let (ctx, t0) = (TraceCtx::NONE, SimTime::ZERO);
        record_checkpoint_in(&obs, ctx, t0, 4096, SimDuration::from_millis(120), 0);
        record_checkpoint_in(&obs, ctx, t0, 8192, SimDuration::from_millis(140), 0);
        record_restore_in(&obs, ctx, t0, SimDuration::from_millis(140), 0);
        assert_eq!(obs.counter("medes.ckpt.checkpoints"), 2);
        assert_eq!(obs.counter("medes.ckpt.checkpoint_bytes"), 12288);
        assert_eq!(obs.counter("medes.ckpt.restores"), 1);
        assert_eq!(obs.counter("medes.ckpt.checkpoint_us_total"), 260_000);
        assert_eq!(obs.counter("medes.ckpt.restore_us_total"), 140_000);
        let mean = obs
            .with_histogram("medes.ckpt.restore_us", |h| h.mean())
            .unwrap();
        assert!((mean - 140_000.0).abs() / 140_000.0 < 0.05);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        let (ctx, t0) = (TraceCtx::NONE, SimTime::ZERO);
        record_checkpoint_in(&obs, ctx, t0, 4096, SimDuration::from_millis(120), 0);
        record_restore_in(&obs, ctx, t0, SimDuration::from_millis(140), 0);
        assert!(obs.metrics_snapshot().is_empty());
        assert_eq!(obs.span_count(), 0);
    }

    /// Each call moves the flat counter and, only when dimensional
    /// telemetry is on, the per-node series with it.
    #[test]
    fn causal_variants_label_per_node_when_enabled() {
        let obs = Obs::new(ObsConfig::enabled().labeled());
        let root = obs.trace_root("dedup", 1, 2);
        let start = SimTime::from_micros(50);
        record_checkpoint_in(&obs, root, start, 4096, SimDuration::from_millis(120), 3);
        record_restore_in(&obs, root, start, SimDuration::from_millis(140), 3);
        let node3 = LabelSet::new().with("node", 3u64);
        assert_eq!(obs.labeled_counter("medes.ckpt.checkpoints", &node3), 1);
        assert_eq!(
            obs.labeled_counter("medes.ckpt.checkpoint_bytes", &node3),
            4096
        );
        assert_eq!(obs.labeled_counter("medes.ckpt.restores", &node3), 1);
        assert_eq!(obs.counter("medes.ckpt.checkpoints"), 1);
        // Labels off: same calls leave the labeled map empty.
        let off = Obs::new(ObsConfig::enabled());
        record_checkpoint_in(&off, root, start, 4096, SimDuration::from_millis(120), 3);
        assert_eq!(off.labeled_len(), 0);
        assert_eq!(off.counter("medes.ckpt.checkpoints"), 1);
    }

    #[test]
    fn causal_variants_emit_child_spans() {
        let obs = Obs::new(ObsConfig::enabled());
        let root = obs.trace_root("dedup", 1, 2);
        let start = SimTime::from_micros(50);
        record_checkpoint_in(&obs, root, start, 4096, SimDuration::from_millis(120), 2);
        record_restore_in(&obs, root, start, SimDuration::from_millis(140), 2);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "medes.ckpt.checkpoint");
        assert_eq!(spans[0].parent_id, root.span_id);
        assert_eq!(spans[0].start_us, 50);
        assert_eq!(spans[0].dur_us(), 120_000);
        assert_eq!(spans[1].name, "medes.ckpt.restore");
        assert_eq!(spans[1].trace_id, root.trace_id);
        assert_eq!(obs.counter("medes.ckpt.checkpoints"), 1);
        assert_eq!(obs.counter("medes.ckpt.restores"), 1);
    }
}
