//! Fig 8 — dedup-start breakdown vs cold starts.
//!
//! Per function: one base sandbox is indexed, a second sandbox is
//! deduplicated, then restored; the three restore phases (base-page
//! reading, original-page computing, sandbox restoration) are reported
//! next to the function's cold-start latency. The paper shows dedup
//! starts consistently far below cold starts (~140–550 ms vs up to
//! seconds).

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_core::config::PlatformConfig;
use medes_core::dedup::{dedup_op, index_base_sandbox};
use medes_core::ids::{FnId, NodeId, SandboxId};
use medes_core::images::ImageFactory;
use medes_core::registry::RegistryClient;
use medes_core::restore::restore_op_cached;
use medes_mem::{AslrConfig, ContentModel};
use medes_net::Fabric;
use std::sync::Arc;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("fig8", "dedup start breakdown vs cold start (ms)");
    let suite = cfg.suite();
    let mut pcfg = PlatformConfig::paper_default();
    pcfg.mem_scale = cfg.mem_scale();
    let mut factory = ImageFactory::new(
        &suite,
        ContentModel::default(),
        AslrConfig::DISABLED,
        pcfg.mem_scale,
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();

    for (i, p) in suite.iter().enumerate() {
        let registry = RegistryClient::new();
        let mut fabric = Fabric::new(pcfg.nodes, pcfg.net.clone());
        let base = factory.pin_v(FnId(i), 1000 + i as u64, 0);
        let base_id = SandboxId(i as u64);
        index_base_sandbox(&pcfg, &registry, NodeId(0), base_id, &base);
        let target = factory.image_v(FnId(i), 2000 + i as u64, 0);
        let base_arc = Arc::clone(&base);
        let resolver =
            move |id: SandboxId| (id == base_id).then(|| (Arc::clone(&base_arc), FnId(i)));
        let outcome = dedup_op(
            &pcfg,
            &registry,
            &mut fabric,
            NodeId(1),
            FnId(i),
            &target,
            &resolver,
        )
        .expect("dedup op on a fault-free fabric");
        let restore = restore_op_cached(
            &pcfg,
            &mut fabric,
            NodeId(1),
            &outcome.table,
            &resolver,
            None,
            Some(&target),
        )
        .expect("restore must verify");
        factory.unpin_v(FnId(i), 1000 + i as u64, 0);

        let t = restore.timing;
        let cold = p.cold_start().as_millis_f64();
        rows.push(vec![
            p.name.clone(),
            f(cold, 0),
            f(t.base_read.as_millis_f64(), 1),
            f(t.page_compute.as_millis_f64(), 1),
            f(t.ckpt_restore.as_millis_f64(), 1),
            f(t.total().as_millis_f64(), 1),
            f(cold / t.total().as_millis_f64().max(0.1), 2),
        ]);
        json.push(medes_obs::json!({
            "function": p.name.clone(),
            "cold_ms": cold,
            "base_read_ms": t.base_read.as_millis_f64(),
            "page_compute_ms": t.page_compute.as_millis_f64(),
            "restore_ms": t.ckpt_restore.as_millis_f64(),
            "dedup_start_ms": t.total().as_millis_f64(),
        }));
    }
    report.table(
        &[
            "function",
            "cold (ms)",
            "base read",
            "page compute",
            "sandbox restore",
            "dedup total",
            "speedup",
        ],
        &rows,
    );
    report.line("");
    report
        .line("paper: dedup starts ~140-550 ms, consistently below cold starts for every function");
    report.json_set("functions", medes_obs::Json::Array(json));
    report
}
