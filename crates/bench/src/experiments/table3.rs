//! Table 3 — percent memory savings per function environment (§7.3.1).
//!
//! Per function: one sandbox is deduplicated against a same-function
//! base plus a shared cross-function base pool, and the saved bytes are
//! reported as a percentage of the sandbox's footprint. The paper
//! reports 16–58 % depending on the function's library/heap mix.

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_core::config::PlatformConfig;
use medes_core::dedup::{dedup_op, index_base_sandbox};
use medes_core::ids::{FnId, NodeId, SandboxId};
use medes_core::images::ImageFactory;
use medes_core::registry::RegistryClient;
use medes_mem::{AslrConfig, ContentModel, MemoryImage};
use medes_net::Fabric;
use std::collections::HashMap;
use std::sync::Arc;

/// Paper reference savings (Table 3), percent.
const PAPER: &[(&str, f64)] = &[
    ("Vanilla", 27.06),
    ("LinAlg", 32.81),
    ("ImagePro", 43.03),
    ("VideoPro", 25.46),
    ("MapReduce", 15.94),
    ("HTMLServe", 44.30),
    ("AuthEnc", 21.48),
    ("FeatureGen", 38.89),
    ("RNNModel", 58.03),
    ("ModelTrain", 30.09),
];

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("table3", "percent memory savings per function environment");
    let suite = cfg.suite();
    let mut pcfg = PlatformConfig::paper_default();
    pcfg.mem_scale = cfg.mem_scale();
    let mut content = ContentModel::default();
    if cfg.content_model {
        content.mixture = medes_mem::ContentModelConfig::paper_calibrated();
    }
    let mut factory = ImageFactory::new(&suite, content, AslrConfig::DISABLED, pcfg.mem_scale);

    // A cluster-like base pool: one base sandbox per function, all
    // indexed — so cross-function RSCs are available exactly as on a
    // running platform.
    let registry = RegistryClient::new();
    let mut bases: HashMap<SandboxId, (FnId, Arc<MemoryImage>)> = HashMap::new();
    for (i, _) in suite.iter().enumerate() {
        let img = factory.pin_v(FnId(i), 5000 + i as u64, 0);
        let id = SandboxId(i as u64);
        index_base_sandbox(&pcfg, &registry, NodeId(i % pcfg.nodes), id, &img);
        bases.insert(id, (FnId(i), img));
    }
    let resolver = |id: SandboxId| bases.get(&id).map(|(f, img)| (Arc::clone(img), *f));

    let mut fabric = Fabric::new(pcfg.nodes, pcfg.net.clone());
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut pcts: Vec<(String, f64)> = Vec::new();
    for (i, p) in suite.iter().enumerate() {
        let target = factory.image_v(FnId(i), 9000 + i as u64, 0);
        let outcome = dedup_op(
            &pcfg,
            &registry,
            &mut fabric,
            NodeId(0),
            FnId(i),
            &target,
            &resolver,
        )
        .expect("dedup op on a fault-free fabric");
        let saved_frac = outcome.saved_model_bytes() as f64 / target.total_bytes() as f64;
        let saved_mb = saved_frac * p.memory_bytes as f64 / (1 << 20) as f64;
        let paper_pct = PAPER
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        pcts.push((p.name.clone(), 100.0 * saved_frac));
        rows.push(vec![
            p.name.clone(),
            f(saved_mb, 2),
            f(100.0 * saved_frac, 1),
            f(paper_pct, 1),
        ]);
        json.push(medes_obs::json!({
            "function": p.name.clone(),
            "saved_mb": saved_mb,
            "saved_pct": 100.0 * saved_frac,
            "paper_pct": paper_pct,
        }));
    }
    report.table(&["function", "saved (MB)", "saved %", "paper %"], &rows);
    report.line("");
    report.line("paper: 16-58% depending on the function's library/heap composition");
    if cfg.content_model {
        // Under the entropy mixture the per-function savings must land
        // inside the paper's Table 3 band (16-58 %).
        for (name, pct) in &pcts {
            assert!(
                (16.0..=58.0).contains(pct),
                "mixture-on savings for {name} out of the paper band: {pct:.1}% not in 16-58%"
            );
        }
        report.line(&format!(
            "mixture on: all {} functions inside the paper's 16-58% band",
            pcts.len()
        ));
    }
    report.json_set("functions", medes_obs::Json::Array(json));
    report
}
