//! Placement-conformance suite for the registry (DESIGN.md §15).
//!
//! A placed [`RegistryClient`] must be observationally identical to the
//! in-process reference: same candidates, same counters, at every
//! interleaving of inserts, lookups, and removals. On top of the
//! client-level contract, whole-platform runs (fig7-, fig9-, and
//! chaos-style configurations) must produce bit-identical `RunReport`s
//! with the registry distributed over 1, 4, and 12 owner nodes — and
//! crash runs, a full outage included, must end with zero registry
//! state tied to dead nodes. What placement does change is counted:
//! the obs counters must show routed RPC traffic at every placement
//! and none in process.

use medes::hash::sample::{page_fingerprint, FingerprintConfig};
use medes::net::{NetConfig, RetryPolicy};
use medes::obs::{Obs, ObsConfig};
use medes::platform::config::{PlatformConfig, PlatformConfigBuilder, PolicyKind};
use medes::platform::ids::{NodeId, SandboxId};
use medes::platform::registry::{ChunkLoc, RegistryClient};
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, NodeCrash};
use medes::sim::{DetRng, SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

fn random_page(seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut p = vec![0u8; 4096];
    rng.fill_bytes(&mut p);
    p
}

/// One client per placement, identically sharded: the in-process
/// reference plus distributed placements of several widths.
fn backends(shards: usize) -> Vec<(String, RegistryClient)> {
    let mut out = vec![(
        "in-process".to_string(),
        RegistryClient::in_process(shards, Obs::disabled()),
    )];
    for owners in [1, 3, 6] {
        out.push((
            format!("distributed/{owners}"),
            RegistryClient::distributed(
                shards,
                owners,
                6,
                NetConfig::default(),
                RetryPolicy::default(),
                Obs::disabled(),
            ),
        ));
    }
    out
}

/// Snapshot of every store counter, for parity assertions.
fn counters(c: &RegistryClient) -> (usize, usize, u64, usize, usize, Vec<usize>, usize) {
    (
        c.entries(),
        c.peak_entries(),
        c.lookups(),
        c.mem_bytes(),
        c.peak_mem_bytes(),
        c.shard_entries(),
        c.base_sandboxes(),
    )
}

/// Randomized insert/lookup/remove interleavings: every placement must
/// return the same candidates and report the same counters as the
/// in-process reference, step for step.
#[test]
fn interleavings_agree_across_backends() {
    let cfg = FingerprintConfig::default();
    let fps: Vec<_> = (0..32u64)
        .map(|i| page_fingerprint(&random_page(i), &cfg))
        .collect();
    for case in 0..4u64 {
        let mut clients = backends(8);
        let mut rng = DetRng::new(0xC0DE + case);
        let mut live: Vec<u64> = Vec::new();
        let mut next_sb = 1u64;
        for _ in 0..40 {
            let roll = rng.below(10);
            if live.is_empty() || roll < 5 {
                let sb = next_sb;
                next_sb += 1;
                live.push(sb);
                let fp = &fps[rng.below(fps.len() as u64) as usize];
                let loc = ChunkLoc {
                    node: NodeId(rng.below(6) as usize),
                    sandbox: SandboxId(sb),
                    page: rng.below(64) as u32,
                };
                for (_, c) in &mut clients {
                    c.insert_page(fp, loc);
                }
            } else if roll < 8 {
                let probe = &fps[rng.below(fps.len() as u64) as usize];
                let reference = clients[0].1.lookup(probe);
                for (name, c) in &clients[1..] {
                    assert_eq!(c.lookup(probe), reference, "{name} diverged on lookup");
                }
            } else {
                let sb = live.swap_remove(rng.below(live.len() as u64) as usize);
                for (_, c) in &mut clients {
                    c.remove_sandbox(SandboxId(sb));
                }
            }
            let reference = counters(&clients[0].1);
            for (name, c) in &clients[1..] {
                assert_eq!(counters(c), reference, "{name} counters diverged");
                c.check_invariants()
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
        // Batched lookups agree too (the pipeline's hot path).
        let reference = clients[0].1.lookup_batch(&fps);
        for (name, c) in &clients[1..] {
            assert_eq!(c.lookup_batch(&fps), reference, "{name} diverged on batch");
        }
    }
}

/// Crashing an owner node must purge its ownership entirely: no shard
/// owned by it, no entries homed in shards owned by it, invariants
/// clean — while the logical contents survive re-demarcation intact.
#[test]
fn crash_purge_leaves_no_dead_node_state() {
    let cfg = FingerprintConfig::default();
    let client = RegistryClient::distributed(
        8,
        6,
        6,
        NetConfig::default(),
        RetryPolicy::default(),
        Obs::disabled(),
    );
    for i in 0..24u64 {
        let fp = page_fingerprint(&random_page(200 + i), &cfg);
        client.insert_page(
            &fp,
            ChunkLoc {
                node: NodeId((i % 6) as usize),
                sandbox: SandboxId(i + 1),
                page: 0,
            },
        );
    }
    let entries = client.entries();
    // Kill owners one at a time; the last survivor absorbs everything.
    for dead in 0..5usize {
        let rec = client.on_node_crash(NodeId(dead));
        assert!(rec.reassigned_shards > 0, "node {dead} owned no shards");
        assert_eq!(client.entries_owned_by(NodeId(dead)), 0);
        client
            .check_invariants()
            .unwrap_or_else(|e| panic!("after crash of node {dead}: {e}"));
    }
    assert_eq!(client.entries(), entries, "re-demarcation lost entries");
    assert_eq!(client.entries_owned_by(NodeId(5)), entries);
    assert!(client.rereplicated_entries() > 0);
}

fn suite() -> Vec<FunctionProfile> {
    functionbench_suite().into_iter().take(5).collect()
}

fn trace(secs: u64, seed: u64, scale: f64) -> Trace {
    let s = suite();
    let names: Vec<String> = s.iter().map(|p| p.name.clone()).collect();
    azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale,
            seed,
        },
    )
}

/// A 12-node pressured cluster, so the 12-owner placement is legal and
/// the Medes policy dedups enough to populate the registry. Obs is on
/// (reports are obs-invariant) so the RPC-traffic gates can read the
/// registry counters. `objective` is the Medes policy's.
fn cluster_config(objective: Objective) -> PlatformConfigBuilder {
    PlatformConfig::test_builder()
        .obs(ObsConfig::enabled())
        .nodes(12)
        .node_mem_bytes(128 << 20)
        .shards(16)
        .tweak(|cfg| {
            if let PolicyKind::Medes(m) = &mut cfg.policy {
                m.idle_period = SimDuration::from_secs(10);
                m.objective = objective;
            }
        })
}

/// Runs one configuration at every registry placement and asserts the
/// reports are bit-identical while the registry counters show real
/// routed traffic — placement decides where registry RPCs go, never
/// what the registry answers; returns the reference outcome for
/// scenario-level assertions.
fn assert_placement_invariant(
    base: PlatformConfigBuilder,
    t: &Trace,
) -> medes::platform::platform::RunOutcome {
    let reference_cfg = base.clone().build().expect("valid config");
    let nodes = reference_cfg.nodes;
    let reference = Platform::new(reference_cfg, suite()).run(t);
    assert_eq!(
        reference.obs.counter("medes.net.rpcs"),
        0,
        "the in-process registry must issue no registry RPCs"
    );
    for owners in [1usize, 4, 12] {
        let cfg = base.clone().registry_owners(owners).build();
        let outcome = Platform::new(cfg.expect("valid placement"), suite()).run(t);
        assert_eq!(
            outcome.report, reference.report,
            "report diverged at {owners} owners"
        );
        assert_eq!(outcome.report.registry_dead_node_locs, 0);
        let count = |name: &str| outcome.obs.counter(name);
        let rpcs = count("medes.net.rpcs");
        assert!(rpcs > 0, "{owners} owners: no registry RPCs issued");
        assert!(
            count("medes.net.rpc_bytes") > 0,
            "{owners} owners: registry RPCs moved no bytes"
        );
        assert_eq!(
            count("medes.registry.rpc_total"),
            rpcs,
            "{owners} owners: fabric totals must agree with the live counters"
        );
        assert!(
            count("medes.net.registry.lookup_rpcs") > 0
                && count("medes.net.registry.insert_rpcs") > 0,
            "{owners} owners: both lookup and insert traffic must be routed"
        );
        assert_eq!(
            count("medes.registry.dead_owner_entries"),
            0,
            "{owners} owners: entries left in shards owned by dead nodes"
        );
        // When every node owns shards any crash hits an owner, and
        // must re-demarcate at least one shard onto a survivor.
        if owners == nodes {
            assert_eq!(
                count("medes.registry.shards_reassigned") > 0,
                outcome.report.node_crashes > 0,
                "shards are re-demarcated exactly when an owner crashed"
            );
        }
    }
    reference
}

/// Fig 7-style: latency-target Medes objective over an oversubscribed
/// Azure-like trace (the full FunctionBench catalog, like the fig7
/// experiment itself — latency-target only dedups under pressure).
#[test]
fn fig7_style_report_is_placement_invariant() {
    let full_suite = functionbench_suite();
    let names: Vec<String> = full_suite.iter().map(|p| p.name.clone()).collect();
    let t = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 240,
            scale: 5.0,
            ..Default::default()
        },
    );
    let cfg = cluster_config(Objective::LatencyTarget { alpha: 2.5 })
        .mem_scale(512)
        .node_mem_bytes(192 << 20)
        .tweak(|cfg| {
            if let PolicyKind::Medes(m) = &mut cfg.policy {
                m.idle_period = SimDuration::from_secs(2);
            }
        });
    let run = |cfg: PlatformConfigBuilder| {
        let cfg = cfg.build().expect("valid config");
        Platform::new(cfg, full_suite.clone()).run(&t)
    };
    let reference = run(cfg.clone());
    for owners in [1usize, 4, 12] {
        let outcome = run(cfg.clone().registry_owners(owners));
        assert_eq!(
            outcome.report, reference.report,
            "report diverged at {owners} owners"
        );
    }
    assert!(
        reference.report.sandboxes_deduped > 0,
        "run exercised no dedups; the invariance is vacuous"
    );
}

/// Fig 9-style: memory-budget Medes objective (the §7.3 sweep shape).
#[test]
fn fig9_style_report_is_placement_invariant() {
    let cfg = cluster_config(Objective::MemoryBudget {
        budget_bytes: 400e6,
    });
    let t = trace(300, 23, 2.0);
    let reference = assert_placement_invariant(cfg, &t);
    assert!(reference.report.sandboxes_deduped > 0);
}

/// Chaos-style: a synthesized fault plan crashes nodes mid-run. The
/// placed registry must re-demarcate ownership and still replay
/// the in-process report bit for bit, ending with zero dead-node
/// registry state.
#[test]
fn chaos_style_report_is_placement_invariant() {
    let faults = FaultPlan::synthesize(0xFA17, 12, SimTime::from_secs(400), 4.0);
    assert!(!faults.crashes.is_empty(), "plan must crash nodes");
    let cfg = cluster_config(Objective::MemoryBudget {
        budget_bytes: 200e6,
    })
    .faults(faults);
    let t = trace(400, 29, 2.0);
    let reference = assert_placement_invariant(cfg, &t);
    assert!(
        reference.report.node_crashes > 0,
        "no crash landed during the trace; the hygiene gate is vacuous"
    );
}

/// A full outage: every node — so every registry owner candidate — is
/// down at once. The placed registry has no survivor to re-demarcate
/// onto, so its (empty) shards wait for the first restarted node; the
/// run must finish and replay the in-process report bit for bit.
#[test]
fn full_outage_report_is_placement_invariant() {
    let crashes: Vec<NodeCrash> = (0..4u64)
        .map(|n| NodeCrash {
            node: n as usize,
            at: SimTime::from_secs(40 + n),
            restart: Some(SimTime::from_secs(60)),
        })
        .collect();
    let run = |owners: Option<usize>| {
        let mut b = PlatformConfig::test_builder()
            .nodes(4)
            .shards(4)
            .faults(FaultPlan {
                crashes: crashes.clone(),
                ..Default::default()
            });
        if let Some(owners) = owners {
            b = b.registry_owners(owners);
        }
        let cfg = b.build().expect("valid config");
        Platform::new(cfg, suite()).run(&trace(120, 31, 2.0)).report
    };
    let reference = run(None);
    assert_eq!(reference.node_crashes, 4);
    assert_eq!(reference.node_restarts, 4);
    let placed = run(Some(2));
    assert_eq!(placed, reference);
    assert_eq!(placed.registry_dead_node_locs, 0);
}
