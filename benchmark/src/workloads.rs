//! The four benchmark workloads as plain data. `api.rs` turns a
//! [`Workload`] plus a seed into the simulator's inputs.
//!
//! A workload pins the *macroscopic* structure of its inputs — cluster
//! size, per-function arrival rates and burst layout, which nodes crash
//! and when — and leaves the *microscopic* randomness to the seed:
//! arrival instants (jittered by up to a second), execution-time draws,
//! per-sandbox memory content, deploy staggers and probabilistic link and
//! RPC faults. The structure is pinned because the repo's Azure-like
//! generator draws Pareto rates and exponential burst lengths from its
//! seed: over generator seeds 1..10 the one-hour trace has between 13 k
//! and 67 k requests and p99.9 startup between 2.5 s and 1 250 s, which no
//! regression bound could hold. Each run therefore simulates
//! [`Workload::sub_runs`] clusters, one per sub-seed derived from
//! `--seed`, so that what is left of seed-to-seed spread averages down.

/// Generator seed of the repo's standard trace and fault plan (the
/// `TraceGenConfig` default, EuroSys'22 dates).
pub const STRUCTURE_SEED: u64 = 20220405;
/// Seed used while developing a change.
pub const DEFAULT_SEED: u64 = 20220405;
/// Seed a claim must also hold on; never used while developing.
pub const HELD_OUT_SEED: u64 = 20220406;

/// Sandbox-management policy of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Medes P1: minimise memory subject to startup ≤ α · warm start.
    MedesLatency {
        /// The α of §5.2.3.
        alpha: f64,
    },
    /// Medes P2: minimise startup under a memory budget given as a share
    /// of cluster capacity.
    MedesBudget {
        /// Budget / cluster capacity.
        capacity_frac: f64,
    },
    /// Fixed keep-alive; the dedup state is never entered.
    FixedKeepAlive {
        /// Keep-alive window, minutes.
        mins: u64,
    },
}

/// One workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Worker nodes.
    pub nodes: usize,
    /// Paper-scale memory per node, MiB.
    pub node_mem_mib: usize,
    /// Trace length, simulated seconds.
    pub trace_secs: u64,
    /// Arrival-volume multiplier of the Azure-like trace (the paper uses 5).
    pub arrival_scale: f64,
    /// Memory-image scale denominator (model bytes = paper bytes / this).
    pub mem_scale: usize,
    /// Policy.
    pub policy: Policy,
    /// Verify every restore byte for byte.
    pub verify_restores: bool,
    /// `FaultPlan::synthesize` intensity; 0 injects nothing.
    pub fault_rate: f64,
    /// Rolling-deploy epochs; 0 deploys nothing.
    pub deploy_epochs: u64,
    /// Registry owner nodes (and shards); 0 keeps the registry in process
    /// with one shard.
    pub registry_owners: usize,
    /// Simulated clusters per benchmark run, one per sub-seed.
    pub sub_runs: usize,
}

impl Workload {
    /// A seconds-long variant for tests (`--smoke`): same code paths,
    /// tiny inputs.
    pub fn smoke(mut self) -> Self {
        self.trace_secs = self.trace_secs.min(300);
        self.mem_scale = self.mem_scale.max(1024);
        self.arrival_scale = self.arrival_scale.min(5.0);
        self.sub_runs = 2;
        self
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    let testbed = Workload {
        name: "paper",
        why: "the balanced headline case: the paper's 12-node testbed under Medes P1, where every layer contributes",
        nodes: 12,
        node_mem_mib: 192,
        trace_secs: 3600,
        arrival_scale: 5.0,
        mem_scale: 128,
        policy: Policy::MedesLatency { alpha: 2.5 },
        verify_restores: false,
        fault_rate: 0.0,
        deploy_epochs: 0,
        registry_owners: 0,
        sub_runs: 8,
    };
    vec![
        testbed.clone(),
        Workload {
            name: "dedup",
            why: "byte path dominates: Medes P2 at half capacity, twice the bytes per image, every restore verified",
            mem_scale: 64,
            policy: Policy::MedesBudget { capacity_frac: 0.5 },
            verify_restores: true,
            sub_runs: 3,
            ..testbed.clone()
        },
        Workload {
            name: "fleet",
            why: "bypass: 48 nodes, a million requests, fixed keep-alive, so no hash, delta, registry or restore work runs",
            nodes: 48,
            node_mem_mib: 384,
            trace_secs: 14_400,
            arrival_scale: 40.0,
            mem_scale: 1024,
            policy: Policy::FixedKeepAlive { mins: 10 },
            sub_runs: 5,
            ..testbed.clone()
        },
        Workload {
            name: "churn",
            why: "write side of the dedup layers: crashes, link faults, three rolling deploys and a 3-owner registry force purges, invalidations and retries",
            policy: Policy::MedesBudget { capacity_frac: 0.5 },
            verify_restores: true,
            fault_rate: 1.0,
            deploy_epochs: 3,
            registry_owners: 3,
            sub_runs: 6,
            ..testbed
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        let ws = all();
        assert_eq!(ws.len(), 4);
        for (i, w) in ws.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(ws[..i].iter().all(|o| o.name != w.name));
            assert!(w.sub_runs >= 1);
        }
        assert!(by_name("fleet").is_some());
        assert!(by_name("nope").is_none());
    }
}
