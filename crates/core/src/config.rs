//! Platform configuration.
//!
//! Dedup has no setting of its own: an op starts at the §5 policy's idle
//! check (`platform::pipeline`), so the policy knobs decide when.

use medes_ckpt::TimingModel;
use medes_hash::sample::FingerprintConfig;
use medes_mem::{AslrConfig, ContentModel};
use medes_net::{NetConfig, RetryPolicy};
use medes_obs::ObsConfig;
use medes_policy::MedesPolicyConfig;
use medes_sim::fault::FaultPlan;
use medes_sim::SimDuration;
use medes_trace::DeploySchedule;

/// Restore read-path configuration. Every restore and dedup op reads
/// each distinct `(base sandbox, base page)` once (§4.2's batched RDMA
/// reads); the only setting is the size of the per-node base-page cache
/// in front of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReadConfig {
    /// Paper-scale capacity of each node's base-page cache; 0 means no
    /// cache. Cached bytes are charged to node memory.
    pub page_cache_bytes: usize,
}

impl RestoreReadConfig {
    /// A per-node cache of the given paper-scale capacity.
    pub fn cached(page_cache_bytes: usize) -> Self {
        RestoreReadConfig { page_cache_bytes }
    }
}

/// Which sandbox-management policy the platform runs.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Fixed keep-alive baseline (AWS Lambda-style); no dedup state.
    FixedKeepAlive(SimDuration),
    /// Adaptive (hybrid-histogram) keep-alive baseline; no dedup state.
    AdaptiveKeepAlive,
    /// The Medes policy: warm + dedup states, §5 optimizer.
    Medes(MedesPolicyConfig),
}

/// Full platform configuration. [`PlatformConfig::paper_default`]
/// mirrors the evaluation testbed (§7.1): 19 worker nodes, a 2 GB
/// software memory limit per node, 64 B chunks, 5-chunk fingerprints,
/// T = 40, Xdelta level 1.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of worker nodes (the controller is separate, as in §7.1).
    pub nodes: usize,
    /// Paper-scale memory limit per node, bytes.
    pub node_mem_bytes: usize,
    /// Memory-image scale denominator: model bytes = paper bytes / this.
    pub mem_scale: usize,
    /// Value-sampled fingerprint configuration (chunk size, cardinality).
    pub fingerprint: FingerprintConfig,
    /// Xdelta-style compression level for page patches.
    pub delta_level: u8,
    /// Keep a patch only if it is smaller than this fraction of a page.
    pub patch_max_frac: f64,
    /// The sandbox-management policy.
    pub policy: PolicyKind,
    /// Synthetic memory content model.
    pub content: ContentModel,
    /// ASLR model.
    pub aslr: AslrConfig,
    /// Cluster fabric cost model.
    pub net: NetConfig,
    /// Checkpoint/restore timing model.
    pub ckpt: TimingModel,
    /// RNG seed.
    pub seed: u64,
    /// Verify every restore byte-for-byte against the regenerated image
    /// (slow; enabled in tests).
    pub verify_restores: bool,
    /// Structured tracing/metrics configuration (`medes-obs`). Disabled
    /// by default: the platform then skips all span/metric recording.
    pub obs: ObsConfig,
    /// Fault-injection plan. Empty (the default) means the fault layer
    /// is a provable no-op: no schedule is installed and every run is
    /// byte-identical to a build without fault support.
    pub faults: FaultPlan,
    /// Has no settings: the fabric owns its retry schedule.
    pub retry: RetryPolicy,
    /// Restore read path: per-node base-page cache capacity (0 by
    /// default, meaning no cache).
    pub read_path: RestoreReadConfig,
    /// Per-node memory capacities, bytes. Empty (the default) means
    /// every node has `node_mem_bytes`; a non-empty vector must have one
    /// entry per node and enables heterogeneous placement/eviction.
    pub node_mem_profile: Vec<usize>,
    /// Rolling-deploy schedule: per-function version bumps that
    /// invalidate older-version sandboxes and their demarcated base
    /// pages. Empty (the default) is the provable no-op.
    pub deploys: DeploySchedule,
    /// Where the fingerprint registry lives. The default controller-
    /// resident placement is byte-identical to earlier revisions; the
    /// distributed placement stores shards on worker nodes and routes
    /// registry traffic over the fabric as priced RPCs.
    pub registry: RegistryPlacement,
    /// Number of fingerprint-registry shards (≥ 1, default 1): the
    /// routing key of a placed registry's RPCs, so lookup results are
    /// shard-count-invariant.
    pub shards: usize,
}

/// Placement of the fingerprint registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegistryPlacement {
    /// Controller-resident registry (the default).
    #[default]
    InProcess,
    /// Shards owned by the first `owners` worker nodes, accessed over
    /// the fabric. Candidate results — and the `RunReport` — are
    /// bit-identical to [`RegistryPlacement::InProcess`] at any owner
    /// count; only the accounted registry-RPC traffic differs.
    Distributed {
        /// Number of owner nodes; must lie in `1..=nodes`.
        owners: usize,
    },
}

/// A rejected [`PlatformConfigBuilder`] configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The cluster needs at least one worker node.
    ZeroNodes,
    /// Per-node memory must be non-zero.
    ZeroNodeMem,
    /// The memory-image scale denominator must be at least 1.
    ZeroMemScale,
    /// The fingerprint registry needs at least one shard.
    ZeroShards,
    /// `patch_max_frac` must lie in (0, 1].
    InvalidPatchFrac(f64),
    /// The per-node base-page cache cannot exceed node memory.
    CacheExceedsNodeMem {
        /// Requested paper-scale cache capacity, bytes.
        cache_bytes: usize,
        /// Configured per-node memory limit, bytes.
        node_mem_bytes: usize,
    },
    /// [`PlatformConfigBuilder::workers`] was given something other
    /// than 1: dedup runs in the event loop, with no worker pool.
    Workers(usize),
    /// A heterogeneous memory profile must list one capacity per node.
    NodeMemProfileLen {
        /// Number of worker nodes configured.
        nodes: usize,
        /// Entries in the provided profile.
        got: usize,
    },
    /// Every entry of a heterogeneous memory profile must be non-zero.
    ZeroNodeMemProfileEntry {
        /// Index of the offending node.
        node: usize,
    },
    /// Deploy schedule versions must be non-zero (version 0 is the
    /// initial deployment).
    ZeroDeployVersion {
        /// Index of the offending bump in the schedule.
        bump: usize,
    },
    /// The content-model entropy-mixture weights are not valid
    /// probabilities (each region's fractions must sum to ≤ 1).
    InvalidMixture,
    /// A distributed registry needs at least one owner node.
    ZeroRegistryOwners,
    /// A distributed registry cannot have more owners than nodes.
    RegistryOwnersExceedNodes {
        /// Requested owner count.
        owners: usize,
        /// Number of worker nodes configured.
        nodes: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "cluster needs at least one worker node"),
            ConfigError::ZeroNodeMem => write!(f, "per-node memory limit must be non-zero"),
            ConfigError::ZeroMemScale => write!(f, "memory scale denominator must be >= 1"),
            ConfigError::ZeroShards => {
                write!(f, "fingerprint registry needs at least one shard")
            }
            ConfigError::InvalidPatchFrac(v) => {
                write!(f, "patch_max_frac must lie in (0, 1], got {v}")
            }
            ConfigError::CacheExceedsNodeMem {
                cache_bytes,
                node_mem_bytes,
            } => write!(
                f,
                "page cache of {cache_bytes} B cannot exceed node memory of {node_mem_bytes} B"
            ),
            ConfigError::Workers(n) => write!(
                f,
                "dedup runs at the idle check, with no worker pool: workers({n}) must be 1"
            ),
            ConfigError::NodeMemProfileLen { nodes, got } => {
                write!(f, "node memory profile has {got} entries for {nodes} nodes")
            }
            ConfigError::ZeroNodeMemProfileEntry { node } => {
                write!(f, "node {node} has zero memory in the profile")
            }
            ConfigError::ZeroDeployVersion { bump } => {
                write!(
                    f,
                    "deploy bump {bump} targets version 0 (the initial deploy)"
                )
            }
            ConfigError::InvalidMixture => {
                write!(
                    f,
                    "content-model mixture weights must be probabilities summing to <= 1"
                )
            }
            ConfigError::ZeroRegistryOwners => {
                write!(f, "distributed registry needs at least one owner node")
            }
            ConfigError::RegistryOwnersExceedNodes { owners, nodes } => {
                write!(
                    f,
                    "distributed registry wants {owners} owner nodes but the cluster has {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`PlatformConfig`]: the supported way for
/// harness flags (`--cache`, `--faults`) and tests to assemble a
/// configuration instead of mutating public fields ad hoc.
/// [`PlatformConfigBuilder::build`] rejects nonsense — zero shards, a
/// cache larger than node memory — before a run starts.
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    cfg: PlatformConfig,
    /// What [`Self::workers`] was given.
    workers: usize,
}

impl PlatformConfigBuilder {
    /// Number of worker nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Paper-scale memory limit per node, bytes.
    pub fn node_mem_bytes(mut self, bytes: usize) -> Self {
        self.cfg.node_mem_bytes = bytes;
        self
    }

    /// Memory-image scale denominator.
    pub fn mem_scale(mut self, scale: usize) -> Self {
        self.cfg.mem_scale = scale;
        self
    }

    /// The sandbox-management policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Structured tracing/metrics configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Restore read path (base-page cache capacity).
    pub fn read_path(mut self, read_path: RestoreReadConfig) -> Self {
        self.cfg.read_path = read_path;
        self
    }

    /// Registry shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Kept so the repository benchmark's `.workers(1)` compiles; there
    /// is no worker pool. Any `n` but 1 makes [`Self::build`] fail with
    /// [`ConfigError::Workers`]. ROADMAP item 10 deletes it together
    /// with that call.
    #[doc(hidden)]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Distributes the fingerprint registry across `owners` worker
    /// nodes (`RegistryPlacement::Distributed { owners }`).
    pub fn registry_owners(mut self, owners: usize) -> Self {
        self.cfg.registry = RegistryPlacement::Distributed { owners };
        self
    }

    /// Per-node memory capacities (heterogeneous cluster). Pass an
    /// empty vector to return to uniform `node_mem_bytes`.
    pub fn node_mem_profile(mut self, profile: Vec<usize>) -> Self {
        self.cfg.node_mem_profile = profile;
        self
    }

    /// Rolling-deploy schedule.
    pub fn deploys(mut self, deploys: DeploySchedule) -> Self {
        self.cfg.deploys = deploys;
        self
    }

    /// Verify every restore byte-for-byte (slow; tests).
    pub fn verify_restores(mut self, on: bool) -> Self {
        self.cfg.verify_restores = on;
        self
    }

    /// Applies an arbitrary edit to the underlying configuration, for
    /// the long tail of fields without dedicated setters. Validation
    /// still runs at [`PlatformConfigBuilder::build`].
    pub fn tweak(mut self, f: impl FnOnce(&mut PlatformConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PlatformConfig, ConfigError> {
        let c = &self.cfg;
        if c.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if c.node_mem_bytes == 0 {
            return Err(ConfigError::ZeroNodeMem);
        }
        if c.mem_scale == 0 {
            return Err(ConfigError::ZeroMemScale);
        }
        if c.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if !(c.patch_max_frac > 0.0 && c.patch_max_frac <= 1.0) {
            return Err(ConfigError::InvalidPatchFrac(c.patch_max_frac));
        }
        if c.read_path.page_cache_bytes > c.node_mem_bytes {
            return Err(ConfigError::CacheExceedsNodeMem {
                cache_bytes: c.read_path.page_cache_bytes,
                node_mem_bytes: c.node_mem_bytes,
            });
        }
        if self.workers != 1 {
            return Err(ConfigError::Workers(self.workers));
        }
        if !c.node_mem_profile.is_empty() {
            if c.node_mem_profile.len() != c.nodes {
                return Err(ConfigError::NodeMemProfileLen {
                    nodes: c.nodes,
                    got: c.node_mem_profile.len(),
                });
            }
            if let Some(node) = c.node_mem_profile.iter().position(|&m| m == 0) {
                return Err(ConfigError::ZeroNodeMemProfileEntry { node });
            }
            if c.read_path.page_cache_bytes > 0 {
                let min_mem = *c.node_mem_profile.iter().min().unwrap();
                if c.read_path.page_cache_bytes > min_mem {
                    return Err(ConfigError::CacheExceedsNodeMem {
                        cache_bytes: c.read_path.page_cache_bytes,
                        node_mem_bytes: min_mem,
                    });
                }
            }
        }
        if let Some(bump) = c.deploys.bumps.iter().position(|b| b.version == 0) {
            return Err(ConfigError::ZeroDeployVersion { bump });
        }
        if !c.content.mixture.is_valid() {
            return Err(ConfigError::InvalidMixture);
        }
        if let RegistryPlacement::Distributed { owners } = c.registry {
            if owners == 0 {
                return Err(ConfigError::ZeroRegistryOwners);
            }
            if owners > c.nodes {
                return Err(ConfigError::RegistryOwnersExceedNodes {
                    owners,
                    nodes: c.nodes,
                });
            }
        }
        Ok(self.cfg)
    }
}

impl PlatformConfig {
    /// Starts a validating builder from [`PlatformConfig::paper_default`].
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder {
            cfg: Self::paper_default(),
            workers: 1,
        }
    }

    /// Starts a validating builder from [`PlatformConfig::small_test`].
    pub fn test_builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder {
            cfg: Self::small_test(),
            workers: 1,
        }
    }

    /// The evaluation-testbed configuration (§7.1): 19 workers with a
    /// 2 GB software memory limit each, Medes policy P1 (α = 2.5).
    pub fn paper_default() -> Self {
        PlatformConfig {
            nodes: 19,
            node_mem_bytes: 2 << 30,
            mem_scale: 64,
            fingerprint: FingerprintConfig::default(),
            delta_level: 1,
            patch_max_frac: 0.9,
            policy: PolicyKind::Medes(MedesPolicyConfig::default()),
            content: ContentModel::default(),
            aslr: AslrConfig::DISABLED,
            net: NetConfig,
            ckpt: TimingModel,
            seed: 0xC0FFEE,
            verify_restores: false,
            obs: ObsConfig::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy,
            read_path: RestoreReadConfig::default(),
            node_mem_profile: Vec::new(),
            deploys: DeploySchedule::default(),
            registry: RegistryPlacement::InProcess,
            shards: 1,
        }
    }

    /// A small fast configuration for unit/integration tests: 4 nodes,
    /// aggressive memory scale, restore verification on.
    pub fn small_test() -> Self {
        PlatformConfig {
            nodes: 4,
            node_mem_bytes: 1 << 30,
            mem_scale: 256,
            verify_restores: true,
            ..Self::paper_default()
        }
    }

    /// Same configuration but running a baseline policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Converts model-scale bytes to paper-scale bytes.
    pub fn to_paper_bytes(&self, model_bytes: usize) -> usize {
        model_bytes * self.mem_scale
    }

    /// True when the dedup state is enabled (Medes policy).
    pub fn is_medes(&self) -> bool {
        matches!(self.policy, PolicyKind::Medes(_))
    }

    /// The memory capacity of `node`: the profile entry when a
    /// heterogeneous profile is set, the uniform limit otherwise.
    pub fn node_mem(&self, node: usize) -> usize {
        self.node_mem_profile
            .get(node)
            .copied()
            .unwrap_or(self.node_mem_bytes)
    }

    /// Total cluster memory capacity, bytes.
    pub fn cluster_mem_bytes(&self) -> usize {
        if self.node_mem_profile.is_empty() {
            self.nodes * self.node_mem_bytes
        } else {
            self.node_mem_profile.iter().sum()
        }
    }

    /// The smallest node's capacity (placement feasibility bound).
    pub fn min_node_mem(&self) -> usize {
        self.node_mem_profile
            .iter()
            .copied()
            .min()
            .unwrap_or(self.node_mem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_testbed() {
        let c = PlatformConfig::paper_default();
        assert_eq!(c.nodes, 19);
        assert_eq!(c.node_mem_bytes, 2 << 30);
        assert_eq!(c.fingerprint.chunk_size, 64);
        assert_eq!(c.fingerprint.cardinality, 5);
        assert_eq!(c.delta_level, 1);
        assert!(c.is_medes());
        if let PolicyKind::Medes(m) = &c.policy {
            assert_eq!(m.base_threshold, 40);
        }
    }

    #[test]
    fn scale_conversion() {
        let c = PlatformConfig::paper_default();
        assert_eq!(c.to_paper_bytes(1 << 20), 64 << 20);
    }

    #[test]
    fn policy_swap() {
        let c = PlatformConfig::paper_default()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
        assert!(!c.is_medes());
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = PlatformConfig::builder()
            .nodes(8)
            .shards(16)
            .seed(7)
            .build()
            .expect("valid config");
        assert_eq!(c.nodes, 8);
        assert_eq!(c.shards, 16);
        assert_eq!(c.seed, 7);
        // The builder starts from paper_default; untouched fields keep it.
        assert_eq!(c.node_mem_bytes, 2 << 30);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            PlatformConfig::builder().nodes(0).build().unwrap_err(),
            ConfigError::ZeroNodes
        );
        assert_eq!(
            PlatformConfig::builder().shards(0).build().unwrap_err(),
            ConfigError::ZeroShards
        );
        assert_eq!(
            PlatformConfig::builder().mem_scale(0).build().unwrap_err(),
            ConfigError::ZeroMemScale
        );
        assert_eq!(
            PlatformConfig::builder()
                .node_mem_bytes(1 << 20)
                .read_path(RestoreReadConfig::cached(1 << 30))
                .build()
                .unwrap_err(),
            ConfigError::CacheExceedsNodeMem {
                cache_bytes: 1 << 30,
                node_mem_bytes: 1 << 20,
            }
        );
        assert_eq!(
            PlatformConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::Workers(0)
        );
        // Errors render as actionable messages: the fix is in the text.
        assert!(ConfigError::Workers(0).to_string().contains("must be 1"));
        assert_eq!(
            PlatformConfig::builder()
                .tweak(|c| c.patch_max_frac = 0.0)
                .build()
                .unwrap_err(),
            ConfigError::InvalidPatchFrac(0.0)
        );
        assert!(ConfigError::ZeroShards.to_string().contains("shard"));
    }

    #[test]
    fn registry_placement_validation() {
        // Default placement is in-process.
        let c = PlatformConfig::builder().build().unwrap();
        assert_eq!(c.registry, RegistryPlacement::InProcess);
        // A valid distributed placement round-trips through the setter.
        let d = PlatformConfig::builder()
            .nodes(8)
            .registry_owners(4)
            .build()
            .expect("valid distributed registry");
        assert_eq!(d.registry, RegistryPlacement::Distributed { owners: 4 });
        // Zero owners and more owners than nodes are rejected.
        assert_eq!(
            PlatformConfig::builder()
                .registry_owners(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroRegistryOwners
        );
        assert_eq!(
            PlatformConfig::builder()
                .nodes(4)
                .registry_owners(12)
                .build()
                .unwrap_err(),
            ConfigError::RegistryOwnersExceedNodes {
                owners: 12,
                nodes: 4
            }
        );
        assert!(ConfigError::ZeroRegistryOwners
            .to_string()
            .contains("owner"));
    }

    #[test]
    fn hetero_profile_validation() {
        // Valid: one entry per node, all non-zero.
        let c = PlatformConfig::builder()
            .nodes(3)
            .node_mem_profile(vec![1 << 30, 2 << 30, 3 << 30])
            .build()
            .expect("valid hetero profile");
        assert_eq!(c.node_mem(0), 1 << 30);
        assert_eq!(c.node_mem(2), 3 << 30);
        assert_eq!(c.min_node_mem(), 1 << 30);
        assert_eq!(c.cluster_mem_bytes(), 6 << 30);
        // Uniform fallback.
        let u = PlatformConfig::builder().nodes(2).build().unwrap();
        assert_eq!(u.node_mem(1), u.node_mem_bytes);
        assert_eq!(u.cluster_mem_bytes(), 2 * u.node_mem_bytes);
        // Wrong length.
        assert_eq!(
            PlatformConfig::builder()
                .nodes(3)
                .node_mem_profile(vec![1 << 30])
                .build()
                .unwrap_err(),
            ConfigError::NodeMemProfileLen { nodes: 3, got: 1 }
        );
        // Zero entry.
        assert_eq!(
            PlatformConfig::builder()
                .nodes(2)
                .node_mem_profile(vec![1 << 30, 0])
                .build()
                .unwrap_err(),
            ConfigError::ZeroNodeMemProfileEntry { node: 1 }
        );
        // Cache must fit the smallest node.
        assert_eq!(
            PlatformConfig::builder()
                .nodes(2)
                .node_mem_profile(vec![1 << 20, 2 << 30])
                .read_path(RestoreReadConfig::cached(1 << 25))
                .build()
                .unwrap_err(),
            ConfigError::CacheExceedsNodeMem {
                cache_bytes: 1 << 25,
                node_mem_bytes: 1 << 20,
            }
        );
    }

    #[test]
    fn deploy_and_mixture_validation() {
        use medes_sim::SimTime;
        use medes_trace::VersionBump;
        let sched = DeploySchedule {
            bumps: vec![VersionBump {
                function: 0,
                at: SimTime::from_secs(10),
                version: 1,
            }],
        };
        let c = PlatformConfig::builder()
            .deploys(sched.clone())
            .build()
            .expect("valid deploy schedule");
        assert_eq!(c.deploys, sched);
        assert_eq!(
            PlatformConfig::builder()
                .deploys(DeploySchedule {
                    bumps: vec![VersionBump {
                        function: 0,
                        at: SimTime::from_secs(10),
                        version: 0,
                    }],
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroDeployVersion { bump: 0 }
        );
        assert_eq!(
            PlatformConfig::builder()
                .tweak(|c| {
                    c.content.mixture = medes_mem::ContentModelConfig::paper_calibrated();
                    c.content.mixture.heap.low_frac = 0.9;
                    c.content.mixture.heap.medium_frac = 0.5;
                })
                .build()
                .unwrap_err(),
            ConfigError::InvalidMixture
        );
    }
}
