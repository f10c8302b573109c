//! # medes-net — the cluster fabric model
//!
//! The evaluation testbed is a 20-node cluster with 10 Gb NICs on an
//! RDMA network. Two communication patterns matter to Medes:
//!
//! * **one-sided RDMA reads** — the restore op fetches base pages
//!   directly from remote memory without involving the remote CPU
//!   (§4.2); latency is a few microseconds plus serialization time;
//! * **RPCs to the controller** — fingerprint lookups during the dedup
//!   op (off the critical path) and scheduling traffic.
//!
//! [`Fabric`] prices both deterministically from a [`NetConfig`]
//! (propagation latency, per-op overhead, link bandwidth) and keeps
//! transfer statistics for the overhead reports of §7.7. Built with
//! [`Fabric::with_obs`], it additionally mirrors every operation into
//! `medes.net.*` counters and latency histograms.
//!
//! ## Fault injection
//!
//! Every operation returns `Result<SimDuration, NetError>`. Without a
//! [`FaultSchedule`] installed ([`Fabric::set_faults`]) nothing ever
//! fails and the success path is byte-identical to a fault-free fabric.
//! With a schedule, operations consult it at the fabric's current
//! simulated time ([`Fabric::set_now`]): reads touching a down node are
//! [`NetError::Unreachable`], link error windows produce timeouts or
//! partial reads, and latency-spike windows stretch the wire time. The
//! `*_retry` variants wrap an op in a [`RetryPolicy`] — exponential
//! backoff in **simulated** time, with each failed attempt costing
//! [`NetConfig::fault_timeout`] — and re-evaluate the schedule at the
//! accumulated instant, so retries can outlive a fault window.
//!
//! ## Causal tracing
//!
//! The fabric carries a [`TraceCtx`] the same way it carries the
//! current simulated time: the caller installs the context of the
//! surrounding operation with [`Fabric::with_ctx`] before issuing
//! retried ops, and every **failed attempt** then emits a
//! `medes.net.retry` span (covering the attempt's detection timeout)
//! parented under that context — so fault retries show up as children
//! inside the restore/dedup trace tree they delayed. The returned
//! [`CtxGuard`] restores the previously-installed context when it
//! drops, so a panicking or early-returning operation can never leave
//! a stale context behind. Timing is never affected; with no context
//! installed (or obs disabled) no spans are emitted.
//!
//! ## Registry RPCs
//!
//! The distributed fingerprint registry routes lookups, inserts,
//! removals, and crash-time shard re-replication over the fabric.
//! [`Fabric::registry_rpc_retry`] prices those exactly like
//! [`Fabric::rpc_retry`] and additionally tallies per-kind
//! `medes.net.registry.*` counters (see [`RegistryOp`]) so registry
//! traffic is separable from data-path RDMA and control-path RPCs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use medes_obs::{LabelSet, Obs, TraceCtx};
use medes_sim::fault::FaultSchedule;
use medes_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node identifier within the fabric.
pub type NodeIdx = usize;

/// Typed fabric failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The operation did not complete in time (link error window or
    /// dropped RPC).
    Timeout {
        /// The peer the operation was addressed to.
        node: NodeIdx,
    },
    /// The peer node is down.
    Unreachable {
        /// The unreachable node.
        node: NodeIdx,
    },
    /// A read completed with fewer bytes than requested.
    PartialRead {
        /// Bytes actually transferred.
        got: usize,
        /// Bytes requested.
        wanted: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout { node } => write!(f, "operation to node {node} timed out"),
            NetError::Unreachable { node } => write!(f, "node {node} is unreachable"),
            NetError::PartialRead { got, wanted } => {
                write!(f, "partial read: {got} of {wanted} bytes")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Retry/backoff policy for fabric operations, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub const fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
        }
    }

    /// Backoff before retry number `retry` (0-based):
    /// `min(base · 2^retry, max_backoff)`.
    pub fn backoff(&self, retry: u32) -> SimDuration {
        let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        let us = self.base_backoff.as_micros().saturating_mul(factor);
        SimDuration::from_micros(us).min(self.max_backoff)
    }

    /// Total backoff slept across `retries` retries.
    pub fn total_backoff(&self, retries: u32) -> SimDuration {
        (0..retries).map(|i| self.backoff(i)).sum()
    }
}

/// Outcome of a retried operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Total simulated time, including failed attempts and backoff.
    pub time: SimDuration,
    /// Attempts performed (≥ 1).
    pub attempts: u32,
    /// The backoff portion of `time`.
    pub backoff: SimDuration,
}

/// Link and operation cost parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way propagation + switching latency between two nodes.
    pub base_latency: SimDuration,
    /// Fixed per-operation overhead of posting an RDMA verb.
    pub rdma_op_overhead: SimDuration,
    /// Link bandwidth in bytes per second (10 Gb/s ≈ 1.25 GB/s).
    pub bandwidth_bps: f64,
    /// Fixed cost of an RPC round trip above raw propagation
    /// (serialization, dispatch, protocol buffers).
    pub rpc_overhead: SimDuration,
    /// Local (same-node) memory read bandwidth in bytes per second.
    pub local_mem_bps: f64,
    /// Simulated time charged to an attempt that fails under fault
    /// injection (detection timeout). Uniform across failure kinds so
    /// retry delays have a closed form.
    pub fault_timeout: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_latency: SimDuration::from_micros(2),
            rdma_op_overhead: SimDuration::from_micros(1),
            bandwidth_bps: 1.25e9,
            rpc_overhead: SimDuration::from_micros(30),
            local_mem_bps: 8.0e9,
            fault_timeout: SimDuration::from_millis(10),
        }
    }
}

/// Cumulative transfer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Completed one-sided reads.
    pub rdma_reads: u64,
    /// Bytes moved by RDMA reads.
    pub rdma_bytes: u64,
    /// Completed RPC round trips.
    pub rpcs: u64,
    /// Bytes moved by RPCs (request + response).
    pub rpc_bytes: u64,
    /// Failed RDMA operations (batches count once).
    pub rdma_failures: u64,
    /// Failed RPC round trips.
    pub rpc_failures: u64,
    /// Retries performed by the `*_retry` variants.
    pub retries: u64,
}

/// The cluster fabric: prices operations between nodes.
#[derive(Debug, Clone)]
pub struct Fabric {
    nodes: usize,
    cfg: NetConfig,
    stats: FabricStats,
    obs: Arc<Obs>,
    faults: Option<FaultSchedule>,
    now: SimTime,
    ctx: TraceCtx,
}

impl Fabric {
    /// Creates a fabric over `nodes` nodes (observability disabled).
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        Self::with_obs(nodes, cfg, Obs::disabled())
    }

    /// Creates a fabric that records `medes.net.*` metrics.
    pub fn with_obs(nodes: usize, cfg: NetConfig, obs: Arc<Obs>) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        Fabric {
            nodes,
            cfg,
            stats: FabricStats::default(),
            obs,
            faults: None,
            now: SimTime::ZERO,
            ctx: TraceCtx::NONE,
        }
    }

    /// Installs a fault schedule. Without one, no operation ever fails.
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        self.faults = Some(schedule);
    }

    /// Advances the fabric's notion of the current simulated time, used
    /// to evaluate fault windows. A no-op concern without faults.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Installs the trace context of the operation about to issue
    /// fabric ops (mirror of [`Fabric::set_now`]). Failed retry
    /// attempts emit `medes.net.retry` spans parented under it. The
    /// returned [`CtxGuard`] dereferences to the fabric and restores
    /// the previously-installed context when dropped — even on panic —
    /// so a context can never outlive the operation that installed it.
    pub fn with_ctx(&mut self, ctx: TraceCtx) -> CtxGuard<'_> {
        let prev = std::mem::replace(&mut self.ctx, ctx);
        CtxGuard { fabric: self, prev }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Evaluates fault injection for one transfer `src → dst` of `bytes`
    /// at instant `at`. Returns the latency factor to apply (1.0 when
    /// clean). Draws fault randomness only when a fault can match.
    fn fault_check(
        &mut self,
        dst: NodeIdx,
        src: NodeIdx,
        bytes: usize,
        at: SimTime,
    ) -> Result<f64, NetError> {
        let Some(f) = &mut self.faults else {
            return Ok(1.0);
        };
        if f.node_down(dst, at) {
            return Err(NetError::Unreachable { node: dst });
        }
        if f.node_down(src, at) {
            return Err(NetError::Unreachable { node: src });
        }
        if src == dst {
            return Ok(1.0);
        }
        if f.link_error(src, dst, at) {
            return Err(if f.rng().chance(0.5) {
                NetError::Timeout { node: src }
            } else {
                NetError::PartialRead {
                    got: (bytes as f64 * f.rng().f64()) as usize,
                    wanted: bytes,
                }
            });
        }
        Ok(f.latency_factor(src, dst, at))
    }

    fn note_error(&mut self, err: NetError, rdma: bool) {
        if rdma {
            self.stats.rdma_failures += 1;
        } else {
            self.stats.rpc_failures += 1;
        }
        if self.obs.enabled() {
            // Split failure counters by transport so the sampled time
            // series can separate data-path (RDMA) from control-path
            // (RPC) fault clusters.
            self.obs.incr(if rdma {
                "medes.net.rdma_failures"
            } else {
                "medes.net.rpc_failures"
            });
            self.obs.incr(match err {
                NetError::Timeout { .. } => "medes.net.err.timeout",
                NetError::Unreachable { .. } => "medes.net.err.unreachable",
                NetError::PartialRead { .. } => "medes.net.err.partial_read",
            });
        }
    }

    /// Emits the `medes.net.retry` span for failed attempt number
    /// `attempt` (1-based), covering its detection timeout. Purely
    /// observational: no time accounting, no RNG.
    fn retry_span(&self, attempt: u32, start: SimTime, err: NetError) {
        if !self.obs.enabled() || !self.ctx.is_traced() {
            return;
        }
        self.obs
            .span_in(
                "medes.net.retry",
                start,
                self.ctx.child("medes.net.retry", attempt as u64),
            )
            .attr("attempt", attempt)
            .attr(
                "error",
                match err {
                    NetError::Timeout { .. } => "timeout",
                    NetError::Unreachable { .. } => "unreachable",
                    NetError::PartialRead { .. } => "partial_read",
                },
            )
            .end(start + self.cfg.fault_timeout);
    }

    /// Cost of a one-sided RDMA read of `bytes` from `src` into `dst`.
    ///
    /// Same-node "reads" are local memory copies: no verbs, no wire.
    pub fn rdma_read(
        &mut self,
        dst: NodeIdx,
        src: NodeIdx,
        bytes: usize,
    ) -> Result<SimDuration, NetError> {
        self.rdma_read_at(dst, src, bytes, self.now)
    }

    fn rdma_read_at(
        &mut self,
        dst: NodeIdx,
        src: NodeIdx,
        bytes: usize,
        at: SimTime,
    ) -> Result<SimDuration, NetError> {
        self.check(dst);
        self.check(src);
        let factor = match self.fault_check(dst, src, bytes, at) {
            Ok(k) => k,
            Err(e) => {
                self.note_error(e, true);
                return Err(e);
            }
        };
        self.stats.rdma_reads += 1;
        self.stats.rdma_bytes += bytes as u64;
        let mut t = if dst == src {
            SimDuration::from_secs_f64(bytes as f64 / self.cfg.local_mem_bps)
        } else {
            self.cfg.base_latency
                + self.cfg.rdma_op_overhead
                + SimDuration::from_secs_f64(bytes as f64 / self.cfg.bandwidth_bps)
        };
        if factor != 1.0 {
            t = t.mul_f64(factor);
        }
        if self.obs.enabled() {
            // One series per (src, dst) link, so the drill-down can
            // pin a slow link instead of a slow cluster.
            let labels = || LabelSet::new().with("src", src).with("dst", dst);
            self.obs.incr_with("medes.net.rdma_reads", labels);
            self.obs
                .counter_add_with("medes.net.rdma_bytes", bytes as u64, labels);
            self.obs.record_us("medes.net.rdma_read_us", t);
        }
        Ok(t)
    }

    /// Cost of a batch of RDMA reads to (possibly) many sources.
    ///
    /// Verbs to distinct sources are posted back to back and complete in
    /// parallel; serialization happens on the receiver's link. The cost
    /// model therefore charges one base latency plus the receiver-side
    /// serialization of all remote bytes — which is what makes batched
    /// base-page fetches far cheaper than sequential ones.
    ///
    /// Under fault injection the batch fails as a unit: any down source,
    /// or any read falling in a link error window, fails the whole
    /// operation (one-sided reads give no partial-completion signal).
    pub fn rdma_read_batch(
        &mut self,
        dst: NodeIdx,
        reads: &[(NodeIdx, usize)],
    ) -> Result<SimDuration, NetError> {
        self.rdma_read_batch_at(dst, reads, self.now)
    }

    fn rdma_read_batch_at(
        &mut self,
        dst: NodeIdx,
        reads: &[(NodeIdx, usize)],
        at: SimTime,
    ) -> Result<SimDuration, NetError> {
        self.check(dst);
        for &(src, _) in reads {
            self.check(src);
        }
        let mut factor = 1.0f64;
        if self.faults.is_some() {
            for &(src, bytes) in reads {
                match self.fault_check(dst, src, bytes, at) {
                    Ok(k) => factor = factor.max(k),
                    Err(e) => {
                        self.note_error(e, true);
                        return Err(e);
                    }
                }
            }
        }
        let mut remote_bytes = 0usize;
        let mut local_bytes = 0usize;
        let mut ops = 0u64;
        for &(src, bytes) in reads {
            if src == dst {
                local_bytes += bytes;
            } else {
                remote_bytes += bytes;
                ops += 1;
            }
            self.stats.rdma_reads += 1;
            self.stats.rdma_bytes += bytes as u64;
        }
        let mut t = SimDuration::from_secs_f64(local_bytes as f64 / self.cfg.local_mem_bps);
        if ops > 0 {
            let mut wire = self.cfg.base_latency
                + self.cfg.rdma_op_overhead.mul_f64(ops as f64)
                + SimDuration::from_secs_f64(remote_bytes as f64 / self.cfg.bandwidth_bps);
            if factor != 1.0 {
                wire = wire.mul_f64(factor);
            }
            t += wire;
        }
        if self.obs.enabled() && !reads.is_empty() {
            // Group the batch per source so each (src, dst) link series
            // counts exactly the reads it carried.
            let mut per_src: BTreeMap<NodeIdx, (u64, u64)> = BTreeMap::new();
            for &(src, bytes) in reads {
                let e = per_src.entry(src).or_insert((0, 0));
                e.0 += 1;
                e.1 += bytes as u64;
            }
            for (src, (ops, bytes)) in per_src {
                let labels = || LabelSet::new().with("src", src).with("dst", dst);
                self.obs
                    .counter_add_with("medes.net.rdma_reads", ops, labels);
                self.obs
                    .counter_add_with("medes.net.rdma_bytes", bytes, labels);
            }
            self.obs.record_us("medes.net.rdma_batch_us", t);
        }
        Ok(t)
    }

    /// [`Fabric::rdma_read_batch`] wrapped in a retry policy. Each failed
    /// attempt costs [`NetConfig::fault_timeout`] plus exponential
    /// backoff, and the next attempt re-evaluates the fault schedule at
    /// the accumulated simulated instant — retries escape fault windows
    /// that end in time. Returns the total elapsed time on success; the
    /// last error once `max_attempts` is exhausted.
    pub fn rdma_read_batch_retry(
        &mut self,
        dst: NodeIdx,
        reads: &[(NodeIdx, usize)],
        policy: &RetryPolicy,
    ) -> Result<RetryOutcome, NetError> {
        self.retry(policy, |f, at| f.rdma_read_batch_at(dst, reads, at))
    }

    /// The one retry loop behind every `*_retry` op: runs `attempt` at
    /// the accumulated simulated instant until it succeeds or
    /// `max_attempts` is exhausted, charging each failure
    /// [`NetConfig::fault_timeout`] plus the policy's backoff.
    fn retry(
        &mut self,
        policy: &RetryPolicy,
        mut attempt: impl FnMut(&mut Self, SimTime) -> Result<SimDuration, NetError>,
    ) -> Result<RetryOutcome, NetError> {
        let mut elapsed = SimDuration::ZERO;
        let mut backoff_total = SimDuration::ZERO;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let attempt_start = self.now + elapsed;
            match attempt(self, attempt_start) {
                Ok(t) => {
                    return Ok(RetryOutcome {
                        time: elapsed + t,
                        attempts,
                        backoff: backoff_total,
                    })
                }
                Err(e) => {
                    self.retry_span(attempts, attempt_start, e);
                    elapsed += self.cfg.fault_timeout;
                    if attempts >= policy.max_attempts.max(1) {
                        if self.obs.enabled() {
                            self.obs.incr("medes.net.retry_giveups");
                        }
                        return Err(e);
                    }
                    let pause = policy.backoff(attempts - 1);
                    elapsed += pause;
                    backoff_total += pause;
                    self.stats.retries += 1;
                    if self.obs.enabled() {
                        self.obs.incr("medes.net.retries");
                    }
                }
            }
        }
    }

    /// Cost of an RPC round trip carrying `req_bytes` + `resp_bytes`.
    pub fn rpc(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<SimDuration, NetError> {
        self.rpc_at(a, b, req_bytes, resp_bytes, self.now)
    }

    fn rpc_at(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        req_bytes: usize,
        resp_bytes: usize,
        at: SimTime,
    ) -> Result<SimDuration, NetError> {
        self.check(a);
        self.check(b);
        let mut factor = 1.0f64;
        if self.faults.is_some() {
            factor = match self.fault_check(b, a, req_bytes + resp_bytes, at) {
                Ok(k) => k,
                Err(e) => {
                    self.note_error(e, false);
                    return Err(e);
                }
            };
            let dropped = self.faults.as_mut().is_some_and(|f| f.rpc_dropped(at));
            if dropped {
                let e = NetError::Timeout { node: b };
                self.note_error(e, false);
                if self.obs.enabled() {
                    self.obs.incr("medes.net.rpc_dropped");
                }
                return Err(e);
            }
        }
        self.stats.rpcs += 1;
        self.stats.rpc_bytes += (req_bytes + resp_bytes) as u64;
        let mut t = if a == b {
            self.cfg.rpc_overhead
        } else {
            self.cfg.rpc_overhead
                + self.cfg.base_latency.mul_f64(2.0)
                + SimDuration::from_secs_f64(
                    (req_bytes + resp_bytes) as f64 / self.cfg.bandwidth_bps,
                )
        };
        if factor != 1.0 {
            t = t.mul_f64(factor);
        }
        if self.obs.enabled() {
            let labels = || LabelSet::new().with("src", a).with("dst", b);
            self.obs.incr_with("medes.net.rpcs", labels);
            self.obs.counter_add_with(
                "medes.net.rpc_bytes",
                (req_bytes + resp_bytes) as u64,
                labels,
            );
            self.obs.record_us("medes.net.rpc_us", t);
        }
        Ok(t)
    }

    /// [`Fabric::rpc`] wrapped in a retry policy (see
    /// [`Fabric::rdma_read_batch_retry`] for the time accounting).
    pub fn rpc_retry(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        req_bytes: usize,
        resp_bytes: usize,
        policy: &RetryPolicy,
    ) -> Result<RetryOutcome, NetError> {
        self.retry(policy, |f, at| f.rpc_at(a, b, req_bytes, resp_bytes, at))
    }

    /// Fault gate for the dedup agent's fingerprint RPC to the
    /// controller. The RPC's *cost* is part of the platform's
    /// per-page lookup model, so this returns only the **extra**
    /// fault-induced delay: `ZERO` without faults (no side effects at
    /// all), the accumulated retry delay when drops occur, or the final
    /// error once the policy is exhausted.
    pub fn controller_rpc_check(
        &mut self,
        from: NodeIdx,
        policy: &RetryPolicy,
    ) -> Result<SimDuration, NetError> {
        self.check(from);
        if self.faults.is_none() {
            return Ok(SimDuration::ZERO);
        }
        let out = self.retry(policy, |f, at| {
            if !f.faults.as_mut().is_some_and(|s| s.rpc_dropped(at)) {
                return Ok(SimDuration::ZERO);
            }
            let e = NetError::Timeout { node: from };
            f.note_error(e, false);
            if f.obs.enabled() {
                f.obs.incr("medes.net.rpc_dropped");
            }
            Err(e)
        })?;
        Ok(out.time)
    }

    fn check(&self, n: NodeIdx) {
        assert!(
            n < self.nodes,
            "node {n} out of range (fabric has {})",
            self.nodes
        );
    }

    /// [`Fabric::rpc_retry`] attributed to the distributed fingerprint
    /// registry: identical pricing and fault semantics, plus per-kind
    /// `medes.net.registry.*` counters so registry traffic is
    /// separable from the rest of the control path.
    pub fn registry_rpc_retry(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        op: RegistryOp,
        req_bytes: usize,
        resp_bytes: usize,
        policy: &RetryPolicy,
    ) -> Result<RetryOutcome, NetError> {
        let out = self.rpc_retry(a, b, req_bytes, resp_bytes, policy)?;
        if self.obs.enabled() {
            self.obs.incr(op.counter_name());
            // Registry traffic keyed by the shard owner serving the op,
            // so hot shards surface as their own series.
            let labels = || LabelSet::new().with("owner", b);
            self.obs.incr_with("medes.net.registry.rpcs", labels);
            self.obs.counter_add_with(
                "medes.net.registry.rpc_bytes",
                (req_bytes + resp_bytes) as u64,
                labels,
            );
        }
        Ok(out)
    }
}

/// RAII guard returned by [`Fabric::with_ctx`]. Dereferences to the
/// [`Fabric`] so retried ops can be issued under the installed
/// context; restores the previous context on drop.
#[derive(Debug)]
pub struct CtxGuard<'a> {
    fabric: &'a mut Fabric,
    prev: TraceCtx,
}

impl std::ops::Deref for CtxGuard<'_> {
    type Target = Fabric;
    fn deref(&self) -> &Fabric {
        self.fabric
    }
}

impl std::ops::DerefMut for CtxGuard<'_> {
    fn deref_mut(&mut self) -> &mut Fabric {
        self.fabric
    }
}

impl Drop for CtxGuard<'_> {
    fn drop(&mut self) {
        self.fabric.ctx = self.prev;
    }
}

/// Registry RPC operation kinds, used by [`Fabric::registry_rpc_retry`]
/// to attribute distributed-registry traffic per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryOp {
    /// Fingerprint lookup probes sent to a shard owner.
    Lookup,
    /// Chunk-entry insertion on a shard owner.
    Insert,
    /// Base-sandbox removal broadcast to shard owners.
    Remove,
    /// Bulk shard transfer during crash-time re-replication.
    Replicate,
}

impl RegistryOp {
    /// The obs counter tallying round trips of this kind.
    pub const fn counter_name(self) -> &'static str {
        match self {
            RegistryOp::Lookup => "medes.net.registry.lookup_rpcs",
            RegistryOp::Insert => "medes.net.registry.insert_rpcs",
            RegistryOp::Remove => "medes.net.registry.remove_rpcs",
            RegistryOp::Replicate => "medes.net.registry.replicate_rpcs",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
    use medes_sim::DetRng;

    fn fabric() -> Fabric {
        Fabric::new(4, NetConfig::default())
    }

    fn always_fail_window() -> LinkFaultWindow {
        LinkFaultWindow {
            src: None,
            dst: None,
            from: SimTime::ZERO,
            until: SimTime::from_secs(1_000_000),
            kind: LinkFaultKind::Error { drop_prob: 1.0 },
        }
    }

    fn faulty(plan: &FaultPlan) -> Fabric {
        let mut f = fabric();
        f.set_faults(FaultSchedule::compile(plan));
        f
    }

    #[test]
    fn remote_read_costs_latency_plus_serialization() {
        let mut f = fabric();
        let t = f.rdma_read(0, 1, 4096).unwrap();
        // 2us + 1us + 4096/1.25e9 ≈ 3.3us -> ~6.3us total
        let us = t.as_micros();
        assert!((3..12).contains(&us), "remote 4KiB read {us}us");
    }

    #[test]
    fn local_read_is_cheaper_than_remote() {
        let mut f = fabric();
        let local = f.rdma_read(2, 2, 4096).unwrap();
        let remote = f.rdma_read(2, 3, 4096).unwrap();
        assert!(local < remote);
    }

    #[test]
    fn batch_is_cheaper_than_sequential() {
        let reads: Vec<(NodeIdx, usize)> = (0..100).map(|i| (1 + i % 3, 4096)).collect();
        let mut f1 = fabric();
        let batched = f1.rdma_read_batch(0, &reads).unwrap();
        let mut f2 = fabric();
        let sequential: SimDuration = reads
            .iter()
            .map(|&(s, b)| f2.rdma_read(0, s, b).unwrap())
            .sum();
        assert!(
            batched < sequential,
            "batched {batched:?} vs {sequential:?}"
        );
        assert_eq!(f1.stats().rdma_reads, 100);
        assert_eq!(f1.stats().rdma_bytes, 100 * 4096);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let mut f = fabric();
        let t = f.rdma_read(0, 1, 125_000_000).unwrap(); // 125 MB at 1.25 GB/s = 100 ms
        let ms = t.as_millis_f64();
        assert!((95.0..110.0).contains(&ms), "large read {ms}ms");
    }

    #[test]
    fn rpc_roundtrip_costs() {
        let mut f = fabric();
        let same = f.rpc(1, 1, 100, 100).unwrap();
        let cross = f.rpc(0, 1, 100, 100).unwrap();
        assert!(same < cross);
        assert_eq!(f.stats().rpcs, 2);
        assert_eq!(f.stats().rpc_bytes, 400);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut f = fabric();
        assert_eq!(f.rdma_read_batch(0, &[]).unwrap(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let mut f = fabric();
        let _ = f.rdma_read(0, 9, 64);
    }

    #[test]
    fn obs_mirrors_fabric_traffic() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        f.rdma_read(0, 1, 4096).unwrap();
        f.rdma_read_batch(0, &[(1, 100), (2, 200)]).unwrap();
        f.rpc(0, 1, 10, 20).unwrap();
        assert_eq!(obs.counter("medes.net.rdma_reads"), 3);
        assert_eq!(obs.counter("medes.net.rdma_bytes"), 4096 + 300);
        assert_eq!(obs.counter("medes.net.rpcs"), 1);
        assert_eq!(obs.counter("medes.net.rpc_bytes"), 30);
        let n = obs.with_histogram("medes.net.rdma_read_us", |h| h.count());
        assert_eq!(n, Some(1));
        // The disabled path records nothing.
        let mut quiet = Fabric::new(4, NetConfig::default());
        quiet.rdma_read(0, 1, 4096).unwrap();
        assert_eq!(quiet.stats().rdma_reads, 1);
    }

    /// Tentpole: with dimensional telemetry on, per-link twins are kept
    /// per `(src, dst)` pair (per `owner` for registry traffic) and the
    /// flat counters stay the exact sum of the labeled series.
    #[test]
    fn labeled_twins_sum_to_flat_counters() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled().labeled());
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        f.rdma_read(0, 1, 4096).unwrap();
        f.rdma_read_batch(0, &[(1, 100), (1, 50), (2, 200)])
            .unwrap();
        f.rpc(0, 1, 10, 20).unwrap();
        f.registry_rpc_retry(0, 2, RegistryOp::Lookup, 64, 32, &RetryPolicy::default())
            .unwrap();
        let link = |src: usize, dst: usize| LabelSet::new().with("src", src).with("dst", dst);
        assert_eq!(obs.labeled_counter("medes.net.rdma_reads", &link(1, 0)), 3);
        assert_eq!(obs.labeled_counter("medes.net.rdma_reads", &link(2, 0)), 1);
        assert_eq!(
            obs.labeled_counter("medes.net.rdma_bytes", &link(1, 0)),
            4246
        );
        assert_eq!(
            obs.labeled_counter("medes.net.rdma_bytes", &link(2, 0)),
            200
        );
        // The registry RPC goes through rpc_at too, so rpcs has two
        // labeled series; their sum matches the flat counter.
        assert_eq!(obs.counter("medes.net.rpcs"), 2);
        assert_eq!(obs.labeled_counter("medes.net.rpcs", &link(0, 1)), 1);
        assert_eq!(obs.labeled_counter("medes.net.rpcs", &link(0, 2)), 1);
        let owner = LabelSet::new().with("owner", 2usize);
        assert_eq!(obs.labeled_counter("medes.net.registry.rpcs", &owner), 1);
        assert_eq!(
            obs.labeled_counter("medes.net.registry.rpc_bytes", &owner),
            96
        );
        // Flat aggregates are exactly the sums across their series.
        assert_eq!(obs.counter("medes.net.rdma_reads"), 4);
        assert_eq!(obs.counter("medes.net.rdma_bytes"), 4446);
        // Labels off: same traffic, empty labeled map.
        let off = Obs::new(medes_obs::ObsConfig::enabled());
        let mut g = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&off));
        g.rdma_read(0, 1, 4096).unwrap();
        g.rpc(0, 1, 10, 20).unwrap();
        assert_eq!(off.labeled_len(), 0);
        assert_eq!(off.counter("medes.net.rdma_reads"), 1);
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    #[test]
    fn no_schedule_matches_clean_fabric_exactly() {
        // A fabric with an *empty* plan installed behaves byte-identically
        // to one without any schedule: same durations, same stats.
        let mut clean = fabric();
        let mut empty = faulty(&FaultPlan::default());
        for i in 0..50usize {
            let bytes = 1000 + i * 37;
            assert_eq!(
                clean.rdma_read(0, i % 4, bytes).unwrap(),
                empty.rdma_read(0, i % 4, bytes).unwrap()
            );
        }
        let reads: Vec<(NodeIdx, usize)> = (0..16).map(|i| (i % 4, 4096)).collect();
        assert_eq!(
            clean.rdma_read_batch(1, &reads).unwrap(),
            empty.rdma_read_batch(1, &reads).unwrap()
        );
        assert_eq!(
            clean.rpc(0, 3, 64, 64).unwrap(),
            empty.rpc(0, 3, 64, 64).unwrap()
        );
        assert_eq!(clean.stats().rdma_reads, empty.stats().rdma_reads);
        assert_eq!(clean.stats().rdma_bytes, empty.stats().rdma_bytes);
        assert_eq!(clean.stats().rdma_failures, 0);
        assert_eq!(empty.stats().rdma_failures, 0);
    }

    #[test]
    fn down_node_is_unreachable() {
        let plan = FaultPlan {
            crashes: vec![NodeCrash {
                node: 2,
                at: SimTime::from_secs(10),
                restart: Some(SimTime::from_secs(20)),
            }],
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        f.set_now(SimTime::from_secs(15));
        assert_eq!(
            f.rdma_read(0, 2, 64).unwrap_err(),
            NetError::Unreachable { node: 2 }
        );
        assert_eq!(
            f.rdma_read_batch(0, &[(1, 64), (2, 64)]).unwrap_err(),
            NetError::Unreachable { node: 2 }
        );
        assert_eq!(f.stats().rdma_failures, 2);
        // After the restart the node serves reads again.
        f.set_now(SimTime::from_secs(25));
        assert!(f.rdma_read(0, 2, 64).is_ok());
    }

    #[test]
    fn error_window_fails_ops_and_retry_gives_up() {
        let plan = FaultPlan {
            links: vec![always_fail_window()],
            seed: 3,
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        let policy = RetryPolicy::default();
        let err = f
            .rdma_read_batch_retry(0, &[(1, 4096)], &policy)
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout { .. } | NetError::PartialRead { .. }
        ));
        assert_eq!(f.stats().retries, (policy.max_attempts - 1) as u64);
        assert_eq!(f.stats().rdma_failures, policy.max_attempts as u64);
    }

    #[test]
    fn retry_escapes_a_fault_window() {
        // Window covers [0, 15ms); each failed attempt costs 10ms plus
        // 1ms backoff, so the second attempt at t=11ms still fails but
        // the third (t=24ms) lands after the window and succeeds.
        let plan = FaultPlan {
            links: vec![LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::ZERO,
                until: SimTime::from_millis(15),
                kind: LinkFaultKind::Error { drop_prob: 1.0 },
            }],
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(4),
        };
        let out = f.rdma_read_batch_retry(0, &[(1, 4096)], &policy).unwrap();
        assert_eq!(out.attempts, 3);
        let clean = fabric().rdma_read_batch(0, &[(1, 4096)]).unwrap();
        // 2 failures à fault_timeout + backoffs (1ms + 2ms) + clean op.
        let expected = f.config().fault_timeout.mul_f64(2.0) + policy.total_backoff(2) + clean;
        assert_eq!(out.time, expected);
        assert_eq!(out.backoff, policy.total_backoff(2));
    }

    #[test]
    fn latency_spike_stretches_wire_time() {
        let plan = FaultPlan {
            links: vec![LinkFaultWindow {
                src: Some(1),
                dst: None,
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
                kind: LinkFaultKind::LatencySpike { factor: 5.0 },
            }],
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        let spiked = f.rdma_read(0, 1, 1 << 20).unwrap();
        let clean = fabric().rdma_read(0, 1, 1 << 20).unwrap();
        assert_eq!(spiked, clean.mul_f64(5.0));
        // Local copies and unaffected links stay untouched.
        assert_eq!(
            f.rdma_read(2, 2, 1 << 20).unwrap(),
            fabric().rdma_read(2, 2, 1 << 20).unwrap()
        );
    }

    #[test]
    fn rpc_drops_and_controller_check() {
        let plan = FaultPlan {
            rpc_drop_prob: 1.0,
            seed: 11,
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        assert_eq!(
            f.rpc(0, 1, 64, 64).unwrap_err(),
            NetError::Timeout { node: 1 }
        );
        let policy = RetryPolicy::default();
        assert!(f.controller_rpc_check(0, &policy).is_err());
        assert!(f.stats().rpc_failures > 0);
        // Without faults the gate is free and draws nothing.
        let mut clean = fabric();
        assert_eq!(
            clean.controller_rpc_check(0, &policy).unwrap(),
            SimDuration::ZERO
        );
        assert_eq!(clean.stats().rpc_failures, 0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(10),
        };
        assert_eq!(p.backoff(0), SimDuration::from_millis(1));
        assert_eq!(p.backoff(1), SimDuration::from_millis(2));
        assert_eq!(p.backoff(2), SimDuration::from_millis(4));
        assert_eq!(p.backoff(3), SimDuration::from_millis(8));
        assert_eq!(p.backoff(4), SimDuration::from_millis(10)); // capped
        assert_eq!(p.backoff(63), SimDuration::from_millis(10));
        assert_eq!(p.backoff(64), SimDuration::from_millis(10)); // shl overflow guard
    }

    /// DetRng-driven property: for random (attempts, base delay, cap,
    /// fault-window) combinations, the total retry delay matches the
    /// closed form `k·fault_timeout + Σ backoff(i) + op_time` and no
    /// single backoff exceeds the cap.
    #[test]
    fn retry_delay_matches_closed_form() {
        let mut rng = DetRng::new(0x4E7);
        for case in 0..64 {
            let max_attempts = rng.range(1, 8) as u32;
            let base_ms = rng.range(1, 20);
            let cap_ms = rng.range(base_ms, base_ms * 16 + 1);
            let policy = RetryPolicy {
                max_attempts,
                base_backoff: SimDuration::from_millis(base_ms),
                max_backoff: SimDuration::from_millis(cap_ms),
            };
            // Every backoff respects the cap.
            for i in 0..max_attempts {
                assert!(policy.backoff(i) <= policy.max_backoff, "case {case}");
            }
            // Closed-form total: geometric until the cap kicks in, then
            // flat — computed independently of RetryPolicy::total_backoff.
            let retries = max_attempts - 1;
            let mut expected_us = 0u64;
            for i in 0..retries {
                let raw = base_ms * 1000 * (1u64 << i);
                expected_us += raw.min(cap_ms * 1000);
            }
            assert_eq!(
                policy.total_backoff(retries).as_micros(),
                expected_us,
                "case {case}"
            );

            // Build a fault window long enough that every attempt fails,
            // then check the simulated give-up delay via a success just
            // after the window.
            let mut f = fabric();
            let window_ms = rng.range(1, 2000);
            f.set_faults(FaultSchedule::compile(&FaultPlan {
                links: vec![LinkFaultWindow {
                    src: None,
                    dst: None,
                    from: SimTime::ZERO,
                    until: SimTime::from_millis(window_ms),
                    kind: LinkFaultKind::Error { drop_prob: 1.0 },
                }],
                ..FaultPlan::default()
            }));
            match f.rdma_read_batch_retry(0, &[(1, 4096)], &policy) {
                Ok(out) => {
                    // k failed attempts, then a clean one.
                    let k = out.attempts - 1;
                    let clean = fabric().rdma_read_batch(0, &[(1, 4096)]).unwrap();
                    let expected = f.config().fault_timeout.mul_f64(k as f64)
                        + policy.total_backoff(k)
                        + clean;
                    assert_eq!(out.time, expected, "case {case}");
                    assert_eq!(out.backoff, policy.total_backoff(k), "case {case}");
                }
                Err(_) => {
                    assert_eq!(f.stats().retries, (max_attempts - 1) as u64, "case {case}");
                }
            }
        }
    }

    #[test]
    fn retry_spans_parent_under_installed_ctx() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let plan = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime::ZERO,
                restart: None,
            }],
            ..FaultPlan::default()
        };
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        // Without a context, failures emit no spans.
        assert!(f.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        assert_eq!(obs.span_count(), 0);
        // With one, every failed attempt becomes a child span covering
        // its detection timeout.
        let ctx = obs.trace_root("request", 7, 42);
        f.set_now(SimTime::from_millis(5));
        {
            let mut g = f.with_ctx(ctx);
            assert!(g.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.name, "medes.net.retry");
            assert_eq!(s.trace_id, ctx.trace_id);
            assert_eq!(s.parent_id, ctx.span_id);
            assert_eq!(
                s.dur_us(),
                f.config().fault_timeout.as_micros(),
                "attempt {i}"
            );
        }
        // First attempt starts at the fabric's current instant.
        assert_eq!(spans[0].start_us, 5_000);
        // Once the guard dropped, failures are silent again.
        assert!(f.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        assert_eq!(obs.span_count(), 3);
    }

    #[test]
    fn ctx_guard_restores_previous_context_on_drop() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let plan = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime::ZERO,
                restart: None,
            }],
            ..FaultPlan::default()
        };
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        let policy = RetryPolicy::no_retry();
        let outer = obs.trace_root("outer", 1, 1);
        let inner = obs.trace_root("inner", 2, 2);
        {
            let mut g1 = f.with_ctx(outer);
            {
                // Nested installs stack: the inner guard restores the
                // outer context, not NONE.
                let mut g2 = g1.with_ctx(inner);
                assert!(g2.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
            }
            assert!(g1.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace_id, inner.trace_id);
        assert_eq!(spans[1].trace_id, outer.trace_id);
        // Fully unwound: no context installed, failures are silent.
        assert!(f.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        assert_eq!(obs.span_count(), 2);
    }

    #[test]
    fn registry_rpcs_are_priced_like_rpcs_and_counted_separately() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        let policy = RetryPolicy::no_retry();
        let t = f
            .registry_rpc_retry(0, 1, RegistryOp::Lookup, 40, 120, &policy)
            .unwrap()
            .time;
        let plain = fabric().rpc(0, 1, 40, 120).unwrap();
        assert_eq!(t, plain);
        f.registry_rpc_retry(0, 2, RegistryOp::Insert, 64, 8, &policy)
            .unwrap();
        f.registry_rpc_retry(0, 2, RegistryOp::Remove, 8, 8, &policy)
            .unwrap();
        f.registry_rpc_retry(1, 2, RegistryOp::Replicate, 16, 4096, &policy)
            .unwrap();
        assert_eq!(obs.counter("medes.net.registry.rpcs"), 4);
        assert_eq!(obs.counter("medes.net.registry.lookup_rpcs"), 1);
        assert_eq!(obs.counter("medes.net.registry.insert_rpcs"), 1);
        assert_eq!(obs.counter("medes.net.registry.remove_rpcs"), 1);
        assert_eq!(obs.counter("medes.net.registry.replicate_rpcs"), 1);
        assert_eq!(
            obs.counter("medes.net.registry.rpc_bytes"),
            (40 + 120 + 64 + 8 + 8 + 8 + 16 + 4096) as u64
        );
        assert_eq!(f.stats().rpcs, 4);
    }

    #[test]
    fn obs_counts_fault_outcomes() {
        let obs = Obs::new(medes_obs::ObsConfig::enabled());
        let plan = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime::ZERO,
                restart: None,
            }],
            ..FaultPlan::default()
        };
        let mut f = Fabric::with_obs(4, NetConfig::default(), Arc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(f.rdma_read_batch_retry(0, &[(1, 64)], &policy).is_err());
        assert_eq!(obs.counter("medes.net.err.unreachable"), 3);
        assert_eq!(obs.counter("medes.net.retries"), 2);
        assert_eq!(obs.counter("medes.net.retry_giveups"), 1);
    }
}
