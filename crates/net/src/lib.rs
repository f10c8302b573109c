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
//! (propagation latency, per-op overhead, link bandwidth) and counts
//! what it moved, what failed and how long it took in one
//! [`FabricStats`], for the overhead reports of §7.7. The time one
//! operation takes is the phase span it runs under, so the stats keep
//! only totals.
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
//! `*_retry` variants wrap an op in the fabric's one retry schedule —
//! up to four attempts, exponential backoff in **simulated** time, with
//! each failed attempt costing [`FAULT_TIMEOUT`] — and re-evaluate the
//! schedule at the accumulated instant, so retries can outlive a fault
//! window.
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
//! [`Fabric::rpc_retry`] and additionally counts them per kind
//! ([`FabricStats::registry_rpcs`]), so registry traffic is separable
//! from data-path RDMA and control-path RPCs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use medes_obs::{Obs, TraceCtx};
use medes_sim::fault::FaultSchedule;
use medes_sim::{SimDuration, SimTime};
use std::rc::Rc;

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

/// The retry schedule of [`Fabric::rdma_read_batch_retry`]. It has no
/// settings: the fabric owns its schedule, private consts beside
/// [`FAULT_TIMEOUT`]. The type stays for the callers that pass one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy;

/// The link and operation cost model. It has no settings: every cost
/// is a const beside the formula that reads it ([`LOCAL_MEM_BPS`],
/// [`FAULT_TIMEOUT`] and the private wire costs of
/// `Fabric::rdma_read_batch` and `Fabric::rpc`).
#[derive(Debug, Clone, Default)]
pub struct NetConfig;

/// One-way propagation + switching latency between two nodes.
const BASE_LATENCY: SimDuration = SimDuration::from_micros(2);
/// Fixed per-operation overhead of posting an RDMA verb.
const RDMA_OP_OVERHEAD: SimDuration = SimDuration::from_micros(1);
/// Link bandwidth in bytes per second (10 Gb/s ≈ 1.25 GB/s).
const BANDWIDTH_BPS: f64 = 1.25e9;
/// Fixed cost of an RPC round trip above raw propagation
/// (serialization, dispatch, protocol buffers).
const RPC_OVERHEAD: SimDuration = SimDuration::from_micros(30);
/// Local (same-node) memory read bandwidth in bytes per second.
pub const LOCAL_MEM_BPS: f64 = 8.0e9;
/// Simulated time charged to an attempt that fails under fault
/// injection (detection timeout). Uniform across failure kinds so
/// retry delays have a closed form.
pub const FAULT_TIMEOUT: SimDuration = SimDuration::from_millis(10);
/// Attempts of a retried op, the first try included.
const RETRY_ATTEMPTS: u32 = 4;
/// Backoff before the first retry; doubles each retry.
const RETRY_BASE_BACKOFF: SimDuration = SimDuration::from_millis(1);
/// Cap on any single backoff.
const RETRY_MAX_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// Cumulative transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Completed one-sided reads.
    pub rdma_reads: u64,
    /// Bytes moved by RDMA reads.
    pub rdma_bytes: u64,
    /// Simulated µs of the completed RDMA batches, summed.
    pub rdma_batch_us_total: u64,
    /// Completed RPC round trips.
    pub rpcs: u64,
    /// Bytes moved by RPCs (request + response).
    pub rpc_bytes: u64,
    /// Simulated µs of the completed RPCs, summed.
    pub rpc_us_total: u64,
    /// Failed RDMA operations (batches count once).
    pub rdma_failures: u64,
    /// Failed RPC round trips.
    pub rpc_failures: u64,
    /// Failures by kind: timeouts (dropped RPCs included).
    pub timeouts: u64,
    /// Failures by kind: a node was down.
    pub unreachable: u64,
    /// Failures by kind: a read came back short.
    pub partial_reads: u64,
    /// RPCs the fault schedule dropped.
    pub rpc_dropped: u64,
    /// Retries performed by the `*_retry` variants.
    pub retries: u64,
    /// `*_retry` operations that ran out of attempts.
    pub retry_giveups: u64,
    /// Completed [`Fabric::registry_rpc_retry`] round trips, indexed
    /// by [`RegistryOp`] (`op as usize`).
    pub registry_rpcs: [u64; 4],
}

impl std::ops::Add for FabricStats {
    type Output = FabricStats;

    /// Field-wise sum: the totals of two fabrics.
    fn add(self, o: FabricStats) -> FabricStats {
        let mut registry_rpcs = self.registry_rpcs;
        for (a, b) in registry_rpcs.iter_mut().zip(o.registry_rpcs) {
            *a += b;
        }
        FabricStats {
            rdma_reads: self.rdma_reads + o.rdma_reads,
            rdma_bytes: self.rdma_bytes + o.rdma_bytes,
            rdma_batch_us_total: self.rdma_batch_us_total + o.rdma_batch_us_total,
            rpcs: self.rpcs + o.rpcs,
            rpc_bytes: self.rpc_bytes + o.rpc_bytes,
            rpc_us_total: self.rpc_us_total + o.rpc_us_total,
            rdma_failures: self.rdma_failures + o.rdma_failures,
            rpc_failures: self.rpc_failures + o.rpc_failures,
            timeouts: self.timeouts + o.timeouts,
            unreachable: self.unreachable + o.unreachable,
            partial_reads: self.partial_reads + o.partial_reads,
            rpc_dropped: self.rpc_dropped + o.rpc_dropped,
            retries: self.retries + o.retries,
            retry_giveups: self.retry_giveups + o.retry_giveups,
            registry_rpcs,
        }
    }
}

/// The cluster fabric: prices operations between nodes.
#[derive(Debug, Clone)]
pub struct Fabric {
    nodes: usize,
    stats: FabricStats,
    obs: Rc<Obs>,
    faults: Option<FaultSchedule>,
    now: SimTime,
    ctx: TraceCtx,
}

impl Fabric {
    /// Creates a fabric over `nodes` nodes (observability disabled).
    pub fn new(nodes: usize, _net: NetConfig) -> Self {
        Self::with_obs(nodes, Obs::disabled())
    }

    /// Creates a fabric whose failed retry attempts emit
    /// `medes.net.retry` spans (see [`Fabric::with_ctx`]).
    pub fn with_obs(nodes: usize, obs: Rc<Obs>) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        Fabric {
            nodes,
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

    /// Counts a failure by transport, so data-path (RDMA) and
    /// control-path (RPC) faults stay apart, and by kind.
    fn note_error(&mut self, err: NetError, rdma: bool) {
        let s = &mut self.stats;
        *if rdma {
            &mut s.rdma_failures
        } else {
            &mut s.rpc_failures
        } += 1;
        *match err {
            NetError::Timeout { .. } => &mut s.timeouts,
            NetError::Unreachable { .. } => &mut s.unreachable,
            NetError::PartialRead { .. } => &mut s.partial_reads,
        } += 1;
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
            .end(start + FAULT_TIMEOUT);
    }

    /// Cost of a batch of one-sided RDMA reads into `dst` from
    /// (possibly) many sources, `(src, bytes)` each.
    ///
    /// Verbs to distinct sources are posted back to back and complete in
    /// parallel; serialization happens on the receiver's link. The cost
    /// model therefore charges one base latency plus the receiver-side
    /// serialization of all remote bytes — which is what makes batched
    /// base-page fetches far cheaper than sequential ones. Same-node
    /// "reads" are local memory copies: no verbs, no wire.
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
        let mut t = SimDuration::from_secs_f64(local_bytes as f64 / LOCAL_MEM_BPS);
        if ops > 0 {
            let mut wire = BASE_LATENCY
                + RDMA_OP_OVERHEAD.mul_f64(ops as f64)
                + SimDuration::from_secs_f64(remote_bytes as f64 / BANDWIDTH_BPS);
            if factor != 1.0 {
                wire = wire.mul_f64(factor);
            }
            t += wire;
        }
        self.stats.rdma_batch_us_total += t.as_micros();
        Ok(t)
    }

    /// [`Fabric::rdma_read_batch`] under the fabric's retry schedule.
    /// Each failed attempt costs [`FAULT_TIMEOUT`] plus exponential
    /// backoff, and the next attempt re-evaluates the fault schedule at
    /// the accumulated simulated instant — retries escape fault windows
    /// that end in time. Returns the total elapsed time on success; the
    /// last error once the attempts are exhausted.
    pub fn rdma_read_batch_retry(
        &mut self,
        dst: NodeIdx,
        reads: &[(NodeIdx, usize)],
        _policy: &RetryPolicy,
    ) -> Result<SimDuration, NetError> {
        self.retry(|f, at| f.rdma_read_batch_at(dst, reads, at))
    }

    /// Backoff before retry number `retry` (0-based):
    /// `min(RETRY_BASE_BACKOFF · 2^retry, RETRY_MAX_BACKOFF)`.
    fn backoff(retry: u32) -> SimDuration {
        let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        let us = RETRY_BASE_BACKOFF.as_micros().saturating_mul(factor);
        SimDuration::from_micros(us).min(RETRY_MAX_BACKOFF)
    }

    /// The one retry loop behind every `*_retry` op: runs `attempt` at
    /// the accumulated simulated instant until it succeeds or
    /// [`RETRY_ATTEMPTS`] are exhausted, charging each failure
    /// [`FAULT_TIMEOUT`] plus [`Fabric::backoff`].
    fn retry(
        &mut self,
        mut attempt: impl FnMut(&mut Self, SimTime) -> Result<SimDuration, NetError>,
    ) -> Result<SimDuration, NetError> {
        let mut elapsed = SimDuration::ZERO;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let attempt_start = self.now + elapsed;
            match attempt(self, attempt_start) {
                Ok(t) => return Ok(elapsed + t),
                Err(e) => {
                    self.retry_span(attempts, attempt_start, e);
                    elapsed += FAULT_TIMEOUT;
                    if attempts >= RETRY_ATTEMPTS {
                        self.stats.retry_giveups += 1;
                        return Err(e);
                    }
                    elapsed += Self::backoff(attempts - 1);
                    self.stats.retries += 1;
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
                self.stats.rpc_dropped += 1;
                return Err(e);
            }
        }
        self.stats.rpcs += 1;
        self.stats.rpc_bytes += (req_bytes + resp_bytes) as u64;
        let mut t = if a == b {
            RPC_OVERHEAD
        } else {
            RPC_OVERHEAD
                + BASE_LATENCY.mul_f64(2.0)
                + SimDuration::from_secs_f64((req_bytes + resp_bytes) as f64 / BANDWIDTH_BPS)
        };
        if factor != 1.0 {
            t = t.mul_f64(factor);
        }
        self.stats.rpc_us_total += t.as_micros();
        Ok(t)
    }

    /// [`Fabric::rpc`] under the fabric's retry schedule (see
    /// [`Fabric::rdma_read_batch_retry`] for the time accounting).
    pub fn rpc_retry(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<SimDuration, NetError> {
        self.retry(|f, at| f.rpc_at(a, b, req_bytes, resp_bytes, at))
    }

    /// Fault gate for the dedup agent's fingerprint RPC to the
    /// controller. The RPC's *cost* is part of the platform's
    /// per-page lookup model, so this returns only the **extra**
    /// fault-induced delay: `ZERO` without faults (no side effects at
    /// all), the accumulated retry delay when drops occur, or the final
    /// error once the attempts are exhausted.
    pub fn controller_rpc_check(&mut self, from: NodeIdx) -> Result<SimDuration, NetError> {
        self.check(from);
        if self.faults.is_none() {
            return Ok(SimDuration::ZERO);
        }
        self.retry(|f, at| {
            if !f.faults.as_mut().is_some_and(|s| s.rpc_dropped(at)) {
                return Ok(SimDuration::ZERO);
            }
            let e = NetError::Timeout { node: from };
            f.note_error(e, false);
            f.stats.rpc_dropped += 1;
            Err(e)
        })
    }

    fn check(&self, n: NodeIdx) {
        assert!(
            n < self.nodes,
            "node {n} out of range (fabric has {})",
            self.nodes
        );
    }

    /// [`Fabric::rpc_retry`] attributed to the distributed fingerprint
    /// registry: identical pricing and fault semantics, plus a per-kind
    /// count ([`FabricStats::registry_rpcs`]) so registry traffic is
    /// separable from the rest of the control path.
    pub fn registry_rpc_retry(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        op: RegistryOp,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<SimDuration, NetError> {
        let out = self.rpc_retry(a, b, req_bytes, resp_bytes)?;
        self.stats.registry_rpcs[op as usize] += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use medes_sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
    use medes_sim::DetRng;

    fn fabric() -> Fabric {
        Fabric::new(4, NetConfig)
    }

    /// Total backoff slept across `retries` retries.
    fn total_backoff(retries: u32) -> SimDuration {
        (0..retries).map(Fabric::backoff).sum()
    }

    /// One read of `bytes` from `src` into `dst`: a one-element batch.
    fn read(
        f: &mut Fabric,
        dst: NodeIdx,
        src: NodeIdx,
        bytes: usize,
    ) -> Result<SimDuration, NetError> {
        f.rdma_read_batch(dst, &[(src, bytes)])
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
        let t = read(&mut f, 0, 1, 4096).unwrap();
        // 2us + 1us + 4096/1.25e9 ≈ 3.3us -> ~6.3us total
        let us = t.as_micros();
        assert!((3..12).contains(&us), "remote 4KiB read {us}us");
    }

    #[test]
    fn local_read_is_cheaper_than_remote() {
        let mut f = fabric();
        let local = read(&mut f, 2, 2, 4096).unwrap();
        let remote = read(&mut f, 2, 3, 4096).unwrap();
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
            .map(|&(s, b)| read(&mut f2, 0, s, b).unwrap())
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
        let t = read(&mut f, 0, 1, 125_000_000).unwrap(); // 125 MB at 1.25 GB/s = 100 ms
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
        let _ = read(&mut f, 0, 9, 64);
    }

    #[test]
    fn stats_total_traffic_and_time() {
        let mut f = fabric();
        let one = read(&mut f, 0, 1, 4096).unwrap();
        let batch = f.rdma_read_batch(0, &[(1, 100), (2, 200)]).unwrap();
        f.rdma_read_batch(0, &[]).unwrap();
        let rpc = f.rpc(0, 1, 10, 20).unwrap();
        let s = f.stats();
        assert_eq!((s.rdma_reads, s.rdma_bytes), (3, 4096 + 300));
        assert_eq!((s.rpcs, s.rpc_bytes), (1, 30));
        // Batch and RPC time are totals: the per-op durations are the
        // phase spans they run under.
        assert_eq!(s.rdma_batch_us_total, one.as_micros() + batch.as_micros());
        assert_eq!(s.rpc_us_total, rpc.as_micros());
        // Two fabrics' totals add field by field.
        let sum = s + s;
        assert_eq!((sum.rdma_reads, sum.rpc_us_total), (6, 2 * rpc.as_micros()));
        assert_eq!(s + FabricStats::default(), s);
    }

    /// Counters are fabric totals: a batch's reads count once each,
    /// whatever link carried them, and a registry RPC is an RPC.
    #[test]
    fn flat_counters_total_all_links() {
        let mut f = fabric();
        read(&mut f, 0, 1, 4096).unwrap();
        f.rdma_read_batch(0, &[(1, 100), (1, 50), (2, 200)])
            .unwrap();
        f.rpc(0, 1, 10, 20).unwrap();
        f.registry_rpc_retry(0, 2, RegistryOp::Lookup, 64, 32)
            .unwrap();
        let s = f.stats();
        assert_eq!((s.rdma_reads, s.rdma_bytes), (4, 4446));
        assert_eq!((s.rpcs, s.rpc_bytes), (2, 126));
        assert_eq!(s.registry_rpcs, [1, 0, 0, 0]);
    }

    /// Property: over random mixes of local and remote read batches
    /// (empty ones included) and registry RPCs under a random fault
    /// schedule, the [`FabricStats`] counters agree with each other:
    /// failures by kind total failures by transport, every completed
    /// registry RPC is a completed RPC, a dropped RPC is a timeout, and
    /// every retried op ended in a success or a give-up.
    #[test]
    fn fabric_counters_equal_fabric_stats() {
        const OPS: [RegistryOp; 4] = [
            RegistryOp::Lookup,
            RegistryOp::Insert,
            RegistryOp::Remove,
            RegistryOp::Replicate,
        ];
        for seed in 0..256u64 {
            let mut rng = DetRng::new(0xfab5_7a75_0000_0000 ^ seed);
            let nodes = 2 + rng.below(4) as usize;
            let horizon = SimTime::from_secs(10);
            let plan = FaultPlan::synthesize(seed, nodes, horizon, rng.f64() * 4.0);
            let mut f = Fabric::new(nodes, NetConfig);
            f.set_faults(FaultSchedule::compile(&plan));
            let (mut ops, mut ok) = (0u64, 0u64);
            for _ in 0..rng.below(40) {
                ops += 1;
                f.set_now(SimTime::from_micros(rng.below(horizon.as_micros())));
                let dst = rng.below(nodes as u64) as usize;
                if rng.chance(0.6) {
                    let reads: Vec<(NodeIdx, usize)> = (0..rng.below(6))
                        .map(|_| {
                            let src = if rng.chance(0.3) {
                                dst
                            } else {
                                rng.below(nodes as u64) as usize
                            };
                            (src, rng.below(8192) as usize)
                        })
                        .collect();
                    ok += f.rdma_read_batch_retry(dst, &reads, &RetryPolicy).is_ok() as u64;
                } else {
                    let op = OPS[rng.below(4) as usize];
                    let (req, resp) = (rng.below(256) as usize, rng.below(4096) as usize);
                    ok += f.registry_rpc_retry(0, dst, op, req, resp).is_ok() as u64;
                }
            }
            let s = f.stats();
            let failures = s.rdma_failures + s.rpc_failures;
            assert_eq!(
                s.timeouts + s.unreachable + s.partial_reads,
                failures,
                "seed {seed}"
            );
            assert_eq!(s.registry_rpcs.iter().sum::<u64>(), s.rpcs, "seed {seed}");
            assert!(s.rpc_dropped <= s.timeouts, "seed {seed}");
            assert_eq!(ok + s.retry_giveups, ops, "seed {seed}");
            assert_eq!(s.retries + s.retry_giveups, failures, "seed {seed}");
            if s.rdma_reads == 0 {
                assert_eq!((s.rdma_bytes, s.rdma_batch_us_total), (0, 0), "seed {seed}");
            }
        }
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
                read(&mut clean, 0, i % 4, bytes).unwrap(),
                read(&mut empty, 0, i % 4, bytes).unwrap()
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
            read(&mut f, 0, 2, 64).unwrap_err(),
            NetError::Unreachable { node: 2 }
        );
        assert_eq!(
            f.rdma_read_batch(0, &[(1, 64), (2, 64)]).unwrap_err(),
            NetError::Unreachable { node: 2 }
        );
        assert_eq!(f.stats().rdma_failures, 2);
        // After the restart the node serves reads again.
        f.set_now(SimTime::from_secs(25));
        assert!(read(&mut f, 0, 2, 64).is_ok());
    }

    #[test]
    fn error_window_fails_ops_and_retry_gives_up() {
        let plan = FaultPlan {
            links: vec![always_fail_window()],
            seed: 3,
            ..FaultPlan::default()
        };
        let mut f = faulty(&plan);
        let err = f
            .rdma_read_batch_retry(0, &[(1, 4096)], &RetryPolicy)
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout { .. } | NetError::PartialRead { .. }
        ));
        assert_eq!(f.stats().retries, (RETRY_ATTEMPTS - 1) as u64);
        assert_eq!(f.stats().rdma_failures, RETRY_ATTEMPTS as u64);
    }

    #[test]
    fn retry_escapes_a_fault_window() {
        // Window covers [0, 15ms); each failed attempt costs 10ms plus
        // 1ms backoff, so the second attempt at t=11ms still fails but
        // the third (t=23ms, after a 2ms backoff) lands after the window
        // and succeeds.
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
        let t = f
            .rdma_read_batch_retry(0, &[(1, 4096)], &RetryPolicy)
            .unwrap();
        assert_eq!(f.stats().retries, 2);
        let clean = fabric().rdma_read_batch(0, &[(1, 4096)]).unwrap();
        // 2 failures à FAULT_TIMEOUT + backoffs (1ms + 2ms) + clean op.
        let expected = FAULT_TIMEOUT.mul_f64(2.0) + total_backoff(2) + clean;
        assert_eq!(t, expected);
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
        let spiked = read(&mut f, 0, 1, 1 << 20).unwrap();
        let clean = read(&mut fabric(), 0, 1, 1 << 20).unwrap();
        assert_eq!(spiked, clean.mul_f64(5.0));
        // Local copies and unaffected links stay untouched.
        assert_eq!(
            read(&mut f, 2, 2, 1 << 20).unwrap(),
            read(&mut fabric(), 2, 2, 1 << 20).unwrap()
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
        assert!(f.controller_rpc_check(0).is_err());
        assert!(f.stats().rpc_failures > 0);
        // Without faults the gate is free and draws nothing.
        let mut clean = fabric();
        assert_eq!(clean.controller_rpc_check(0).unwrap(), SimDuration::ZERO);
        assert_eq!(clean.stats().rpc_failures, 0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let ms = |retry| Fabric::backoff(retry).as_micros() / 1000;
        let doubling: Vec<u64> = (0..7).map(ms).collect();
        assert_eq!(doubling, [1, 2, 4, 8, 16, 32, 50]); // capped at 50
        assert_eq!(ms(63), 50);
        assert_eq!(ms(64), 50); // shl overflow guard
    }

    /// The total backoff matches the closed form (geometric until the
    /// cap, then flat), and for random fault-window lengths the total
    /// retry delay is `k·FAULT_TIMEOUT + Σ backoff(i) + op_time`.
    #[test]
    fn retry_delay_matches_closed_form() {
        for retries in 0..RETRY_ATTEMPTS + 8 {
            assert!(Fabric::backoff(retries) <= RETRY_MAX_BACKOFF);
            // Computed independently of the per-retry sum.
            let expected_us: u64 = (0..retries)
                .map(|i| (RETRY_BASE_BACKOFF.as_micros() << i).min(RETRY_MAX_BACKOFF.as_micros()))
                .sum();
            assert_eq!(total_backoff(retries).as_micros(), expected_us);
        }

        // Windows up to 60 ms: the schedule's last attempt starts at
        // 37 ms, so some cases escape the window and some give up.
        let mut rng = DetRng::new(0x4E7);
        let (mut escaped, mut gave_up) = (0, 0);
        for case in 0..64 {
            let mut f = fabric();
            let window_ms = rng.range(1, 60);
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
            match f.rdma_read_batch_retry(0, &[(1, 4096)], &RetryPolicy) {
                Ok(t) => {
                    // k failed attempts, then a clean one.
                    let k = f.stats().retries as u32;
                    let clean = fabric().rdma_read_batch(0, &[(1, 4096)]).unwrap();
                    let expected = FAULT_TIMEOUT.mul_f64(k as f64) + total_backoff(k) + clean;
                    assert_eq!(t, expected, "case {case}");
                    escaped += 1;
                }
                Err(_) => {
                    assert_eq!(
                        f.stats().retries,
                        (RETRY_ATTEMPTS - 1) as u64,
                        "case {case}"
                    );
                    gave_up += 1;
                }
            }
        }
        assert!(
            escaped > 0 && gave_up > 0,
            "{escaped} escaped, {gave_up} gave up"
        );
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
        let mut f = Fabric::with_obs(4, Rc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        // Without a context, failures emit no spans.
        assert!(f
            .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
            .is_err());
        assert_eq!(obs.span_count(), 0);
        // With one, every failed attempt becomes a child span covering
        // its detection timeout.
        let ctx = obs.trace_root("request", 7, 42);
        f.set_now(SimTime::from_millis(5));
        {
            let mut g = f.with_ctx(ctx);
            assert!(g
                .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
                .is_err());
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), RETRY_ATTEMPTS as usize);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.name, "medes.net.retry");
            assert_eq!(s.trace_id, ctx.trace_id);
            assert_eq!(s.parent_id, ctx.span_id);
            assert_eq!(s.dur_us(), FAULT_TIMEOUT.as_micros(), "attempt {i}");
        }
        // First attempt starts at the fabric's current instant.
        assert_eq!(spans[0].start_us, 5_000);
        // Once the guard dropped, failures are silent again.
        assert!(f
            .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
            .is_err());
        assert_eq!(obs.span_count(), RETRY_ATTEMPTS as usize);
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
        let mut f = Fabric::with_obs(4, Rc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        let outer = obs.trace_root("outer", 1, 1);
        let inner = obs.trace_root("inner", 2, 2);
        {
            let mut g1 = f.with_ctx(outer);
            {
                // Nested installs stack: the inner guard restores the
                // outer context, not NONE.
                let mut g2 = g1.with_ctx(inner);
                assert!(g2
                    .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
                    .is_err());
            }
            assert!(g1
                .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
                .is_err());
        }
        // One span per failed attempt: the inner op's, then the outer's.
        let n = RETRY_ATTEMPTS as usize;
        let spans = obs.spans();
        assert_eq!(spans.len(), 2 * n);
        assert!(spans[..n].iter().all(|s| s.trace_id == inner.trace_id));
        assert!(spans[n..].iter().all(|s| s.trace_id == outer.trace_id));
        // Fully unwound: no context installed, failures are silent.
        assert!(f
            .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
            .is_err());
        assert_eq!(obs.span_count(), 2 * n);
    }

    #[test]
    fn registry_rpcs_are_priced_like_rpcs_and_counted_separately() {
        let mut f = fabric();
        let t = f
            .registry_rpc_retry(0, 1, RegistryOp::Lookup, 40, 120)
            .unwrap();
        let plain = fabric().rpc(0, 1, 40, 120).unwrap();
        assert_eq!(t, plain);
        f.registry_rpc_retry(0, 2, RegistryOp::Insert, 64, 8)
            .unwrap();
        f.registry_rpc_retry(0, 2, RegistryOp::Remove, 8, 8)
            .unwrap();
        f.registry_rpc_retry(1, 2, RegistryOp::Replicate, 16, 4096)
            .unwrap();
        let s = f.stats();
        assert_eq!(s.rpcs, 4);
        assert_eq!(s.registry_rpcs, [1, 1, 1, 1]);
        assert_eq!(s.rpc_bytes, (40 + 120 + 64 + 8 + 8 + 8 + 16 + 4096) as u64);
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
        let mut f = Fabric::with_obs(4, Rc::clone(&obs));
        f.set_faults(FaultSchedule::compile(&plan));
        let ctx = obs.trace_root("request", 7, 1);
        assert!(f
            .with_ctx(ctx)
            .rdma_read_batch_retry(0, &[(1, 64)], &RetryPolicy)
            .is_err());
        // Each failed attempt is a span and a count; the give-up is a
        // count alone.
        let n = RETRY_ATTEMPTS as u64;
        let spans = obs.spans();
        assert_eq!(spans.len() as u64, n);
        assert!(spans
            .iter()
            .all(|s| s.attr("error") == Some(&medes_obs::Json::Str("unreachable".into()))));
        let s = f.stats();
        assert_eq!((s.unreachable, s.rdma_failures), (n, n));
        assert_eq!((s.retries, s.retry_giveups), (n - 1, 1));
    }
}
