//! The Medes platform: a discrete-event cluster simulation.
//!
//! [`Platform::run`] executes a [`Trace`] against a cluster of worker
//! nodes under one of three policies (fixed keep-alive, adaptive
//! keep-alive, Medes) and produces a [`RunReport`].
//!
//! The run's `World` is a `Cluster`, and a `Cluster` only routes events.
//! The state they act on has three owners, each the sole writer of what
//! it owns and each able to assert its own invariant (`check()`;
//! DESIGN.md "Who owns what in a run"): `memory::NodeMemory` (who is
//! charged for what), `lifecycle::Lifecycle` (which sandboxes exist, in
//! what state — its mutators are the edges of Fig 4b) and `bases::Bases`
//! (what a base is, and the §5.3 rule that a referenced one stays).
//!
//! ## Event flow
//!
//! * `Arrival` → `dispatch`: idle warm sandbox (warm start) → idle dedup
//!   sandbox (restore, §4.2) → cold start (spawn) → wait queue when no
//!   memory can be freed (`RetryQueue` retries its head).
//! * `SpawnDone` / `RestoreDone` → the request starts executing.
//! * `ExecDone` → the sandbox goes idle-warm (`go_idle`, the one place
//!   the keep-alive and idle-period timers are armed); a queued request
//!   drains.
//! * `IdleCheck` (Medes, `pipeline`) → consult the §5 policy targets;
//!   demarcate a base if `D/B > T`, else scan the sandbox and start the
//!   dedup op (§4.1); `DedupDone` commits or reverts.
//! * `KeepAliveExpire` / `KeepDedupExpire` → purge idle sandboxes.
//! * `PolicyTick` → re-estimate per-function state, re-solve targets.
//! * `NodeCrash` / `NodeRestart` / `VersionBump` → `recovery`.
//!
//! Every timer event carries the sandbox's `epoch`; state transitions
//! bump the epoch, so stale timers are ignored — the standard DES
//! pattern for cancellable timeouts. A keep-alive timer carries its
//! ticket instead: `Lifecycle` keeps one per sandbox (`dispatch`).

mod bases;
mod dispatch;
pub(crate) mod lifecycle;
mod memory;
mod pipeline;
mod recovery;
mod report;

use crate::config::{PlatformConfig, PolicyKind};
use crate::controller::{solve_targets, FunctionRuntime, ReqInfo, POLICY_TICK};
use crate::dedup::{DedupOutcome, ScanWork};
use crate::ids::SandboxId;
use crate::metrics::{MetricsCollector, RunReport, StartType, Tally};
use crate::sandbox::SandboxState;
use bases::Bases;
use lifecycle::Lifecycle;
use medes_net::Fabric;
use medes_obs::Obs;
use medes_policy::keepalive::KeepAlivePolicy;
use medes_policy::medes::Objective;
use medes_policy::{AdaptiveKeepAlive, FixedKeepAlive, MedesPolicyConfig};
use medes_sim::engine::{Scheduler, Ticket};
use medes_sim::fault::FaultSchedule;
use medes_sim::{DetRng, SimDuration, SimTime, Simulation, World};
use medes_trace::{FunctionProfile, Trace};
use memory::NodeMemory;
use std::sync::Arc;

/// The platform: configuration + function catalog.
#[derive(Debug)]
pub struct Platform {
    cfg: PlatformConfig,
    profiles: Vec<FunctionProfile>,
}

impl Platform {
    /// Creates a platform.
    pub fn new(cfg: PlatformConfig, profiles: Vec<FunctionProfile>) -> Self {
        Platform { cfg, profiles }
    }

    /// Runs a trace to completion. Returns the metrics report together
    /// with the observability handle (buffered spans + metrics) as one
    /// [`RunOutcome`]. When the config has observability enabled with
    /// an export directory, the span trace is also written there as
    /// JSONL on completion.
    ///
    /// # Panics
    /// Panics if the trace's function table does not match the profile
    /// catalog, if any function's footprint exceeds the per-node
    /// memory limit (such a function could never be scheduled and its
    /// requests would retry forever), or if the trace's invocations are
    /// not sorted by arrival time (arrivals are streamed into the event
    /// loop in trace order, so an unsorted trace would run the clock
    /// backwards).
    pub fn run(&self, trace: &Trace) -> RunOutcome {
        assert_eq!(
            trace.functions.len(),
            self.profiles.len(),
            "trace function table must match the profile catalog"
        );
        let min_node = self.cfg.min_node_mem();
        for p in &self.profiles {
            assert!(
                p.memory_bytes <= min_node,
                "function {} needs {} bytes but the smallest node only has {}",
                p.name,
                p.memory_bytes,
                min_node
            );
        }
        assert_eq!(
            trace.first_out_of_order(),
            None,
            "trace invocations must be sorted by arrival time; this one arrives before its predecessor"
        );
        let horizon = trace.duration();
        let mut cluster = Cluster::new(self.cfg.clone(), self.profiles.clone(), horizon);
        cluster.metrics.slots = vec![None; trace.len()];
        let mut sim = Simulation::new(cluster);
        if self.cfg.is_medes() {
            sim.schedule(SimTime::ZERO, Ev::PolicyTick);
        }
        for c in &self.cfg.faults.crashes {
            sim.schedule(c.at, Ev::NodeCrash(c.node));
            if let Some(r) = c.restart {
                sim.schedule(r, Ev::NodeRestart(c.node));
            }
        }
        for b in &self.cfg.deploys.bumps {
            assert!(
                b.function < self.profiles.len(),
                "deploy bump targets function {} but the catalog has {}",
                b.function,
                self.profiles.len()
            );
            sim.schedule(b.at, Ev::VersionBump(b.function, b.version));
        }
        // Arrivals are not queued: the loop takes them from the trace as
        // their time comes, each ahead of anything queued for the same
        // instant, so the queue holds pending timers and in-flight
        // requests only. A request's id is its position in the trace.
        sim.run_with(trace.invocations.iter().enumerate().map(|(id, inv)| {
            let req = ReqInfo {
                id: id as u64,
                func: inv.function,
                arrival: inv.time(),
            };
            (req.arrival, Ev::Arrival(req))
        }));
        let end = sim.now();
        let (events, peak_queue_depth) = (sim.processed(), sim.peak_queue_depth());
        cluster = sim.into_world();
        let obs = Arc::clone(&cluster.obs);
        let dedup_work = cluster.dedup_work;
        let dedup_memo_peak_bytes = cluster.life.memo_peak_bytes();
        let report = cluster.finish(end);
        match obs.write_trace() {
            Ok(Some(path)) => eprintln!("[obs] wrote {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: failed to write obs trace: {e}"),
        }
        RunOutcome {
            report,
            obs,
            dedup_work,
            dedup_memo_peak_bytes,
            events,
            peak_queue_depth,
        }
    }
}

/// The full result of one [`Platform::run`]: the metrics report plus
/// the observability handle for inspecting buffered spans and metrics.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's metrics (deterministic; `PartialEq` for replay
    /// assertions).
    pub report: RunReport,
    /// The run's observability handle (spans, counters and gauges).
    pub obs: Arc<Obs>,
    /// What the host computed, and what it reused, over every dedup
    /// scan (deterministic). Here and not in `report` because a memoised
    /// scan is the same simulated op: the report must not tell them
    /// apart. Exported as `medes.dedup.pages_fingerprinted`,
    /// `.pages_encoded`, `.pages_reused` and `.scans_without_image`.
    pub dedup_work: ScanWork,
    /// Most host bytes the live sandboxes' dedup memos
    /// ([`crate::sandbox::DedupMemo`]) held at once (deterministic;
    /// `medes.dedup.memo_peak_bytes`).
    pub dedup_memo_peak_bytes: usize,
    /// Events the loop handled (deterministic). Here and not in
    /// `report` because it describes the simulator, not the simulated
    /// cluster.
    pub events: u64,
    /// Most events pending in the queue at once (deterministic): a
    /// keep-alive timer per sandbox plus in-flight requests, independent
    /// of how many arrivals the trace still holds.
    pub peak_queue_depth: usize,
}

/// Platform events. A sandbox's timers carry the epoch it had when
/// they were armed (its keep-alive timer, the ticket it took).
enum Ev {
    Arrival(ReqInfo),
    SpawnDone(SandboxId, ReqInfo),
    RestoreDone(SandboxId, ReqInfo),
    /// The sandbox and the request, whose record is parked in its slot.
    ExecDone(SandboxId, u64),
    IdleCheck(SandboxId, u64),
    KeepAliveExpire(SandboxId, Ticket),
    KeepDedupExpire(SandboxId, u64),
    /// The dedup op begun at an idle check has run its course: the
    /// sandbox, its epoch when the op began, what the op produced.
    DedupDone(SandboxId, u64, Box<DedupOutcome>),
    PolicyTick,
    /// Retry the head of a function's wait queue.
    RetryQueue(usize),
    NodeCrash(usize),
    NodeRestart(usize),
    /// A rolling deploy reached a function: bump its deployed code
    /// version, purge stale idle sandboxes, and retire stale base
    /// registrations from the fingerprint registry.
    VersionBump(usize, u64),
}

struct Cluster {
    cfg: PlatformConfig,
    fabric: Fabric,
    mem: NodeMemory,
    life: Lifecycle,
    bases: Bases,
    /// See `RunOutcome::dedup_work`.
    dedup_work: ScanWork,
    /// Per function: profile, deployed version, §5 policy state, wait
    /// queue.
    fns: Vec<FunctionRuntime>,
    /// Keep-alive window for idle warm sandboxes, under every policy.
    ka: Box<dyn KeepAlivePolicy>,
    /// The §5 dedup policy knobs; `Some` only under `PolicyKind::Medes`.
    medes: Option<MedesPolicyConfig>,
    rng: DetRng,
    metrics: MetricsCollector,
    obs: Arc<Obs>,
    /// Don't re-arm periodic events past this instant.
    horizon: SimTime,
}

impl Cluster {
    fn new(cfg: PlatformConfig, profiles: Vec<FunctionProfile>, horizon: SimTime) -> Self {
        let obs = Obs::new(cfg.obs.clone());
        let mut fabric = Fabric::with_obs(cfg.nodes, cfg.net.clone(), Arc::clone(&obs));
        if !cfg.faults.is_empty() {
            fabric.set_faults(FaultSchedule::compile(&cfg.faults));
        }
        let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
        let metrics =
            MetricsCollector::with_obs(names, SimDuration::from_secs(10), Arc::clone(&obs));
        let (ka, medes): (Box<dyn KeepAlivePolicy>, _) = match &cfg.policy {
            PolicyKind::FixedKeepAlive(d) => (Box::new(FixedKeepAlive::new(*d)), None),
            PolicyKind::AdaptiveKeepAlive => (Box::new(AdaptiveKeepAlive::new()), None),
            PolicyKind::Medes(m) => (Box::new(FixedKeepAlive::new(m.keep_alive)), Some(m.clone())),
        };
        Cluster {
            fabric,
            mem: NodeMemory::new(&cfg, &obs),
            life: Lifecycle::new(profiles.len()),
            bases: Bases::new(&cfg, &profiles, &obs),
            dedup_work: ScanWork::default(),
            fns: profiles.into_iter().map(FunctionRuntime::new).collect(),
            ka,
            medes,
            rng: DetRng::new(cfg.seed),
            metrics,
            obs,
            horizon,
            cfg,
        }
    }

    /// Asserts every owner's invariant at `now`, in debug builds.
    fn check(&self, now: SimTime) {
        if cfg!(debug_assertions) {
            self.mem.check(&self.life);
            self.life.check(now <= self.horizon);
            self.bases.check(&self.life, &self.mem);
        }
    }

    /// The §5.2 SLO bound for one function: `α · s_W` microseconds
    /// under the Medes latency-target objective (P1 promises average
    /// startup latency stays within `α` of a warm start), 0 — no bound
    /// — under memory-budget objectives and non-Medes policies.
    fn slo_bound_us(&self, func: usize) -> u64 {
        match self.medes.as_ref().map(|m| m.objective) {
            Some(Objective::LatencyTarget { alpha }) => {
                (alpha * self.fns[func].profile.warm_start().as_micros() as f64) as u64
            }
            _ => 0,
        }
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        // Fault windows are evaluated at the fabric's current instant;
        // a placed registry prices its RPCs, and the collector stamps
        // memory and live-sandbox changes, at the same instant.
        self.fabric.set_now(now);
        self.bases.registry().set_now(now);
        self.metrics.set_now(now);
        // The rare multi-owner sequences end in a check of every owner:
        // a crash, a restart, a deploy, and an idle check that began a
        // dedup op.
        let mut checked = matches!(
            event,
            Ev::NodeCrash(_) | Ev::NodeRestart(_) | Ev::VersionBump(..)
        );
        match event {
            Ev::Arrival(req) => {
                self.obs.incr("medes.platform.arrivals");
                self.fns[req.func].on_arrival();
                self.ka.on_request(req.func, now);
                self.dispatch(req, sched);
            }

            // A sandbox that is gone when its event fires died with its
            // node: the request never completed, so it is re-dispatched.
            Ev::SpawnDone(id, req) => {
                if self.life.get(&id).is_none() {
                    return self.reschedule(req, sched);
                }
                self.life.start_exec(id);
                self.run_request(id, req, SimDuration::ZERO, StartType::Cold, sched);
            }

            Ev::RestoreDone(id, req) => {
                if self.life.get(&id).is_none() {
                    // (The teardown settled the dedup accounting and the
                    // table's base references.)
                    return self.reschedule(req, sched);
                }
                // Release the dedup representation.
                let table = self.life.finish_restore(id);
                let m_w = self.fns[req.func].profile.memory_bytes;
                let sb = self.life.footprint_mut(id);
                self.mem.resize(&mut self.metrics, sb, m_w);
                self.bases.release_refs(&table);
                // The sandbox lives on: the patches it no longer needs
                // resident are what its next scan would otherwise
                // encode again.
                if let Some(memo) = self.life.swap_memo(id, None) {
                    self.life.swap_memo(id, Some(memo.absorb(table)));
                }
                self.run_request(id, req, SimDuration::ZERO, StartType::Dedup, sched);
            }

            Ev::ExecDone(id, req) => {
                let slot = &mut self.metrics.slots[req as usize];
                let mut rec = slot.take().expect("an executing request");
                let arrival = SimTime::from_micros(rec.arrival_us);
                let Some(sb) = self.life.get(&id) else {
                    let req = ReqInfo {
                        id: rec.id,
                        func: rec.func as usize,
                        arrival,
                    };
                    return self.reschedule(req, sched);
                };
                let (f, node, version) = (rec.func as usize, sb.node, sb.version);
                rec.e2e_us = now.since(arrival).as_micros();
                // Same (seed, request id) → same ids as the context the
                // dispatcher minted for the restore op, so the request
                // span becomes the root of that tree.
                let root = self.obs.trace_root("request", self.cfg.seed, rec.id);
                let bound_us = self.slo_bound_us(f);
                self.metrics.push_request(rec, root, bound_us, node.0);
                // A sandbox a rolling deploy superseded while it ran
                // dies instead of joining the warm pool (a referenced
                // stale base must linger until its dependants release
                // it).
                if version < self.fns[f].version && !self.bases.is_referenced(id) {
                    self.purge_stale(id);
                } else {
                    self.go_idle(id, sched);
                }
                // Serve a queued request with this freshly warm sandbox.
                if let Some(req) = self.fns[f].wait_queue.pop_front() {
                    self.dispatch(req, sched);
                }
            }

            Ev::IdleCheck(id, epoch) => checked = self.idle_check(id, epoch, sched),

            Ev::KeepAliveExpire(id, ticket) => self.keep_alive_expire(id, ticket, sched),

            Ev::KeepDedupExpire(id, epoch) => {
                if self.life.current(id, epoch, SandboxState::Dedup).is_some() {
                    self.purge(id);
                    self.metrics.count(Tally::Expiration);
                }
            }

            Ev::DedupDone(id, epoch, outcome) => self.dedup_done(id, epoch, *outcome, sched),

            Ev::PolicyTick => {
                let Some(medes) = &self.medes else {
                    return;
                };
                solve_targets(&mut self.fns, medes, |f| self.life.total(f));
                if now + POLICY_TICK <= self.horizon {
                    sched.after(POLICY_TICK, Ev::PolicyTick);
                }
            }

            Ev::RetryQueue(func) => {
                // Exactly one retry chain per function: this timer is the
                // outstanding one; re-arm only if requests remain after
                // the dispatch attempt (which may re-queue the head).
                self.fns[func].retry_armed = false;
                if let Some(req) = self.fns[func].wait_queue.pop_front() {
                    self.dispatch(req, sched);
                }
                if !self.fns[func].wait_queue.is_empty() && !self.fns[func].retry_armed {
                    self.fns[func].retry_armed = true;
                    sched.after(dispatch::QUEUE_RETRY, Ev::RetryQueue(func));
                }
            }

            Ev::NodeCrash(node) => self.node_crash(node),
            Ev::NodeRestart(node) => self.node_restart(node),
            Ev::VersionBump(func, version) => self.version_bump(func, version),
        }
        if checked {
            self.check(now);
        }
    }
}

#[cfg(test)]
mod tests;
