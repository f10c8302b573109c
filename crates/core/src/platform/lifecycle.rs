//! Which sandboxes exist and what state each is in (Fig 4b).
//!
//! [`Lifecycle`] owns the sandbox table (readable through `Deref`), the
//! per-function idle pools and counts, and its mutators are the edges of
//! the state machine:
//!
//! ```text
//! spawn ─▶ Spawning ─start_exec─▶ Running ─go_warm─▶ Warm ─take_warm─▶ Running
//!     Warm ─begin_dedup─▶ Deduping ─commit_dedup─▶ Dedup     (or ─go_warm─▶ Warm)
//!     Dedup ─begin_restore─▶ Restoring ─finish_restore─▶ Running
//!     any state ─remove─▶ gone
//! ```
//!
//! It is the only caller of `Sandbox::transition`, the only writer of
//! `last_used`, `dedup_table` and `last_dedup`, and the only code that
//! touches a pool. So a sandbox is in `idle_warm` iff it is `Warm` and in
//! `idle_dedup` iff it is `Dedup`, under the key `(last_used, id)`, and
//! it carries a table iff it is `Dedup` or `Restoring` — which is what
//! `dedup_total` counts. [`Lifecycle::check`] asserts all of it.

use crate::ids::SandboxId;
use crate::sandbox::SandboxState::{Dedup, Deduping, Restoring, Running, Spawning, Warm};
use crate::sandbox::{DedupMemo, DedupPageTable, Sandbox, SandboxState, SandboxTable};
use medes_sim::SimTime;
use std::collections::VecDeque;

/// Idle sandboxes ordered by `(last_used, id)`: the scheduler takes the
/// most recently used, eviction the least. A sandbox goes idle at `now`,
/// so an insert scans from the back past same-instant ties only, and a
/// warm start pops the back; the rarer removals binary-search.
#[derive(Debug, Default, PartialEq)]
struct Pool(VecDeque<(SimTime, SandboxId)>);

impl Pool {
    fn insert(&mut self, key: (SimTime, SandboxId)) {
        let at = self.0.iter().rposition(|k| *k < key).map_or(0, |i| i + 1);
        self.0.insert(at, key);
    }

    fn remove(&mut self, key: (SimTime, SandboxId)) {
        let at = self.0.partition_point(|k| *k < key);
        assert_eq!(self.0.remove(at), Some(key), "an idle sandbox is pooled");
    }
}

/// One function's sandboxes by state.
#[derive(Debug, Default, PartialEq)]
struct FnSandboxes {
    idle_warm: Pool,
    idle_dedup: Pool,
    /// Live sandboxes in any state: the optimizer's `C`.
    total: u32,
    /// Live sandboxes that are `Dedup` or `Restoring`: the `D` of `D/B`.
    dedup_total: u32,
}

#[derive(Debug)]
pub(crate) struct Lifecycle {
    table: SandboxTable,
    fns: Vec<FnSandboxes>,
    next_id: u64,
    /// Host bytes held by the memos of live sandboxes, now and at most.
    memo_bytes: usize,
    memo_peak_bytes: usize,
}

impl std::ops::Deref for Lifecycle {
    type Target = SandboxTable;

    fn deref(&self) -> &SandboxTable {
        &self.table
    }
}

impl Lifecycle {
    pub fn new(functions: usize) -> Self {
        Lifecycle {
            table: SandboxTable::default(),
            fns: (0..functions).map(|_| FnSandboxes::default()).collect(),
            next_id: 0,
            memo_bytes: 0,
            memo_peak_bytes: 0,
        }
    }

    /// For `NodeMemory`, which writes a sandbox's footprint; every other
    /// field changes through the edges below.
    pub fn footprint_mut(&mut self, id: SandboxId) -> &mut Sandbox {
        self.table.get_mut(&id).expect("sandbox is live")
    }

    /// The sandbox a timer armed at `epoch` for state `state` was meant
    /// for — `None` if it is gone or has changed state since, in which
    /// case the timer is stale and must be ignored.
    pub fn current(&self, id: SandboxId, epoch: u64, state: SandboxState) -> Option<&Sandbox> {
        let sb = self.get(&id)?;
        (sb.epoch == epoch && sb.state == state).then_some(sb)
    }

    pub fn total(&self, func: usize) -> u32 {
        self.fns[func].total
    }

    pub fn dedup_total(&self, func: usize) -> u32 {
        self.fns[func].dedup_total
    }

    /// A function's idle warm sandboxes, least recently used first.
    pub fn idle_warm(&self, func: usize) -> impl DoubleEndedIterator<Item = SandboxId> + '_ {
        self.fns[func].idle_warm.0.iter().map(|&(_, id)| id)
    }

    /// A function's idle dedup sandboxes, least recently used first.
    pub fn idle_dedup(&self, func: usize) -> impl DoubleEndedIterator<Item = SandboxId> + '_ {
        self.fns[func].idle_dedup.0.iter().map(|&(_, id)| id)
    }

    pub fn memo_peak_bytes(&self) -> usize {
        self.memo_peak_bytes
    }

    /// Moves `id` along one edge of Fig 4b.
    ///
    /// # Panics
    /// Panics, before anything changes, if the sandbox is not in one of
    /// the states the edge leaves from — that is always a platform bug.
    fn edge(
        &mut self,
        id: SandboxId,
        from: &[SandboxState],
        to: SandboxState,
    ) -> (&mut Sandbox, &mut FnSandboxes) {
        let sb = self.table.get_mut(&id).expect("sandbox is live");
        let state = sb.state;
        assert!(from.contains(&state), "{id}: {state:?} not in {from:?}");
        sb.transition(to);
        let pools = &mut self.fns[sb.func.0];
        (sb, pools)
    }

    /// A new sandbox — `new(its id)` — enters `Spawning`.
    pub fn spawn(&mut self, new: impl FnOnce(SandboxId) -> Sandbox) -> SandboxId {
        let id = SandboxId(self.next_id);
        self.next_id += 1;
        let sb = new(id);
        assert_eq!((sb.id, sb.state), (id, Spawning));
        self.fns[sb.func.0].total += 1;
        self.table.insert(id, sb);
        id
    }

    /// `Spawning → Running`: the cold start finished.
    pub fn start_exec(&mut self, id: SandboxId) {
        self.edge(id, &[Spawning], Running);
    }

    /// `Warm → Running`: takes the function's most recently used idle
    /// warm sandbox, if it has one (a warm start).
    pub fn take_warm(&mut self, func: usize) -> Option<SandboxId> {
        let (_, id) = self.fns[func].idle_warm.0.pop_back()?;
        self.edge(id, &[Warm], Running);
        Some(id)
    }

    /// `Running → Warm` (request served) or `Deduping → Warm` (the dedup
    /// did not stick): idle from `now`. Returns the new timer epoch.
    pub fn go_warm(&mut self, id: SandboxId, now: SimTime) -> u64 {
        let (sb, pools) = self.edge(id, &[Running, Deduping], Warm);
        sb.last_used = now;
        pools.idle_warm.insert((now, id));
        sb.epoch
    }

    /// `Warm → Deduping`: out of the pool, so dispatch cannot reclaim it
    /// while the op runs. Returns the new timer epoch.
    pub fn begin_dedup(&mut self, id: SandboxId) -> u64 {
        let (sb, pools) = self.edge(id, &[Warm], Deduping);
        pools.idle_warm.remove((sb.last_used, id));
        sb.epoch
    }

    /// `Deduping → Dedup`: takes the table, idle from `now`. Returns the
    /// new timer epoch and whether this is the sandbox's first dedup.
    pub fn commit_dedup(
        &mut self,
        id: SandboxId,
        table: DedupPageTable,
        now: SimTime,
    ) -> (u64, bool) {
        let (sb, pools) = self.edge(id, &[Deduping], Dedup);
        sb.dedup_table = Some(table);
        sb.last_used = now;
        pools.dedup_total += 1;
        pools.idle_dedup.insert((now, id));
        (sb.epoch, !std::mem::replace(&mut sb.ever_deduped, true))
    }

    /// `Dedup → Restoring`: a request waits on it; the table stays until
    /// the restore is done.
    pub fn begin_restore(&mut self, id: SandboxId) {
        let (sb, pools) = self.edge(id, &[Dedup], Restoring);
        pools.idle_dedup.remove((sb.last_used, id));
    }

    /// `Restoring → Running`: gives the table back.
    pub fn finish_restore(&mut self, id: SandboxId) -> DedupPageTable {
        let (sb, pools) = self.edge(id, &[Restoring], Running);
        pools.dedup_total -= 1;
        sb.dedup_table
            .take()
            .expect("a restoring sandbox has a table")
    }

    /// Removes a sandbox in any state (purge, or a crash of its node).
    pub fn remove(&mut self, id: SandboxId) -> Option<Sandbox> {
        let sb = self.table.remove(&id)?;
        let pools = &mut self.fns[sb.func.0];
        match sb.state {
            Warm => pools.idle_warm.remove((sb.last_used, id)),
            Dedup => pools.idle_dedup.remove((sb.last_used, id)),
            _ => {}
        }
        pools.total -= 1;
        pools.dedup_total -= u32::from(matches!(sb.state, Dedup | Restoring));
        // The memo dies with its sandbox.
        self.memo_bytes -= sb.last_dedup.as_ref().map_or(0, DedupMemo::host_bytes);
        Some(sb)
    }

    /// Replaces a live sandbox's memo and returns the one it held,
    /// keeping the host-byte gauge behind `medes.dedup.memo_peak_bytes`.
    pub fn swap_memo(&mut self, id: SandboxId, memo: Option<DedupMemo>) -> Option<DedupMemo> {
        let held = memo.as_ref().map_or(0, DedupMemo::host_bytes);
        let old = std::mem::replace(&mut self.footprint_mut(id).last_dedup, memo);
        self.memo_bytes += held;
        self.memo_bytes -= old.as_ref().map_or(0, DedupMemo::host_bytes);
        self.memo_peak_bytes = self.memo_peak_bytes.max(self.memo_bytes);
        old
    }

    /// Asserts the invariants of the module header — the pools and
    /// counts are exactly what the sandboxes' states say — and that the
    /// memo gauge equals what the live sandboxes' memos hold.
    pub fn check(&self) {
        let mut expect: Vec<FnSandboxes> = self.fns.iter().map(|_| Default::default()).collect();
        let mut memo_bytes = 0;
        for sb in self.iter() {
            let of = &mut expect[sb.func.0];
            let holds_table = matches!(sb.state, Dedup | Restoring);
            assert_eq!(sb.dedup_table.is_some(), holds_table, "{}", sb.id);
            of.total += 1;
            of.dedup_total += u32::from(holds_table);
            match sb.state {
                Warm => of.idle_warm.insert((sb.last_used, sb.id)),
                Dedup => of.idle_dedup.insert((sb.last_used, sb.id)),
                _ => {}
            }
            memo_bytes += sb.last_dedup.as_ref().map_or(0, DedupMemo::host_bytes);
        }
        assert_eq!(self.fns, expect, "pools or counts drifted from the states");
        assert_eq!(self.memo_bytes, memo_bytes, "the memo gauge drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FnId, NodeId};
    use medes_hash::sample::PageFingerprint;
    use medes_sim::DetRng;
    use medes_sim::SimDuration;
    use std::collections::{BTreeSet, HashMap};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The deque pool against the ordered set it replaced: inserts at a
    /// non-decreasing `now`, mostly same-instant ties with ids in any
    /// order, warm starts (take the last), and removals from the middle
    /// and the front. Pops and iteration order must agree.
    #[test]
    fn pool_orders_like_an_ordered_set() {
        for seed in 0..256u64 {
            let mut rng = DetRng::new(0x9001_DE9E).fork(seed);
            let (mut pool, mut model) = (Pool::default(), BTreeSet::new());
            let mut now = SimTime::ZERO;
            for step in 0..300 {
                now += SimDuration::from_micros(u64::from(rng.chance(0.2)));
                let keys: Vec<(SimTime, SandboxId)> = model.iter().copied().collect();
                match (rng.below(5), rng.choose(&keys).copied()) {
                    (0 | 1, _) => {
                        let id = SandboxId(rng.below(64));
                        if keys.iter().all(|k| k.1 != id) {
                            pool.insert((now, id));
                            model.insert((now, id));
                        }
                    }
                    (2, _) => assert_eq!(pool.0.pop_back(), model.pop_last(), "seed {seed}"),
                    (3, Some(key)) => {
                        pool.remove(key);
                        model.remove(&key);
                    }
                    (_, Some(_)) => {
                        let front = model.pop_first().unwrap();
                        pool.remove(front);
                    }
                    (_, None) => {}
                }
                assert!(pool.0.iter().eq(&model), "seed {seed} step {step}");
            }
        }
    }

    const FNS: usize = 3;
    /// The id-taking edges and the states each may leave from.
    const EDGES: [(&str, &[SandboxState]); 6] = [
        ("start_exec", &[Spawning]),
        ("go_warm", &[Running, Deduping]),
        ("begin_dedup", &[Warm]),
        ("commit_dedup", &[Deduping]),
        ("begin_restore", &[Dedup]),
        ("finish_restore", &[Restoring]),
    ];

    /// Walks `id` along `edge` and returns the state it must be in after.
    fn walk(life: &mut Lifecycle, edge: &str, id: SandboxId, now: SimTime) -> SandboxState {
        let epoch = life[&id].epoch;
        let to = match edge {
            "start_exec" => (life.start_exec(id), Running).1,
            "go_warm" => (assert_eq!(life.go_warm(id, now), epoch + 1), Warm).1,
            "begin_dedup" => (assert_eq!(life.begin_dedup(id), epoch + 1), Deduping).1,
            "commit_dedup" => {
                let first = !life[&id].ever_deduped;
                let got = life.commit_dedup(id, DedupPageTable::default(), now);
                (assert_eq!(got, (epoch + 1, first)), Dedup).1
            }
            "begin_restore" => (life.begin_restore(id), Restoring).1,
            "finish_restore" => (life.finish_restore(id), Running).1,
            _ => unreachable!(),
        };
        assert!(
            life.current(id, epoch, to).is_none(),
            "a stale epoch is current"
        );
        assert!(life.current(id, epoch + 1, to).is_some());
        to
    }

    /// Random sequences over every mutator: a legal edge does what the
    /// model says, an illegal one is refused (it panics) and changes
    /// nothing, and the invariants hold after every step.
    #[test]
    fn random_edges_keep_pools_counts_and_tables_in_step_with_states() {
        for seed in 0..208u64 {
            let mut rng = DetRng::new(0x11FE_C7C1).fork(seed);
            let mut life = Lifecycle::new(FNS);
            let mut model: HashMap<SandboxId, (usize, SandboxState, SimTime)> = HashMap::new();
            let mut refused = 0;
            for step in 1..150u64 {
                let now = SimTime::from_secs(step);
                let ids: Vec<SandboxId> = life.iter().map(|sb| sb.id).collect();
                let func = rng.below(FNS as u64) as usize;
                match (rng.below(10), rng.choose(&ids).copied()) {
                    (0 | 1, _) => {
                        let new = |id| Sandbox::new(id, FnId(func), NodeId(0), seed, 0, now, 4);
                        let id = life.spawn(new);
                        assert!(model.insert(id, (func, Spawning, now)).is_none());
                    }
                    (2, _) => {
                        // The most recently used warm sandbox, ties by id.
                        let warm = model.iter().filter(|(_, m)| (m.0, m.1) == (func, Warm));
                        let mru = warm.max_by_key(|(id, m)| (m.2, **id)).map(|(id, _)| *id);
                        assert_eq!(life.take_warm(func), mru, "seed {seed} step {step}");
                        if let Some(id) = mru {
                            model.get_mut(&id).unwrap().1 = Running;
                        }
                    }
                    (3, Some(id)) => {
                        let sb = life.remove(id).expect("live");
                        let (func, state, last_used) = model.remove(&id).unwrap();
                        assert_eq!(
                            (sb.func.0, sb.state, sb.last_used),
                            (func, state, last_used)
                        );
                        assert!(life.remove(id).is_none());
                    }
                    (4, Some(id)) => {
                        let memo = rng.chance(0.7).then(|| DedupMemo {
                            fingerprints: vec![PageFingerprint::default(); rng.below(9) as usize],
                            ..DedupMemo::default()
                        });
                        let held = life[&id].last_dedup.as_ref().map(DedupMemo::host_bytes);
                        let old = life.swap_memo(id, memo);
                        assert_eq!(old.as_ref().map(DedupMemo::host_bytes), held);
                    }
                    (_, Some(id)) => {
                        let (edge, from) = *rng.choose(&EDGES).unwrap();
                        let m = model.get_mut(&id).unwrap();
                        if from.contains(&m.1) {
                            m.1 = walk(&mut life, edge, id, now);
                            if m.1 == Warm || m.1 == Dedup {
                                m.2 = now;
                            }
                        } else {
                            let attempt = AssertUnwindSafe(|| walk(&mut life, edge, id, now));
                            assert!(catch_unwind(attempt).is_err(), "{edge} from {:?}", m.1);
                            refused += 1;
                        }
                    }
                    (_, None) => {}
                }
                life.check();
                assert_eq!(life.len(), model.len());
                for (id, &(func, state, last_used)) in &model {
                    let sb = &life[id];
                    assert_eq!(
                        (sb.func.0, sb.state, sb.last_used),
                        (func, state, last_used)
                    );
                }
                for f in 0..FNS {
                    let of = |s: &[SandboxState]| {
                        let in_s = model.values().filter(|m| m.0 == f && s.contains(&m.1));
                        in_s.count()
                    };
                    let any = [Spawning, Running, Warm, Deduping, Dedup, Restoring];
                    assert_eq!(life.total(f) as usize, of(&any));
                    assert_eq!(life.dedup_total(f) as usize, of(&[Dedup, Restoring]));
                    assert_eq!(life.idle_warm(f).count(), of(&[Warm]));
                    assert_eq!(life.idle_dedup(f).count(), of(&[Dedup]));
                }
            }
            assert!(refused > 0, "seed {seed} never tried an illegal edge");
            assert!(life.memo_peak_bytes() >= life.memo_bytes);
        }
    }
}
