//! A deterministic event queue.
//!
//! Events pop in `(time, seq)` order, where `seq` is a monotonically
//! increasing push counter. The tiebreaker guarantees FIFO ordering among
//! events scheduled for the same instant, which in turn makes
//! whole-simulation runs reproducible regardless of container internals.
//! The engine numbers its own pushes, and may push under an old `seq`.
//! The pending events are one binary min-heap on `(time, seq)`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue over user-defined payloads.
///
/// # Examples
///
/// ```
/// use medes_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(5), "later");
/// q.push(SimTime::from_millis(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    peak_len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first ordering.
        other.key().cmp(&self.key())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_at_seq(time, seq, payload);
    }

    /// [`push`](Self::push), tie-broken by a `seq` no pending entry has.
    pub(crate) fn push_at_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        self.heap.push(Entry { time, seq, payload });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest [`len`](Self::len) the queue has reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_micros(7), "c");
        q.push(SimTime::from_micros(20), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    /// The heap must be indistinguishable from one container ordered by
    /// `(time, push index)`: random interleavings of `push`, `pop` and
    /// `peek_time` with heavy timestamp ties, monotone runs and
    /// out-of-order bursts pop exactly what a sorted model pops. Some
    /// pushes take a ticket instead — the next `seq`, as
    /// `Scheduler::ticket` does — and are pushed under it later
    /// (`push_at_seq`), at random or at the latest when they are next to
    /// pop: each pops exactly where the model, which holds it from ticket
    /// time, pops it.
    #[test]
    fn heap_pops_like_one_sorted_queue() {
        fn model_pop(model: &mut Vec<(SimTime, u64)>) -> Option<(SimTime, u64)> {
            let at = (0..model.len()).min_by_key(|&i| model[i])?;
            Some(model.swap_remove(at))
        }
        fn redeem(q: &mut EventQueue<u64>, held: &mut Vec<(SimTime, u64)>, at: usize) {
            let (t, seq) = held.swap_remove(at);
            q.push_at_seq(t, seq, seq);
        }
        // Tickets redeemed behind a later push, over all seeds.
        let mut late = 0u32;
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let mut q = EventQueue::new();
            // Pending `(time, push index)` pairs; the payload is the index.
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            // Tickets not yet redeemed: in the model, not in the queue.
            let mut held: Vec<(SimTime, u64)> = Vec::new();
            let (mut pushes, mut peak, mut clock, mut regime) = (0u64, 0usize, 0u64, 0u64);
            for op in 0..600 {
                if op % 25 == 0 {
                    regime = rng.below(4);
                }
                let what = rng.below(10);
                if what < 6 {
                    let t = match regime {
                        // Monotone run, steps of 0–2: mostly ties.
                        0 => {
                            clock += rng.below(3);
                            clock
                        }
                        // A fixed delay ahead of the clock, like a timer.
                        1 => {
                            clock += rng.below(2);
                            clock + 40
                        }
                        // Out-of-order burst around the clock.
                        2 => (clock + rng.below(60)).saturating_sub(20),
                        // Anywhere, on a coarse grid: ties across regimes.
                        _ => 10 * rng.below(12),
                    };
                    let key = (SimTime::from_micros(t), pushes);
                    if rng.chance(0.2) {
                        q.seq += 1;
                        held.push(key);
                    } else {
                        q.push(key.0, pushes);
                    }
                    model.push(key);
                    pushes += 1;
                } else if what == 6 {
                    if !held.is_empty() {
                        let at = rng.below(held.len() as u64) as usize;
                        late += u32::from(held[at].1 + 1 < pushes);
                        redeem(&mut q, &mut held, at);
                    }
                } else {
                    // A ticket is redeemed before its place comes up.
                    while let Some(at) = model
                        .iter()
                        .min()
                        .and_then(|min| held.iter().position(|h| h == min))
                    {
                        redeem(&mut q, &mut held, at);
                        peak = peak.max(model.len() - held.len());
                    }
                    if what == 7 {
                        let expect = model.iter().map(|&(t, _)| t).min();
                        assert_eq!(q.peek_time(), expect, "seed {seed} op {op}");
                    } else {
                        assert_eq!(q.pop(), model_pop(&mut model), "seed {seed} op {op}");
                    }
                }
                peak = peak.max(model.len() - held.len());
                assert_eq!(q.len(), model.len() - held.len(), "seed {seed} op {op}");
                assert_eq!(
                    q.is_empty(),
                    model.len() == held.len(),
                    "seed {seed} op {op}"
                );
            }
            for (t, seq) in held.drain(..) {
                q.push_at_seq(t, seq, seq);
            }
            peak = peak.max(model.len());
            while let Some(expect) = model_pop(&mut model) {
                assert_eq!(q.pop(), Some(expect), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None);
            assert_eq!(q.peak_len(), peak, "seed {seed}");
        }
        assert!(late > 256 * 10, "only {late} tickets redeemed late");
    }
}
