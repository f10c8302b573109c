//! A deterministic event queue.
//!
//! Events pop in `(time, seq)` order, where `seq` is a monotonically
//! increasing push counter. The tiebreaker guarantees FIFO ordering among
//! events scheduled for the same instant, which in turn makes
//! whole-simulation runs reproducible regardless of container internals.
//!
//! Two containers hold the pending events. A push whose time is not
//! before the newest entry of the *monotone lane* (a `VecDeque`) is
//! appended there in O(1); every other push goes to a binary min-heap.
//! The lane is sorted by `(time, seq)` by construction — times are
//! non-decreasing along it and `seq` only grows — so the earliest pending
//! event is whichever of the two fronts has the smaller `(time, seq)`,
//! and the pop order is exactly that of a single heap. Simulations arm
//! most of their timers a fixed delay ahead of a clock that only moves
//! forward (keep-alive expiry: one per request, nearly all stale when
//! they fire); those ride the lane, and the heap holds only the events
//! that land in front of them.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
    /// Entries pushed in non-decreasing time order.
    lane: VecDeque<Entry<E>>,
    /// Entries pushed with a time before the lane's newest.
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
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, payload };
        if self.lane.back().is_none_or(|newest| time >= newest.time) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Whether the lane's front is the earliest pending event.
    fn lane_is_next(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
            (l, _) => l.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.lane_is_next() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        entry.map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let entry = if self.lane_is_next() {
            self.lane.front()
        } else {
            self.heap.peek()
        };
        entry.map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
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

    /// The lane + heap pair must be indistinguishable from one container
    /// ordered by `(time, push index)`: random interleavings of `push`,
    /// `pop` and `peek_time` with heavy timestamp ties, monotone runs
    /// (which ride the lane) and out-of-order bursts (which fall into the
    /// heap) pop exactly what a sorted model pops.
    #[test]
    fn lane_and_heap_pop_like_one_sorted_queue() {
        fn model_pop(model: &mut Vec<(SimTime, u64)>) -> Option<(SimTime, u64)> {
            let at = (0..model.len()).min_by_key(|&i| model[i])?;
            Some(model.swap_remove(at))
        }
        // Steps at which both containers held entries, over all seeds.
        let mut straddled = 0u32;
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let mut q = EventQueue::new();
            // Pending `(time, push index)` pairs; the payload is the index.
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let (mut pushes, mut peak, mut clock, mut regime) = (0u64, 0usize, 0u64, 0u64);
            for op in 0..600 {
                if op % 25 == 0 {
                    regime = rng.below(4);
                }
                if rng.below(5) < 3 {
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
                    q.push(SimTime::from_micros(t), pushes);
                    model.push((SimTime::from_micros(t), pushes));
                    pushes += 1;
                    peak = peak.max(model.len());
                } else if rng.chance(0.3) {
                    let expect = model.iter().map(|&(t, _)| t).min();
                    assert_eq!(q.peek_time(), expect, "seed {seed} op {op}");
                } else {
                    assert_eq!(q.pop(), model_pop(&mut model), "seed {seed} op {op}");
                }
                assert_eq!(q.len(), model.len(), "seed {seed} op {op}");
                assert_eq!(q.is_empty(), model.is_empty(), "seed {seed} op {op}");
                straddled += u32::from(!q.lane.is_empty() && !q.heap.is_empty());
            }
            while let Some(expect) = model_pop(&mut model) {
                assert_eq!(q.pop(), Some(expect), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None);
            assert_eq!(q.peak_len(), peak, "seed {seed}");
        }
        assert!(straddled > 256 * 100, "only {straddled} steps used both");
    }
}
