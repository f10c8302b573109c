//! The simulation driver loop.
//!
//! A [`World`] owns all mutable simulation state and reacts to events; the
//! [`Simulation`] owns the clock and the event queue and repeatedly hands
//! the earliest event to the world. Handlers schedule follow-up events
//! through the [`Scheduler`] they are given, which keeps borrowing simple
//! (the world never holds a reference to the queue).
//!
//! Events are handled in `(time, seq)` order, `seq` being the order in
//! which they were scheduled, or in which the [`Ticket`] they were later
//! scheduled under was taken. A run can also be fed from a time-sorted
//! *source* ([`Simulation::run_with`]): its events are handled as if all
//! of them had been scheduled before anything else, without ever sitting
//! in the queue — so the queue holds what is in flight, not the input.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A place in the event order, from [`Scheduler::ticket`]; each is a
/// different place, so it also names the one event scheduled under it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(u64);

/// Handle through which event handlers schedule future events.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    /// The `seq` the next ticket takes.
    next_seq: u64,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant (clamped to now if past).
    pub fn at(&mut self, time: SimTime, event: E) {
        let ticket = self.ticket();
        self.at_ticket(time.max(self.now), ticket, event);
    }

    /// Takes the place in the event order an event scheduled now would
    /// get, without scheduling one.
    pub fn ticket(&mut self) -> Ticket {
        let ticket = Ticket(self.next_seq);
        self.next_seq += 1;
        ticket
    }

    /// Schedules `event` at `time` as if when `ticket` was taken. Redeem a
    /// ticket once, before the event order has passed `(time, ticket)`.
    pub fn at_ticket(&mut self, time: SimTime, ticket: Ticket, event: E) {
        debug_assert!(time >= self.now, "a ticket redeemed in the past");
        self.queue.push_at_seq(time, ticket.0, event);
    }
}

/// A simulation world: owns state, reacts to events.
pub trait World {
    /// The event payload type.
    type Event;

    /// Handles one event at its scheduled time. Follow-up events are
    /// scheduled via `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The event loop: a clock plus an event queue over `W::Event`.
///
/// # Examples
///
/// ```
/// use medes_sim::{Simulation, World, SimDuration, SimTime};
/// use medes_sim::engine::Scheduler;
///
/// struct Counter { fired: u32 }
/// impl World for Counter {
///     type Event = u32;
///     fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
///         self.fired += 1;
///         if ev < 3 {
///             sched.after(SimDuration::from_millis(10), ev + 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: 0 });
/// sim.schedule(SimTime::ZERO, 0);
/// sim.run();
/// assert_eq!(sim.world().fired, 4);
/// assert_eq!(sim.now(), SimTime::from_millis(30));
/// ```
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    processed: u64,
    /// The clock and the queue, lent to every handler.
    sched: Scheduler<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at t = 0 with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            processed: 0,
            sched: Scheduler {
                now: SimTime::ZERO,
                next_seq: 0,
                queue: EventQueue::new(),
            },
        }
    }

    /// Schedules an initial event.
    pub fn schedule(&mut self, time: SimTime, event: W::Event) {
        self.sched.at(time, event);
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The largest number of events that were pending in the queue at
    /// once. Events still in a [`run_with`](Self::run_with) source are
    /// not pending.
    pub fn peak_queue_depth(&self) -> usize {
        self.sched.queue.peak_len()
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((time, event)) = self.sched.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now(), "event queue went backwards");
        self.deliver(time, event);
        true
    }

    fn deliver(&mut self, time: SimTime, event: W::Event) {
        self.processed += 1;
        self.sched.now = time;
        self.world.handle(event, &mut self.sched);
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.run_with(std::iter::empty());
    }

    /// Runs until both `source` and the event queue drain.
    ///
    /// `source` yields `(time, event)` pairs in non-decreasing time
    /// order. Each step handles the source's next event if its time is
    /// at or before the queue's earliest, and pops the queue otherwise:
    /// the source wins ties. That is the order in which the events
    /// would be handled had every source event been
    /// [`schedule`](Self::schedule)d, in source order, before anything
    /// else was — they would hold the lowest `seq`s — but the queue
    /// never holds them.
    pub fn run_with(&mut self, source: impl IntoIterator<Item = (SimTime, W::Event)>) {
        let mut source = source.into_iter().peekable();
        while let Some(&(time, _)) = source.peek() {
            let queued = self.sched.queue.peek_time();
            if queued.is_some_and(|queued| queued < time) {
                self.step();
            } else {
                debug_assert!(time >= self.now(), "event source must be sorted by time");
                let (time, event) = source.next().expect("peeked");
                self.deliver(time, event);
            }
        }
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
        Chain(u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tick(n) => self.seen.push((sched.now(), n)),
                Ev::Chain(n) => {
                    self.seen.push((sched.now(), n));
                    if n > 0 {
                        sched.after(SimDuration::from_micros(100), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_processed_in_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule(SimTime::from_micros(50), Ev::Tick(2));
        sim.schedule(SimTime::from_micros(10), Ev::Tick(1));
        sim.run();
        let ids: Vec<u32> = sim.world().seen.iter().map(|&(_, n)| n).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule(SimTime::ZERO, Ev::Chain(3));
        sim.run();
        assert_eq!(sim.world().seen.len(), 4);
        assert_eq!(sim.now(), SimTime::from_micros(300));
    }

    #[test]
    fn immediate_events_run_after_same_instant_fifo() {
        struct W2 {
            order: Vec<&'static str>,
        }
        impl World for W2 {
            type Event = &'static str;
            fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<&'static str>) {
                self.order.push(ev);
                if ev == "first" {
                    sched.at(sched.now(), "injected");
                }
            }
        }
        let mut sim = Simulation::new(W2 { order: vec![] });
        sim.schedule(SimTime::ZERO, "first");
        sim.schedule(SimTime::ZERO, "second");
        sim.run();
        assert_eq!(sim.world().order, vec!["first", "second", "injected"]);
    }

    /// A ticket taken while handling "first" and redeemed while handling
    /// "second" fires where an event scheduled at ticket time would:
    /// after "second" (scheduled before the ticket was taken) and before
    /// "later" (scheduled after it), at the same instant.
    #[test]
    fn a_ticket_redeemed_later_fires_in_its_place() {
        struct W4 {
            order: Vec<&'static str>,
            held: Option<Ticket>,
        }
        impl World for W4 {
            type Event = &'static str;
            fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<&'static str>) {
                self.order.push(ev);
                let at = SimTime::from_micros(10);
                match ev {
                    "first" => {
                        self.held = Some(sched.ticket());
                        sched.at(at, "later");
                    }
                    "second" => sched.at_ticket(at, self.held.take().unwrap(), "ticketed"),
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(W4 {
            order: vec![],
            held: None,
        });
        sim.schedule(SimTime::ZERO, "first");
        sim.schedule(SimTime::from_micros(10), "second");
        sim.run();
        assert_eq!(sim.world().order, ["first", "second", "ticketed", "later"]);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        struct W3 {
            times: Vec<SimTime>,
        }
        impl World for W3 {
            type Event = bool;
            fn handle(&mut self, first: bool, sched: &mut Scheduler<bool>) {
                self.times.push(sched.now());
                if first {
                    sched.at(SimTime::ZERO, false); // in the past
                }
            }
        }
        let mut sim = Simulation::new(W3 { times: vec![] });
        sim.schedule(SimTime::from_micros(42), true);
        sim.run();
        assert_eq!(
            sim.world().times,
            vec![SimTime::from_micros(42), SimTime::from_micros(42)]
        );
    }

    /// Records what it handles; an event of depth < 2 schedules follow-ups
    /// a few microseconds out, so they tie with later source events.
    struct Spawner {
        seen: Vec<(SimTime, u64, u8)>,
    }

    impl World for Spawner {
        type Event = (u64, u8);
        fn handle(&mut self, (id, depth): (u64, u8), sched: &mut Scheduler<(u64, u8)>) {
            self.seen.push((sched.now(), id, depth));
            if depth < 2 {
                sched.after(SimDuration::from_micros(id % 4), (id * 7 + 1, depth + 1));
                if id % 3 == 0 {
                    sched.at(sched.now(), (id * 7 + 2, depth + 1));
                }
                if id % 5 == 0 {
                    sched.after(SimDuration::from_micros(30), (id * 7 + 3, depth + 1));
                }
            }
        }
    }

    /// `run_with(source)` handles exactly the `(time, event)` sequence
    /// that scheduling the whole source first and calling `run()` does —
    /// with source events tying with each other, with events scheduled
    /// beforehand, and with follow-ups scheduled by handlers.
    #[test]
    fn run_with_matches_scheduling_the_source_up_front() {
        for seed in 0..64 {
            let mut rng = DetRng::new(seed);
            let mut t = 0;
            let source: Vec<(SimTime, (u64, u8))> = (0..200u64)
                .map(|id| {
                    t += rng.below(3);
                    (SimTime::from_micros(t), (id, 0))
                })
                .collect();
            let preset: Vec<(SimTime, (u64, u8))> = (1000..1040u64)
                .map(|id| (SimTime::from_micros(rng.below(t + 10)), (id, 0)))
                .collect();

            let mut preloaded = Simulation::new(Spawner { seen: vec![] });
            let mut streamed = Simulation::new(Spawner { seen: vec![] });
            for &(t, e) in &source {
                preloaded.schedule(t, e);
            }
            for &(t, e) in &preset {
                preloaded.schedule(t, e);
                streamed.schedule(t, e);
            }
            preloaded.run();
            streamed.run_with(source.iter().copied());

            assert_eq!(streamed.world().seen, preloaded.world().seen, "seed {seed}");
            assert_eq!(streamed.processed(), preloaded.processed());
            assert_eq!(streamed.now(), preloaded.now());
            let tied = |a: &[(SimTime, (u64, u8))], b: &[(SimTime, (u64, u8))]| {
                a.iter().any(|x| b.iter().any(|y| x.0 == y.0 && x.1 != y.1))
            };
            assert!(tied(&source, &source) && tied(&source, &preset));
            let follow_up_tied = streamed
                .world()
                .seen
                .iter()
                .any(|&(t, _, depth)| depth > 0 && source.iter().any(|&(at, _)| at == t));
            assert!(follow_up_tied);
            assert!(preloaded.peak_queue_depth() >= source.len() + preset.len());
            assert!(streamed.peak_queue_depth() < source.len());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event source must be sorted by time")]
    fn run_with_rejects_a_source_that_goes_backwards() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let at = |us, n| (SimTime::from_micros(us), Ev::Tick(n));
        sim.run_with([at(10, 1), at(5, 2)]);
    }
}
