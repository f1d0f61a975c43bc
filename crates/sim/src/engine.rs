//! The discrete-event engine: a time-ordered event queue and a run loop.
//!
//! The engine is generic over the event payload type `E`, so each simulator in
//! the workspace (flow-level, packet-level, control plane) defines its own
//! event enum and a [`World`] that reacts to it.
//!
//! Ties at the same instant are broken by scheduling order (FIFO), which makes
//! runs fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, Time};

/// The behaviour driven by the engine: a state machine that receives events.
pub trait World<E> {
    /// Handle `event` occurring at instant `now`. New events may be scheduled
    /// on `engine`; they must not be scheduled in the past.
    fn handle(&mut self, engine: &mut Engine<E>, now: Time, event: E);
}

/// Blanket impl so closures `FnMut(&mut Engine<E>, Time, E)` are worlds too.
impl<E, F: FnMut(&mut Engine<E>, Time, E)> World<E> for F {
    fn handle(&mut self, engine: &mut Engine<E>, now: Time, event: E) {
        self(engine, now, event)
    }
}

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert ordering to pop the earliest event first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

/// A discrete-event simulation engine.
///
/// Holds the pending-event queue and the virtual clock. See the crate-level
/// example for typical use.
pub struct Engine<E> {
    queue: BinaryHeap<Entry<E>>,
    now: Time,
    seq: u64,
    processed: u64,
    horizon: Time,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at [`Time::ZERO`] and no horizon.
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            processed: 0,
            horizon: Time::MAX,
        }
    }

    /// Stop delivering events scheduled strictly after `horizon`.
    ///
    /// Events beyond the horizon stay in the queue (so statistics about
    /// unfinished work remain available) but [`run`](Engine::run) returns once
    /// the next event would exceed it, with the clock advanced to the horizon.
    pub fn set_horizon(&mut self, horizon: Time) {
        self.horizon = horizon;
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current instant — scheduling into the past
    /// is always a simulation bug.
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    /// Schedule `event` to occur `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Remove and return the earliest pending event, advancing the clock.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon (in which case the clock advances to the horizon).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match self.queue.peek() {
            None => None,
            Some(head) if head.at > self.horizon => {
                self.now = self.horizon;
                None
            }
            Some(_) => {
                // lint:allow(unwrap) — peek() just returned Some on this queue
                let entry = self.queue.pop().expect("peeked entry vanished");
                // Time monotonicity: the queue must never yield an event
                // earlier than the current instant. A hard assert under
                // `strict-invariants`, a debug assert otherwise.
                #[cfg(feature = "strict-invariants")]
                assert!(entry.at >= self.now, "queue yielded a past event");
                #[cfg(not(feature = "strict-invariants"))]
                debug_assert!(entry.at >= self.now, "queue yielded a past event");
                self.now = entry.at;
                self.processed += 1;
                Some((entry.at, entry.event))
            }
        }
    }

    /// Run `world` until the queue drains or the horizon is reached.
    pub fn run(&mut self, world: &mut impl World<E>) {
        while let Some((at, event)) = self.pop() {
            world.handle(self, at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A(u32),
        Stop,
    }

    #[test]
    fn delivers_in_time_order() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(3), Ev::A(3));
        engine.schedule(Time::from_secs(1), Ev::A(1));
        engine.schedule(Time::from_secs(2), Ev::A(2));
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, now: Time, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push((now.as_nanos() / 1_000_000_000, n));
            }
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut engine: Engine<Ev> = Engine::new();
        for n in 0..100 {
            engine.schedule(Time::from_secs(1), Ev::A(n));
        }
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, _now, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(1), Ev::A(1));
        engine.schedule(Time::from_secs(10), Ev::A(10));
        engine.set_horizon(Time::from_secs(5));
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, _now, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, vec![1]);
        assert_eq!(engine.now(), Time::from_secs(5));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.set_horizon(Time::from_secs(5));
        engine.schedule(Time::from_secs(5), Ev::A(5));
        let mut seen = 0;
        engine.run(&mut |_: &mut Engine<Ev>, _now, _ev: Ev| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn handler_can_reschedule() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::ZERO, Ev::A(5));
        let mut count = 0;
        engine.run(&mut |e: &mut Engine<Ev>, _now, ev: Ev| match ev {
            Ev::A(0) => e.schedule_in(Duration::from_secs(1), Ev::Stop),
            Ev::A(n) => {
                count += 1;
                e.schedule_in(Duration::from_secs(1), Ev::A(n - 1));
            }
            Ev::Stop => {}
        });
        assert_eq!(count, 5);
        assert_eq!(engine.now(), Time::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(2), Ev::Stop);
        engine.run(&mut |e: &mut Engine<Ev>, _now, _ev: Ev| {
            e.schedule(Time::from_secs(1), Ev::Stop);
        });
    }
}
