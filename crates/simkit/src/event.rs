//! The future-event list: a cancelable, deterministic priority queue plus the
//! simulation clock.
//!
//! Determinism matters: two events scheduled for the same instant are
//! delivered in scheduling order (FIFO within a timestamp), so a simulation
//! run is a pure function of its seeds.
//!
//! Cancellation is lazy: [`Sim::cancel`] removes the payload immediately, and
//! the heap entry is discarded when it surfaces. This makes cancel `O(1)`
//! (amortised) which the processor-sharing disk model relies on — every flow
//! change cancels and reschedules a completion event.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

#[derive(PartialEq, Eq)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulation clock and pending-event queue.
///
/// `Sim` is intentionally dumb: it knows nothing about what events *mean*.
/// The owner runs the loop — [`Sim::pop`] the next event and handle it —
/// so domain logic lives with the owner (the MapReduce runtime's
/// `MrRuntime::step`).
pub struct Sim<E> {
    now: SimTime,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    payloads: HashMap<u64, E>,
    next_seq: u64,
    scheduled_total: u64,
    delivered_total: u64,
    cancelled_total: u64,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Sim<E> {
    /// An empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            payloads: HashMap::new(),
            next_seq: 0,
            scheduled_total: 0,
            delivered_total: 0,
            cancelled_total: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — delivering events before `now` would
    /// break causality and always indicates a bug in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Reverse(HeapEntry { time: at, seq }));
        self.payloads.insert(seq, event);
        EventId(seq)
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a pending event, returning its payload if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let removed = self.payloads.remove(&id.0);
        if removed.is_some() {
            self.cancelled_total += 1;
        }
        removed
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_dead();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Remove and return the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_dead();
        let Reverse(entry) = self.heap.pop()?;
        let payload = self
            .payloads
            .remove(&entry.seq)
            .expect("skip_dead guarantees a live payload at the heap top");
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.delivered_total += 1;
        Some((entry.time, payload))
    }

    /// Move the clock forward without delivering events (used when a run
    /// stops at a time limit). No-op if `to` is not in the future.
    pub fn advance_to(&mut self, to: SimTime) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Number of live (not cancelled, not delivered) events.
    pub fn pending(&self) -> usize {
        self.payloads.len()
    }

    /// Lifetime counters: `(scheduled, delivered, cancelled)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.scheduled_total,
            self.delivered_total,
            self.cancelled_total,
        )
    }

    fn skip_dead(&mut self) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.payloads.contains_key(&entry.seq) {
                return;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order_fifo_within_timestamp() {
        let mut sim: Sim<&str> = Sim::new();
        sim.schedule_at(SimTime::from_secs(2), "b1");
        sim.schedule_at(SimTime::from_secs(1), "a");
        sim.schedule_at(SimTime::from_secs(2), "b2");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b1", "b2"]);
    }

    #[test]
    fn pop_advances_clock() {
        let mut sim: Sim<u8> = Sim::new();
        sim.schedule_at(SimTime::from_secs(3), 1);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn cancel_prevents_delivery_and_returns_payload() {
        let mut sim: Sim<u8> = Sim::new();
        let keep = sim.schedule_at(SimTime::from_secs(1), 1);
        let drop = sim.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(sim.cancel(drop), Some(2));
        assert_eq!(sim.cancel(drop), None, "double cancel is a no-op");
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(sim.pop(), None);
        let _ = keep;
    }

    #[test]
    fn cancelled_head_is_skipped_by_peek() {
        let mut sim: Sim<u8> = Sim::new();
        let head = sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(5), 2);
        sim.cancel(head);
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<u8> = Sim::new();
        sim.schedule_at(SimTime::from_secs(5), 1);
        sim.pop();
        sim.schedule_at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut sim: Sim<u8> = Sim::new();
        let a = sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.cancel(a);
        sim.pop();
        assert_eq!(sim.counters(), (2, 1, 1));
    }
}
