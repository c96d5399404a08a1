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
//!
//! Payloads live in a slab, so scheduling, cancelling and popping index a
//! vector instead of hashing. A slot is reused only once its heap entry has
//! surfaced, and an [`EventId`] carries the slot's sequence number as well
//! as its index, so a stale id can never cancel the slot's next event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A heap entry orders by `(time, seq)`; `slot` is where its payload lives.
#[derive(PartialEq, Eq)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
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

/// One slab slot: the sequence number of the event it last held, and that
/// event's payload until it is delivered or cancelled.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
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
    slots: Vec<Slot<E>>,
    /// Slots whose heap entry has surfaced, ready for reuse.
    free: Vec<u32>,
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
            slots: Vec::new(),
            free: Vec::new(),
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
        let filled = Slot {
            seq,
            payload: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                self.slots.push(filled);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.heap.push(Reverse(HeapEntry {
            time: at,
            seq,
            slot,
        }));
        EventId { seq, slot }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a pending event, returning its payload if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let slot = self
            .slots
            .get_mut(id.slot as usize)
            .filter(|slot| slot.seq == id.seq)?;
        let removed = slot.payload.take();
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
        let payload = self.slots[entry.slot as usize]
            .payload
            .take()
            .expect("skip_dead guarantees a live payload at the heap top");
        self.free.push(entry.slot);
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
        (self.scheduled_total - self.delivered_total - self.cancelled_total) as usize
    }

    /// Lifetime counters: `(scheduled, delivered, cancelled)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.scheduled_total,
            self.delivered_total,
            self.cancelled_total,
        )
    }

    /// Pop cancelled entries off the heap top, freeing their slots. A slot
    /// is never reused before its entry surfaces, so the top entry's slot
    /// still holds that entry's event, or nothing if it was cancelled.
    fn skip_dead(&mut self) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            let slot = &self.slots[entry.slot as usize];
            debug_assert_eq!(slot.seq, entry.seq);
            if slot.payload.is_some() {
                return;
            }
            self.free.push(entry.slot);
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
    fn a_stale_id_cannot_cancel_a_reused_slot() {
        let mut sim: Sim<u8> = Sim::new();
        let delivered = sim.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(sim.pop(), Some((SimTime::from_secs(1), 1)));
        let next = sim.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(
            next.slot, delivered.slot,
            "a delivered event frees its slot"
        );
        assert_eq!(sim.cancel(delivered), None);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop(), Some((SimTime::from_secs(2), 2)));
    }

    #[test]
    fn a_cancelled_slot_is_reused_only_after_its_entry_surfaces() {
        let mut sim: Sim<u8> = Sim::new();
        let cancelled = sim.schedule_at(SimTime::from_secs(5), 1);
        sim.cancel(cancelled);
        let queued = sim.schedule_at(SimTime::from_secs(1), 2);
        assert_ne!(
            queued.slot, cancelled.slot,
            "its heap entry is still queued"
        );
        assert_eq!(sim.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(sim.peek_time(), None, "the cancelled entry surfaces");
        let reused = sim.schedule_at(SimTime::from_secs(6), 3);
        assert_eq!(reused.slot, cancelled.slot);
        assert_eq!(sim.cancel(cancelled), None, "the old id is stale");
        assert_eq!(sim.pop(), Some((SimTime::from_secs(6), 3)));
    }

    /// The slab queue against a model ordered by `(time, seq)`, over a
    /// random mix of schedules, cancels of live and stale ids, and pops.
    #[test]
    fn slab_queue_matches_an_ordered_map_model() {
        use crate::rng::DetRng;
        use rand::Rng;
        use std::collections::BTreeMap;

        let mut rng = DetRng::seed_from(5);
        let mut sim: Sim<u32> = Sim::new();
        let mut model: BTreeMap<(SimTime, u32), u32> = BTreeMap::new();
        let mut issued: Vec<(EventId, (SimTime, u32))> = Vec::new();
        for n in 0..20_000u32 {
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let at = SimTime::from_millis(sim.now().as_millis() + rng.gen_range(0..50u64));
                    let id = sim.schedule_at(at, n);
                    model.insert((at, n), n);
                    issued.push((id, (at, n)));
                }
                4..=5 if !issued.is_empty() => {
                    let (id, key) = issued[rng.gen_range(0..issued.len())];
                    assert_eq!(sim.cancel(id), model.remove(&key));
                }
                _ => {
                    let want = model.pop_first().map(|((at, _), n)| (at, n));
                    assert_eq!(sim.pop(), want);
                }
            }
            assert_eq!(sim.pending(), model.len());
        }
        assert!(
            sim.slots.len() < issued.len() / 4,
            "slots are reused: {} for {} events",
            sim.slots.len(),
            issued.len()
        );
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
