//! The discrete-event queue.
//!
//! A min-heap of `(time, sequence, event)` entries. Ties in time are broken
//! by insertion order, which — together with the absence of any OS entropy
//! in the crate — makes every simulation run bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::SimTime;

/// A scheduled entry: ordering key is `(time, seq)`.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN times are rejected at insertion, so total_cmp never sees one
        // that would reorder legitimate entries.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The event scheduler: a deterministic time-ordered queue of events of
/// type `E`.
///
/// # Examples
///
/// ```
/// use scda_simnet::Scheduler;
/// let mut s = Scheduler::new();
/// s.at(2.0, "later");
/// s.at(1.0, "sooner");
/// assert_eq!(s.pop(), Some((1.0, "sooner")));
/// assert_eq!(s.now(), 1.0);
/// ```
///
/// `E` is chosen by the simulation that owns the scheduler (an enum of
/// everything that can happen: flow arrivals, transport rounds, SCDA control
/// ticks, measurement samples, ...). The scheduler itself knows nothing
/// about event semantics.
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    /// Reusable same-timestamp batch buffer, loaned to the engine drain
    /// via [`Scheduler::take_batch`] so steady-state drains allocate
    /// nothing.
    batch: Vec<E>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler positioned at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            batch: Vec::new(),
        }
    }

    /// An empty scheduler whose heap can hold `n` pending events without
    /// reallocating (hyperscale runs with 100k+ self-rescheduling flows
    /// pre-size once instead of doubling through large sift-down copies).
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::new();
        s.reserve(n);
        s
    }

    /// Grow the heap's capacity for `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (0 before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN or earlier than the current time — scheduling
    /// into the past is always a logic error in the caller.
    pub fn at(&mut self, t: SimTime, event: E) {
        assert!(!t.is_nan(), "cannot schedule an event at NaN time");
        assert!(
            t >= self.now,
            "cannot schedule into the past: t={t} < now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        // Reuses capacity released by pops: the heap grows only while the
        // pending-event high-water mark rises.
        self.heap.push(Reverse(Entry {
            time: t,
            seq,
            event,
        }));
    }

    /// Schedule `event` `dt` seconds from now (`dt >= 0`).
    pub fn after(&mut self, dt: SimTime, event: E) {
        let now = self.now;
        self.at(now + dt, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop *every* event sharing the earliest pending timestamp into
    /// `out` (cleared first, filled in insertion order), provided that
    /// timestamp is `<= deadline`; the clock advances to it once.
    /// Returns the batch timestamp, or `None` when nothing is due.
    ///
    /// Events scheduled *during* batch handling at the same timestamp
    /// carry higher sequence numbers than everything already queued, so
    /// draining batch-by-batch dispatches in exactly the same global
    /// order as popping one event at a time.
    pub fn pop_batch_until(&mut self, deadline: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let t = self.peek_time()?;
        if t > deadline {
            return None;
        }
        out.clear();
        self.now = t;
        while let Some(Reverse(e)) = self.heap.peek() {
            // Exact comparison is right here: entries are heap-ordered by
            // total_cmp and NaN is rejected at insertion, so equal-time
            // entries are adjacent — approximate matching would merge
            // distinct timestamps.
            #[expect(
                clippy::float_cmp,
                reason = "an exact same-timestamp batch: equal-time entries are adjacent in the heap"
            )]
            if e.time != t {
                break;
            }
            let Reverse(e) = self
                .heap
                .pop()
                .expect("invariant: peeked entry must still be in the heap");
            out.push(e.event);
        }
        Some(t)
    }

    /// Detach the scheduler's reusable batch buffer. The engine drain
    /// takes it, feeds it to [`Scheduler::pop_batch_until`] while
    /// handlers mutate the scheduler, and hands it back with
    /// [`Scheduler::put_batch`] so its capacity is kept across drains.
    pub fn take_batch(&mut self) -> Vec<E> {
        std::mem::take(&mut self.batch)
    }

    /// Return a buffer taken with [`Scheduler::take_batch`].
    pub fn put_batch(&mut self, buf: Vec<E>) {
        self.batch = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.at(3.0, "c");
        s.at(1.0, "a");
        s.at(2.0, "b");
        assert_eq!(s.pop(), Some((1.0, "a")));
        assert_eq!(s.pop(), Some((2.0, "b")));
        assert_eq!(s.pop(), Some((3.0, "c")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        s.at(1.0, 1u32);
        s.at(1.0, 2);
        s.at(1.0, 3);
        assert_eq!(s.pop().unwrap().1, 1);
        assert_eq!(s.pop().unwrap().1, 2);
        assert_eq!(s.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s = Scheduler::new();
        assert_eq!(s.now(), 0.0);
        s.at(5.0, ());
        s.pop();
        assert_eq!(s.now(), 5.0);
    }

    #[test]
    fn after_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.at(2.0, "first");
        s.pop();
        s.after(3.0, "second");
        assert_eq!(s.pop(), Some((5.0, "second")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = Scheduler::new();
        s.at(5.0, ());
        s.pop();
        s.at(1.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn scheduling_nan_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.at(f64::NAN, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut s = Scheduler::new();
        s.at(4.0, ());
        assert_eq!(s.peek_time(), Some(4.0));
        assert_eq!(s.now(), 0.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn len_and_empty() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_empty());
        s.at(1.0, 0);
        s.at(2.0, 1);
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn pop_batch_groups_timestamp_ties_in_seq_order() {
        let mut s = Scheduler::with_capacity(8);
        s.at(2.0, "x");
        s.at(1.0, "a");
        s.at(1.0, "b");
        s.at(1.0, "c");
        let mut out = Vec::new();
        assert_eq!(s.pop_batch_until(f64::INFINITY, &mut out), Some(1.0));
        assert_eq!(out, vec!["a", "b", "c"], "insertion order within the tie");
        assert_eq!(s.now(), 1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_batch_until(f64::INFINITY, &mut out), Some(2.0));
        assert_eq!(out, vec!["x"], "buffer is cleared between batches");
        assert_eq!(s.pop_batch_until(f64::INFINITY, &mut out), None);
    }

    #[test]
    fn pop_batch_respects_deadline() {
        let mut s = Scheduler::new();
        s.at(5.0, ());
        let mut out = Vec::new();
        assert_eq!(s.pop_batch_until(4.0, &mut out), None);
        assert_eq!(s.len(), 1, "past-deadline events stay queued");
        assert_eq!(s.now(), 0.0, "clock does not move on a refused batch");
        assert_eq!(s.pop_batch_until(5.0, &mut out), Some(5.0));
    }

    #[test]
    fn batch_buffer_keeps_capacity_across_loans() {
        let mut s = Scheduler::new();
        for i in 0..64 {
            s.at(1.0, i);
        }
        let mut buf = s.take_batch();
        s.pop_batch_until(f64::INFINITY, &mut buf);
        assert_eq!(buf.len(), 64);
        let cap = buf.capacity();
        s.put_batch(buf);
        let buf = s.take_batch();
        assert_eq!(buf.capacity(), cap, "capacity survives the round-trip");
    }

    #[test]
    fn many_events_sorted() {
        // Insert times in a scrambled but deterministic order and verify the
        // pop sequence is globally sorted.
        let mut s = Scheduler::new();
        let times: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        for (i, &t) in times.iter().enumerate() {
            s.at(t, i);
        }
        let mut prev = -1.0;
        while let Some((t, _)) = s.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }
}
