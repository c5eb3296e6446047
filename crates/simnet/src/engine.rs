//! The simulation run loop.
//!
//! A simulation is any type implementing [`Simulation`]: an event type plus
//! a handler. [`run_until`] drains the scheduler in timestamp order until a
//! deadline or until no events remain. The handler receives a mutable
//! reference to the scheduler so it can schedule follow-up events.

use crate::event::Scheduler;
use crate::units::SimTime;

/// A discrete-event simulation: an event alphabet and a handler.
pub trait Simulation {
    /// The event alphabet (typically an enum).
    type Event;

    /// Handle one event at time `now`; schedule any follow-ups on `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Drain events in order until the queue empties or the next event is
/// strictly after `deadline`. Events exactly at the deadline still run.
/// Returns the number of events processed.
///
/// The drain pops same-timestamp runs as one batch (see
/// [`Scheduler::pop_batch_until`] for the order-equivalence argument), so
/// tick-synchronized workloads — 100k flows all rescheduled at the same τ
/// boundary — pay one peek/clock-advance per timestamp instead of one
/// heap rebalance per event. The batch buffer lives in the scheduler and
/// is only borrowed here, so steady-state drains allocate nothing.
#[inline(always)]
pub fn run_until<S: Simulation>(
    sim: &mut S,
    sched: &mut Scheduler<S::Event>,
    deadline: SimTime,
) -> u64 {
    let mut processed = 0;
    let mut batch = sched.take_batch();
    while let Some(now) = sched.pop_batch_until(deadline, &mut batch) {
        processed += batch.len() as u64;
        for ev in batch.drain(..) {
            sim.handle(now, ev, sched);
        }
    }
    sched.put_batch(batch);
    processed
}

/// Drain every pending event (the queue must eventually empty; a simulation
/// that perpetually reschedules itself will loop forever — use
/// [`run_until`] for those).
pub fn run_to_completion<S: Simulation>(sim: &mut S, sched: &mut Scheduler<S::Event>) -> u64 {
    run_until(sim, sched, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy simulation: each `Tick(n)` schedules `Tick(n-1)` one second
    /// later until n reaches zero, recording the times it ran.
    struct Countdown {
        seen: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl Simulation for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            let Ev::Tick(n) = ev;
            self.seen.push((now, n));
            if n > 0 {
                sched.after(1.0, Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn countdown_runs_to_completion() {
        let mut sim = Countdown { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.at(0.0, Ev::Tick(3));
        let n = run_to_completion(&mut sim, &mut sched);
        assert_eq!(n, 4);
        assert_eq!(sim.seen, vec![(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut sim = Countdown { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.at(0.0, Ev::Tick(10));
        run_until(&mut sim, &mut sched, 2.0);
        // Events at t = 0, 1, 2 ran; the t = 3 event is still pending.
        assert_eq!(sim.seen.len(), 3);
        assert_eq!(sched.peek_time(), Some(3.0));
    }

    #[test]
    fn run_until_with_empty_queue_is_zero() {
        let mut sim = Countdown { seen: vec![] };
        let mut sched = Scheduler::new();
        assert_eq!(run_until(&mut sim, &mut sched, 100.0), 0);
    }
}
