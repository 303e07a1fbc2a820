//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the clock and the pending-event queue and drives a
//! user-supplied [`Handler`]. The handler receives each event together with
//! a [`Scheduler`] through which it can enqueue further events — the classic
//! DES pattern. The engine guarantees:
//!
//! * the clock never moves backwards (scheduling in the past panics in debug
//!   builds and clamps to "now" in release builds);
//! * events at equal times fire in scheduling order (see
//!   [`crate::events::EventQueue`]);
//! * a presorted stream handed to [`Engine::run_stream`] fires exactly as
//!   if it had been scheduled, in order, when the run began: at equal
//!   times, events scheduled before the run fire first, then the stream's
//!   events in stream order, then events the handler schedules during the
//!   run;
//! * the run stops at the configured horizon, after a configured event
//!   budget, or when the handler requests an early stop — whichever comes
//!   first. A stream is read at most one event ahead of the run, so what
//!   lies past the stopping point is never touched.
//!
//! The epidemic simulation in `dtn-epidemic` drives one `Engine` per
//! replication, with the contact trace as the stream; replications are
//! independent and are fanned out across threads by [`crate::parallel`].

use crate::events::EventQueue;
use crate::time::SimTime;

/// Outcome of handling one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Flow {
    /// Keep processing events.
    #[default]
    Continue,
    /// Stop the run after this event (e.g. "destination has every bundle").
    Stop,
}

/// Why an [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    Exhausted,
    /// The next event lay beyond the horizon.
    Horizon,
    /// The handler returned [`Flow::Stop`].
    Handler,
    /// The event budget was consumed (runaway-model guard).
    Budget,
}

/// Scheduling interface handed to the handler while an event is being
/// processed.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// model bug: debug builds panic, release builds clamp to `now` so the
    /// event still fires (dropping it would silently change the model).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.queue.schedule(at, event);
    }

    /// Schedule `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }
}

/// An event consumer. Implemented by the protocol simulation; also
/// implemented for plain closures `FnMut(SimTime, E, &mut Scheduler<E>) -> Flow`.
pub trait Handler<E> {
    /// Process one event fired at `time`; schedule follow-ups through `sched`.
    fn handle(&mut self, time: SimTime, event: E, sched: &mut Scheduler<'_, E>) -> Flow;
}

impl<E, F> Handler<E> for F
where
    F: FnMut(SimTime, E, &mut Scheduler<'_, E>) -> Flow,
{
    fn handle(&mut self, time: SimTime, event: E, sched: &mut Scheduler<'_, E>) -> Flow {
        self(time, event, sched)
    }
}

/// A single-replication discrete-event engine.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: SimTime,
    /// Hard cap on processed events; guards against accidentally divergent
    /// models (e.g. a protocol that reschedules itself at `now` forever).
    event_budget: u64,
    events_processed: u64,
}

impl<E> Engine<E> {
    /// Engine that runs until `horizon` (inclusive: an event exactly at the
    /// horizon still fires).
    pub fn new(horizon: SimTime) -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon,
            event_budget: u64::MAX,
            events_processed: 0,
        }
    }

    /// Pre-reserve queue capacity (e.g. the number of pre-run events).
    pub fn with_capacity(horizon: SimTime, capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            ..Engine::new(horizon)
        }
    }

    /// Replace the default (unlimited) event budget.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// The current simulation time (the timestamp of the last fired event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of still-pending queued events (a stream's unread events
    /// are not counted).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an initial event before the run starts (or between partial
    /// runs).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "initial event in the past");
        self.queue.schedule(at.max(self.now), event);
    }

    /// Drive the simulation to completion, dispatching every event to
    /// `handler`.
    pub fn run<H: Handler<E>>(&mut self, handler: &mut H) -> StopReason {
        self.run_stream(std::iter::empty(), handler)
    }

    /// [`Engine::run`] with a second event source: `stream`, sorted by
    /// time, is merged into the queue's order as if every one of its
    /// events had been scheduled, in order, when this call began. So at
    /// equal times the events queued before the call fire first, then the
    /// stream's, then those the handler schedules. The stream is read
    /// lazily, at most one event ahead of the run. A stream that goes back
    /// in time is a caller bug (debug builds panic).
    pub fn run_stream<I, H>(&mut self, stream: I, handler: &mut H) -> StopReason
    where
        I: IntoIterator<Item = (SimTime, E)>,
        H: Handler<E>,
    {
        let stream_seq = self.queue.reserve_seq();
        let mut stream = stream.into_iter().peekable();
        loop {
            let (next, from_stream) = match (self.queue.peek_key(), stream.peek()) {
                (None, None) => return StopReason::Exhausted,
                (Some((t, _)), None) => (t, false),
                (None, Some(&(t, _))) => (t, true),
                (Some(queued), Some(&(t, _))) => {
                    if (t, stream_seq) < queued {
                        (t, true)
                    } else {
                        (queued.0, false)
                    }
                }
            };
            if next > self.horizon {
                return StopReason::Horizon;
            }
            if self.events_processed >= self.event_budget {
                return StopReason::Budget;
            }
            let (time, event) = if from_stream {
                stream.next()
            } else {
                self.queue.pop()
            }
            .expect("peeked non-empty");
            debug_assert!(time >= self.now, "event order went backwards");
            self.now = time;
            self.events_processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            if handler.handle(time, event, &mut sched) == Flow::Stop {
                return StopReason::Handler;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn runs_events_in_order_and_tracks_clock() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(10), 1u32);
        engine.schedule(t(5), 0u32);
        let mut order = Vec::new();
        let reason = engine.run(&mut |time: SimTime, e: u32, _: &mut Scheduler<'_, u32>| {
            order.push((time, e));
            Flow::Continue
        });
        assert_eq!(reason, StopReason::Exhausted);
        assert_eq!(order, vec![(t(5), 0), (t(10), 1)]);
        assert_eq!(engine.now(), t(10));
        assert_eq!(engine.events_processed(), 2);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut engine = Engine::new(t(1_000));
        engine.schedule(t(0), 0u32);
        let mut fired = Vec::new();
        engine.run(&mut |_t: SimTime, e: u32, sched: &mut Scheduler<'_, u32>| {
            fired.push(e);
            if e < 5 {
                sched.schedule_in(SimDuration::from_secs(10), e + 1);
            }
            Flow::Continue
        });
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(engine.now(), t(50));
    }

    #[test]
    fn horizon_cuts_off_late_events() {
        let mut engine = Engine::new(t(20));
        engine.schedule(t(10), 1u8);
        engine.schedule(t(20), 2u8);
        engine.schedule(t(21), 3u8);
        let mut fired = Vec::new();
        let reason = engine.run(&mut |_t: SimTime, e: u8, _: &mut Scheduler<'_, u8>| {
            fired.push(e);
            Flow::Continue
        });
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(fired, vec![1, 2]);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn handler_stop_ends_run() {
        let mut engine = Engine::new(t(100));
        for i in 0..10 {
            engine.schedule(t(i), i);
        }
        let mut count = 0;
        let reason = engine.run(&mut |_t: SimTime, e: u64, _: &mut Scheduler<'_, u64>| {
            count += 1;
            if e == 3 {
                Flow::Stop
            } else {
                Flow::Continue
            }
        });
        assert_eq!(reason, StopReason::Handler);
        assert_eq!(count, 4);
        assert_eq!(engine.pending(), 6);
    }

    #[test]
    fn stream_ties_rank_between_pre_run_and_run_time_events() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(5), "pre@5");
        engine.schedule(t(0), "pre@0");
        let stream = [(t(0), "stream@0"), (t(5), "stream@5"), (t(5), "stream@5b")];
        let mut fired = Vec::new();
        engine.run_stream(
            stream,
            &mut |_t: SimTime, e: &'static str, sched: &mut Scheduler<'_, &'static str>| {
                fired.push(e);
                if e == "pre@0" {
                    sched.schedule_at(t(5), "run@5");
                }
                Flow::Continue
            },
        );
        assert_eq!(
            fired,
            [
                "pre@0",
                "stream@0",
                "pre@5",
                "stream@5",
                "stream@5b",
                "run@5"
            ]
        );
    }

    #[test]
    fn stream_is_read_at_most_one_event_ahead() {
        let mut engine = Engine::new(t(1_000));
        let mut pulled = 0;
        let stream = (0..1_000).map(|i| {
            pulled += 1;
            (t(i), i)
        });
        let reason = engine.run_stream(
            stream,
            &mut |_t: SimTime, e: u64, _: &mut Scheduler<'_, u64>| {
                if e == 9 {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            },
        );
        assert_eq!(reason, StopReason::Handler);
        assert_eq!(engine.events_processed(), 10);
        assert_eq!(pulled, 10);
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        let mut engine = Engine::new(SimTime::MAX);
        engine.set_event_budget(1_000);
        engine.schedule(t(0), ());
        let reason = engine.run(&mut |_t: SimTime, (): (), sched: &mut Scheduler<'_, ()>| {
            // Malicious model: reschedules itself forever at the same time.
            sched.schedule_in(SimDuration::ZERO, ());
            Flow::Continue
        });
        assert_eq!(reason, StopReason::Budget);
        assert_eq!(engine.events_processed(), 1_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(50), ());
        engine.run(&mut |_t: SimTime, (): (), sched: &mut Scheduler<'_, ()>| {
            sched.schedule_at(t(10), ());
            Flow::Continue
        });
    }
}
