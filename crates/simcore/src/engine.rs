//! The simulation driver loop.
//!
//! An [`Engine`] owns an [`EventQueue`] and a user-supplied *world*. The
//! world receives events one at a time, in deterministic `(time, seq)`
//! order, together with a [`Scheduler`] handle through which it schedules
//! follow-up events. The engine never runs time backwards: scheduling an
//! event before the current instant is a bug and panics in debug builds
//! (it is clamped to `now` in release builds so long sweeps fail soft).

use crate::queue::EventQueue;
use crate::time::Time;

/// Handle given to the world for scheduling new events.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: Time,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` at absolute time `at` (must be `>= now`).
    pub fn at(&mut self, at: Time, payload: E) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at.max(self.now), payload);
    }

    /// Schedules `payload` after a relative delay.
    pub fn after(&mut self, delay: Time, payload: E) {
        self.queue.schedule(self.now + delay, payload);
    }
}

/// A simulated world: owns all model state and reacts to events.
pub trait World {
    /// Event payload type delivered to [`World::handle`].
    type Event;

    /// Handles one event at virtual time `sched.now()`.
    fn handle(&mut self, sched: &mut Scheduler<'_, Self::Event>, event: Self::Event);
}

/// The simulation engine: event queue + clock + world driver.
pub struct Engine<W: World> {
    queue: EventQueue<W::Event>,
    now: Time,
    handled: u64,
}

impl<W: World> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Engine<W> {
    /// Creates an engine at virtual time 0 with an empty queue.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: 0,
            handled: 0,
        }
    }

    /// Current virtual time (time of the most recently handled event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events handled so far.
    pub fn handled(&self) -> u64 {
        self.handled
    }

    /// Total events ever scheduled on the queue (seeded + in-world).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.total_scheduled()
    }

    /// Schedules an initial event from outside the world.
    pub fn seed(&mut self, at: Time, payload: W::Event) {
        debug_assert!(at >= self.now);
        self.queue.schedule(at, payload);
    }

    /// Delivers the next event to `world`. Returns `false` when the queue
    /// is empty (the simulation is quiescent).
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some((time, payload)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.handled += 1;
        let mut sched = Scheduler {
            queue: &mut self.queue,
            now: time,
        };
        world.handle(&mut sched, payload);
        true
    }

    /// Runs until the queue is empty; returns the final virtual time.
    ///
    /// `max_events` is a runaway guard: a protocol bug that schedules
    /// events forever produces a panic with a diagnostic rather than a
    /// silent hang.
    pub fn run_to_quiescence(&mut self, world: &mut W, max_events: u64) -> Time {
        let (now, exhausted) = self.run_bounded(world, max_events);
        if exhausted {
            panic!(
                "simulation exceeded {max_events} events at t={now} — \
                 likely a protocol livelock"
            );
        }
        now
    }

    /// Like [`Engine::run_to_quiescence`], but hands the budget decision
    /// back to the embedder: returns `(final_time, exhausted)` where
    /// `exhausted` is true when `max_events` were delivered with the
    /// queue still non-empty. A fault-injecting embedder treats an
    /// exhausted budget as a watchdog trip (typed error on the
    /// unfinished work) rather than a panic.
    pub fn run_bounded(&mut self, world: &mut W, max_events: u64) -> (Time, bool) {
        while self.step(world) {
            if self.handled > max_events {
                return (self.now, true);
            }
        }
        (self.now, false)
    }

    /// Resets the engine to virtual time 0 with an empty queue,
    /// retaining the queue's internal capacity. A reset engine is
    /// indistinguishable from a fresh one, so embedders that run many
    /// short simulations (parameter sweeps) can recycle one engine
    /// instead of re-growing the event arena per run.
    pub fn reset(&mut self) {
        self.queue.reset();
        self.now = 0;
        self.handled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: event `n` schedules event `n-1` after
    /// 10 ns, until 0.
    struct Countdown {
        seen: Vec<(Time, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, sched: &mut Scheduler<'_, u32>, ev: u32) {
            self.seen.push((sched.now(), ev));
            if ev > 0 {
                sched.after(10, ev - 1);
            }
        }
    }

    #[test]
    fn countdown_runs_to_quiescence() {
        let mut eng = Engine::new();
        let mut w = Countdown { seen: vec![] };
        eng.seed(5, 3);
        let end = eng.run_to_quiescence(&mut w, 1_000);
        assert_eq!(end, 35);
        assert_eq!(w.seen, vec![(5, 3), (15, 2), (25, 1), (35, 0)]);
        assert!(eng.queue.is_empty());
        assert_eq!(eng.handled(), 4);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut eng = Engine::new();
            let mut w = Countdown { seen: vec![] };
            eng.seed(0, 10);
            eng.seed(3, 2);
            eng.run_to_quiescence(&mut w, 1_000);
            w.seen
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn runaway_guard_trips() {
        struct Forever;
        impl World for Forever {
            type Event = ();
            fn handle(&mut self, sched: &mut Scheduler<'_, ()>, _: ()) {
                sched.after(1, ());
            }
        }
        let mut eng = Engine::new();
        eng.seed(0, ());
        eng.run_to_quiescence(&mut Forever, 100);
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut eng: Engine<Countdown> = Engine::new();
        let mut w = Countdown { seen: vec![] };
        assert!(!eng.step(&mut w));
        assert_eq!(eng.now(), 0);
    }
}
