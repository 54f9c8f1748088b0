//! The standalone platform driver.
//!
//! The platforms are passive: they return [`Effect`]s and never own a
//! calendar. Inside an experiment the runtime kernel drives them; a
//! harness that runs platforms on their own — the offline profiler
//! (§IV-B step 1), a placement ablation, a unit test — uses a
//! [`Driver`]. It owns one [`EventQueue`], merges it with a time-sorted
//! arrival stream and feeds each due input to one caller closure that
//! owns the platforms and calls `submit`/`handle`.
//!
//! # Ordering contract
//!
//! * An event due at or before the next arrival runs first (`et <= at`),
//!   so a completion at `t` frees its container before a query arriving
//!   at `t` is placed.
//! * Events due at the same instant run in push order (the calendar's
//!   FIFO tie-break).
//! * One step's effects are applied in the order they were emitted:
//!   each [`Effect::Schedule`] lands at `now + after`, and every other
//!   effect goes to the caller's effect closure with `now`.
//!
//! Events are queued as `(K, ClusterEvent)`: a caller driving one
//! platform uses `K = ()`, one driving several uses a node index.

use crate::cluster::{ClusterEvent, Effect};
use amoeba_sim::{EventQueue, SimTime};

/// One input the driver hands to the step closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<A, K> {
    /// The next arrival from the caller's stream.
    Arrival(A),
    /// A platform event that fell due, with the key it was queued under.
    Event(K, ClusterEvent),
}

/// Drives passive platforms outside the runtime kernel: one calendar,
/// one arrival stream, one step closure and one effect closure.
pub struct Driver<K, F> {
    queue: EventQueue<(K, ClusterEvent)>,
    on_effect: F,
}

impl<K: Copy, F: FnMut(SimTime, Effect)> Driver<K, F> {
    /// An empty calendar; every non-schedule effect goes to `on_effect`
    /// together with the time it was emitted.
    pub fn new(on_effect: F) -> Self {
        Driver {
            queue: EventQueue::new(),
            on_effect,
        }
    }

    /// Apply effects emitted at `now` in order: schedules go on the
    /// calendar at `now + after` under `key`, everything else to the
    /// effect closure. Use it for effects produced before [`Driver::run`]
    /// (an initial prewarm, say).
    pub fn apply(&mut self, now: SimTime, key: K, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Schedule { after, event } => {
                    self.queue.push(now + after, (key, event));
                }
                other => (self.on_effect)(now, other),
            }
        }
    }

    /// Run until the arrivals are exhausted and the calendar is empty.
    ///
    /// `arrivals` must be sorted by time. `step` receives each due input
    /// with its time and returns the key and effects of its response;
    /// it declines an event by returning no effects.
    pub fn run<A>(
        mut self,
        arrivals: impl IntoIterator<Item = (SimTime, A)>,
        mut step: impl FnMut(SimTime, Step<A, K>) -> (K, Vec<Effect>),
    ) {
        let mut arrivals = arrivals.into_iter().peekable();
        let mut last_arrival = SimTime::ZERO;
        loop {
            let take_event = match (self.queue.peek_time(), arrivals.peek()) {
                (None, None) => return,
                (Some(et), Some(&(at, _))) => et <= at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            let (now, input) = if take_event {
                let fired = self.queue.pop().expect("peeked event");
                let (key, event) = fired.payload;
                (fired.time, Step::Event(key, event))
            } else {
                let (at, arrival) = arrivals.next().expect("peeked arrival");
                debug_assert!(at >= last_arrival, "arrivals out of order");
                last_arrival = at;
                (at, Step::Arrival(arrival))
            };
            let (key, effects) = step(now, input);
            self.apply(now, key, effects);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServiceId;
    use amoeba_sim::SimDuration;

    /// A token event; the service id is its label.
    fn token(label: u32) -> ClusterEvent {
        ClusterEvent::VmBootDone {
            service: ServiceId(label),
        }
    }

    fn schedule(after_s: u64, label: u32) -> Effect {
        Effect::Schedule {
            after: SimDuration::from_secs(after_s),
            event: token(label),
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Every input the step closure saw, as `(time, label)`: arrivals
    /// keep their own label, events report their token's.
    fn trace(initial: Vec<Effect>, arrivals: Vec<(SimTime, u32)>) -> Vec<(SimTime, u32)> {
        let mut seen = Vec::new();
        let mut driver = Driver::new(|_, _| {});
        driver.apply(SimTime::ZERO, (), initial);
        driver.run(arrivals, |now, step| {
            let label = match step {
                Step::Arrival(label) => label,
                Step::Event((), ClusterEvent::VmBootDone { service }) => service.raw(),
                Step::Event((), other) => panic!("unexpected {other:?}"),
            };
            seen.push((now, label));
            ((), Vec::new())
        });
        seen
    }

    #[test]
    fn an_event_due_at_an_arrival_runs_first() {
        let initial = vec![schedule(1, 10), schedule(3, 11)];
        let seen = trace(initial, vec![(t(1), 20), (t(2), 21)]);
        assert_eq!(seen, [(t(1), 10), (t(1), 20), (t(2), 21), (t(3), 11)]);
    }

    #[test]
    fn equal_time_events_run_in_push_order() {
        let initial = vec![
            schedule(3, 5),
            schedule(3, 1),
            schedule(3, 4),
            schedule(3, 2),
        ];
        let seen = trace(initial, Vec::new());
        let labels: Vec<u32> = seen.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, [5, 1, 4, 2]);
        assert!(seen.iter().all(|&(at, _)| at == t(3)));
    }

    #[test]
    fn a_steps_schedules_land_at_now_plus_after_in_emission_order() {
        let mut seen = Vec::new();
        let mut others = Vec::new();
        let driver = Driver::new(|now, effect| others.push((now, effect)));
        driver.run([(t(2), ())], |now, step| {
            seen.push((now, step));
            match step {
                Step::Arrival(()) => (
                    7u8,
                    vec![
                        schedule(3, 1),
                        Effect::VmGroupReady {
                            service: ServiceId(9),
                        },
                        schedule(1, 2),
                        schedule(3, 3),
                    ],
                ),
                Step::Event(key, _) => (key, Vec::new()),
            }
        });
        assert_eq!(
            seen,
            [
                (t(2), Step::Arrival(())),
                (t(3), Step::Event(7, token(2))),
                (t(5), Step::Event(7, token(1))),
                (t(5), Step::Event(7, token(3))),
            ]
        );
        assert_eq!(
            others,
            [(
                t(2),
                Effect::VmGroupReady {
                    service: ServiceId(9)
                }
            )]
        );
    }
}
