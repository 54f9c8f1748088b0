//! Epoch-sliced execution: the kernel seam the fleet executor drives.
//!
//! [`Experiment::run_with_sink`] drains the calendar in one sitting; an
//! [`EpochRun`] exposes the same pop → dispatch → apply-effects loop as
//! a resumable stepper that can be advanced *up to* a time bound and
//! handed back later. One `EpochRun` is one **cell**: a self-contained
//! experiment with its own `SimWorld`, event queue and forked RNG
//! streams — nothing it touches is shared, so a pool of cells can be
//! advanced on worker threads between epoch barriers and the per-cell
//! event sequence is identical however the cells are distributed over
//! threads (the determinism argument in DESIGN.md §16).
//!
//! Between epochs the executor reads cross-cell signals
//! ([`EpochRun::pool_utilization`]) and writes cross-cell effects
//! ([`EpochRun::set_external_pressure`], [`EpochRun::set_service_caps`])
//! — the only channel by which cells interact.

use super::{results, step, world, Experiment, RunResult};
use amoeba_sim::SimTime;
use amoeba_telemetry::TelemetrySink;

/// One experiment as a resumable epoch stepper. Construct with
/// [`EpochRun::new`], advance with [`EpochRun::run_until`] (or drain
/// with [`EpochRun::run_to_completion`]), then fold into a
/// [`RunResult`] with [`EpochRun::finish`].
///
/// Advancing to the horizon in any sequence of `run_until` bounds —
/// including one unbounded drain — dispatches exactly the event
/// sequence of [`Experiment::run_with_sink`], so the telemetry stream
/// is byte-identical to the serial runtime's whatever the epoch length.
pub struct EpochRun {
    exp: Experiment,
    world: world::SimWorld,
    events: u64,
}

// The fleet executor moves cells across scoped worker threads; keep
// the whole world `Send` (this is what forces `Forecaster + Send`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EpochRun>();
};

impl EpochRun {
    /// Build the cell's world (forking its RNG streams from the
    /// experiment's own seed) and emit the run-started telemetry.
    pub fn new<S: TelemetrySink + ?Sized>(exp: Experiment, sink: &mut S) -> Self {
        let world = world::setup(&exp, sink);
        EpochRun {
            exp,
            world,
            events: 0,
        }
    }

    /// The time of the next pending event, `None` once drained.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.world.queue.peek_time()
    }

    /// Dispatch every event strictly before `until`. Events at exactly
    /// `until` stay queued for the next epoch, so slicing the horizon
    /// into epochs never reorders events across the boundary.
    pub fn run_until<S: TelemetrySink + ?Sized>(&mut self, until: SimTime, sink: &mut S) {
        while matches!(self.world.queue.peek_time(), Some(t) if t < until) {
            step(&self.exp, &mut self.world, sink);
            self.events += 1;
        }
    }

    /// Drain the calendar completely (the final epoch).
    pub fn run_to_completion<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        while step(&self.exp, &mut self.world, sink) {
            self.events += 1;
        }
    }

    /// Events dispatched so far (telemetry for `ShardSpan` accounting).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// This cell's serverless pool occupancy per resource — the signal
    /// the epoch exchange aggregates across cells.
    pub fn pool_utilization(&self) -> [f64; 3] {
        self.world.nodes[0].serverless.utilization()
    }

    /// Inject cross-cell pool pressure for the next epoch: added to the
    /// locally measured pressures at every decision until overwritten.
    /// All-zero restores the self-contained signal.
    pub fn set_external_pressure(&mut self, pressure: [f64; 3]) {
        self.world.external_pressure = pressure;
    }

    /// Fleet-level reclamation: clamp (or restore, with `None`) every
    /// managed service's container cap on this cell's pool.
    pub fn set_service_caps(&mut self, cap: Option<u32>) {
        let w = &mut self.world;
        for s in &w.services {
            w.nodes[0].serverless.set_tenant_cap(s.sid, cap);
        }
    }

    /// Fold the drained world into the run's results.
    pub fn finish(self) -> RunResult {
        results::finish(&self.exp, self.world)
    }
}
