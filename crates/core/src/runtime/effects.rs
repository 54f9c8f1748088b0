//! The effect bus: the one channel by which platforms answer the
//! kernel.
//!
//! Platform calls never mutate run state directly — they return
//! [`Effect`]s, which accumulate on the [`EffectBus`] and are applied
//! by [`apply`] after each dispatched calendar event. Applying an
//! effect can produce further effects (an ack triggers engine actions,
//! which command platforms, which respond); [`apply`] therefore drains
//! in batches until the bus is idle.

use super::{completions, switching, Ev, Experiment, SimWorld};
use amoeba_platform::{Effect, NodeId};
use amoeba_sim::SimTime;
use amoeba_telemetry::TelemetrySink;

/// Pending platform effects, in emission order. Batch draining
/// preserves the original inline-worklist semantics: everything
/// emitted while applying batch *n* is deferred to batch *n + 1*.
pub(crate) struct EffectBus {
    pending: Vec<Effect>,
}

impl EffectBus {
    pub(crate) fn new() -> Self {
        EffectBus {
            pending: Vec::new(),
        }
    }

    /// Queue every effect of one platform response.
    pub(crate) fn extend(&mut self, effects: impl IntoIterator<Item = Effect>) {
        self.pending.extend(effects);
    }

    /// Is there nothing left to apply?
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Take the current batch, leaving the bus empty for re-emission.
    pub(crate) fn take_batch(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.pending)
    }
}

/// Apply every pending effect (and everything their application emits)
/// at simulation time `now`. Scheduling effects land back on the
/// calendar; completions and switch-protocol acks go to their handler
/// modules.
pub(crate) fn apply<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    while !world.bus.is_idle() {
        let batch = world.bus.take_batch();
        for e in batch {
            match e {
                // Only node 0's schedules reach the bus: other nodes
                // put theirs straight on the calendar (the ordering
                // contract, `fabric::route_effects`).
                Effect::Schedule { after, event } => {
                    let node = NodeId::ZERO;
                    world.queue.push(now + after, Ev::Platform { node, event });
                }
                Effect::Completed(outcome) => {
                    completions::on_completed(exp, world, outcome, now, sink);
                }
                Effect::PrewarmReady { service } => {
                    switching::on_prewarm_ready(world, service, now, sink);
                }
                Effect::VmGroupReady { service } => {
                    switching::on_vm_group_ready(world, service, now, sink);
                }
                Effect::IaasDrained { service } => {
                    switching::on_iaas_drained(world, service, now, sink);
                }
            }
        }
    }
}
