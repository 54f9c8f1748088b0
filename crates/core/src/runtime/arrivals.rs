//! Arrival handling: one user query enters the system.

use super::fabric::submit;
use super::{Ev, SimWorld};
use crate::engine::RouteTarget;
use amoeba_platform::{Query, QueryId};
use amoeba_sim::SimTime;
use amoeba_telemetry::{PlacementRecord, TelemetryEvent, TelemetrySink};
use amoeba_workload::ArrivalProcess;

/// A real query of service `idx` arrives from outside: admit it and
/// re-arm the service's next arrival.
pub(crate) fn on_arrival<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    idx: usize,
    now: SimTime,
    sink: &mut S,
) {
    let seq = world.services[idx].next_query_id;
    world.services[idx].next_query_id += 1;
    // Workflow root stages tag the query with their stage index and
    // open the instance record; a plain service's untagged id is
    // bit-identical to a stage-0 tag.
    let counted = now >= world.warmup_t;
    let id = match world
        .workflow
        .as_mut()
        .and_then(|w| w.open_root(idx, seq, now, counted))
    {
        Some(stage) => QueryId::user_stage(seq, stage),
        None => QueryId::user(seq),
    };
    admit(world, idx, id, now, sink);
    let SimWorld {
        services, queue, ..
    } = world;
    let svc = &mut services[idx];
    if !svc.exhausted {
        if let Some(t) = svc.arrivals.next_after(now) {
            queue.push(t, Ev::Arrival { idx });
        } else {
            svc.exhausted = true;
        }
    }
}

/// A user query of service `idx` enters the system — an external
/// arrival or a workflow stage hand-off; both pay the same placement,
/// spill and wire-delay rules. Record it with the controller's load
/// estimator, route it via the engine (background services are pinned
/// serverless), place it on a node and submit it there.
pub(crate) fn admit<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    idx: usize,
    id: QueryId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        nodes,
        placement,
        warmup_t,
        ..
    } = world;
    let svc = &mut services[idx];
    controller.record_arrival(idx, now);
    if now >= *warmup_t {
        svc.submitted += 1;
    }
    let query = Query {
        id,
        service: svc.sid,
        submitted: now,
    };
    let target = if svc.background {
        RouteTarget::Serverless
    } else {
        engine.route(svc.sid)
    };
    let (node, spill) = placement.place(engine.home(svc.sid), target, nodes);
    if sink.enabled() && nodes.len() > 1 {
        sink.record(TelemetryEvent::Placement(PlacementRecord {
            t: now,
            service: idx,
            node: node.index(),
            spill,
        }));
    }
    let delay = placement.wire_delay(spill);
    submit(world, node, query, target, delay, now);
}
