//! The switch protocol's effect-side handlers (§V-B): prewarm and VM
//! boot acknowledgements flip the router through the engine, and the
//! drained ack (or its watchdog) reclaims the old side.

use super::fabric::route_effects;
use super::SimWorld;
use crate::controller::DeployMode;
use crate::engine::EngineAction;
use amoeba_platform::{ServiceId, TargetMode};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    FaultKind, FaultRecord, SwitchPhase, SwitchRecord, TelemetryEvent, TelemetrySink,
};

/// How long the runtime waits for the old IaaS side's `IaasDrained`
/// ack after a switch completes before forcibly reclaiming the group.
/// The §V shutdown step must terminate even if completions are lost.
pub(crate) const DRAIN_TIMEOUT_S: f64 = 60.0;

/// Carry one batch of engine actions to the platforms of each
/// action's target node, arming the drain watchdog for every IaaS
/// release: if the group's `IaasDrained` ack never arrives, the first
/// control tick past the deadline reclaims it forcibly. This is the
/// *only* path from an engine decision to platform state.
pub(crate) fn apply_engine_actions(world: &mut SimWorld, actions: Vec<EngineAction>, now: SimTime) {
    let SimWorld {
        nodes,
        platform_rng,
        queue,
        bus,
        drain_deadline,
        ..
    } = world;
    for action in actions {
        let (node, eff) = match action {
            EngineAction::Prepare {
                service,
                target,
                count,
            } => {
                let rt = &mut nodes[target.node.index()];
                let eff = match target.mode {
                    TargetMode::Serverless => {
                        rt.serverless.prewarm(service, count, now, platform_rng)
                    }
                    TargetMode::Iaas => rt.iaas.activate(service, now),
                };
                (target.node, eff)
            }
            EngineAction::Release { service, target } => {
                let rt = &mut nodes[target.node.index()];
                let eff = match target.mode {
                    TargetMode::Serverless => {
                        rt.serverless.release_service(service);
                        Vec::new()
                    }
                    TargetMode::Iaas => {
                        if let Some(dl) = drain_deadline.get_mut(service.raw() as usize) {
                            *dl = Some(now + SimDuration::from_secs_f64(DRAIN_TIMEOUT_S));
                        }
                        rt.iaas.release(service, now)
                    }
                };
                (target.node, eff)
            }
        };
        route_effects(node, eff, now, queue, bus);
    }
}

/// The serverless side acked a prewarm: unless chaos eats the ack on
/// the wire, the engine completes the switch-down and the old IaaS
/// side is released (watchdogged).
pub(crate) fn on_prewarm_ready<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        chaos,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        // Chaos can lose the ack on the wire; the
        // engine's deadline retry recovers it.
        if let Some(ch) = chaos.as_mut() {
            if engine.in_transition(service) && ch.injector.drop_prewarm_ack() {
                if sink.enabled() {
                    sink.record(TelemetryEvent::Fault(FaultRecord {
                        t: now,
                        kind: FaultKind::AckDropped,
                        service: Some(idx),
                        queries_displaced: 0,
                        queries_dropped: 0,
                    }));
                }
                return;
            }
        }
        let load = controller.estimated_load(idx, now);
        let actions = engine.on_ready(service, DeployMode::Serverless, load, now, sink);
        apply_engine_actions(world, actions, now);
    }
}

/// The IaaS side acked its VM group boot: the engine completes the
/// switch-up and releases the serverless pool.
pub(crate) fn on_vm_group_ready<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        let load = controller.estimated_load(idx, now);
        let actions = engine.on_ready(service, DeployMode::Iaas, load, now, sink);
        apply_engine_actions(world, actions, now);
    }
}

/// The old IaaS side has finished its in-flight queries: the span's
/// terminal step. Disarms the drain watchdog.
pub(crate) fn on_iaas_drained<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        drain_deadline,
        ..
    } = world;
    // Resolve the service index once; everything below is in bounds by
    // construction (meters and other unmanaged ids fall out here).
    let idx = service.raw() as usize;
    if idx >= services.len() {
        return;
    }
    drain_deadline[idx] = None;
    if sink.enabled() {
        sink.record(TelemetryEvent::Switch(SwitchRecord {
            t: now,
            service: idx,
            from: DeployMode::Iaas.into(),
            to: DeployMode::Serverless.into(),
            phase: SwitchPhase::Drained,
            prewarm_count: 0,
            load_qps: controller.estimated_load(idx, now),
        }));
    }
}
