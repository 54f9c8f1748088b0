//! Chaos bookkeeping and fault-domain event handlers: node 0's VM boot
//! completions (which chaos may fail or delay), the timed fault
//! calendar, and injected pressure-spike traffic. The fault model
//! strikes node 0 only.

use super::fabric::{route_effects, submit};
use super::{Ev, Experiment, SimWorld};
use crate::engine::RouteTarget;
use crate::monitor::ContentionMonitor;
use amoeba_chaos::{BootOutcome, FaultInjector, TimedFault};
use amoeba_platform::{ClusterEvent, Effect, NodeId, Query, QueryId, ServiceId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    FaultKind, FaultRecord, RecoveryKind, RecoveryRecord, TelemetryEvent, TelemetrySink,
};
use std::collections::BTreeMap;

/// Mutable chaos bookkeeping for one run, present only when a
/// [`FaultPlan`] is attached. Everything here is driven by the
/// injector's private RNG stream, so attaching a no-op plan leaves the
/// run bit-identical to a plan-free one.
///
/// [`FaultPlan`]: amoeba_chaos::FaultPlan
pub(crate) struct ChaosRt {
    pub(crate) injector: FaultInjector,
    /// Meter heartbeats completing before this time are silently lost.
    pub(crate) meter_outage_until: [SimTime; 3],
    /// Pending one-shot latency corruptions per meter.
    pub(crate) meter_outlier_pending: [u32; 3],
    /// Queries re-queued after a container crash, keyed by
    /// (service, query id) — per-service query ids collide across
    /// services — with the time of the first crash, for recovery-time
    /// accounting.
    pub(crate) crash_requeued: BTreeMap<(u32, u64), SimTime>,
    /// First failed/slow boot per service since the last healthy one.
    pub(crate) boot_fault_since: Vec<Option<SimTime>>,
    /// Id counter for injected spike queries.
    pub(crate) spike_next_id: u64,
}

/// Handle the chaos-owned completions: spike traffic (swallowed
/// whole), meter heartbeats lost in an outage window, and meter
/// samples corrupted by a pending outlier. Returns true when the
/// outcome must not reach the normal accounting path.
pub(crate) fn chaos_completion(
    ch: &mut ChaosRt,
    outcome: &amoeba_platform::QueryOutcome,
    now: SimTime,
    meter_ids: &[ServiceId; 3],
    monitor: &mut ContentionMonitor,
) -> bool {
    if outcome.query.id.is_spike() {
        return true;
    }
    if let Some(m) = meter_ids.iter().position(|&x| x == outcome.query.service) {
        if now < ch.meter_outage_until[m] {
            return true; // heartbeat lost in the blackout
        }
        if ch.meter_outlier_pending[m] > 0 {
            ch.meter_outlier_pending[m] -= 1;
            let factor = ch.injector.plan().outlier_factor;
            monitor.observe_meter_latency(m, outcome.latency().as_secs_f64() * factor);
            return true;
        }
    }
    false
}

/// A VM group boot on node 0 completes — after the chaos boot
/// gauntlet: a boot in flight may fail outright or land late by the
/// plan's slow-boot multiplier (§V resilience). Returns node 0's IaaS
/// response.
pub(crate) fn on_node0_boot<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) -> Vec<Effect> {
    let SimWorld {
        nodes,
        iaas_rng,
        queue,
        chaos,
        horizon_t,
        ..
    } = world;
    let iaas = &mut nodes[0].iaas;
    let ev = ClusterEvent::VmBootDone { service };
    let Some(ch) = chaos.as_mut() else {
        return iaas.handle(ev, now, iaas_rng);
    };
    // Chaos may fail or delay a boot in flight; past the horizon boots
    // always land so the calendar drains.
    let mut fate = if now < *horizon_t && iaas.is_booting(service) {
        ch.injector.vm_boot_outcome()
    } else {
        BootOutcome::Healthy
    };
    let mult = ch.injector.plan().slow_boot_multiplier;
    if fate == BootOutcome::Slow && mult <= 1.0 {
        fate = BootOutcome::Healthy;
    }
    let idx = service.raw() as usize;
    // First failed/slow boot since the last healthy one (managed
    // services only).
    let fault_since = ch.boot_fault_since.get_mut(idx);
    match fate {
        BootOutcome::Fail => {
            if let Some(since) = fault_since {
                since.get_or_insert(now);
            }
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::VmBootFailure,
                    service: Some(idx),
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
            iaas.fail_boot(service, now)
        }
        BootOutcome::Slow => {
            let extra = exp.iaas_cfg.boot_time_s * (mult - 1.0);
            let node = NodeId::ZERO;
            queue.push(
                now + SimDuration::from_secs_f64(extra),
                Ev::Platform { node, event: ev },
            );
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::VmSlowBoot,
                    service: Some(idx),
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
            Vec::new()
        }
        BootOutcome::Healthy => {
            if let Some(since) = fault_since.and_then(Option::take) {
                if sink.enabled() {
                    sink.record(TelemetryEvent::Recovery(RecoveryRecord {
                        t: now,
                        kind: RecoveryKind::VmBootSucceeded,
                        service: Some(idx),
                        after_s: now.duration_since(since).as_secs_f64(),
                    }));
                }
            }
            iaas.handle(ev, now, iaas_rng)
        }
    }
}

/// A scheduled fault fires. Container crashes displace or drop the
/// victim's in-flight query; meter faults poison the monitor's inputs;
/// pressure spikes schedule a burst of synthetic queries.
pub(crate) fn on_chaos<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    fault: TimedFault,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        queue,
        chaos,
        ..
    } = world;
    if let Some(ch) = chaos.as_mut() {
        match fault {
            TimedFault::ContainerCrash => container_crash(world, now, sink),
            TimedFault::MeterOutage => {
                let m = ch.injector.pick(3);
                ch.meter_outage_until[m] =
                    now + SimDuration::from_secs_f64(ch.injector.plan().meter_outage_duration_s);
                if sink.enabled() {
                    sink.record(TelemetryEvent::Fault(FaultRecord {
                        t: now,
                        kind: FaultKind::MeterOutage,
                        service: None,
                        queries_displaced: 0,
                        queries_dropped: 0,
                    }));
                }
            }
            TimedFault::MeterOutlier { meter } => {
                if meter < 3 {
                    ch.meter_outlier_pending[meter] += 1;
                }
                if sink.enabled() {
                    sink.record(TelemetryEvent::Fault(FaultRecord {
                        t: now,
                        kind: FaultKind::MeterOutlier,
                        service: None,
                        queries_displaced: 0,
                        queries_dropped: 0,
                    }));
                }
            }
            TimedFault::PressureSpike if !services.is_empty() => {
                let victim = ch.injector.pick(services.len());
                let sid = services[victim].sid;
                let plan = ch.injector.plan();
                let n = (plan.spike_qps * plan.spike_duration_s).ceil() as u64;
                let qps = plan.spike_qps.max(1e-9);
                for i in 0..n {
                    queue.push(
                        now + SimDuration::from_secs_f64(i as f64 / qps),
                        Ev::SpikeQuery { sid },
                    );
                }
                if sink.enabled() {
                    sink.record(TelemetryEvent::Fault(FaultRecord {
                        t: now,
                        kind: FaultKind::PressureSpike,
                        service: Some(victim),
                        queries_displaced: 0,
                        queries_dropped: 0,
                    }));
                }
            }
            TimedFault::PressureSpike => {}
        }
    }
}

/// A container in node 0's pool crashes (chaos strikes node 0 only).
/// Its in-flight user query is dropped, or re-queued on its current
/// route keeping the original submit time, so the lost work shows up
/// as latency, not as a vanished query.
fn container_crash<S: TelemetrySink + ?Sized>(world: &mut SimWorld, now: SimTime, sink: &mut S) {
    let SimWorld {
        services,
        engine,
        nodes,
        placement,
        platform_rng,
        bus,
        queue,
        chaos,
        workflow,
        warmup_t,
        ..
    } = world;
    let Some(ch) = chaos.as_mut() else {
        return;
    };
    let pool = &mut nodes[0].serverless;
    let total = pool.total_containers() as usize;
    if total == 0 {
        return; // empty pool: the crash is a no-op
    }
    let victim = ch.injector.pick(total);
    let (eff, report) = pool.crash_container(victim, now, platform_rng);
    route_effects(NodeId::ZERO, eff, now, queue, bus);
    let Some(rep) = report else {
        return;
    };
    let idx = rep.service.raw() as usize;
    let managed = idx < services.len();
    // Shadow, meter or spike work: nothing waits on it.
    let user_query = rep.displaced.filter(|q| !q.id.is_shadow());
    let (displaced, dropped) = match user_query {
        None => (0, 0),
        Some(q) if ch.injector.drop_crashed_query() => {
            if managed && q.submitted >= *warmup_t {
                services[idx].failed += 1;
            }
            // A dropped stage query fails its whole workflow instance;
            // sibling branches short-circuit when they complete, so
            // per-stage conservation holds.
            if let Some(wrt) = workflow.as_mut() {
                wrt.on_stage_query_lost(idx, q.id);
            }
            // The per-node conservation books track every user query,
            // warmup included.
            placement.books.nodes[0].failed += 1;
            (0, 1)
        }
        Some(q) => {
            ch.crash_requeued
                .entry((q.service.raw(), q.id.raw()))
                .or_insert(now);
            let target = if managed && !services[idx].background {
                engine.route(q.service)
            } else {
                RouteTarget::Serverless
            };
            // Serverless work goes back into the pool it crashed out
            // of; IaaS work runs where the service's VM group lives,
            // and moves its placement count there with it.
            let node = match target {
                RouteTarget::Serverless => NodeId::ZERO,
                RouteTarget::Iaas => engine.home(q.service),
            };
            if node != NodeId::ZERO {
                let books = &mut placement.books.nodes;
                books[0].submitted -= 1;
                books[node.index()].submitted += 1;
            }
            submit(world, node, q, target, SimDuration::ZERO, now);
            (1, 0)
        }
    };
    if sink.enabled() {
        sink.record(TelemetryEvent::Fault(FaultRecord {
            t: now,
            kind: FaultKind::ContainerCrash,
            service: managed.then_some(idx),
            queries_displaced: displaced,
            queries_dropped: dropped,
        }));
    }
}

/// One query of an injected pressure spike arrives: pure synthetic
/// load on the shared pool, excluded from every account.
///
/// In tenancy mode the spike executes as the dedicated interference
/// service, so it *adds* pool load on top of the ambient signal; the
/// legacy path submits under the victim's own service id, where the
/// tenant container cap makes the spike displace the victim's ambient
/// traffic instead of composing with it (kept bit-identical for the
/// golden traces).
pub(crate) fn on_spike_query(world: &mut SimWorld, sid: ServiceId, now: SimTime) {
    let SimWorld {
        nodes,
        platform_rng,
        bus,
        queue,
        chaos,
        tenancy,
        ..
    } = world;
    if let Some(ch) = chaos.as_mut() {
        let target = tenancy
            .as_ref()
            .and_then(|t| t.interference_sid)
            .unwrap_or(sid);
        let q = Query {
            id: QueryId::spike(ch.spike_next_id),
            service: target,
            submitted: now,
        };
        ch.spike_next_id += 1;
        let eff = nodes[0].serverless.submit(q, now, platform_rng);
        route_effects(NodeId::ZERO, eff, now, queue, bus);
    }
}
