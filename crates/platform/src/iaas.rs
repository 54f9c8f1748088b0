//! The IaaS platform: per-service dedicated VM groups.
//!
//! "Adopting IaaS-based deployment, each microservice is packed into a
//! virtual machine image. Once the VM is started, it occupies the rented
//! resources during its lifetime" (§II-B). Each registered service gets a
//! VM group sized *just-enough* to hold its QoS at peak load (the paper's
//! cost-minimising maintainer), computed from the M/M/N model. Queries
//! are served one per core with no cross-service contention — the defining
//! property (and cost) of dedicated infrastructure.

use crate::cluster::{ClusterEvent, Effect};
use crate::config::IaasConfig;
use crate::ids::ServiceId;
use crate::query::{ExecutedOn, LatencyBreakdown, Query, QueryOutcome};
use crate::slab::{QuerySlab, QueryTicket};
use amoeba_queueing::{MmnModel, QosCheck};
use amoeba_sim::{Distributions, SimDuration, SimRng, SimTime};
use amoeba_workload::MicroserviceSpec;
use std::collections::VecDeque;

/// Minimum total cores (M/M/N servers) needed to satisfy the spec's QoS
/// at its peak load, per the same queueing model the controller uses.
/// The service time includes the small IaaS overhead; `headroom`
/// multiplies the peak arrival rate (jitter safety).
pub fn required_cores(spec: &MicroserviceSpec, cfg: &IaasConfig) -> u32 {
    let service_s = spec
        .demand
        .solo_exec_seconds(cfg.per_flow_io_mbps, cfg.per_flow_net_mbps)
        + cfg.overhead_s;
    let mu = 1.0 / service_s;
    let lambda = spec.peak_qps * cfg.sizing_headroom;
    // Lower bound: enough capacity for stability.
    let mut n = (lambda * service_s).ceil() as u32 + 1;
    loop {
        let m = MmnModel::new(n, mu).expect("valid model");
        if m.qos_check(lambda, spec.qos_target_s, spec.qos_percentile) == QosCheck::Satisfied {
            return n;
        }
        n += 1;
        assert!(n < 100_000, "sizing diverged for {}", spec.name);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupState {
    /// No VMs allocated.
    Inactive,
    /// VMs booting; queries queue until ready.
    Booting,
    /// Serving.
    Active,
}

#[derive(Debug, Clone)]
struct RunningQuery {
    query: Query,
    started: SimTime,
    exec_s: f64,
}

struct VmGroup {
    spec: MicroserviceSpec,
    vm_count: u32,
    state: GroupState,
    draining: bool,
    busy: u32,
    queue: VecDeque<Query>,
    /// In-flight queries, slab-indexed: the scheduled `IaasExecDone`
    /// carries the ticket, so completion is an O(1) slot probe with
    /// stale events rejected by the generation check.
    running: QuerySlab<RunningQuery>,
}

impl VmGroup {
    fn total_cores(&self, cfg: &IaasConfig) -> u32 {
        self.vm_count * cfg.cores_per_vm
    }
}

/// The IaaS platform: one VM group per registered service.
pub struct IaasPlatform {
    cfg: IaasConfig,
    groups: Vec<VmGroup>,
    completed: u64,
}

impl IaasPlatform {
    /// A platform with no services.
    pub fn new(cfg: IaasConfig) -> Self {
        IaasPlatform {
            cfg,
            groups: Vec::new(),
            completed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IaasConfig {
        &self.cfg
    }

    /// Register a service, sizing its VM group for peak load. The group
    /// starts inactive; call [`Self::activate`] to boot
    /// it. Service ids are sequential — register services in the same
    /// order on both platforms.
    pub fn register(&mut self, spec: MicroserviceSpec) -> ServiceId {
        assert!(spec.is_valid(), "invalid spec for {}", spec.name);
        let cores = required_cores(&spec, &self.cfg);
        let vm_count = cores.div_ceil(self.cfg.cores_per_vm);
        let id = ServiceId(self.groups.len() as u32);
        self.groups.push(VmGroup {
            spec,
            vm_count,
            state: GroupState::Inactive,
            draining: false,
            busy: 0,
            queue: VecDeque::new(),
            running: QuerySlab::new(),
        });
        id
    }

    /// The registered spec.
    pub fn spec(&self, service: ServiceId) -> &MicroserviceSpec {
        &self.groups[service.raw() as usize].spec
    }

    /// VMs in the service's group.
    pub fn vm_count(&self, service: ServiceId) -> u32 {
        self.groups[service.raw() as usize].vm_count
    }

    /// Is the group serving?
    pub fn is_active(&self, service: ServiceId) -> bool {
        self.groups[service.raw() as usize].state == GroupState::Active
    }

    /// Is the group mid-boot (activated, not yet ready)?
    pub fn is_booting(&self, service: ServiceId) -> bool {
        self.groups[service.raw() as usize].state == GroupState::Booting
    }

    /// Currently allocated (cores, memory MB); zero when inactive.
    /// Booting and draining groups still hold their resources.
    pub fn allocation(&self, service: ServiceId) -> (f64, f64) {
        let g = &self.groups[service.raw() as usize];
        match g.state {
            GroupState::Inactive => (0.0, 0.0),
            _ => (
                g.total_cores(&self.cfg) as f64,
                g.vm_count as f64 * self.cfg.vm_memory_mb,
            ),
        }
    }

    /// Cores busy executing queries right now.
    pub fn busy_cores(&self, service: ServiceId) -> f64 {
        self.groups[service.raw() as usize].busy as f64
    }

    /// Queries waiting for a core.
    pub fn queue_len(&self, service: ServiceId) -> usize {
        self.groups[service.raw() as usize].queue.len()
    }

    /// In-flight queries.
    pub fn in_flight(&self, service: ServiceId) -> usize {
        self.groups[service.raw() as usize].running.len()
    }

    /// Completed-query counter.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Boot the group. Emits [`Effect::VmGroupReady`] after the boot
    /// delay — immediately when already active. Reactivating a draining
    /// group just clears the drain flag.
    pub fn activate(&mut self, service: ServiceId, _now: SimTime) -> Vec<Effect> {
        let g = &mut self.groups[service.raw() as usize];
        g.draining = false;
        match g.state {
            GroupState::Active => vec![Effect::VmGroupReady { service }],
            GroupState::Booting => Vec::new(), // ack already in flight
            GroupState::Inactive => {
                g.state = GroupState::Booting;
                vec![Effect::Schedule {
                    after: SimDuration::from_secs_f64(self.cfg.boot_time_s),
                    event: ClusterEvent::VmBootDone { service },
                }]
            }
        }
    }

    /// Begin draining: no new queries should be routed here (the engine
    /// enforces that); in-flight and queued ones finish, then the group
    /// releases its VMs and emits [`Effect::IaasDrained`].
    pub fn release(&mut self, service: ServiceId, _now: SimTime) -> Vec<Effect> {
        let g = &mut self.groups[service.raw() as usize];
        if g.state == GroupState::Inactive {
            return Vec::new();
        }
        g.draining = true;
        if g.running.is_empty() && g.queue.is_empty() {
            g.state = GroupState::Inactive;
            g.draining = false;
            return vec![Effect::IaasDrained { service }];
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos layer's levers)
    // ------------------------------------------------------------------

    /// A boot attempt failed: the group stays `Booting` and pays the
    /// full boot time again. The caller consumes the original
    /// `VmBootDone` event (it must *not* be forwarded to
    /// [`Self::handle`]) and schedules the replacement returned here.
    /// No-op for groups that are not booting.
    pub fn fail_boot(&mut self, service: ServiceId, _now: SimTime) -> Vec<Effect> {
        let g = &self.groups[service.raw() as usize];
        if g.state != GroupState::Booting {
            return Vec::new();
        }
        vec![Effect::Schedule {
            after: SimDuration::from_secs_f64(self.cfg.boot_time_s),
            event: ClusterEvent::VmBootDone { service },
        }]
    }

    /// Forcibly terminate the group *now*, cancelling queued and
    /// in-flight queries instead of waiting for them — the engine's
    /// drain-deadline hammer for a drain that overran. Returns the
    /// displaced queries (queued first, then running, in deterministic
    /// order) for the caller to re-route; pending `IaasExecDone` events
    /// for cancelled queries become stale no-ops.
    pub fn force_drain(&mut self, service: ServiceId, _now: SimTime) -> (Vec<Effect>, Vec<Query>) {
        let g = &mut self.groups[service.raw() as usize];
        if g.state == GroupState::Inactive {
            return (Vec::new(), Vec::new());
        }
        let mut displaced: Vec<Query> = g.queue.drain(..).collect();
        // Slot order is allocation order, not id order; sort to keep the
        // old ordered-map contract (queued first, then running by
        // ascending query id). Draining bumps every slot's generation,
        // so the pending `IaasExecDone` tickets die here.
        let mut running: Vec<Query> = g.running.drain().into_iter().map(|r| r.query).collect();
        running.sort_unstable_by_key(|q| q.id);
        displaced.extend(running);
        g.busy = 0;
        g.state = GroupState::Inactive;
        g.draining = false;
        (vec![Effect::IaasDrained { service }], displaced)
    }

    /// Submit a query. Queries submitted while booting queue up and run
    /// when the group is ready.
    pub fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        let mut effects = Vec::new();
        let gid = query.service.raw() as usize;
        debug_assert!(
            self.groups[gid].state != GroupState::Inactive,
            "submit to inactive IaaS group — engine must activate first"
        );
        self.groups[gid].queue.push_back(query);
        self.dispatch(query.service, now, rng, &mut effects);
        effects
    }

    fn dispatch(
        &mut self,
        service: ServiceId,
        now: SimTime,
        rng: &mut SimRng,
        effects: &mut Vec<Effect>,
    ) {
        let cfg = self.cfg;
        let g = &mut self.groups[service.raw() as usize];
        if g.state != GroupState::Active {
            return;
        }
        while g.busy < g.total_cores(&cfg) {
            let Some(query) = g.queue.pop_front() else {
                break;
            };
            g.busy += 1;
            let solo = g
                .spec
                .demand
                .solo_exec_seconds(cfg.per_flow_io_mbps, cfg.per_flow_net_mbps);
            let exec_s = solo * rng.lognormal(0.0, cfg.exec_jitter_sigma);
            let service_s = cfg.overhead_s + exec_s;
            let ticket = g.running.insert(RunningQuery {
                query,
                started: now,
                exec_s,
            });
            effects.push(Effect::Schedule {
                after: SimDuration::from_secs_f64(service_s),
                event: ClusterEvent::IaasExecDone { service, ticket },
            });
        }
    }

    /// Handle a fired event.
    pub fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        match event {
            ClusterEvent::VmBootDone { service } => {
                let mut effects = Vec::new();
                let g = &mut self.groups[service.raw() as usize];
                if g.state == GroupState::Booting {
                    g.state = GroupState::Active;
                    effects.push(Effect::VmGroupReady { service });
                    self.dispatch(service, now, rng, &mut effects);
                }
                effects
            }
            ClusterEvent::IaasExecDone { service, ticket } => {
                self.on_exec_done(service, ticket, now, rng)
            }
            _ => Vec::new(),
        }
    }

    fn on_exec_done(
        &mut self,
        service: ServiceId,
        ticket: QueryTicket,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        let cfg = self.cfg;
        let g = &mut self.groups[service.raw() as usize];
        let Some(run) = g.running.remove(ticket) else {
            return effects;
        };
        g.busy -= 1;
        self.completed += 1;
        let breakdown = LatencyBreakdown {
            queue_wait: run.started.duration_since(run.query.submitted),
            cold_start: SimDuration::ZERO,
            auth: SimDuration::from_secs_f64(cfg.overhead_s),
            code_load: SimDuration::ZERO,
            result_post: SimDuration::ZERO,
            exec: SimDuration::from_secs_f64(run.exec_s),
        };
        effects.push(Effect::Completed(QueryOutcome {
            query: run.query,
            completed: now,
            executed_on: ExecutedOn::Iaas,
            breakdown,
        }));
        self.dispatch(service, now, rng, &mut effects);
        let g = &mut self.groups[service.raw() as usize];
        if g.draining && g.running.is_empty() && g.queue.is_empty() {
            g.state = GroupState::Inactive;
            g.draining = false;
            effects.push(Effect::IaasDrained { service });
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{Driver, Step};
    use crate::ids::QueryId;
    use amoeba_workload::benchmarks;

    fn setup(spec: MicroserviceSpec) -> (IaasPlatform, ServiceId, SimRng) {
        let mut p = IaasPlatform::new(IaasConfig::default());
        let sid = p.register(spec);
        (p, sid, SimRng::seed_from_u64(5))
    }

    fn q(id: u64, service: ServiceId, at: SimTime) -> Query {
        Query {
            id: QueryId(id),
            service,
            submitted: at,
        }
    }

    fn drain(
        p: &mut IaasPlatform,
        rng: &mut SimRng,
        initial: Vec<Effect>,
        start: SimTime,
    ) -> (Vec<QueryOutcome>, Vec<Effect>) {
        let mut outcomes = Vec::new();
        let mut other = Vec::new();
        let mut driver = Driver::new(|_, e| match e {
            Effect::Completed(o) => outcomes.push(o),
            e => other.push(e),
        });
        driver.apply(start, (), initial);
        driver.run(std::iter::empty(), |now, step| match step {
            Step::Event((), event) => ((), p.handle(event, now, rng)),
            Step::Arrival(()) => unreachable!("no arrivals"),
        });
        (outcomes, other)
    }

    #[test]
    fn sizing_meets_qos_at_peak() {
        let cfg = IaasConfig::default();
        for spec in benchmarks::standard_benchmarks() {
            let n = required_cores(&spec, &cfg);
            let service_s = spec
                .demand
                .solo_exec_seconds(cfg.per_flow_io_mbps, cfg.per_flow_net_mbps)
                + cfg.overhead_s;
            let m = MmnModel::new(n, 1.0 / service_s).unwrap();
            assert_eq!(
                m.qos_check(
                    spec.peak_qps * cfg.sizing_headroom,
                    spec.qos_target_s,
                    spec.qos_percentile
                ),
                QosCheck::Satisfied,
                "{} under-provisioned at n={n}",
                spec.name
            );
            // Just-enough: one core less must fail (otherwise we
            // over-provisioned).
            if n > 1 {
                let m = MmnModel::new(n - 1, 1.0 / service_s).unwrap();
                assert_ne!(
                    m.qos_check(
                        spec.peak_qps * cfg.sizing_headroom,
                        spec.qos_target_s,
                        spec.qos_percentile
                    ),
                    QosCheck::Satisfied,
                    "{} over-provisioned at n={n}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn activation_boots_then_acks() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        assert!(!p.is_active(sid));
        assert_eq!(p.allocation(sid), (0.0, 0.0));
        let eff = p.activate(sid, SimTime::ZERO);
        // Booting holds resources already.
        assert!(p.allocation(sid).0 > 0.0);
        let (_, other) = drain(&mut p, &mut rng, eff, SimTime::ZERO);
        assert!(other
            .iter()
            .any(|e| matches!(e, Effect::VmGroupReady { service } if *service == sid)));
        assert!(p.is_active(sid));
    }

    #[test]
    fn activate_when_active_acks_immediately() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let eff = p.activate(sid, SimTime::from_secs(60));
        assert!(matches!(eff[0], Effect::VmGroupReady { .. }));
    }

    #[test]
    fn queries_during_boot_wait_for_ready() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        let t0 = SimTime::ZERO;
        let mut eff = p.activate(sid, t0);
        eff.extend(p.submit(q(1, sid, t0), t0, &mut rng));
        assert_eq!(p.in_flight(sid), 0, "not serving while booting");
        let (outcomes, _) = drain(&mut p, &mut rng, eff, t0);
        assert_eq!(outcomes.len(), 1);
        // The query waited out the boot (5s default).
        assert!(outcomes[0].breakdown.queue_wait >= SimDuration::from_secs(4));
    }

    #[test]
    fn fast_latency_when_active() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let t1 = SimTime::from_secs(30);
        let eff = p.submit(q(2, sid, t1), t1, &mut rng);
        let (outcomes, _) = drain(&mut p, &mut rng, eff, t1);
        let lat = outcomes[0].latency().as_secs_f64();
        // ~solo exec (0.0804s) + overhead, no cold start, no queueing.
        assert!(lat < 0.15, "latency {lat}");
        assert_eq!(outcomes[0].breakdown.cold_start, SimDuration::ZERO);
        assert_eq!(outcomes[0].executed_on, ExecutedOn::Iaas);
    }

    #[test]
    fn saturation_queues_queries() {
        let (mut p, sid, mut rng) = setup(benchmarks::linpack());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let cores = p.vm_count(sid) * p.config().cores_per_vm;
        let t1 = SimTime::from_secs(30);
        let mut eff = Vec::new();
        let n = cores as u64 * 2;
        for i in 0..n {
            eff.extend(p.submit(q(i, sid, t1), t1, &mut rng));
        }
        assert_eq!(p.in_flight(sid), cores as usize);
        assert_eq!(p.queue_len(sid), cores as usize);
        let (outcomes, _) = drain(&mut p, &mut rng, eff, t1);
        assert_eq!(outcomes.len(), n as usize);
        let queued = outcomes
            .iter()
            .filter(|o| o.breakdown.queue_wait > SimDuration::ZERO)
            .count();
        assert!(queued >= cores as usize);
    }

    #[test]
    fn release_idle_group_drains_immediately() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let eff = p.release(sid, SimTime::from_secs(60));
        assert!(matches!(eff[0], Effect::IaasDrained { .. }));
        assert!(!p.is_active(sid));
        assert_eq!(p.allocation(sid), (0.0, 0.0));
    }

    #[test]
    fn release_busy_group_drains_after_completion() {
        let (mut p, sid, mut rng) = setup(benchmarks::linpack());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let t1 = SimTime::from_secs(30);
        let mut eff = p.submit(q(1, sid, t1), t1, &mut rng);
        eff.extend(p.release(sid, t1));
        // Still allocated while the in-flight query runs.
        assert!(p.allocation(sid).0 > 0.0);
        let (outcomes, other) = drain(&mut p, &mut rng, eff, t1);
        assert_eq!(outcomes.len(), 1, "in-flight query completes during drain");
        assert!(other
            .iter()
            .any(|e| matches!(e, Effect::IaasDrained { service } if *service == sid)));
        assert_eq!(p.allocation(sid), (0.0, 0.0));
    }

    #[test]
    fn reactivation_during_drain_cancels_it() {
        let (mut p, sid, mut rng) = setup(benchmarks::linpack());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let t1 = SimTime::from_secs(30);
        let mut eff = p.submit(q(1, sid, t1), t1, &mut rng);
        eff.extend(p.release(sid, t1));
        eff.extend(p.activate(sid, t1)); // changed our mind
        let (_, other) = drain(&mut p, &mut rng, eff, t1);
        assert!(!other
            .iter()
            .any(|e| matches!(e, Effect::IaasDrained { .. })));
        assert!(p.is_active(sid));
    }

    #[test]
    fn no_cross_service_contention() {
        // Two services hammering their own groups do not affect each
        // other's latency — dedicated VMs.
        let mut p = IaasPlatform::new(IaasConfig::default());
        let a = p.register(benchmarks::float());
        let b = p.register(benchmarks::dd());
        let mut rng = SimRng::seed_from_u64(9);
        let mut eff = p.activate(a, SimTime::ZERO);
        eff.extend(p.activate(b, SimTime::ZERO));
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let t1 = SimTime::from_secs(30);
        // Solo run of a.
        let eff = p.submit(q(1, a, t1), t1, &mut rng);
        let (solo, _) = drain(&mut p, &mut rng, eff, t1);
        // Run of a while b is saturated.
        let t2 = SimTime::from_secs(60);
        let mut eff = Vec::new();
        for i in 0..200 {
            eff.extend(p.submit(q(100 + i, b, t2), t2, &mut rng));
        }
        eff.extend(p.submit(q(2, a, t2), t2, &mut rng));
        let (mixed, _) = drain(&mut p, &mut rng, eff, t2);
        let lat_a_mixed = mixed
            .iter()
            .find(|o| o.query.service == a)
            .unwrap()
            .latency()
            .as_secs_f64();
        let lat_a_solo = solo[0].latency().as_secs_f64();
        assert!(
            (lat_a_mixed - lat_a_solo).abs() / lat_a_solo < 0.25,
            "dedicated VM latency moved: {lat_a_solo} -> {lat_a_mixed}"
        );
    }

    #[test]
    fn failed_boot_reboots_and_eventually_acks() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        let eff = p.activate(sid, SimTime::ZERO);
        assert!(p.is_booting(sid));
        // Intercept the first VmBootDone and fail it; the group must
        // stay booting and schedule a fresh boot completion.
        let retry = p.fail_boot(sid, SimTime::from_secs(5));
        assert!(p.is_booting(sid));
        assert!(
            matches!(
                retry[0],
                Effect::Schedule {
                    event: ClusterEvent::VmBootDone { service },
                    ..
                } if service == sid
            ),
            "failed boot must schedule a retry"
        );
        // Drop the original event (consumed by the interceptor), drive
        // the retry to completion.
        drop(eff);
        let (_, other) = drain(&mut p, &mut rng, retry, SimTime::from_secs(5));
        assert!(other
            .iter()
            .any(|e| matches!(e, Effect::VmGroupReady { service } if *service == sid)));
        assert!(p.is_active(sid));
    }

    #[test]
    fn fail_boot_on_non_booting_group_is_a_noop() {
        let (mut p, sid, mut rng) = setup(benchmarks::float());
        assert!(p.fail_boot(sid, SimTime::ZERO).is_empty());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        assert!(p.fail_boot(sid, SimTime::from_secs(30)).is_empty());
    }

    #[test]
    fn force_drain_cancels_in_flight_and_returns_them() {
        let (mut p, sid, mut rng) = setup(benchmarks::linpack());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let t1 = SimTime::from_secs(30);
        let mut eff = Vec::new();
        let n = p.vm_count(sid) * p.config().cores_per_vm + 3; // saturate + queue
        for i in 0..n as u64 {
            eff.extend(p.submit(q(i, sid, t1), t1, &mut rng));
        }
        p.release(sid, t1);
        let (drained_eff, displaced) = p.force_drain(sid, t1 + SimDuration::from_secs(1));
        assert!(matches!(drained_eff[0], Effect::IaasDrained { .. }));
        assert_eq!(displaced.len(), n as usize, "every query handed back");
        assert!(!p.is_active(sid));
        assert_eq!(p.allocation(sid), (0.0, 0.0));
        assert_eq!(p.in_flight(sid), 0);
        // The stale IaasExecDone events must be ignored.
        let (outcomes, other) = drain(&mut p, &mut rng, eff, t1);
        assert!(outcomes.is_empty(), "cancelled queries must not complete");
        assert!(!other
            .iter()
            .any(|e| matches!(e, Effect::IaasDrained { .. })));
    }

    #[test]
    fn stale_tickets_dead_after_slots_recycled() {
        // The chaos path: force-drain a saturated group (its pending
        // IaasExecDone tickets go stale), reactivate, and refill so the
        // slab recycles the freed slots for new tenants. Delivering the
        // stale events afterwards must not complete — or even disturb —
        // the new occupants.
        let (mut p, sid, mut rng) = setup(benchmarks::linpack());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let cores = (p.vm_count(sid) * p.config().cores_per_vm) as u64;
        let t1 = SimTime::from_secs(30);
        let mut wave1 = Vec::new();
        for i in 0..cores {
            wave1.extend(p.submit(q(i, sid, t1), t1, &mut rng));
        }
        let (_, displaced) = p.force_drain(sid, t1 + SimDuration::from_secs(1));
        assert_eq!(displaced.len(), cores as usize);

        // Reactivate and refill: the LIFO free list hands the same
        // slots to wave 2 under bumped generations.
        let t2 = SimTime::from_secs(40);
        let eff = p.activate(sid, t2);
        drain(&mut p, &mut rng, eff, t2);
        let t3 = SimTime::from_secs(60);
        let mut wave2 = Vec::new();
        for i in 0..cores {
            wave2.extend(p.submit(q(100 + i, sid, t3), t3, &mut rng));
        }
        assert_eq!(p.in_flight(sid), cores as usize);

        // Fire every stale wave-1 completion while wave 2 occupies the
        // recycled slots: each must be rejected as a pure no-op.
        for e in wave1 {
            if let Effect::Schedule { event, .. } = e {
                let out = p.handle(event, t3, &mut rng);
                assert!(out.is_empty(), "stale ticket produced effects: {out:?}");
            }
        }
        assert_eq!(p.in_flight(sid), cores as usize, "wave 2 undisturbed");

        // Wave 2 then completes exactly once each.
        let (outcomes, _) = drain(&mut p, &mut rng, wave2, t3);
        assert_eq!(outcomes.len(), cores as usize);
        for o in &outcomes {
            assert!(o.query.id.raw() >= 100, "only wave-2 queries complete");
        }
    }

    #[test]
    fn conservation_across_slab_reuse() {
        // submitted == completed + displaced over repeated
        // drain/refill cycles that keep recycling slab slots.
        let (mut p, sid, mut rng) = setup(benchmarks::matmul());
        let eff = p.activate(sid, SimTime::ZERO);
        drain(&mut p, &mut rng, eff, SimTime::ZERO);
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut lost = 0u64;
        let mut id = 0u64;
        for cycle in 0..4u64 {
            let t = SimTime::from_secs(30 + cycle * 60);
            let mut eff = Vec::new();
            for _ in 0..25 {
                eff.extend(p.submit(q(id, sid, t), t, &mut rng));
                id += 1;
                submitted += 1;
            }
            if cycle % 2 == 0 {
                // Let the wave run to completion.
                let (outcomes, _) = drain(&mut p, &mut rng, eff, t);
                completed += outcomes.len() as u64;
            } else {
                // Yank the group mid-flight; displaced queries count as
                // handed back, their events as dead.
                let (_, displaced) = p.force_drain(sid, t + SimDuration::from_millis(1));
                lost += displaced.len() as u64;
                let (outcomes, _) = drain(&mut p, &mut rng, eff, t);
                completed += outcomes.len() as u64;
                let eff = p.activate(sid, t + SimDuration::from_secs(10));
                drain(&mut p, &mut rng, eff, t + SimDuration::from_secs(10));
            }
        }
        assert_eq!(p.in_flight(sid), 0);
        assert_eq!(p.queue_len(sid), 0);
        assert_eq!(
            submitted,
            completed + lost,
            "every query either completed or was handed back, despite slot reuse"
        );
    }

    #[test]
    fn conservation_and_determinism() {
        let run = |seed: u64| {
            let (mut p, sid, _) = setup(benchmarks::matmul());
            let mut rng = SimRng::seed_from_u64(seed);
            let mut eff = p.activate(sid, SimTime::ZERO);
            for i in 0..100 {
                let t = SimTime::from_secs(15) + SimDuration::from_millis(i * 20);
                eff.extend(p.submit(q(i, sid, t), t, &mut rng));
            }
            let (outcomes, _) = drain(&mut p, &mut rng, eff, SimTime::ZERO);
            assert_eq!(outcomes.len(), 100);
            outcomes
                .iter()
                .map(|o| o.latency().as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
