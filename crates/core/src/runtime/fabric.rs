//! The node fabric: every node's platform pair, placement scheduling,
//! cross-node accounting, and the ordering contract by which platform
//! responses re-enter the kernel.
//!
//! A run's topology is [`SimWorld::nodes`], indexed by [`NodeId`]; a
//! single-node run is a topology of one. Node 0 is the user-facing
//! node: the contention meters, injected faults and the tenancy vendor
//! act on its pool. Every node runs the same code — platform-internal
//! progress arrives as [`Ev::Platform`] on [`on_platform`], and work
//! bound for a node goes through the one [`submit`] site.
//!
//! # Ordering contract
//!
//! Where a platform response lands sets the calendar's FIFO tie order
//! and the order of draws on the shared `platform_rng`; the golden
//! traces and pinned digests fix both. [`route_effects`] is the one
//! place that decides it: node 0's responses all go onto the effect
//! bus, applied after the current event, while any other node pushes
//! its schedules straight onto the calendar and only the rest
//! (completions and switch-protocol acks) onto the bus.
//!
//! [`submit`] holds the matching rule for new work: node 0 executes it
//! inline, while every other node — a service's own home included —
//! receives it through a [`Ev::RemoteSubmit`] hop.

use super::effects::EffectBus;
use super::{faults, Ev, Experiment, MultiNodeSummary, NodeTotals, SimWorld};
use crate::engine::RouteTarget;
use amoeba_platform::{
    fleet_max_utilization, fleet_mean_utilization, ClusterEvent, Effect, IaasPlatform, NodeId,
    Query, Scheduler, ServerlessPlatform, TopologyConfig,
};
use amoeba_sim::{EventQueue, SimDuration, SimRng, SimTime};
use amoeba_telemetry::TelemetrySink;

/// Serverless max-utilization above which an Amoeba home node spills
/// new serverless arrivals to the least-loaded peer.
pub(crate) const SPILL_THRESHOLD: f64 = 0.85;

/// The platform pair of one node.
pub(crate) struct NodeRt {
    pub(crate) serverless: ServerlessPlatform,
    pub(crate) iaas: IaasPlatform,
}

impl NodeRt {
    /// Deliver a platform-internal event to the platform that owns it.
    pub(crate) fn handle(
        &mut self,
        event: ClusterEvent,
        now: SimTime,
        platform_rng: &mut SimRng,
        iaas_rng: &mut SimRng,
    ) -> Vec<Effect> {
        match event {
            ClusterEvent::ColdStartDone { .. }
            | ClusterEvent::ServerlessExecDone { .. }
            | ClusterEvent::ContainerExpire { .. } => {
                self.serverless.handle(event, now, platform_rng)
            }
            ClusterEvent::VmBootDone { .. } | ClusterEvent::IaasExecDone { .. } => {
                self.iaas.handle(event, now, iaas_rng)
            }
        }
    }

    /// Submit a query on the given route. Real traffic ends any
    /// serverless drain (the NoP path switches with no prewarm ack).
    pub(crate) fn submit(
        &mut self,
        query: Query,
        route: RouteTarget,
        now: SimTime,
        platform_rng: &mut SimRng,
        iaas_rng: &mut SimRng,
    ) -> Vec<Effect> {
        match route {
            RouteTarget::Serverless => {
                self.serverless.resume_service(query.service);
                self.serverless.submit(query, now, platform_rng)
            }
            RouteTarget::Iaas => self.iaas.submit(query, now, iaas_rng),
        }
    }
}

/// Max per-resource utilization of one node's serverless pool.
fn pool_pressure(nodes: &[NodeRt], node: NodeId) -> f64 {
    let u = nodes[node.index()].serverless.utilization();
    u.iter().fold(0.0, |a, &b| f64::max(a, b))
}

/// The node with the calmest serverless pool, optionally excluding
/// one; ties break toward the lowest node id.
fn least_loaded(nodes: &[NodeRt], exclude: Option<NodeId>) -> NodeId {
    let mut best = None;
    for i in 0..nodes.len() {
        let node = NodeId::new(i);
        if exclude == Some(node) {
            continue;
        }
        let p = pool_pressure(nodes, node);
        if best.is_none_or(|(_, bp)| p < bp) {
            best = Some((node, p));
        }
    }
    best.map(|(n, _)| n).unwrap_or(NodeId::ZERO)
}

/// Fleet-wide mean and max serverless utilization over every node.
pub(crate) fn fleet_utilization(nodes: &[NodeRt]) -> ([f64; 3], f64) {
    let pools = nodes.iter().map(|n| &n.serverless);
    (
        fleet_mean_utilization(pools.clone()),
        fleet_max_utilization(pools),
    )
}

/// Placement state: the scheduler, the inter-node link and the
/// per-node conservation books.
pub(crate) struct Placement {
    scheduler: Scheduler,
    /// Round-trip time paid by a query spilled off its home node.
    rtt: SimDuration,
    /// User queries counted at their executing node, warmup included.
    pub(crate) books: MultiNodeSummary,
}

impl Placement {
    pub(crate) fn new(scheduler: Scheduler, topology: &TopologyConfig) -> Self {
        Placement {
            scheduler,
            rtt: SimDuration::from_secs_f64(topology.rtt_s),
            books: MultiNodeSummary {
                nodes: vec![NodeTotals::default(); topology.node_count()],
                spill_total: 0,
            },
        }
    }

    /// Place one arriving user query of a service homed on `home`:
    /// which node executes it, and was that a spill off its home?
    /// Updates the per-node counters.
    pub(crate) fn place(
        &mut self,
        home: NodeId,
        route: RouteTarget,
        nodes: &[NodeRt],
    ) -> (NodeId, bool) {
        let exec = if route == RouteTarget::Iaas {
            // IaaS work runs where its VM group lives, whatever the
            // scheduler: no other node ever boots the service's group.
            home
        } else {
            match self.scheduler {
                // Amoeba switches at the home node; serverless arrivals
                // spill only when the home pool saturates and a calmer
                // peer exists.
                Scheduler::AmoebaPerNode if nodes.len() > 1 => {
                    let p = pool_pressure(nodes, home);
                    if p > SPILL_THRESHOLD {
                        let alt = least_loaded(nodes, Some(home));
                        if pool_pressure(nodes, alt) < p {
                            alt
                        } else {
                            home
                        }
                    } else {
                        home
                    }
                }
                // NOAH-style: every query chases the calmest pool, RTT
                // be damned.
                Scheduler::Noah => least_loaded(nodes, None),
                // Static contention-aware assignment: the home map is
                // the whole policy.
                Scheduler::AmoebaPerNode | Scheduler::EdgeAware => home,
            }
        };
        let spill = exec != home;
        let totals = &mut self.books.nodes[exec.index()];
        totals.submitted += 1;
        if spill {
            totals.spills += 1;
            self.books.spill_total += 1;
        }
        (exec, spill)
    }

    /// The wire delay a placed query pays to reach its executing node:
    /// spills cross the inter-node link, home-node traffic is local.
    pub(crate) fn wire_delay(&self, spill: bool) -> SimDuration {
        if spill {
            self.rtt
        } else {
            SimDuration::ZERO
        }
    }
}

/// Contention-aware static homes (the edge-placement baseline):
/// services in descending order of dominant normalized demand, each
/// greedily assigned to the node where the projected per-resource load
/// vector peaks lowest. `demands[i]` is service `i`'s peak demand in
/// `[core·s/s, disk MB/s, NIC MB/s]`; `base_caps` the unscaled node
/// capacity on the same axes.
pub(crate) fn edge_aware_homes(
    demands: &[[f64; 3]],
    topology: &TopologyConfig,
    base_caps: [f64; 3],
) -> Vec<NodeId> {
    let n = topology.node_count();
    let mut order: Vec<usize> = (0..demands.len()).collect();
    let dominant = |d: &[f64; 3]| {
        (0..3)
            .map(|r| d[r] / base_caps[r].max(1e-12))
            .fold(0.0, f64::max)
    };
    order.sort_by(|&a, &b| {
        dominant(&demands[b])
            .partial_cmp(&dominant(&demands[a]))
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut load = vec![[0.0f64; 3]; n];
    let mut homes = vec![NodeId::ZERO; demands.len()];
    for idx in order {
        let mut best = (0usize, f64::INFINITY);
        for (node, node_load) in load.iter().enumerate() {
            let scale = topology.node_scales[node];
            let peak = (0..3)
                .map(|r| (node_load[r] + demands[idx][r]) / (base_caps[r] * scale).max(1e-12))
                .fold(0.0, f64::max);
            if peak < best.1 {
                best = (node, peak);
            }
        }
        for r in 0..3 {
            load[best.0][r] += demands[idx][r];
        }
        homes[idx] = NodeId::new(best.0);
    }
    homes
}

/// The ordering contract (see the module docs): carry one platform
/// response from `node` to where it belongs.
pub(crate) fn route_effects(
    node: NodeId,
    effects: Vec<Effect>,
    now: SimTime,
    queue: &mut EventQueue<Ev>,
    bus: &mut EffectBus,
) {
    if node == NodeId::ZERO {
        bus.extend(effects);
        return;
    }
    for e in effects {
        match e {
            Effect::Schedule { after, event } => {
                queue.push(now + after, Ev::Platform { node, event });
            }
            other => bus.extend([other]),
        }
    }
}

/// The one submit site: `query` goes to `node` on `route`. Node 0
/// takes it inline; any other node receives it through an
/// [`Ev::RemoteSubmit`] hop `delay` from now, keeping its original
/// submit stamp so the wire shows up as latency. Part of the ordering
/// contract: a spill *onto* node 0 lands inline, without the delay.
pub(crate) fn submit(
    world: &mut SimWorld,
    node: NodeId,
    query: Query,
    route: RouteTarget,
    delay: SimDuration,
    now: SimTime,
) {
    if node == NodeId::ZERO {
        deliver(world, node, query, route, now);
    } else {
        let hop = Ev::RemoteSubmit { node, query, route };
        world.queue.push(now + delay, hop);
    }
}

/// A node's platform pair made progress. Node 0's VM boots first run
/// the chaos boot gauntlet: the fault model strikes node 0 only.
pub(crate) fn on_platform<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    node: NodeId,
    event: ClusterEvent,
    now: SimTime,
    sink: &mut S,
) {
    let eff = match event {
        ClusterEvent::VmBootDone { service } if node == NodeId::ZERO => {
            faults::on_node0_boot(exp, world, service, now, sink)
        }
        _ => world.nodes[node.index()].handle(
            event,
            now,
            &mut world.platform_rng,
            &mut world.iaas_rng,
        ),
    };
    // Per-node conservation counts user completions where they ran.
    let done = eff
        .iter()
        .filter(|e| matches!(e, Effect::Completed(o) if !o.query.id.is_shadow()))
        .count();
    world.placement.books.nodes[node.index()].completed += done as u64;
    route_effects(node, eff, now, &mut world.queue, &mut world.bus);
}

/// A query lands on `node`'s platforms (see [`submit`]).
pub(crate) fn deliver(
    world: &mut SimWorld,
    node: NodeId,
    query: Query,
    route: RouteTarget,
    now: SimTime,
) {
    let SimWorld {
        nodes,
        platform_rng,
        iaas_rng,
        queue,
        bus,
        ..
    } = world;
    let eff = nodes[node.index()].submit(query, route, now, platform_rng, iaas_rng);
    route_effects(node, eff, now, queue, bus);
}
