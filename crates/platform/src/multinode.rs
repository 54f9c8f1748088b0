//! Multi-node serverless pool.
//!
//! The paper evaluates on a single serverless node (Table II), but its
//! §VI-A production framing — "Cloud vendors may take more diverse
//! resources contention into consideration" — presumes a fleet. This
//! module composes several [`ServerlessPlatform`] nodes behind one
//! scheduler: every registered service exists on every node, each query
//! is placed on a node by a pluggable policy, and per-node contention
//! stays local (a hot node does not slow a quiet one — the property that
//! makes placement matter).
//!
//! Event routing: node `i`'s container ids are tagged with `i` in their
//! upper bits, so a fired [`ClusterEvent`] finds its node without any
//! extra bookkeeping in the driver loop.

use crate::cluster::{ClusterEvent, Effect};
use crate::config::ServerlessConfig;
use crate::ids::{ContainerId, NodeId, ServiceId};
use crate::placement::TopologyConfig;
use crate::query::Query;
use crate::serverless::ServerlessPlatform;
use amoeba_sim::{SimRng, SimTime};
use amoeba_workload::MicroserviceSpec;

/// How the pool picks a node for a new query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Cycle through nodes per service (OpenWhisk's default hashing is
    /// close to this for a uniform key mix).
    RoundRobin,
    /// Send to the node with the lowest maximum utilisation across
    /// [cpu, io, net] — contention-aware placement.
    LeastLoaded,
    /// Prefer the node that already holds a warm idle container for the
    /// service (affinity), falling back to least-loaded.
    WarmAffinity,
}

/// Number of bits of a [`ContainerId`] reserved for the node tag.
const NODE_BITS: u32 = 8;
const NODE_SHIFT: u32 = 64 - NODE_BITS;

/// A fleet of serverless nodes behind one placement policy.
pub struct MultiNodePool {
    nodes: Vec<ServerlessPlatform>,
    placement: Placement,
    rr_next: usize,
    /// Outstanding node-level prewarm acks per service; the pool emits
    /// one aggregated [`Effect::PrewarmReady`] when the count drains.
    prewarm_pending: Vec<u32>,
}

impl MultiNodePool {
    /// A pool shaped by a topology: one node per capacity scale, each
    /// running `base` scaled to its share. Panics unless the topology
    /// has `1 ≤ n ≤ 255` nodes.
    pub fn from_topology(
        topology: &TopologyConfig,
        base: ServerlessConfig,
        placement: Placement,
    ) -> Self {
        let n = topology.node_count();
        assert!((1..=255).contains(&n), "node count {n} out of range");
        MultiNodePool {
            nodes: (0..n)
                .map(|i| ServerlessPlatform::new(topology.scaled(&base, NodeId::new(i))))
                .collect(),
            placement,
            rr_next: 0,
            prewarm_pending: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Access one node (observability, tests).
    pub fn node(&self, id: NodeId) -> &ServerlessPlatform {
        &self.nodes[id.index()]
    }

    /// Register a service on every node (same id everywhere).
    pub fn register(&mut self, spec: MicroserviceSpec) -> ServiceId {
        let mut id = None;
        for node in &mut self.nodes {
            let sid = node.register(spec.clone());
            match id {
                None => id = Some(sid),
                Some(prev) => assert_eq!(prev, sid, "node id drift"),
            }
        }
        self.prewarm_pending.push(0);
        id.expect("at least one node")
    }

    fn tag(node: NodeId, cid: ContainerId) -> ContainerId {
        debug_assert!(cid.raw() >> NODE_SHIFT == 0, "container id overflow");
        ContainerId((node.raw() as u64) << NODE_SHIFT | cid.raw())
    }

    fn untag(cid: ContainerId) -> (NodeId, ContainerId) {
        (
            NodeId((cid.raw() >> NODE_SHIFT) as u8),
            ContainerId(cid.raw() & ((1 << NODE_SHIFT) - 1)),
        )
    }

    fn tag_effects(node: NodeId, effects: Vec<Effect>) -> Vec<Effect> {
        effects
            .into_iter()
            .map(|e| match e {
                Effect::Schedule { after, event } => Effect::Schedule {
                    after,
                    event: match event {
                        ClusterEvent::ColdStartDone { container } => ClusterEvent::ColdStartDone {
                            container: Self::tag(node, container),
                        },
                        ClusterEvent::ServerlessExecDone { container } => {
                            ClusterEvent::ServerlessExecDone {
                                container: Self::tag(node, container),
                            }
                        }
                        ClusterEvent::ContainerExpire { container, epoch } => {
                            ClusterEvent::ContainerExpire {
                                container: Self::tag(node, container),
                                epoch,
                            }
                        }
                        other => other,
                    },
                },
                other => other,
            })
            .collect()
    }

    /// The node a new query of `service` goes to under the configured
    /// policy.
    pub fn place(&mut self, service: ServiceId) -> NodeId {
        match self.placement {
            Placement::RoundRobin => {
                let n = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.nodes.len();
                NodeId::new(n)
            }
            Placement::LeastLoaded => self.least_loaded(),
            Placement::WarmAffinity => {
                // A node with a warm idle container (container_count >
                // busy_count) wins; ties and misses go least-loaded.
                self.nodes
                    .iter()
                    .position(|node| node.container_count(service) > node.busy_count(service))
                    .map(NodeId::new)
                    .unwrap_or_else(|| self.least_loaded())
            }
        }
    }

    fn least_loaded(&self) -> NodeId {
        let mut best = 0;
        let mut best_u = f64::MAX;
        for (i, node) in self.nodes.iter().enumerate() {
            let u = node.utilization();
            let m = u[0].max(u[1]).max(u[2]);
            if m < best_u {
                best_u = m;
                best = i;
            }
        }
        NodeId::new(best)
    }

    /// Submit a query; the pool places it and tags the resulting events.
    pub fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        let node = self.place(query.service);
        let effects = self.nodes[node.index()].submit(query, now, rng);
        Self::tag_effects(node, effects)
    }

    /// Handle a fired event by routing it to its node.
    pub fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        let (node, inner) = match event {
            ClusterEvent::ColdStartDone { container } => {
                let (n, c) = Self::untag(container);
                (n, ClusterEvent::ColdStartDone { container: c })
            }
            ClusterEvent::ServerlessExecDone { container } => {
                let (n, c) = Self::untag(container);
                (n, ClusterEvent::ServerlessExecDone { container: c })
            }
            ClusterEvent::ContainerExpire { container, epoch } => {
                let (n, c) = Self::untag(container);
                (
                    n,
                    ClusterEvent::ContainerExpire {
                        container: c,
                        epoch,
                    },
                )
            }
            other => return self.nodes[0].handle(other, now, rng),
        };
        assert!(
            node.index() < self.nodes.len(),
            "event for unknown node {node}"
        );
        let effects = self.nodes[node.index()].handle(inner, now, rng);
        let mut out = Vec::new();
        for e in Self::tag_effects(node, effects) {
            match e {
                Effect::PrewarmReady { service } => {
                    let p = &mut self.prewarm_pending[service.raw() as usize];
                    if *p > 0 {
                        *p -= 1;
                        if *p == 0 {
                            out.push(Effect::PrewarmReady { service });
                        }
                    }
                }
                other => out.push(other),
            }
        }
        out
    }

    /// Warm `count` containers for `service`, spread per the placement
    /// policy (warm-affinity concentrates them on one node so the
    /// router's affinity finds them; the other policies stripe evenly).
    /// Emits a single aggregated [`Effect::PrewarmReady`] once every
    /// node's share is warm.
    pub fn prewarm(
        &mut self,
        service: ServiceId,
        count: u32,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Effect> {
        let n = self.nodes.len() as u32;
        let shares: Vec<u32> = match self.placement {
            Placement::WarmAffinity => {
                let target = self.least_loaded();
                (0..self.nodes.len())
                    .map(|i| if i == target.index() { count } else { 0 })
                    .collect()
            }
            _ => (0..n)
                .map(|i| count / n + u32::from(i < count % n))
                .collect(),
        };
        let mut out = Vec::new();
        let mut pending = 0u32;
        for (i, &share) in shares.iter().enumerate() {
            if share == 0 {
                continue;
            }
            let effects = self.nodes[i].prewarm(service, share, now, rng);
            let mut ready_inline = false;
            for e in Self::tag_effects(NodeId::new(i), effects) {
                match e {
                    Effect::PrewarmReady { .. } => ready_inline = true,
                    other => out.push(other),
                }
            }
            if !ready_inline {
                pending += 1;
            }
        }
        if pending == 0 {
            out.push(Effect::PrewarmReady { service });
        } else {
            self.prewarm_pending[service.raw() as usize] = pending;
        }
        out
    }

    /// Release a service's warm containers on every node (`S_sd`).
    pub fn release_service(&mut self, service: ServiceId) {
        for node in &mut self.nodes {
            node.release_service(service);
        }
    }

    /// Clear a service's draining state on every node.
    pub fn resume_service(&mut self, service: ServiceId) {
        for node in &mut self.nodes {
            node.resume_service(service);
        }
    }

    /// Fleet-wide utilisation: the mean over nodes per resource.
    pub fn mean_utilization(&self) -> [f64; 3] {
        fleet_mean_utilization(self.nodes.iter())
    }

    /// The highest per-resource utilisation across nodes — the imbalance
    /// indicator a placement policy tries to minimise.
    pub fn max_node_utilization(&self) -> f64 {
        fleet_max_utilization(self.nodes.iter())
    }

    /// Total containers across the fleet for `service`.
    pub fn container_count(&self, service: ServiceId) -> u32 {
        self.nodes.iter().map(|n| n.container_count(service)).sum()
    }

    /// Completed queries across the fleet.
    pub fn completed_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.completed_count()).sum()
    }
}

/// Mean utilisation per resource `[cpu, io, net]` over any fleet of
/// serverless nodes (all zeros for an empty fleet).
pub fn fleet_mean_utilization<'a>(nodes: impl Iterator<Item = &'a ServerlessPlatform>) -> [f64; 3] {
    let mut acc = [0.0; 3];
    let mut n = 0usize;
    for node in nodes {
        let u = node.utilization();
        for r in 0..3 {
            acc[r] += u[r];
        }
        n += 1;
    }
    if n > 0 {
        for a in &mut acc {
            *a /= n as f64;
        }
    }
    acc
}

/// The highest single-resource utilisation across any fleet of
/// serverless nodes — the imbalance a placement policy minimises.
pub fn fleet_max_utilization<'a>(nodes: impl Iterator<Item = &'a ServerlessPlatform>) -> f64 {
    nodes
        .map(|n| {
            let u = n.utilization();
            u[0].max(u[1]).max(u[2])
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QueryId;
    use amoeba_sim::{EventQueue, SimDuration};
    use amoeba_workload::benchmarks;

    fn pool(n: usize, placement: Placement) -> MultiNodePool {
        MultiNodePool::from_topology(
            &TopologyConfig {
                node_scales: vec![1.0; n],
                rtt_s: 0.0,
            },
            ServerlessConfig::default(),
            placement,
        )
    }

    fn drive(
        pool: &mut MultiNodePool,
        rng: &mut SimRng,
        initial: Vec<Effect>,
        start: SimTime,
    ) -> usize {
        let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
        let mut completions = 0;
        let absorb = |effects: Vec<Effect>,
                      now: SimTime,
                      queue: &mut EventQueue<ClusterEvent>,
                      completions: &mut usize| {
            for e in effects {
                match e {
                    Effect::Schedule { after, event } => {
                        queue.push(now + after, event);
                    }
                    Effect::Completed(_) => *completions += 1,
                    _ => {}
                }
            }
        };
        absorb(initial, start, &mut queue, &mut completions);
        while let Some(ev) = queue.pop() {
            let eff = pool.handle(ev.payload, ev.time, rng);
            absorb(eff, ev.time, &mut queue, &mut completions);
        }
        completions
    }

    fn q(id: u64, service: ServiceId, at: SimTime) -> Query {
        Query {
            id: QueryId(id),
            service,
            submitted: at,
        }
    }

    #[test]
    fn tag_untag_round_trip() {
        for node in [0usize, 1, 7, 254].map(NodeId::new) {
            for raw in [0u64, 1, 999_999] {
                let tagged = MultiNodePool::tag(node, ContainerId(raw));
                assert_eq!(MultiNodePool::untag(tagged), (node, ContainerId(raw)));
            }
        }
    }

    #[test]
    fn register_gives_same_id_on_all_nodes() {
        let mut pool = pool(3, Placement::RoundRobin);
        let a = pool.register(benchmarks::float());
        let b = pool.register(benchmarks::dd());
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
    }

    #[test]
    fn round_robin_spreads_queries() {
        let mut pool = pool(4, Placement::RoundRobin);
        let sid = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(1);
        let t0 = SimTime::ZERO;
        let mut eff = Vec::new();
        for i in 0..8 {
            eff.extend(pool.submit(q(i, sid, t0), t0, &mut rng));
        }
        for i in 0..4 {
            assert_eq!(
                pool.node(NodeId::new(i)).container_count(sid),
                2,
                "node {i}"
            );
        }
        let done = drive(&mut pool, &mut rng, eff, t0);
        assert_eq!(done, 8);
        assert_eq!(pool.completed_count(), 8);
    }

    #[test]
    fn least_loaded_avoids_the_hot_node() {
        let mut pool = pool(2, Placement::LeastLoaded);
        let heavy = pool.register(benchmarks::dd());
        let light = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(2);
        let t0 = SimTime::ZERO;
        // Saturate node 0's disk with dd (least-loaded sends the first
        // there, then alternates as utilisation builds).
        let mut eff = Vec::new();
        for i in 0..8 {
            eff.extend(pool.submit(q(i, heavy, t0), t0, &mut rng));
        }
        // Now the light service's queries must go to whichever node is
        // calmer, not blindly to node 0.
        let u_before = [
            pool.node(NodeId::ZERO).utilization()[1],
            pool.node(NodeId::new(1)).utilization()[1],
        ];
        let target = pool.place(light);
        let calmer = NodeId::new(if u_before[0] <= u_before[1] { 0 } else { 1 });
        assert_eq!(target, calmer, "utilisations {u_before:?}");
        let done = drive(&mut pool, &mut rng, eff, t0);
        assert_eq!(done, 8);
    }

    #[test]
    fn warm_affinity_reuses_the_warm_node() {
        let mut pool = pool(3, Placement::WarmAffinity);
        let sid = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(3);
        let t0 = SimTime::ZERO;
        // First query cold-starts somewhere; once warm, subsequent
        // queries stick to that node.
        let eff = pool.submit(q(0, sid, t0), t0, &mut rng);
        let first_node = (0..3)
            .map(NodeId::new)
            .find(|&i| pool.node(i).container_count(sid) > 0)
            .unwrap();
        // Drive to completion (container now idle+warm). Drop expiry by
        // driving only until the completion lands.
        let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
        for e in eff {
            if let Effect::Schedule { after, event } = e {
                queue.push(t0 + after, event);
            }
        }
        let mut done_at = t0;
        while let Some(ev) = queue.pop() {
            if matches!(ev.payload, ClusterEvent::ContainerExpire { .. }) {
                continue;
            }
            done_at = ev.time;
            for e in pool.handle(ev.payload, ev.time, &mut rng) {
                if let Effect::Schedule { after, event } = e {
                    queue.push(ev.time + after, event);
                }
            }
        }
        let t1 = done_at + SimDuration::from_secs(1);
        let target = pool.place(sid);
        assert_eq!(target, first_node, "affinity should pick the warm node");
        let _ = t1;
    }

    #[test]
    fn hot_node_does_not_slow_a_quiet_one() {
        // The property that makes multi-node placement meaningful:
        // contention is per node.
        let mut pool = pool(2, Placement::RoundRobin);
        let dd = pool.register(benchmarks::dd());
        let fl = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(4);
        let t0 = SimTime::ZERO;
        // Round-robin: dd queries 0..16 alternate nodes — instead place
        // manually by submitting dd 16 times (8 per node) then check the
        // float on the other node... Simpler: saturate node 0 only by
        // submitting with LeastLoaded disabled. Use direct node access:
        let mut eff = Vec::new();
        for i in 0..10 {
            // Round robin alternates, so node 0 gets even ids.
            eff.extend(pool.submit(q(i, dd, t0), t0, &mut rng));
        }
        let u0 = pool.node(NodeId::ZERO).utilization()[1];
        let u1 = pool.node(NodeId::new(1)).utilization()[1];
        // Both nodes loaded roughly equally by round robin.
        assert!((u0 - u1).abs() < 0.3, "{u0} vs {u1}");
        // A float query placed now sees only its own node's pressure —
        // mean fleet utilisation is the average, not the sum.
        let fleet = pool.mean_utilization();
        assert!(fleet[1] <= u0.max(u1) + 1e-9);
        let done = drive(&mut pool, &mut rng, eff, t0);
        assert_eq!(done, 10);
        let _ = fl;
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed: u64| {
            let mut pool = pool(3, Placement::LeastLoaded);
            let sid = pool.register(benchmarks::cloud_stor());
            let mut rng = SimRng::seed_from_u64(seed);
            let mut eff = Vec::new();
            for i in 0..40 {
                let t = SimTime::from_millis(i * 53);
                eff.extend(pool.submit(q(i, sid, t), t, &mut rng));
            }
            drive(&mut pool, &mut rng, eff, SimTime::ZERO)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn prewarm_stripes_and_acks_once() {
        let mut pool = pool(3, Placement::RoundRobin);
        let sid = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(7);
        let t0 = SimTime::ZERO;
        let eff = pool.prewarm(sid, 7, t0, &mut rng);
        // No immediate ack: containers are warming.
        assert!(!eff.iter().any(|e| matches!(e, Effect::PrewarmReady { .. })));
        // Striped 3/2/2.
        let counts: Vec<u32> = (0..3)
            .map(|i| pool.node(NodeId::new(i)).container_count(sid))
            .collect();
        assert_eq!(counts.iter().sum::<u32>(), 7);
        assert!(counts.iter().all(|&c| c >= 2));
        // Drive the cold starts; exactly one aggregated ack arrives.
        let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
        for e in eff {
            if let Effect::Schedule { after, event } = e {
                queue.push(t0 + after, event);
            }
        }
        let mut acks = 0;
        while let Some(ev) = queue.pop() {
            if matches!(ev.payload, ClusterEvent::ContainerExpire { .. }) {
                continue;
            }
            for e in pool.handle(ev.payload, ev.time, &mut rng) {
                match e {
                    Effect::Schedule { after, event } => {
                        queue.push(ev.time + after, event);
                    }
                    Effect::PrewarmReady { service } => {
                        assert_eq!(service, sid);
                        acks += 1;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(acks, 1, "exactly one aggregated ack");
    }

    #[test]
    fn warm_affinity_prewarm_concentrates() {
        let mut pool = pool(4, Placement::WarmAffinity);
        let sid = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(9);
        pool.prewarm(sid, 6, SimTime::ZERO, &mut rng);
        let nonzero = (0..4)
            .map(NodeId::new)
            .filter(|&i| pool.node(i).container_count(sid) > 0)
            .count();
        assert_eq!(nonzero, 1, "affinity prewarm targets one node");
        assert_eq!(pool.container_count(sid), 6);
    }

    #[test]
    fn release_drops_idles_fleet_wide() {
        let mut pool = pool(2, Placement::RoundRobin);
        let sid = pool.register(benchmarks::float());
        let mut rng = SimRng::seed_from_u64(11);
        let t0 = SimTime::ZERO;
        let eff = pool.prewarm(sid, 4, t0, &mut rng);
        // Warm them (skip expiry).
        let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
        for e in eff {
            if let Effect::Schedule { after, event } = e {
                queue.push(t0 + after, event);
            }
        }
        while let Some(ev) = queue.pop() {
            if matches!(ev.payload, ClusterEvent::ContainerExpire { .. }) {
                continue;
            }
            for e in pool.handle(ev.payload, ev.time, &mut rng) {
                if let Effect::Schedule { after, event } = e {
                    queue.push(ev.time + after, event);
                }
            }
        }
        assert_eq!(pool.container_count(sid), 4);
        pool.release_service(sid);
        assert_eq!(pool.container_count(sid), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_nodes() {
        pool(0, Placement::RoundRobin);
    }
}
