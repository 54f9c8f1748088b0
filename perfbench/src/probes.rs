//! Steady-state probes of single layers through their public
//! functions. Each times batches of operations on a state built outside
//! the timed region and reports the median nanoseconds per operation
//! over batches, so one preempted batch does not move it.

use std::hint::black_box;
use std::time::Instant;

use amoeba_core::controller::ServiceModel;
use amoeba_core::{
    ContentionMonitor, ControllerConfig, DeployMode, DeploymentController, MonitorConfig,
};
use amoeba_meters::{LatencySurface, ProfileCurve};
use amoeba_platform::{
    ClusterEvent, Effect, IaasConfig, IaasPlatform, Query, QueryId, ServerlessConfig,
    ServerlessPlatform, ServiceId,
};
use amoeba_sim::{Distributions, EventQueue, SimDuration, SimRng, SimTime};
use amoeba_workload::benchmarks;

use crate::stats::median;

const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of `per_batch` calls of `op`, in
/// nanoseconds per call.
fn per_op_ns(per_batch: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `sim`: the hold model on the event calendar. The queue holds `size`
/// events, built before timing; each operation pops the earliest event
/// and pushes one back an exponential delay (mean 1 s) later, so the
/// size stays fixed.
pub fn queue_hold_ns(size: usize, per_batch: usize, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for i in 0..size as u64 {
        queue.push(SimTime::from_secs_f64(rng.exponential(1.0)), i);
    }
    per_op_ns(per_batch, || {
        let fired = queue.pop().expect("the hold model keeps the queue full");
        let later = fired.time + SimDuration::from_secs_f64(rng.exponential(1.0));
        black_box(queue.push(later, fired.payload));
    })
}

/// A platform as the probe drives it.
trait Platform {
    fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect>;
    fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect>;
}

impl Platform for ServerlessPlatform {
    fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        ServerlessPlatform::submit(self, query, now, rng)
    }
    fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        ServerlessPlatform::handle(self, event, now, rng)
    }
}

impl Platform for IaasPlatform {
    fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        IaasPlatform::submit(self, query, now, rng)
    }
    fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        IaasPlatform::handle(self, event, now, rng)
    }
}

/// Drives one service's queries through a platform one at a time:
/// submit, then handle scheduled events until the query completes.
struct PlatformProbe<P> {
    platform: P,
    service: ServiceId,
    queue: EventQueue<ClusterEvent>,
    rng: SimRng,
    now: SimTime,
    next_id: u64,
    completed: u64,
}

impl<P: Platform> PlatformProbe<P> {
    fn absorb(&mut self, effects: Vec<Effect>, at: SimTime) {
        for effect in effects {
            match effect {
                Effect::Schedule { after, event } => {
                    self.queue.push(at + after, event);
                }
                Effect::Completed(_) => self.completed += 1,
                _ => {}
            }
        }
    }

    /// Handle the earliest scheduled event.
    fn step(&mut self) {
        let fired = self.queue.pop().expect("a pending query has events");
        self.now = fired.time;
        let effects = self
            .platform
            .handle(fired.payload, fired.time, &mut self.rng);
        self.absorb(effects, fired.time);
    }

    /// One query from submission to completion. Keep-alive timers stay
    /// queued, as in a run, so the platform stays warm.
    fn cycle(&mut self) {
        self.now += SimDuration::from_millis(100);
        let query = Query {
            id: QueryId(self.next_id),
            service: self.service,
            submitted: self.now,
        };
        self.next_id += 1;
        let effects = self.platform.submit(query, self.now, &mut self.rng);
        self.absorb(effects, self.now);
        while self.completed < self.next_id {
            self.step();
        }
    }

    /// Warm the platform up, then time cycles.
    fn cycle_ns(mut self, per_batch: usize) -> f64 {
        for _ in 0..per_batch {
            self.cycle();
        }
        per_op_ns(per_batch, || self.cycle())
    }
}

/// `platform`: submit → complete of one query on a warm serverless
/// platform and on an active IaaS group, `(serverless, iaas)` in ns.
pub fn platform_cycle_ns(per_batch: usize, seed: u64) -> (f64, f64) {
    let mut serverless = ServerlessPlatform::new(ServerlessConfig::default());
    let service = serverless.register(benchmarks::float());
    let serverless = PlatformProbe {
        platform: serverless,
        service,
        queue: EventQueue::new(),
        rng: SimRng::seed_from_u64(seed),
        now: SimTime::ZERO,
        next_id: 0,
        completed: 0,
    }
    .cycle_ns(per_batch);

    let mut iaas = IaasPlatform::new(IaasConfig::default());
    let service = iaas.register(benchmarks::float());
    let boot = iaas.activate(service, SimTime::ZERO);
    let mut probe = PlatformProbe {
        platform: iaas,
        service,
        queue: EventQueue::new(),
        rng: SimRng::seed_from_u64(seed),
        now: SimTime::ZERO,
        next_id: 0,
        completed: 0,
    };
    probe.absorb(boot, SimTime::ZERO);
    while !probe.queue.is_empty() {
        probe.step();
    }
    (serverless, probe.cycle_ns(per_batch))
}

/// The `dd` service model the controller benchmark decides on.
fn dd_model() -> ServiceModel {
    let spec = benchmarks::dd();
    let phases = [
        spec.demand.cpu_s,
        spec.demand.io_mb / 500.0,
        spec.demand.net_mb / 250.0,
    ];
    let l0_s = phases.iter().sum::<f64>() + 0.02;
    let surfaces = [0, 1, 2].map(|r| {
        LatencySurface::analytic(
            phases,
            0.02,
            r,
            [1.2, 1.8, 1.5][r],
            16,
            0.95,
            vec![0.5, 12.5, 25.0, 50.0, 62.5],
            vec![0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9],
        )
    });
    ServiceModel {
        spec,
        l0_s,
        surfaces,
        util_per_qps: [0.001, 0.04, 0.0001],
        n_max: 16,
    }
}

/// `core::controller`: one deployment decision (Eq. 5 against the
/// measured arrival rate) at steady state, in ns.
pub fn controller_decide_ns(per_batch: usize) -> f64 {
    let mut ctl = DeploymentController::new(ControllerConfig::default());
    ctl.register(dd_model());
    let now = SimTime::from_secs(100);
    for i in 0..100 {
        ctl.record_arrival(0, now - SimDuration::from_millis(i * 35));
    }
    per_op_ns(per_batch, || {
        black_box(ctl.decide(
            0,
            DeployMode::Iaas,
            now,
            SimTime::ZERO,
            black_box([0.1, 0.4, 0.05]),
            [0.34, 0.33, 0.33],
            &[],
        ));
    })
}

/// `core::monitor`: one heartbeat (PCA refit of the weights over a full
/// window) after three meter observations, in ns.
pub fn monitor_heartbeat_ns(per_batch: usize) -> f64 {
    let curves = [0, 1, 2]
        .map(|r| ProfileCurve::analytic([0.04, 0.0, 0.0], 0, 0.02, [1.2, 1.8, 1.5][r], 0.95, 40));
    let mut monitor = ContentionMonitor::new(MonitorConfig::default(), curves);
    let mut i = 0u64;
    let mut beat = || {
        i += 1;
        monitor.observe_meter_latency(0, 0.06 + (i % 13) as f64 * 0.002);
        monitor.observe_meter_latency(1, 0.05 + (i % 7) as f64 * 0.003);
        monitor.observe_meter_latency(2, 0.045 + (i % 5) as f64 * 0.001);
        monitor.heartbeat();
        black_box(monitor.weights());
    };
    // Fill the PCA window so every timed heartbeat refits a full one.
    for _ in 0..1_000 {
        beat();
    }
    per_op_ns(per_batch, beat)
}
