//! Offline profiling against the simulated platform (§IV-B step 1).
//!
//! The paper profiles each contention meter (and each microservice) by
//! actually running it on the serverless platform while sweeping the
//! pressure. The analytic builders in `amoeba-meters` use the
//! closed-form slowdown model directly; this module provides the
//! *empirical* path — drive the real (simulated) platform with a filler
//! workload that holds a target utilisation, probe with the subject
//! function, and measure. It validates that the closed forms and the
//! platform agree, and is the path a deployment against a real OpenWhisk
//! would use.

use amoeba_meters::{meter_for, LatencySurface, ProfileCurve};
use amoeba_platform::{
    ClusterEvent, Driver, Effect, Query, QueryId, QueryOutcome, ServerlessConfig,
    ServerlessPlatform, ServiceId, Step,
};
use amoeba_sim::{Distributions, SimDuration, SimRng, SimTime};
use amoeba_workload::{DemandVector, MicroserviceSpec, ResourceKind};

/// A filler workload that stresses exactly one resource, used to hold the
/// pool at a target utilisation while a subject is probed.
fn filler_spec(resource: usize) -> MicroserviceSpec {
    let demand = match resource {
        0 => DemandVector {
            cpu_s: 0.5,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 0.0,
        },
        1 => DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 150.0,
            net_mb: 0.0,
        },
        _ => DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 100.0,
        },
    };
    MicroserviceSpec {
        name: format!("filler_{resource}"),
        demand,
        qos_target_s: 30.0,
        qos_percentile: 0.95,
        peak_qps: 100.0,
        container_mem_mb: 256.0,
    }
}

/// The filler tenant, registered and sized to hold a target pressure.
struct Filler {
    id: ServiceId,
    /// Arrival rate that lands exactly on the target pressure.
    qps: f64,
    /// The slowdown model's stretch at the target pressure.
    slowdown: f64,
    /// Contention-stretched residency of one filler query, seconds.
    busy_s: f64,
    /// Warm containers for the filler's steady concurrency.
    containers: u32,
}

impl Filler {
    fn register(
        platform: &mut ServerlessPlatform,
        cfg: &ServerlessConfig,
        resource: usize,
        pressure: f64,
    ) -> Filler {
        let spec = filler_spec(resource);
        let id = platform.register(spec.clone());
        let capacity = match resource {
            0 => cfg.node.cores,
            1 => cfg.node.disk_bw_mbps,
            _ => cfg.node.nic_bw_mbps,
        };
        let per_query = match resource {
            0 => spec.demand.cpu_s,
            1 => spec.demand.io_mb,
            _ => spec.demand.net_mb,
        };
        // Per-invocation resource totals are work-conserving in the
        // platform, so the pool's utilisation is offered-load / capacity
        // and this rate lands exactly on the target pressure. Executions
        // still stretch under contention, so container residency (and
        // the warm pool we need) grows by the slowdown factor.
        let qps = pressure * capacity / per_query;
        let kappa = cfg.slowdown_kappa[resource];
        let slowdown = 1.0 + kappa * pressure * pressure / (1.0 - pressure);
        let busy_s = platform.solo_latency_seconds(id) * slowdown;
        let containers = ((qps * busy_s).ceil() as u32 + 4)
            .min(cfg.tenant_container_cap)
            .max(1);
        Filler {
            id,
            qps,
            slowdown,
            busy_s,
            containers,
        }
    }

    /// Filler arrivals at deterministic uniform spacing (a steady
    /// pressure plateau, not Poisson noise) from 2 s until `horizon`.
    fn arrivals(&self, horizon: SimTime) -> Vec<(SimTime, (ServiceId, u64))> {
        let mut arrivals = Vec::new();
        if self.qps > 0.0 {
            let gap = SimDuration::from_secs_f64(1.0 / self.qps);
            let mut t = SimTime::ZERO + SimDuration::from_secs(2);
            let mut id = 0u64;
            while t < horizon {
                arrivals.push((t, (self.id, (1 << 40) | id)));
                id += 1;
                t += gap;
            }
        }
        arrivals
    }
}

/// Drive `platform` from time zero: apply the `initial` effects, then
/// submit every arrival `(time, (service, query id))`. Warm pools are
/// kept alive until `horizon`; every completion goes to `on_complete`.
fn drive(
    platform: &mut ServerlessPlatform,
    rng: &mut SimRng,
    initial: Vec<Effect>,
    mut arrivals: Vec<(SimTime, (ServiceId, u64))>,
    horizon: SimTime,
    mut on_complete: impl FnMut(QueryOutcome),
) {
    arrivals.sort_by_key(|&(t, (_, id))| (t, id));
    let mut driver = Driver::new(|_, effect| {
        if let Effect::Completed(o) = effect {
            on_complete(o);
        }
    });
    driver.apply(SimTime::ZERO, (), initial);
    driver.run(arrivals, |now, step| match step {
        Step::Arrival((service, id)) => {
            let query = Query {
                id: QueryId(id),
                service,
                submitted: now,
            };
            ((), platform.submit(query, now, rng))
        }
        Step::Event((), ClusterEvent::ContainerExpire { .. }) if now < horizon => ((), Vec::new()),
        Step::Event((), event) => ((), platform.handle(event, now, rng)),
    });
}

/// Mean warm-hit latency (seconds) of `subject` probes while a filler
/// holds `pressure` utilisation on `resource`. Deterministic for a given
/// seed.
pub fn measure_latency_under_pressure(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    resource: usize,
    pressure: f64,
    probes: usize,
    seed: u64,
) -> f64 {
    assert!(resource < 3 && (0.0..1.0).contains(&pressure) && probes > 0);
    let mut platform = ServerlessPlatform::new(*cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let subject_id = platform.register(subject.clone());
    let filler = Filler::register(&mut platform, cfg, resource, pressure);

    let t0 = SimTime::ZERO;
    // The pool needs one full (contention-stretched) busy period to ramp
    // to its steady concurrency before probes are representative.
    let warmup = SimDuration::from_secs(8) + SimDuration::from_secs_f64(3.0 * filler.busy_s);
    let probe_gap = SimDuration::from_millis(500);
    let horizon = t0 + warmup + probe_gap * (probes as u64 + 4);

    // Warm both tenants up front so probes measure contention, not cold
    // starts.
    let mut initial = platform.prewarm(subject_id, 2, t0, &mut rng);
    initial.extend(platform.prewarm(filler.id, filler.containers, t0, &mut rng));

    // Probes every `probe_gap` after warmup.
    let mut arrivals = filler.arrivals(horizon);
    for k in 0..probes {
        let t = t0 + warmup + probe_gap * k as u64;
        arrivals.push((t, (subject_id, k as u64)));
    }

    let mut latencies: Vec<f64> = Vec::new();
    drive(&mut platform, &mut rng, initial, arrivals, horizon, |o| {
        if o.query.service == subject_id && o.breakdown.cold_start == SimDuration::ZERO {
            latencies.push(o.latency().as_secs_f64());
        }
    });

    assert!(!latencies.is_empty(), "no warm probe completed");
    latencies.iter().sum::<f64>() / latencies.len() as f64
}

/// Empirically profile a contention meter's latency-vs-pressure curve by
/// sweeping the platform (the measured counterpart of
/// [`ProfileCurve::analytic`]).
pub fn profile_meter_empirical(
    cfg: &ServerlessConfig,
    resource: usize,
    pressures: &[f64],
    probes: usize,
    seed: u64,
) -> ProfileCurve {
    let kind = [ResourceKind::Cpu, ResourceKind::Io, ResourceKind::Network][resource];
    let meter = meter_for(kind);
    let samples: Vec<(f64, f64)> = pressures
        .iter()
        .map(|&u| {
            (
                u,
                measure_latency_under_pressure(cfg, &meter, resource, u, probes, seed),
            )
        })
        .collect();
    ProfileCurve::from_sweep(samples)
}

/// Measured p95 latency of `subject` driven at `load_qps` while a filler
/// holds `pressure` on `resource` — one grid point of an empirical
/// latency surface (§IV-B: "adjust the loads of the microservice and the
/// pressure of the contention meter").
pub fn measure_p95_at_load(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    load_qps: f64,
    resource: usize,
    pressure: f64,
    window_s: f64,
    seed: u64,
) -> f64 {
    assert!(resource < 3 && (0.0..1.0).contains(&pressure));
    assert!(load_qps > 0.0 && window_s > 1.0);
    let mut platform = ServerlessPlatform::new(*cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let subject_id = platform.register(subject.clone());
    let filler = Filler::register(&mut platform, cfg, resource, pressure);
    let subject_busy_s = platform.solo_latency_seconds(subject_id) * filler.slowdown;
    let subject_containers = ((load_qps * subject_busy_s).ceil() as u32 + 2)
        .min(cfg.tenant_container_cap)
        .max(1);

    let t0 = SimTime::ZERO;
    let warmup = SimDuration::from_secs(6) + SimDuration::from_secs_f64(3.0 * filler.busy_s);
    let horizon = t0 + warmup + SimDuration::from_secs_f64(window_s);

    let mut initial = platform.prewarm(subject_id, subject_containers, t0, &mut rng);
    initial.extend(platform.prewarm(filler.id, filler.containers, t0, &mut rng));

    let mut arrivals = filler.arrivals(horizon);
    {
        // Subject arrivals are Poisson — the M/M/N surface this grid
        // point is compared against assumes exponential inter-arrivals,
        // and deterministic spacing would queue far less (D/M/n).
        let mut t = t0 + warmup;
        let mut id = 0u64;
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(load_qps));
            if t >= horizon {
                break;
            }
            arrivals.push((t, (subject_id, id)));
            id += 1;
        }
    }

    let mut recorder = amoeba_metrics::LatencyRecorder::new();
    drive(&mut platform, &mut rng, initial, arrivals, horizon, |o| {
        if o.query.service == subject_id {
            recorder.record(o.latency());
        }
    });
    recorder
        .quantile(subject.qos_percentile)
        .expect("subject queries completed")
        .as_secs_f64()
}

/// Empirically build a full latency surface by measurement — the
/// measured counterpart of [`LatencySurface::analytic`] and the paper's
/// offline profiling step for Fig. 9. Expensive: one simulation per grid
/// point.
pub fn latency_surface_empirical(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    resource: usize,
    loads: Vec<f64>,
    pressures: Vec<f64>,
    window_s: f64,
    seed: u64,
) -> LatencySurface {
    let values: Vec<Vec<f64>> = loads
        .iter()
        .map(|&load| {
            pressures
                .iter()
                .map(|&u| measure_p95_at_load(cfg, subject, load, resource, u, window_s, seed))
                .collect()
        })
        .collect();
    LatencySurface::from_grid(loads, pressures, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_workload::benchmarks;

    fn quiet_cfg() -> ServerlessConfig {
        ServerlessConfig {
            exec_jitter_sigma: 0.0,
            tenant_container_cap: 2000,
            pool_memory_mb: 512.0 * 1024.0,
            ..Default::default()
        }
    }

    #[test]
    fn zero_pressure_matches_solo_latency() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let measured = measure_latency_under_pressure(&cfg, &spec, 0, 0.0, 20, 7);
        let mut p2 = ServerlessPlatform::new(cfg);
        let sid = p2.register(spec);
        let solo = p2.solo_latency_seconds(sid);
        assert!(
            (measured - solo).abs() / solo < 0.1,
            "measured {measured} vs solo {solo}"
        );
        // Exact value: pins the harness's event/arrival tie order.
        assert_eq!(measured.to_bits(), 0x3fbf73d188f42fe3, "{measured}");
    }

    #[test]
    fn latency_grows_with_pressure() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let low = measure_latency_under_pressure(&cfg, &spec, 0, 0.1, 15, 7);
        let high = measure_latency_under_pressure(&cfg, &spec, 0, 0.7, 15, 7);
        assert!(high > low * 1.3, "low {low} high {high}");
    }

    #[test]
    fn io_pressure_does_not_hurt_cpu_bound_subject() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float(); // no IO phase
        let idle = measure_latency_under_pressure(&cfg, &spec, 1, 0.0, 15, 7);
        let pressed = measure_latency_under_pressure(&cfg, &spec, 1, 0.7, 15, 7);
        assert!(
            (pressed - idle).abs() / idle < 0.15,
            "idle {idle} pressed {pressed}"
        );
    }

    #[test]
    fn p95_at_load_grows_with_both_axes() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let base = measure_p95_at_load(&cfg, &spec, 2.0, 0, 0.0, 20.0, 7);
        let loaded = measure_p95_at_load(&cfg, &spec, 40.0, 0, 0.0, 20.0, 7);
        let pressed = measure_p95_at_load(&cfg, &spec, 2.0, 0, 0.6, 20.0, 7);
        assert!(loaded >= base * 0.95, "load axis: {base} -> {loaded}");
        assert!(pressed > base * 1.2, "pressure axis: {base} -> {pressed}");
        // Exact values: pin the harness's event/arrival tie order.
        assert_eq!(base.to_bits(), 0x3fbf95810624dd2f, "{base}");
        assert_eq!(loaded.to_bits(), 0x3fc0c0485a0be511, "{loaded}");
        assert_eq!(pressed.to_bits(), 0x3fd1e92923e5b856, "{pressed}");
    }

    #[test]
    fn empirical_surface_matches_analytic_shape() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let loads = vec![2.0, 20.0];
        let pressures = vec![0.0, 0.5];
        let measured =
            latency_surface_empirical(&cfg, &spec, 0, loads.clone(), pressures.clone(), 20.0, 11);
        let phases = [
            spec.demand.cpu_s,
            spec.demand.io_mb / cfg.per_flow_io_mbps,
            spec.demand.net_mb / cfg.per_flow_net_mbps,
        ];
        let overhead = cfg.auth_s
            + cfg.code_load_base_s
            + cfg.code_load_s_per_mb * spec.demand.mem_mb
            + cfg.result_post_s;
        let analytic = LatencySurface::analytic(
            phases,
            overhead,
            0,
            cfg.slowdown_kappa[0],
            cfg.tenant_container_cap,
            spec.qos_percentile,
            loads.clone(),
            pressures.clone(),
        );
        for &l in &loads {
            for &u in &pressures {
                let m = measured.predict(l, u);
                let a = analytic.predict(l, u);
                assert!(
                    (m - a).abs() / a < 0.4,
                    "at ({l}, {u}): measured {m} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn empirical_meter_curve_roughly_matches_analytic() {
        let cfg = quiet_cfg();
        let pressures = vec![0.0, 0.3, 0.6];
        let measured = profile_meter_empirical(&cfg, 0, &pressures, 15, 11);
        let meter = meter_for(ResourceKind::Cpu);
        let phases = [
            meter.demand.cpu_s,
            meter.demand.io_mb / cfg.per_flow_io_mbps,
            meter.demand.net_mb / cfg.per_flow_net_mbps,
        ];
        let overhead = cfg.auth_s
            + cfg.code_load_base_s
            + cfg.code_load_s_per_mb * meter.demand.mem_mb
            + cfg.result_post_s;
        let analytic = ProfileCurve::analytic(phases, 0, overhead, cfg.slowdown_kappa[0], 0.95, 20);
        for &u in &pressures {
            let m = measured.latency_at(u);
            let a = analytic.latency_at(u);
            assert!(
                (m - a).abs() / a < 0.25,
                "at u={u}: measured {m} vs analytic {a}"
            );
        }
    }
}
