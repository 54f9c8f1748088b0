//! Cross-stack property tests: randomised workloads and demand vectors
//! through the full platform, with bounded case counts (each case is a
//! complete simulation).

use amoeba::platform::{
    Driver, Effect, Query, QueryId, ServerlessConfig, ServerlessPlatform, Step,
};
use amoeba::sim::{SimDuration, SimRng, SimTime};
use amoeba::workload::{DemandVector, MicroserviceSpec};
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = MicroserviceSpec> {
    (0.005f64..0.3, 32f64..200.0, 0f64..80.0, 0f64..30.0).prop_map(|(cpu, mem, io, net)| {
        MicroserviceSpec {
            name: "prop".into(),
            demand: DemandVector {
                cpu_s: cpu,
                mem_mb: mem,
                io_mb: io,
                net_mb: net,
            },
            qos_target_s: 5.0,
            qos_percentile: 0.95,
            peak_qps: 50.0,
            container_mem_mb: 256.0,
        }
    })
}

/// Run a batch of queries through a fresh serverless platform to
/// completion; returns (completions, latencies in seconds).
fn drive(spec: MicroserviceSpec, arrivals_ms: Vec<u64>, seed: u64) -> (usize, Vec<f64>) {
    let mut platform = ServerlessPlatform::new(ServerlessConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let sid = platform.register(spec);
    let mut latencies = Vec::new();
    let driver = Driver::new(|_, e| {
        if let Effect::Completed(o) = e {
            latencies.push(o.latency().as_secs_f64());
        }
    });
    // Arrivals must be sorted; due platform events run first.
    let mut sorted = arrivals_ms;
    sorted.sort_unstable();
    let arrivals = sorted
        .iter()
        .enumerate()
        .map(|(i, &ms)| (SimTime::ZERO + SimDuration::from_millis(ms), i as u64));
    driver.run(arrivals, |now, step| match step {
        Step::Arrival(i) => {
            let q = Query {
                id: QueryId(i),
                service: sid,
                submitted: now,
            };
            ((), platform.submit(q, now, &mut rng))
        }
        Step::Event((), event) => ((), platform.handle(event, now, &mut rng)),
    });
    (latencies.len(), latencies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every submitted query completes exactly once, for arbitrary demand
    /// vectors and arrival patterns (including simultaneous arrivals).
    #[test]
    fn serverless_platform_conserves_queries(
        spec in spec_strategy(),
        arrivals in proptest::collection::vec(0u64..30_000, 1..150),
        seed in 0u64..1000,
    ) {
        let n = arrivals.len();
        let (completions, latencies) = drive(spec, arrivals, seed);
        prop_assert_eq!(completions, n);
        prop_assert_eq!(latencies.len(), n);
        for l in &latencies {
            prop_assert!(l.is_finite() && *l > 0.0);
        }
    }

    /// No query beats the physics: end-to-end latency is never below the
    /// service's uncontended execution time (overheads and jitter only
    /// add — jitter is multiplicative lognormal, bounded below by the
    /// 5-sigma floor we allow here).
    #[test]
    fn latency_never_beats_solo_exec(
        spec in spec_strategy(),
        arrivals in proptest::collection::vec(0u64..20_000, 1..60),
        seed in 0u64..1000,
    ) {
        let solo = spec.demand.solo_exec_seconds(500.0, 250.0);
        let (_, latencies) = drive(spec, arrivals, seed);
        let floor = solo * 0.75; // 5-sigma of the 5% lognormal jitter
        for l in &latencies {
            prop_assert!(*l >= floor, "latency {l} below solo floor {floor}");
        }
    }

    /// The platform is a pure function of (inputs, seed).
    #[test]
    fn platform_is_deterministic(
        spec in spec_strategy(),
        arrivals in proptest::collection::vec(0u64..10_000, 1..40),
        seed in 0u64..1000,
    ) {
        let a = drive(spec.clone(), arrivals.clone(), seed);
        let b = drive(spec, arrivals, seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}

/// Mean measured CPU pressure of an endogenous-pressure tenant fleet
/// whose peaks are scaled by `scale`, pinned serverless (OpenWhisk) so
/// every query lands on the shared pool and no switching redistributes
/// the load mid-measurement.
fn endogenous_pressure_at(scale: f64, seed: u64) -> f64 {
    use amoeba::core::{Experiment, SystemVariant};
    use amoeba::sim::SimDuration;
    use amoeba::tenancy::{FleetBuilder, TenancySetup};

    let fleet = FleetBuilder::new(seed)
        .tenants(6)
        .peak_scale(scale, scale)
        .build();
    let r = Experiment::builder(
        SystemVariant::OpenWhisk,
        SimDuration::from_secs_f64(120.0),
        seed,
    )
    .tenancy(TenancySetup::new(fleet, 4.0))
    .build()
    .run();
    r.mean_pressures[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pressure-emergence equation (DESIGN.md §15): measured
    /// pressure is monotone non-decreasing in aggregate co-tenant load.
    /// Scaling every tenant's peak up never lowers the mean measured
    /// CPU pressure.
    #[test]
    fn endogenous_pressure_is_monotone_in_cotenant_load(
        lo in 0.05f64..0.25,
        delta in 0.10f64..0.40,
        seed in 0u64..100,
    ) {
        let p_lo = endogenous_pressure_at(lo, seed);
        let p_hi = endogenous_pressure_at(lo + delta, seed);
        prop_assert!(
            p_hi >= p_lo - 1e-9,
            "pressure fell as load rose: {p_lo} -> {p_hi}"
        );
    }
}
