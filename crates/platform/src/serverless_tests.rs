use super::*;
use crate::drive::{Driver, Step};
use crate::ids::QueryId;
use amoeba_workload::benchmarks;

fn setup() -> (ServerlessPlatform, SimRng) {
    let cfg = ServerlessConfig::default();
    (ServerlessPlatform::new(cfg), SimRng::seed_from_u64(42))
}

fn q(id: u64, service: ServiceId, at: SimTime) -> Query {
    Query {
        id: QueryId(id),
        service,
        submitted: at,
    }
}

/// Drive the platform's own effects to completion with a [`Driver`],
/// returning every non-schedule effect with its time. `keep_warm`
/// declines `ContainerExpire` events, leaving warm containers alive
/// for follow-up submissions.
fn drive(
    platform: &mut ServerlessPlatform,
    rng: &mut SimRng,
    initial: Vec<Effect>,
    start: SimTime,
    keep_warm: bool,
) -> Vec<(SimTime, Effect)> {
    let mut effects = Vec::new();
    let mut driver = Driver::new(|now, e| effects.push((now, e)));
    driver.apply(start, (), initial);
    driver.run(std::iter::empty(), |now, step| match step {
        Step::Event((), ClusterEvent::ContainerExpire { .. }) if keep_warm => ((), Vec::new()),
        Step::Event((), event) => ((), platform.handle(event, now, rng)),
        Step::Arrival(()) => unreachable!("no arrivals"),
    });
    effects
}

fn completions(effects: Vec<(SimTime, Effect)>) -> Vec<QueryOutcome> {
    effects
        .into_iter()
        .filter_map(|(_, e)| match e {
            Effect::Completed(o) => Some(o),
            _ => None,
        })
        .collect()
}

/// Drive to completion, returning outcomes. Processes keep-alive
/// expiry, so containers are gone afterwards; use
/// [`run_effects_keep_warm`] to keep them.
fn run_effects(
    platform: &mut ServerlessPlatform,
    rng: &mut SimRng,
    initial: Vec<Effect>,
    start: SimTime,
) -> Vec<QueryOutcome> {
    completions(drive(platform, rng, initial, start, false))
}

/// Like [`run_effects`] but drops `ContainerExpire` events, leaving
/// warm containers alive for follow-up submissions.
fn run_effects_keep_warm(
    platform: &mut ServerlessPlatform,
    rng: &mut SimRng,
    initial: Vec<Effect>,
    start: SimTime,
) -> Vec<QueryOutcome> {
    completions(drive(platform, rng, initial, start, true))
}

#[test]
fn crashing_a_busy_container_releases_resources_and_hands_back_the_query() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let eff = p.submit(q(1, sid, t0), t0, &mut rng);
    let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    let t1 = outcomes[0].completed + SimDuration::from_secs(1);
    let eff = p.submit(q(2, sid, t1), t1, &mut rng); // warm hit -> Busy
    assert_eq!(p.busy_count(sid), 1);
    assert!(p.utilization()[0] > 0.0, "busy container holds resources");
    let (_, report) = p.crash_container(0, t1, &mut rng);
    let report = report.expect("one live container to crash");
    assert_eq!(report.service, sid);
    assert_eq!(report.displaced.expect("in-flight query").id, QueryId(2));
    assert!(!report.was_prewarm);
    assert_eq!(p.total_containers(), 0);
    assert_eq!(p.utilization(), [0.0; 3], "held load released on crash");
    // The pending exec-done event for the dead container is stale.
    let outcomes = run_effects(&mut p, &mut rng, eff, t1);
    assert!(outcomes.is_empty(), "crashed query must not complete");
}

#[test]
fn crashing_a_prewarm_swallows_the_ack() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let eff = p.prewarm(sid, 1, t0, &mut rng);
    assert!(
        !eff.iter().any(|e| matches!(e, Effect::PrewarmReady { .. })),
        "prewarm of a cold pool cannot ack synchronously"
    );
    let (_, report) = p.crash_container(0, t0, &mut rng);
    let report = report.expect("the warming prewarm exists");
    assert!(report.was_prewarm);
    assert!(report.displaced.is_none());
    // Driving the stale cold-start event must not produce the ack.
    let effects = drive(&mut p, &mut rng, eff, t0, false);
    assert!(
        !effects
            .iter()
            .any(|(_, e)| matches!(e, Effect::PrewarmReady { .. })),
        "ack must be lost with the crashed prewarm"
    );
}

#[test]
fn crashing_an_idle_container_forgets_it() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let eff = p.submit(q(1, sid, t0), t0, &mut rng);
    run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    assert_eq!(p.total_containers(), 1);
    let t1 = SimTime::from_secs(20);
    let (_, report) = p.crash_container(0, t1, &mut rng);
    assert!(report.expect("idle victim").displaced.is_none());
    assert_eq!(p.total_containers(), 0);
    // Next query cold-starts instead of touching the dead idle slot.
    let eff = p.submit(q(2, sid, t1), t1, &mut rng);
    assert_eq!(p.cold_start_count(), 2);
    let outcomes = run_effects(&mut p, &mut rng, eff, t1);
    assert_eq!(outcomes.len(), 1);
}

#[test]
fn crash_on_an_empty_pool_is_a_noop() {
    let (mut p, mut rng) = setup();
    let _sid = p.register(benchmarks::float());
    let (eff, report) = p.crash_container(0, SimTime::ZERO, &mut rng);
    assert!(eff.is_empty());
    assert!(report.is_none());
}

#[test]
fn register_precomputes_profile() {
    let (mut p, _) = setup();
    let sid = p.register(benchmarks::dd());
    // dd: cpu 0.05 + io 60/500 + net 0.5/250 = 0.05 + 0.12 + 0.002.
    assert!((p.solo_exec_seconds(sid) - 0.172).abs() < 1e-9);
    assert!(p.overhead_seconds(sid) > 0.0);
    assert!(p.solo_latency_seconds(sid) > p.solo_exec_seconds(sid));
}

#[test]
fn first_query_cold_starts_then_completes() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let effects = p.submit(q(1, sid, t0), t0, &mut rng);
    assert_eq!(p.cold_start_count(), 1);
    let outcomes = run_effects(&mut p, &mut rng, effects, t0);
    assert_eq!(outcomes.len(), 1);
    let o = &outcomes[0];
    assert!(o.breakdown.cold_start > SimDuration::from_millis(500));
    assert_eq!(o.breakdown.queue_wait, SimDuration::ZERO);
    assert!(
        o.latency() > SimDuration::from_secs(1),
        "cold start dominates"
    );
    assert_eq!(p.completed_count(), 1);
}

#[test]
fn second_query_reuses_warm_container() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let eff = p.submit(q(1, sid, t0), t0, &mut rng);
    let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    let done_at = outcomes[0].completed;
    // Submit while warm.
    let t1 = done_at + SimDuration::from_secs(1);
    let eff = p.submit(q(2, sid, t1), t1, &mut rng);
    assert_eq!(p.cold_start_count(), 1, "no second cold start");
    let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, t1);
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].breakdown.cold_start, SimDuration::ZERO);
    // Warm latency ~ solo latency.
    let lat = outcomes[0].latency().as_secs_f64();
    let solo = p.solo_latency_seconds(sid);
    assert!((lat - solo).abs() / solo < 0.3, "lat {lat} vs solo {solo}");
}

#[test]
fn keep_alive_expiry_forces_new_cold_start() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::from_secs(1);
    let eff = p.submit(q(1, sid, t0), t0, &mut rng);
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    // run_effects drains everything, including the expire event, so
    // the container is gone now.
    assert_eq!(p.total_containers(), 0);
    let t1 = outcomes[0].completed + SimDuration::from_secs(120);
    let eff = p.submit(q(2, sid, t1), t1, &mut rng);
    assert_eq!(p.cold_start_count(), 2);
    let outcomes = run_effects(&mut p, &mut rng, eff, t1);
    assert!(outcomes[0].breakdown.cold_start > SimDuration::ZERO);
}

#[test]
fn breakdown_components_sum_to_latency() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::matmul());
    let t0 = SimTime::from_secs(2);
    let eff = p.submit(q(1, sid, t0), t0, &mut rng);
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    let o = &outcomes[0];
    let total = o.breakdown.total().as_secs_f64();
    let lat = o.latency().as_secs_f64();
    assert!(
        (total - lat).abs() < 2e-6,
        "breakdown {total} vs latency {lat}"
    );
}

#[test]
fn overhead_fraction_in_fig4_range_for_warm_queries() {
    let (mut p, mut rng) = setup();
    // Fig. 4: overheads are 10-45% of end-to-end latency (no queueing
    // or cold start in that experiment).
    for spec in benchmarks::standard_benchmarks() {
        let sid = p.register(spec);
        let t0 = SimTime::from_secs(1);
        let eff = p.submit(q(sid.raw() as u64 * 100 + 1, sid, t0), t0, &mut rng);
        let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, t0);
        let warm_at = outcomes[0].completed + SimDuration::from_secs(1);
        let eff = p.submit(
            q(sid.raw() as u64 * 100 + 2, sid, warm_at),
            warm_at,
            &mut rng,
        );
        let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, warm_at);
        let f = outcomes[0].breakdown.overhead_fraction();
        let name = &p.spec(sid).name;
        assert!(
            (0.05..=0.50).contains(&f),
            "{name}: overhead fraction {f} outside Fig. 4 band"
        );
    }
}

#[test]
fn contention_stretches_execution() {
    let cfg = ServerlessConfig {
        exec_jitter_sigma: 0.0,   // isolate the contention effect
        tenant_container_cap: 40, // let one tenant hold 30 containers
        ..Default::default()
    };
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(1);
    let sid = p.register(benchmarks::dd());
    // Warm up 30 containers, then hit them all at once: aggregate IO
    // demand far exceeds the disk bandwidth.
    let t0 = SimTime::ZERO;
    let eff = p.prewarm(sid, 30, t0, &mut rng);
    run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    assert_eq!(p.total_containers(), 30);
    let t1 = SimTime::from_secs(100);
    let mut all_eff = Vec::new();
    for i in 0..30 {
        all_eff.extend(p.submit(q(i, sid, t1), t1, &mut rng));
    }
    // All should run concurrently (warm hits).
    assert_eq!(p.busy_count(sid), 30);
    let u = p.utilization();
    // Work-conserving rates: later invocations hold lower average
    // rates because they run stretched, so utilisation settles below
    // the naive 30×rate/capacity — but the disk is still clearly the
    // contended resource.
    assert!(u[1] > 0.7, "io utilisation {u:?}");
    assert!(u[1] > 10.0 * u[0], "io dominates: {u:?}");
    let outcomes = run_effects(&mut p, &mut rng, all_eff, t1);
    assert_eq!(outcomes.len(), 30);
    let solo = p.solo_latency_seconds(sid);
    let mean = outcomes
        .iter()
        .map(|o| o.latency().as_secs_f64())
        .sum::<f64>()
        / 30.0;
    assert!(
        mean > solo * 1.5,
        "contention should stretch latency: mean {mean} vs solo {solo}"
    );
}

#[test]
fn memory_cap_queues_queries() {
    let mut cfg = ServerlessConfig::default();
    cfg.pool_memory_mb = 2.0 * cfg.container_memory_mb; // 2 containers max
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(2);
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let mut eff = Vec::new();
    for i in 0..5 {
        eff.extend(p.submit(q(i, sid, t0), t0, &mut rng));
    }
    assert_eq!(p.total_containers(), 2);
    assert_eq!(p.queue_len(), 3);
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    assert_eq!(outcomes.len(), 5, "queued queries eventually served");
    // Queued ones must report queue_wait.
    let waited = outcomes
        .iter()
        .filter(|o| o.breakdown.queue_wait > SimDuration::ZERO)
        .count();
    assert!(waited >= 3, "waited {waited}");
}

#[test]
fn tenant_cap_respected() {
    let cfg = ServerlessConfig {
        tenant_container_cap: 3,
        ..Default::default()
    };
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(3);
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    for i in 0..10 {
        p.submit(q(i, sid, t0), t0, &mut rng);
    }
    assert_eq!(p.container_count(sid), 3);
    assert_eq!(p.queue_len(), 7);
}

#[test]
fn per_service_cap_override_throttles_and_restores() {
    let cfg = ServerlessConfig {
        tenant_container_cap: 5,
        ..Default::default()
    };
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(3);
    let sid = p.register(benchmarks::float());
    assert_eq!(p.tenant_cap(sid), 5, "default comes from the config");
    p.set_tenant_cap(sid, Some(2));
    let t0 = SimTime::ZERO;
    for i in 0..6 {
        p.submit(q(i, sid, t0), t0, &mut rng);
    }
    assert_eq!(p.container_count(sid), 2, "override caps container growth");
    assert_eq!(p.queue_len(), 4);
    p.set_tenant_cap(sid, None);
    assert_eq!(p.tenant_cap(sid), 5, "None restores the global cap");
    for i in 6..12 {
        p.submit(q(i, sid, t0), t0, &mut rng);
    }
    assert_eq!(p.container_count(sid), 5);
}

#[test]
fn prewarm_creates_idle_containers_and_acks() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let eff = p.prewarm(sid, 5, t0, &mut rng);
    // The ack arrives via effects after warming; run them, stopping
    // before keep-alive expiry wipes the containers out again.
    let effects = drive(&mut p, &mut rng, eff, t0, true);
    let acks: Vec<ServiceId> = effects
        .iter()
        .filter_map(|(_, e)| match e {
            Effect::PrewarmReady { service } => Some(*service),
            _ => None,
        })
        .collect();
    assert!(!acks.is_empty());
    assert!(acks.iter().all(|&service| service == sid));
    assert_eq!(p.container_count(sid), 5);
    assert_eq!(p.busy_count(sid), 0);
}

#[test]
fn prewarm_already_satisfied_acks_immediately() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let eff = p.prewarm(sid, 3, t0, &mut rng);
    run_effects(&mut p, &mut rng, eff, t0);
    // Warm again while still warm — but run_effects drained expiry,
    // so re-create and check the immediate-ack path with count 0.
    let eff = p.prewarm(sid, 0, SimTime::from_secs(1), &mut rng);
    assert!(matches!(eff[0], Effect::PrewarmReady { .. }));
}

#[test]
fn prewarmed_queries_skip_cold_start() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let eff = p.prewarm(sid, 4, t0, &mut rng);
    // Warm them up (drop expire events to keep them alive).
    let effects = drive(&mut p, &mut rng, eff, t0, true);
    let ready_at = effects
        .iter()
        .find(|(_, e)| matches!(e, Effect::PrewarmReady { .. }))
        .map(|&(at, _)| at)
        .expect("prewarm acked");
    let t1 = ready_at + SimDuration::from_secs(1);
    let eff = p.submit(q(9, sid, t1), t1, &mut rng);
    let before = p.cold_start_count();
    let outcomes = run_effects(&mut p, &mut rng, eff, t1);
    assert_eq!(p.cold_start_count(), before);
    assert_eq!(outcomes[0].breakdown.cold_start, SimDuration::ZERO);
}

#[test]
fn release_service_drops_idle_containers() {
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let other = p.register(benchmarks::dd());
    let t0 = SimTime::ZERO;
    let eff = p.prewarm(sid, 3, t0, &mut rng);
    // Warm them (skip expires).
    run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    assert_eq!(p.container_count(sid), 3);
    p.release_service(sid);
    assert_eq!(p.container_count(sid), 0);
    assert_eq!(p.container_count(other), 0);
}

#[test]
fn query_conservation_under_load() {
    // Every submitted query completes exactly once.
    let (mut p, mut rng) = setup();
    let sid = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let mut eff = Vec::new();
    let n = 200;
    for i in 0..n {
        let t = t0 + SimDuration::from_millis(i * 10);
        eff.extend(p.submit(q(i, sid, t), t, &mut rng));
    }
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    assert_eq!(outcomes.len(), n as usize);
    let mut ids: Vec<u64> = outcomes.iter().map(|o| o.query.id.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n as usize, "each query completed exactly once");
    assert_eq!(p.queue_len(), 0);
}

#[test]
fn deterministic_with_same_seed() {
    let run = |seed: u64| {
        let cfg = ServerlessConfig::default();
        let mut p = ServerlessPlatform::new(cfg);
        let mut rng = SimRng::seed_from_u64(seed);
        let sid = p.register(benchmarks::cloud_stor());
        let mut eff = Vec::new();
        for i in 0..50 {
            let t = SimTime::from_millis(i * 37);
            eff.extend(p.submit(q(i, sid, t), t, &mut rng));
        }
        run_effects(&mut p, &mut rng, eff, SimTime::ZERO)
            .iter()
            .map(|o| (o.query.id, o.latency().as_micros()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn warm_hit_bypasses_head_of_line_blocking() {
    // Service A fills the pool to the memory cap; B's queries queue.
    // When one of B's own containers frees, B's queued query must run
    // on it even though A's queries sit at the head of the FIFO
    // (OpenWhisk schedules per action — no global HoL blocking).
    let mut cfg = ServerlessConfig::default();
    cfg.pool_memory_mb = 4.0 * cfg.container_memory_mb; // 4 containers
    cfg.tenant_container_cap = 4;
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(9);
    let a = p.register(benchmarks::linpack()); // long queries
    let b = p.register(benchmarks::float()); // short queries
    let t0 = SimTime::ZERO;
    let mut eff = Vec::new();
    // 3 containers for A, 1 for B.
    for i in 0..3 {
        eff.extend(p.submit(q(i, a, t0), t0, &mut rng));
    }
    eff.extend(p.submit(q(100, b, t0), t0, &mut rng));
    // Now the pool is full; queue up more of both, A first.
    for i in 3..8 {
        eff.extend(p.submit(q(i, a, t0), t0, &mut rng));
    }
    eff.extend(p.submit(q(101, b, t0), t0, &mut rng));
    assert_eq!(p.queue_len(), 6);
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    assert_eq!(outcomes.len(), 10, "everything completes");
    // B's second query must finish long before A's queued ones: it
    // reuses B's container as soon as the first B query (~0.12s)
    // finishes, instead of waiting behind ~0.45s linpack runs.
    let b2_done = outcomes
        .iter()
        .find(|o| o.query.id == QueryId(101))
        .unwrap()
        .completed;
    let a_queued_done = outcomes
        .iter()
        .find(|o| o.query.id == QueryId(3))
        .unwrap()
        .completed;
    assert!(
        b2_done < a_queued_done,
        "B bypassed: {b2_done} vs A {a_queued_done}"
    );
}

#[test]
fn memory_full_pool_evicts_idle_tenant_for_new_cold_start() {
    let mut cfg = ServerlessConfig::default();
    cfg.pool_memory_mb = 2.0 * cfg.container_memory_mb; // 2 containers
    cfg.tenant_container_cap = 2;
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(11);
    let a = p.register(benchmarks::float());
    let b = p.register(benchmarks::matmul());
    // A runs two queries, ends up with two idle warm containers.
    let t0 = SimTime::ZERO;
    let mut eff = Vec::new();
    for i in 0..2 {
        eff.extend(p.submit(q(i, a, t0), t0, &mut rng));
    }
    run_effects_keep_warm(&mut p, &mut rng, eff, t0);
    assert_eq!(p.container_count(a), 2);
    assert_eq!(p.total_containers(), 2);
    // B arrives: pool is memory-full, but A has idle containers —
    // one must be evicted to make room for B's cold start.
    let t1 = SimTime::from_secs(5);
    let eff = p.submit(q(100, b, t1), t1, &mut rng);
    assert_eq!(p.container_count(a), 1, "one of A's idles evicted");
    assert_eq!(p.container_count(b), 1);
    let outcomes = run_effects_keep_warm(&mut p, &mut rng, eff, t1);
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].breakdown.cold_start > SimDuration::ZERO);
}

#[test]
fn busy_containers_are_never_evicted() {
    let mut cfg = ServerlessConfig::default();
    cfg.pool_memory_mb = 1.0 * cfg.container_memory_mb; // 1 container
    cfg.tenant_container_cap = 1;
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(13);
    let a = p.register(benchmarks::linpack());
    let b = p.register(benchmarks::float());
    let t0 = SimTime::ZERO;
    let mut eff = p.submit(q(1, a, t0), t0, &mut rng);
    // A's query occupies the only slot (cold-starting, then busy);
    // B must queue, not evict the occupied container.
    eff.extend(p.submit(q(100, b, t0), t0, &mut rng));
    assert_eq!(p.container_count(a), 1);
    assert_eq!(p.container_count(b), 0);
    assert_eq!(p.queue_len(), 1);
    let outcomes = run_effects(&mut p, &mut rng, eff, t0);
    assert_eq!(outcomes.len(), 2, "both complete, A uninterrupted");
    let a_out = outcomes.iter().find(|o| o.query.service == a).unwrap();
    assert_eq!(a_out.breakdown.queue_wait, SimDuration::ZERO);
}
