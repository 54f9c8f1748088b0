//! Criterion benchmarks of the simulated platforms: serverless
//! submit→complete cycles (warm and contended) and full experiment-cell
//! throughput.

use amoeba_bench::scenarios::run_cell;
use amoeba_core::SystemVariant;
use amoeba_platform::{Driver, Effect, Query, QueryId, ServerlessConfig, ServerlessPlatform, Step};
use amoeba_sim::{SimRng, SimTime};
use amoeba_workload::benchmarks;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Drive a batch of queries through a fresh serverless platform to
/// completion; returns the number of completions (sanity anchor).
fn serverless_batch(n: u64) -> usize {
    let mut p = ServerlessPlatform::new(ServerlessConfig::default());
    let mut rng = SimRng::seed_from_u64(7);
    let sid = p.register(benchmarks::float());
    let mut completions = 0usize;
    let driver = Driver::new(|_, e| {
        if let Effect::Completed(_) = e {
            completions += 1;
        }
    });
    let arrivals = (0..n).map(|i| (SimTime::from_millis(i * 25), i));
    driver.run(arrivals, |now, step| match step {
        Step::Arrival(i) => {
            let q = Query {
                id: QueryId(i),
                service: sid,
                submitted: now,
            };
            ((), p.submit(q, now, &mut rng))
        }
        Step::Event((), event) => ((), p.handle(event, now, &mut rng)),
    });
    completions
}

fn bench_serverless(c: &mut Criterion) {
    c.bench_function("serverless/1k_queries_end_to_end", |b| {
        b.iter(|| black_box(serverless_batch(1_000)))
    });
}

fn bench_experiment_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment_cell");
    g.sample_size(10);
    g.bench_function("nameko_float_60s_day", |b| {
        b.iter(|| {
            black_box(run_cell(
                SystemVariant::Nameko,
                benchmarks::float(),
                60.0,
                1,
            ))
        })
    });
    g.bench_function("amoeba_float_60s_day", |b| {
        b.iter(|| {
            black_box(run_cell(
                SystemVariant::Amoeba,
                benchmarks::float(),
                60.0,
                1,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serverless, bench_experiment_cell);
criterion_main!(benches);
