//! Pinned telemetry digests: known values, not just agreement.
//!
//! Each test runs a tiny scenario, checks that its telemetry covers the
//! event kinds it is meant to cover, and asserts the FNV-1a-64 digest of
//! the JSON-lines bytes against a value recorded when the test was
//! written. Any change to behaviour, event order, field order or number
//! formatting fails here loudly. The streamed digest (`DigestSink`) and
//! the digest of the materialised JSONL (`Trace::to_jsonl`) must also
//! agree, so the two encode sites cannot drift apart.

use amoeba::bench::standard_scenario;
use amoeba::bench::workflow::media_pipeline;
use amoeba::chaos::FaultPlan;
use amoeba::core::{Experiment, SystemVariant, WorkflowSetup};
use amoeba::fleet::{fnv1a, DigestSink, FleetRun, FNV_OFFSET};
use amoeba::platform::Scheduler;
use amoeba::sim::SimDuration;
use amoeba::telemetry::{MemorySink, TelemetryEvent, TelemetrySink, Trace};
use amoeba::tenancy::{FleetBuilder, TenancySetup};
use amoeba::workload::{benchmarks, DiurnalPattern, LoadTrace};
use std::collections::BTreeSet;

/// Seconds per compressed diurnal day.
const DAY_S: f64 = 300.0;

/// Digest of the 4-node + `media_pipeline()` + `FaultPlan::mixed()` run.
const EDGE_DIGEST: u64 = 0xce43_5948_5a27_bf19;
/// Run digest (per-cell digests combined) of the small tenancy fleet.
const FLEET_DIGEST: u64 = 0xae6d_1975_9dc5_376f;
/// Digest of the same fleet's executor trace (shard spans and fleet
/// samples) at one worker thread.
const FLEET_TRACE_DIGEST: u64 = 0x184f_a9e9_ba47_7aa9;

/// The `"type"` tags present in a trace.
fn kinds(trace: &Trace) -> BTreeSet<String> {
    trace
        .events()
        .iter()
        .map(|e| e.to_json()["type"].as_str().unwrap_or_default().to_string())
        .collect()
}

fn assert_covers(trace_kinds: &BTreeSet<String>, wanted: &[&str]) {
    for kind in wanted {
        assert!(
            trace_kinds.contains(*kind),
            "no '{kind}' event in {trace_kinds:?}"
        );
    }
}

/// Records into a `DigestSink` and a `MemorySink` at once.
#[derive(Default)]
struct Both {
    digest: DigestSink,
    memory: MemorySink,
}

impl TelemetrySink for Both {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TelemetryEvent) {
        self.digest.record(event.clone());
        self.memory.record(event);
    }
}

/// A small version of the benchmark's edge mix: four nodes of unequal
/// capacity, the §VII-A services, the diamond media pipeline and every
/// kind of fault.
fn edge_experiment() -> Experiment {
    let mut b = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(2.0 * DAY_S),
        7,
    )
    .services(standard_scenario(benchmarks::float(), DAY_S))
    .nodes(4)
    .inter_node_latency(SimDuration::from_secs_f64(0.04))
    .scheduler(Scheduler::AmoebaPerNode)
    .workflow(WorkflowSetup {
        spec: media_pipeline(),
        trace: LoadTrace::new(DiurnalPattern::didi(), 20.0, DAY_S),
    })
    .fault_plan(FaultPlan::mixed());
    for (node, scale) in [(1, 0.75), (2, 0.75), (3, 0.5)] {
        b = b.node_capacity(node, scale);
    }
    b.build()
}

/// A small tenancy fleet: two cells, each a pool of six admitted
/// tenants under 1.5× overbooking, on the epoch-barrier executor.
fn tenancy_fleet() -> FleetRun {
    let cells = [11, 12]
        .into_iter()
        .map(|seed| {
            let tenants = FleetBuilder::new(seed).tenants(6).build();
            Experiment::builder(
                SystemVariant::Amoeba,
                SimDuration::from_secs_f64(DAY_S),
                seed,
            )
            .tenancy(TenancySetup::new(tenants, 1.5))
            .build()
        })
        .collect();
    FleetRun::from_experiments(cells, SimDuration::from_secs_f64(60.0))
}

#[test]
fn edge_mix_digest_is_pinned() {
    let mut sink = Both::default();
    edge_experiment().run_with_sink(&mut sink);
    let trace = sink.memory.into_trace();
    assert_covers(
        &kinds(&trace),
        &["placement", "stage_span", "node_util", "fault", "recovery"],
    );
    let streamed = sink.digest.digest();
    assert_eq!(streamed, DigestSink::of_jsonl(&trace.to_jsonl()));
    assert_eq!(sink.digest.events(), trace.len() as u64);
    assert_eq!(streamed, EDGE_DIGEST, "edge digest {streamed:#018x}");
}

#[test]
fn tenancy_fleet_digest_is_pinned() {
    let out = tenancy_fleet().run(1);
    let (traced, traces) = tenancy_fleet().run_traced(1);
    let mut cell_kinds = BTreeSet::new();
    for trace in &traces {
        cell_kinds.extend(kinds(trace));
    }
    assert_covers(&cell_kinds, &["admission", "vendor_sample"]);
    assert_covers(&kinds(&out.fleet_trace), &["shard_span", "fleet_sample"]);

    assert_eq!(out.digest, traced.digest, "streamed vs materialised digest");
    let executor = DigestSink::of_jsonl(&out.fleet_trace.to_jsonl());
    assert_eq!(
        out.digest, FLEET_DIGEST,
        "fleet digest {:#018x}",
        out.digest
    );
    assert_eq!(
        executor, FLEET_TRACE_DIGEST,
        "executor trace digest {executor:#018x}"
    );
}

/// A quiet run hashes nothing: its digest is the fold of one zero per
/// cell, whatever the seed.
#[test]
fn quiet_fleet_digest_is_one_zero_per_cell() {
    let out = tenancy_fleet().run_quiet(1);
    assert_eq!(out.digest, fnv1a(FNV_OFFSET, &[0; 2 * 8]));
}
