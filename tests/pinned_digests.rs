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
use amoeba::core::{Experiment, ExperimentBuilder, RunResult, SystemVariant, WorkflowSetup};
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
/// The same edge shape placed by the NOAH scheduler (all-serverless).
const EDGE_NOAH_DIGEST: u64 = 0x4630_b93c_537e_3106;
/// The same edge shape placed by static edge-aware homes
/// (all-serverless).
const EDGE_AWARE_DIGEST: u64 = 0x531b_7bd6_3677_9a92;
/// A fault-free Amoeba-per-node run on the edge topology that spills.
const SPILL_DIGEST: u64 = 0xd2f5_2f77_0054_ba07;
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
    edge_shape(Scheduler::AmoebaPerNode, SystemVariant::Amoeba)
        .fault_plan(FaultPlan::mixed())
        .build()
}

/// The edge topology, services and workflow under one scheduler and
/// variant, without faults.
fn edge_shape(scheduler: Scheduler, variant: SystemVariant) -> ExperimentBuilder {
    let mut b = Experiment::builder(variant, SimDuration::from_secs_f64(2.0 * DAY_S), 7)
        .services(standard_scenario(benchmarks::float(), DAY_S))
        .nodes(4)
        .inter_node_latency(SimDuration::from_secs_f64(0.04))
        .scheduler(scheduler)
        .workflow(WorkflowSetup {
            spec: media_pipeline(),
            trace: LoadTrace::new(DiurnalPattern::didi(), 20.0, DAY_S),
        });
    for (node, scale) in [(1, 0.75), (2, 0.75), (3, 0.5)] {
        b = b.node_capacity(node, scale);
    }
    b
}

/// Run `exp` recording its telemetry, check the streamed digest against
/// the materialised one, and return the run, its trace and its digest.
fn digest_run(exp: &Experiment) -> (RunResult, Trace, u64) {
    let mut sink = Both::default();
    let result = exp.run_with_sink(&mut sink);
    let trace = sink.memory.into_trace();
    let streamed = sink.digest.digest();
    assert_eq!(streamed, DigestSink::of_jsonl(&trace.to_jsonl()));
    assert_eq!(sink.digest.events(), trace.len() as u64);
    (result, trace, streamed)
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
    let (_, trace, digest) = digest_run(&edge_experiment());
    assert_covers(
        &kinds(&trace),
        &["placement", "stage_span", "node_util", "fault", "recovery"],
    );
    assert_eq!(digest, EDGE_DIGEST, "edge digest {digest:#018x}");
}

/// The two static baselines of the multinode report, each on the edge
/// shape with every service pinned serverless (as the report runs them).
#[test]
fn baseline_scheduler_digests_are_pinned() {
    for (scheduler, pinned) in [
        (Scheduler::Noah, EDGE_NOAH_DIGEST),
        (Scheduler::EdgeAware, EDGE_AWARE_DIGEST),
    ] {
        let exp = edge_shape(scheduler, SystemVariant::OpenWhisk)
            .fault_plan(FaultPlan::mixed())
            .build();
        let (result, trace, digest) = digest_run(&exp);
        assert_covers(&kinds(&trace), &["placement", "stage_span", "node_util"]);
        let mn = result.multinode.expect("4-node run has a summary");
        assert!(mn.nodes.iter().all(|n| n.submitted > 0), "{scheduler:?}");
        assert_eq!(digest, pinned, "{scheduler:?} digest {digest:#018x}");
    }
}

/// Cross-node spill: a fault-free Amoeba-per-node run whose saturated
/// home pools push serverless arrivals onto calmer peers.
#[test]
fn spilling_run_digest_is_pinned() {
    let exp = edge_shape(Scheduler::AmoebaPerNode, SystemVariant::Amoeba).build();
    let (result, _, digest) = digest_run(&exp);
    let mn = result.multinode.expect("4-node run has a summary");
    assert!(mn.spill_total > 0, "no spill: {mn:?}");
    assert_eq!(digest, SPILL_DIGEST, "spill digest {digest:#018x}");
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
