//! The three workloads: what they simulate and how one run of each is
//! set up and executed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use amoeba_bench::standard_scenario;
use amoeba_bench::workflow::media_pipeline;
use amoeba_chaos::FaultPlan;
use amoeba_core::{EpochRun, Experiment, RunResult, SystemVariant, WorkflowSetup};
use amoeba_fleet::{DigestSink, FleetOutcome, FleetRun, FleetSpec};
use amoeba_platform::Scheduler;
use amoeba_sim::SimDuration;
use amoeba_telemetry::NoopSink;
use amoeba_workload::{benchmarks, DiurnalPattern, LoadTrace};

use crate::checks::Totals;

/// Host threads the fleet runs on (the benchmark host has two cores).
pub const FLEET_THREADS: usize = 2;

/// `FleetSpec::new`'s epoch (barrier) length, simulated seconds.
pub(crate) const FLEET_EPOCH_S: f64 = 600.0;

/// The `multinode` report's topology: node capacity scales, 40 ms RTT.
const NODE_SCALES: [f64; 4] = [1.0, 0.75, 0.75, 0.5];
const RTT_S: f64 = 0.04;

/// Peak load of the `workflow` report's diamond pipeline, qps.
const WORKFLOW_PEAK_QPS: f64 = 60.0;

/// A benchmark workload. All arrivals are open-loop Poisson on the Didi
/// diurnal shape; the seed is the only input that varies between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §VII-A mix on one node for a week: all time in the
    /// single-threaded kernel, both platforms, controller and monitor.
    PaperWeek,
    /// 1,000 services in 16 cells for a week on the epoch-barrier
    /// executor: the only workload using the fleet layer.
    FleetWeek,
    /// The §VII-A mix on 4 nodes, plus a DAG workflow, under mixed
    /// faults for two days: fabric, fan-out/fan-in and fault recovery.
    EdgeMix,
}

/// How much to simulate: the benchmark's full horizons, or a tiny one
/// for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The horizons the metrics are defined on.
    Full,
    /// Two short days and a small fleet: seconds in a debug build.
    Tiny,
}

impl Scale {
    /// Seconds per simulated diurnal day.
    pub(crate) fn day_s(self) -> f64 {
        match self {
            Scale::Full => 4_320.0,
            Scale::Tiny => 600.0,
        }
    }

    pub(crate) fn fleet_services(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Tiny => 64,
        }
    }
}

/// A workload's inputs, built and ready to run.
pub enum Built {
    /// One experiment (one simulated world).
    World(Box<Experiment>),
    /// A partitioned fleet of cells.
    Fleet(FleetRun),
}

/// What one run produced.
pub struct Outcome {
    /// Checked simulated totals.
    pub totals: Totals,
    /// Host seconds the run took, set-up excluded.
    pub host_s: f64,
    /// The telemetry digest of an observed run.
    pub digest: Option<u64>,
    /// The executor's shape, for fleet runs.
    pub fleet: Option<FleetShape>,
}

/// The fleet executor's shape, from one fleet run.
pub struct FleetShape {
    /// Cells in the fleet.
    pub cells: usize,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Events dispatched over all cells.
    pub events: u64,
    /// Per epoch, the busiest shard's events over the mean shard's,
    /// averaged over epochs with events.
    pub shard_imbalance: f64,
}

impl FleetShape {
    fn of(out: &FleetOutcome) -> FleetShape {
        let mut per_epoch: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for span in out.fleet_trace.shard_spans() {
            per_epoch.entry(span.epoch).or_default().push(span.events);
        }
        let ratios: Vec<f64> = per_epoch
            .values()
            .filter(|events| events.iter().any(|&e| e > 0))
            .map(|events| {
                let max = *events.iter().max().expect("an epoch has shards") as f64;
                let mean = events.iter().sum::<u64>() as f64 / events.len() as f64;
                max / mean
            })
            .collect();
        FleetShape {
            cells: out.results.len(),
            epochs: out.epochs,
            events: out.events,
            shard_imbalance: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        }
    }
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperWeek, Workload::FleetWeek, Workload::EdgeMix];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper_week",
            Workload::FleetWeek => "fleet_week",
            Workload::EdgeMix => "edge_mix",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FleetWeek => 2026,
            Workload::PaperWeek | Workload::EdgeMix => 42,
        }
    }

    /// Simulated diurnal days.
    pub(crate) fn days(self) -> f64 {
        match self {
            Workload::EdgeMix => 2.0,
            Workload::PaperWeek | Workload::FleetWeek => 7.0,
        }
    }

    /// The simulated horizon.
    pub(crate) fn horizon(self, scale: Scale) -> SimDuration {
        SimDuration::from_secs_f64(self.days() * scale.day_s())
    }

    /// The fleet's spec (fleet workload only; the others ignore it).
    pub(crate) fn fleet_spec(self, seed: u64, scale: Scale) -> FleetSpec {
        FleetSpec::new(seed)
            .services(scale.fleet_services())
            .days(self.days())
            .day_seconds(scale.day_s())
    }

    /// The one-world experiment (not the fleet workload).
    pub fn experiment(self, seed: u64, scale: Scale) -> Experiment {
        let day_s = scale.day_s();
        let mut b = Experiment::builder(SystemVariant::Amoeba, self.horizon(scale), seed)
            .services(standard_scenario(benchmarks::float(), day_s));
        if self == Workload::EdgeMix {
            b = b
                .nodes(NODE_SCALES.len())
                .inter_node_latency(SimDuration::from_secs_f64(RTT_S))
                .scheduler(Scheduler::AmoebaPerNode)
                .workflow(WorkflowSetup {
                    spec: media_pipeline(),
                    trace: LoadTrace::new(DiurnalPattern::didi(), WORKFLOW_PEAK_QPS, day_s),
                })
                .fault_plan(FaultPlan::mixed());
            for (node, &scale) in NODE_SCALES.iter().enumerate().skip(1) {
                b = b.node_capacity(node, scale);
            }
        }
        b.build()
    }

    /// Build the workload's inputs from its seed.
    pub(crate) fn build(self, seed: u64, scale: Scale) -> Built {
        match self {
            Workload::FleetWeek => Built::Fleet(self.fleet_spec(seed, scale).build()),
            Workload::PaperWeek | Workload::EdgeMix => {
                Built::World(Box::new(self.experiment(seed, scale)))
            }
        }
    }

    /// Time one set-up: build the inputs and make them runnable
    /// (`ExperimentBuilder::build` + `EpochRun::new`, or
    /// `FleetSpec::build`).
    pub(crate) fn time_setup(self, seed: u64, scale: Scale) -> Duration {
        let start = Instant::now();
        match self.build(seed, scale) {
            Built::World(exp) => {
                std::hint::black_box(EpochRun::new(*exp, &mut NoopSink));
            }
            Built::Fleet(run) => {
                std::hint::black_box(run);
            }
        }
        start.elapsed()
    }
}

impl Built {
    /// Run with telemetry off (`NoopSink`); a fleet runs on `threads`
    /// workers, one world on one thread.
    pub fn run_quiet(self, threads: usize) -> Result<Outcome, String> {
        let start = Instant::now();
        match self {
            Built::World(exp) => {
                let result = exp.run();
                world_outcome(result, start, None)
            }
            Built::Fleet(run) => {
                let out = run.run_quiet(threads);
                fleet_outcome(out, start, false)
            }
        }
    }

    /// Run with every telemetry event hashed (`DigestSink`); a fleet
    /// runs on `threads` workers, one world on one thread.
    pub fn run_observed(self, threads: usize) -> Result<Outcome, String> {
        let start = Instant::now();
        match self {
            Built::World(exp) => {
                let mut sink = DigestSink::new();
                let result = exp.run_with_sink(&mut sink);
                world_outcome(result, start, Some(sink.digest()))
            }
            Built::Fleet(run) => {
                let out = run.run(threads);
                fleet_outcome(out, start, true)
            }
        }
    }
}

fn world_outcome(
    result: RunResult,
    start: Instant,
    digest: Option<u64>,
) -> Result<Outcome, String> {
    let host_s = start.elapsed().as_secs_f64();
    Ok(Outcome {
        totals: Totals::of(&result.services)?,
        host_s,
        digest,
        fleet: None,
    })
}

fn fleet_outcome(out: FleetOutcome, start: Instant, observed: bool) -> Result<Outcome, String> {
    let host_s = start.elapsed().as_secs_f64();
    // A quiet fleet folds a zero per cell into its digest, a constant
    // for every seed: only an observed digest is a result.
    let digest = observed.then_some(out.digest);
    Ok(Outcome {
        totals: Totals::of(out.results.iter().flat_map(|r| &r.services))?,
        host_s,
        digest,
        fleet: Some(FleetShape::of(&out)),
    })
}
