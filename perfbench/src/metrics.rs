//! One benchmark run: the measurements behind every metric, and the
//! checks that gate them.

use std::time::Instant;

use amoeba_fleet::FleetRun;
use amoeba_sim::SimDuration;

use crate::probes;
use crate::stats::median;
use crate::traced::{trace_fleet, trace_world};
use crate::workloads::{Built, Outcome, Scale, Workload, FLEET_EPOCH_S, FLEET_THREADS};

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_qps", "queries/s"),
    ("observed_sim_qps", "queries/s"),
    ("peak_rss_mb", "MB"),
    ("qos_violation_pct", "%"),
    ("cpu_core_s", "core-s"),
    ("completed_pct", "%"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("runtime.events", "count"),
    ("runtime.slices", "count"),
    ("runtime.busy_s", "s"),
    ("runtime.ns_per_event", "ns"),
    ("runtime.ns_per_event.tail", "ns"),
    ("runtime.world_build_s", "s"),
    ("runtime.finish_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.records.warm_sample", "count"),
    ("telemetry.records.placement", "count"),
    ("telemetry.records.stage_span", "count"),
    ("telemetry.records.tick", "count"),
    ("telemetry.records.violation", "count"),
    ("telemetry.records.node_util", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.record_s", "s"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.share", "ratio"),
    ("fleet.cells", "count"),
    ("fleet.epochs", "count"),
    ("fleet.events", "count"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.serial_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("sim.queue.hold_ns.1k", "ns"),
    ("sim.queue.hold_ns.100k", "ns"),
    ("platform.serverless.cycle_ns", "ns"),
    ("platform.iaas.cycle_ns", "ns"),
    ("controller.decide_ns", "ns"),
    ("monitor.heartbeat_ns", "ns"),
    ("trace.overhead_s", "s"),
];

/// Set-ups timed before each measured pair; `setup_s` is the median
/// over all of them, so it samples the host at several moments.
const SETUP_REPS: usize = 50;

/// What the command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Host seconds to spend on measured run pairs (plain runs only).
    pub seconds: f64,
    /// Report the per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Simulated horizon.
    pub scale: Scale,
}

/// A run's results.
#[derive(Debug, Clone)]
pub struct Measured {
    /// `(name, unit, value)` for every metric of the requested set.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Whole simulated horizons run.
    pub attempted: u64,
    /// Lines that describe the run beyond its metrics.
    pub notes: Vec<String>,
}

/// Run the benchmark as `opts` asks, checking every simulated output.
/// Any failed check is an `Err`.
pub fn run(opts: &Options) -> Result<Measured, String> {
    let (w, seed, scale) = (opts.workload, opts.seed, opts.scale);
    let mut setups = Vec::new();
    let mut notes = Vec::new();

    // Quiet and observed runs in pairs until the time is spent (one
    // pair for a traced run); every pair must reproduce the first.
    let start = Instant::now();
    let mut quiet_s = Vec::new();
    let mut observed_s = Vec::new();
    let mut first: Option<(Outcome, Outcome)> = None;
    let mut pairs = 0;
    loop {
        let pair = Instant::now();
        setups.extend((0..SETUP_REPS).map(|_| w.time_setup(seed, scale).as_secs_f64()));
        let quiet = w.build(seed, scale).run_quiet(FLEET_THREADS)?;
        let observed = w.build(seed, scale).run_observed(FLEET_THREADS)?;
        quiet.totals.agree(&observed.totals, "quiet vs observed")?;
        quiet_s.push(quiet.host_s);
        observed_s.push(observed.host_s);
        pairs += 1;
        match &first {
            None => first = Some((quiet, observed)),
            Some((_, o)) => {
                o.totals.agree(&observed.totals, "repeated run")?;
                if o.digest != observed.digest {
                    return Err("repeated observed run: digest differs".into());
                }
            }
        }
        let left = opts.seconds - start.elapsed().as_secs_f64();
        if opts.trace || left < pair.elapsed().as_secs_f64() {
            break;
        }
    }
    let (quiet, observed) = first.expect("at least one pair ran");
    let totals = quiet.totals;
    let digest = observed.digest.expect("an observed run has a digest");
    notes.push(format!(
        "{pairs} pair(s): quiet {:.3?} s, observed {:.3?} s",
        quiet_s, observed_s
    ));
    let (quiet_s, observed_s) = (median(&quiet_s), median(&observed_s));
    let mut attempted = 2 * pairs;
    notes.push(format!(
        "{} seed {seed}: {} submitted, {} completed, {} failed ({:.4} %), {} violations, {} switches, digest {digest:#018x}",
        w.name(),
        totals.submitted,
        totals.completed,
        totals.failed,
        totals.failed_pct(),
        totals.violations,
        totals.switches,
    ));

    if !opts.trace {
        let completed = totals.completed as f64;
        let metrics = [
            median(&setups),
            completed / quiet_s,
            completed / observed_s,
            peak_rss_mb()?,
            totals.qos_violation_pct(),
            totals.core_seconds,
            totals.completed_pct(),
        ];
        return Ok(Measured {
            metrics: zip(&END_TO_END, metrics),
            attempted,
            notes,
        });
    }

    // The traced run must reproduce the observed run exactly.
    let layered = match w {
        Workload::FleetWeek => trace_fleet(seed, scale)?,
        Workload::PaperWeek | Workload::EdgeMix => trace_world(w.experiment(seed, scale))?,
    };
    layered.totals.agree(&totals, "traced vs quiet")?;
    if layered.digest != digest {
        return Err(format!(
            "traced digest {:#018x} != observed digest {digest:#018x}",
            layered.digest
        ));
    }
    attempted += 1;

    // The fleet layer at one thread. A one-world workload runs as a
    // one-cell fleet, which is all the parallelism it has.
    let (serial_s, shape, trace_base_s) = match w {
        Workload::FleetWeek => {
            let serial = w.build(seed, scale).run_quiet(1)?;
            let observed_1 = w.build(seed, scale).run_observed(1)?;
            attempted += 2;
            serial.totals.agree(&totals, "quiet at 1 thread vs 2")?;
            observed_1
                .totals
                .agree(&totals, "observed at 1 thread vs 2")?;
            if observed_1.digest != Some(digest) {
                return Err("observed digest at 1 thread differs from 2 threads".into());
            }
            let shape = quiet.fleet.expect("a fleet run has a shape");
            (serial.host_s, shape, observed_1.host_s)
        }
        Workload::PaperWeek | Workload::EdgeMix => {
            let cell = FleetRun::from_experiments(
                vec![w.experiment(seed, scale)],
                SimDuration::from_secs_f64(FLEET_EPOCH_S),
            );
            let serial = Built::Fleet(cell).run_quiet(1)?;
            attempted += 1;
            serial.totals.agree(&totals, "one-cell fleet vs quiet")?;
            let shape = serial.fleet.expect("a fleet run has a shape");
            (serial.host_s, shape, observed_s)
        }
    };

    let shrink = match scale {
        Scale::Full => 1,
        Scale::Tiny => 100,
    };
    let (serverless_ns, iaas_ns) = probes::platform_cycle_ns(2_000 / shrink, seed);
    let telemetry_overhead_s = observed_s - quiet_s;
    let metrics = [
        layered.events as f64,
        layered.slices.len() as f64,
        layered.busy_s(),
        layered.ns_per_event_median(),
        layered.ns_per_event_tail(),
        layered.world_build_s,
        layered.finish_s,
        layered.records as f64,
        layered.kinds.warm_sample as f64,
        layered.kinds.placement as f64,
        layered.kinds.stage_span as f64,
        layered.kinds.tick as f64,
        layered.kinds.violation as f64,
        layered.kinds.node_util as f64,
        layered.record_s * 1e9 / layered.records.max(1) as f64,
        layered.record_s,
        telemetry_overhead_s,
        telemetry_overhead_s / observed_s,
        shape.cells as f64,
        shape.epochs as f64,
        shape.events as f64,
        shape.shard_imbalance,
        serial_s,
        serial_s / (FLEET_THREADS as f64 * quiet_s),
        probes::queue_hold_ns(1_000, 20_000 / shrink, seed),
        probes::queue_hold_ns(100_000, 20_000 / shrink, seed),
        serverless_ns,
        iaas_ns,
        probes::controller_decide_ns(10_000 / shrink),
        probes::monitor_heartbeat_ns(1_000 / shrink),
        layered.host_s - trace_base_s,
    ];
    Ok(Measured {
        metrics: zip(&PER_LAYER, metrics),
        attempted,
        notes,
    })
}

fn zip<const N: usize>(
    names: &[(&'static str, &'static str); N],
    values: [f64; N],
) -> Vec<(&'static str, &'static str, f64)> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

/// This process's resident-memory high-water mark, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
