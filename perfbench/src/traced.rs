//! The traced run: the simulated horizon advanced in fixed slices
//! through `EpochRun::run_until`, with every slice and every telemetry
//! `record` call timed from outside the crates.

use std::time::Instant;

use amoeba_core::{EpochRun, Experiment, ServiceResult, ServiceSetup, SystemVariant};
use amoeba_fleet::{assign_cell, fnv1a, DigestSink, FNV_OFFSET};
use amoeba_platform::ServerlessConfig;
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{TelemetryEvent, TelemetrySink};
use amoeba_tenancy::{FleetBuilder, OverbookingPolicy, PoolCapacity, ReclamationConfig};
use amoeba_workload::LoadTrace;

use crate::checks::Totals;
use crate::stats::{median, tail};
use crate::workloads::{Scale, Workload, FLEET_EPOCH_S};

/// Simulated length of one timed slice of a one-world run.
const SLICE_S: f64 = 10.0;

/// Events recorded per kind, for the kinds the layer table names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// `WarmSample` events.
    pub warm_sample: u64,
    /// `Placement` events.
    pub placement: u64,
    /// `StageSpan` events.
    pub stage_span: u64,
    /// `Tick` events.
    pub tick: u64,
    /// `Violation` events.
    pub violation: u64,
    /// `NodeUtil` events.
    pub node_util: u64,
}

impl KindCounts {
    fn count(&mut self, event: &TelemetryEvent) {
        let slot = match event {
            TelemetryEvent::WarmSample(_) => &mut self.warm_sample,
            TelemetryEvent::Placement(_) => &mut self.placement,
            TelemetryEvent::StageSpan(_) => &mut self.stage_span,
            TelemetryEvent::Tick(_) => &mut self.tick,
            TelemetryEvent::Violation(_) => &mut self.violation,
            TelemetryEvent::NodeUtil(_) => &mut self.node_util,
            _ => return,
        };
        *slot += 1;
    }

    fn add(&mut self, other: &KindCounts) {
        self.warm_sample += other.warm_sample;
        self.placement += other.placement;
        self.stage_span += other.stage_span;
        self.tick += other.tick;
        self.violation += other.violation;
        self.node_util += other.node_util;
    }
}

/// The observed run's `DigestSink`, with each `record` call counted by
/// kind and timed.
#[derive(Debug, Default)]
pub struct TimingSink {
    inner: DigestSink,
    /// Events recorded, by kind.
    pub kinds: KindCounts,
    /// Host nanoseconds spent inside `DigestSink::record`.
    pub record_ns: u64,
}

impl TimingSink {
    /// The digest of everything recorded.
    pub fn digest(&self) -> u64 {
        self.inner.digest()
    }

    /// Events recorded.
    pub fn records(&self) -> u64 {
        self.inner.events()
    }
}

impl TelemetrySink for TimingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TelemetryEvent) {
        self.kinds.count(&event);
        let start = Instant::now();
        self.inner.record(event);
        self.record_ns += start.elapsed().as_nanos() as u64;
    }
}

/// What a traced run measured, summed over cells for a fleet.
#[derive(Default)]
pub struct Layered {
    /// Checked simulated totals (must equal the quiet run's).
    pub totals: Totals,
    /// Every service's results, in cell order, until `totals` is set.
    services: Vec<ServiceResult>,
    /// Telemetry digest (must equal the observed run's).
    pub digest: u64,
    /// Host seconds of the whole traced run.
    pub host_s: f64,
    /// Events dispatched.
    pub events: u64,
    /// Kernel self time per slice (slice time minus time in the sink),
    /// with the slice's event count.
    pub slices: Vec<(f64, u64)>,
    /// Host seconds in `EpochRun::new`.
    pub world_build_s: f64,
    /// Host seconds in `EpochRun::finish`.
    pub finish_s: f64,
    /// Telemetry events recorded.
    pub records: u64,
    /// Telemetry events recorded, by kind.
    pub kinds: KindCounts,
    /// Host seconds inside the sink's `record`.
    pub record_s: f64,
}

impl Layered {
    /// Kernel busy time: the sum of slice self times.
    pub fn busy_s(&self) -> f64 {
        self.slices.iter().map(|s| s.0).sum()
    }

    /// Per-slice kernel nanoseconds per event, over slices with events.
    fn ns_per_event(&self) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| s.1 > 0)
            .map(|&(secs, events)| secs * 1e9 / events as f64)
            .collect()
    }

    /// Median kernel nanoseconds per event over slices.
    pub fn ns_per_event_median(&self) -> f64 {
        median(&self.ns_per_event())
    }

    /// The slice tail of kernel nanoseconds per event.
    pub fn ns_per_event_tail(&self) -> f64 {
        tail(&self.ns_per_event())
    }

    /// Advance `run` with `step` as one timed slice.
    fn slice(
        &mut self,
        run: &mut EpochRun,
        sink: &mut TimingSink,
        step: impl FnOnce(&mut EpochRun, &mut TimingSink),
    ) {
        let (events, record_ns) = (run.events_processed(), sink.record_ns);
        let start = Instant::now();
        step(run, sink);
        let secs = start.elapsed().as_secs_f64();
        let in_sink = (sink.record_ns - record_ns) as f64 * 1e-9;
        self.slices
            .push(((secs - in_sink).max(0.0), run.events_processed() - events));
    }

    /// Fold a drained cell into the record.
    fn finish(&mut self, run: EpochRun, sink: &TimingSink) {
        self.events += run.events_processed();
        let start = Instant::now();
        let result = run.finish();
        self.finish_s += start.elapsed().as_secs_f64();
        self.services.extend(result.services);
        self.records += sink.records();
        self.kinds.add(&sink.kinds);
        self.record_s += sink.record_ns as f64 * 1e-9;
    }

    /// Check and sum the services in the order the untraced runs do,
    /// so floating-point totals compare bit for bit.
    fn close(mut self, digest: u64, start: Instant) -> Result<Layered, String> {
        self.totals = Totals::of(&self.services)?;
        self.services = Vec::new();
        self.digest = digest;
        self.host_s = start.elapsed().as_secs_f64();
        Ok(self)
    }
}

fn timed_build(exp: Experiment, sink: &mut TimingSink, layered: &mut Layered) -> EpochRun {
    let start = Instant::now();
    let run = EpochRun::new(exp, sink);
    layered.world_build_s += start.elapsed().as_secs_f64();
    run
}

/// Trace a one-world workload in slices of [`SLICE_S`] simulated
/// seconds.
pub fn trace_world(exp: Experiment) -> Result<Layered, String> {
    let start = Instant::now();
    let end = SimTime::ZERO + exp.horizon;
    let slice = SimDuration::from_secs_f64(SLICE_S);
    let mut layered = Layered::default();
    let mut sink = TimingSink::default();
    let mut run = timed_build(exp, &mut sink, &mut layered);
    let mut bound = SimTime::ZERO;
    while bound < end {
        bound = (bound + slice).min(end);
        layered.slice(&mut run, &mut sink, |r, s| r.run_until(bound, s));
    }
    layered.slice(&mut run, &mut sink, |r, s| r.run_to_completion(s));
    layered.finish(run, &sink);
    layered.close(sink.digest(), start)
}

/// Trace the fleet workload on one thread, one slice per cell per
/// epoch.
///
/// `FleetRun` keeps its cells private, so this rebuilds them the way
/// `FleetSpec::build` does with `FleetSpec::new`'s defaults, and runs
/// the executor's exchange between epochs. The caller checks the digest
/// against `FleetRun::run`'s, so any drift from the crate shows as a
/// failed check rather than a silently different simulation.
pub fn trace_fleet(seed: u64, scale: Scale) -> Result<Layered, String> {
    let start = Instant::now();
    let horizon = Workload::FleetWeek.horizon(scale);
    let epoch = SimDuration::from_secs_f64(FLEET_EPOCH_S);
    let reclamation = ReclamationConfig::default();
    let mut layered = Layered::default();
    let mut cells: Vec<(EpochRun, TimingSink)> = fleet_cells(seed, scale, horizon)
        .into_iter()
        .map(|exp| {
            let mut sink = TimingSink::default();
            let run = timed_build(exp, &mut sink, &mut layered);
            (run, sink)
        })
        .collect();

    let end = SimTime::ZERO + horizon;
    let mut boundary = SimTime::ZERO;
    let mut throttled = false;
    while boundary < end && !cells.is_empty() {
        boundary = (boundary + epoch).min(end);
        for (run, sink) in cells.iter_mut() {
            layered.slice(run, sink, |r, s| r.run_until(boundary, s));
        }
        // The exchange, as `FleetRun` performs it: mean pool occupancy
        // becomes every cell's external pressure, and its peak steps
        // fleet-level reclamation.
        let mut mean = [0.0f64; 3];
        for (run, _) in cells.iter() {
            for (m, u) in mean.iter_mut().zip(run.pool_utilization()) {
                *m += u;
            }
        }
        for m in mean.iter_mut() {
            *m /= cells.len() as f64;
        }
        for (run, _) in cells.iter_mut() {
            run.set_external_pressure(mean);
        }
        let next = reclamation.step(throttled, mean.iter().cloned().fold(0.0, f64::max));
        if next != throttled {
            let cap = next.then_some(reclamation.throttled_cap);
            for (run, _) in cells.iter_mut() {
                run.set_service_caps(cap);
            }
            throttled = next;
        }
    }

    let mut digest = FNV_OFFSET;
    for (mut run, mut sink) in cells {
        layered.slice(&mut run, &mut sink, |r, s| r.run_to_completion(s));
        digest = fnv1a(digest, &sink.digest().to_le_bytes());
        layered.finish(run, &sink);
    }
    layered.close(digest, start)
}

/// `FleetSpec::new`'s cell count.
const FLEET_CELLS: usize = 16;

/// The cells `FleetSpec::new(seed)` builds at this scale: generated
/// tenants in name order, admitted at 2× overbooking against the
/// aggregate pool, placed by name hash.
fn fleet_cells(seed: u64, scale: Scale, horizon: SimDuration) -> Vec<Experiment> {
    let mut tenants = FleetBuilder::new(seed)
        .tenants(scale.fleet_services())
        .peak_scale(0.0002, 0.002)
        .peak_floor(0.001)
        .qos_slack(2.0)
        .build();
    tenants.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
    let cfg = ServerlessConfig::default();
    let n = FLEET_CELLS as f64;
    let pool = PoolCapacity {
        cores: cfg.node.cores * n,
        mem_mb: cfg.pool_memory_mb * n,
        io_mbps: cfg.node.disk_bw_mbps * n,
        net_mbps: cfg.node.nic_bw_mbps * n,
        solo_io_mbps: cfg.per_flow_io_mbps,
        solo_net_mbps: cfg.per_flow_net_mbps,
    };
    let decisions = OverbookingPolicy { ratio: 2.0 }.admit(&tenants, &pool);
    let mut per_cell: Vec<Vec<ServiceSetup>> = (0..FLEET_CELLS).map(|_| Vec::new()).collect();
    for (t, d) in tenants.iter().zip(&decisions) {
        if d.admitted {
            per_cell[assign_cell(&t.spec.name, FLEET_CELLS)].push(ServiceSetup {
                spec: t.spec.clone(),
                trace: LoadTrace::new(t.pattern.clone(), t.spec.peak_qps, scale.day_s()),
                background: false,
            });
        }
    }
    per_cell
        .into_iter()
        .enumerate()
        .map(|(i, services)| {
            let cell_seed = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Experiment::builder(SystemVariant::Amoeba, horizon, cell_seed)
                .services(services)
                .control_period(SimDuration::from_secs(300))
                .usage_sample_period(SimDuration::from_secs(600))
                .run_meters(false)
                .build()
        })
        .collect()
}
