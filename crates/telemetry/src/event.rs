//! The telemetry event vocabulary and its JSON-lines encoding.
//!
//! Every event is flat, owns its data, and round-trips through one JSON
//! object with a `"type"` discriminator — see DESIGN.md §"Telemetry
//! event schema" for the full schema. This module holds the `Value`
//! tree codec; the streaming encoder that writes JSON lines is in
//! `encode.rs`.

use amoeba_json::{json, Value};
use amoeba_sim::SimTime;

pub use crate::vocab::{
    FaultKind, Mode, RecoveryKind, SwitchPhase, TickReason, TraceDecision, ViolationCause,
};

/// One service's identity in the run header.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceInfo {
    /// The service's name.
    pub name: String,
    /// Background (contention-generating, pinned serverless) service?
    pub background: bool,
    /// Where it starts.
    pub initial_mode: Mode,
}

/// Per-tick controller record: everything Eq. 5/Eq. 6 saw and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Tick time.
    pub t: SimTime,
    /// Service index (registration order).
    pub service: usize,
    /// Current deployment mode.
    pub mode: Mode,
    /// Estimated load `V_u` (λ), queries/second.
    pub load_qps: f64,
    /// Eq. 6 predicted per-container capacity `μ`, queries/second.
    pub mu: f64,
    /// Eq. 5 discriminant `λ(μ)`: the maximum admissible load.
    pub lambda_max: f64,
    /// Pressure vector the discriminant was evaluated at.
    pub pressures: [f64; 3],
    /// Eq. 6 weights `w`.
    pub weights: [f64; 3],
    /// The verdict.
    pub decision: TraceDecision,
    /// Why.
    pub reason: TickReason,
}

/// One step of one switch's protocol execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// When the step happened.
    pub t: SimTime,
    /// Service index.
    pub service: usize,
    /// Mode being left.
    pub from: Mode,
    /// Mode being entered.
    pub to: Mode,
    /// Which protocol step.
    pub phase: SwitchPhase,
    /// Eq. 7 prewarm count (`Requested` toward serverless; else 0).
    pub prewarm_count: u32,
    /// Estimated load at this step, queries/second.
    pub load_qps: f64,
}

/// Monitor heartbeat: the sample-period summary the PCA consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatRecord {
    /// Heartbeat time.
    pub t: SimTime,
    /// Smoothed meter latencies [cpu, io, net], seconds (None = no
    /// observation yet).
    pub meter_latency_s: [Option<f64>; 3],
    /// Inverted pressures `P`.
    pub pressures: [f64; 3],
    /// Eq. 6 weights after this heartbeat's refresh.
    pub weights: [f64; 3],
}

/// One query finishing over its QoS target.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Completion time.
    pub t: SimTime,
    /// Service index.
    pub service: usize,
    /// Where the query executed.
    pub platform: Mode,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// The QoS target it missed, seconds.
    pub target_s: f64,
    /// Cold-start share of the latency, seconds.
    pub cold_start_s: f64,
    /// Queueing share, seconds.
    pub queue_wait_s: f64,
    /// Attributed cause.
    pub cause: ViolationCause,
}

/// A warm serverless execution's latency breakdown (Fig. 4 input).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSampleRecord {
    /// Completion time.
    pub t: SimTime,
    /// Service index.
    pub service: usize,
    /// Auth/processing overhead, seconds.
    pub auth_s: f64,
    /// Code-loading overhead, seconds.
    pub code_load_s: f64,
    /// Result-posting overhead, seconds.
    pub result_post_s: f64,
    /// Execution time, seconds.
    pub exec_s: f64,
}

/// One proactive-controller forecast: what the [`TickRecord`]'s decision
/// evaluated Eq. 5 against when the run is an Amoeba-Pro variant.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastRecord {
    /// Tick time the forecast was issued at.
    pub t: SimTime,
    /// Service index.
    pub service: usize,
    /// Horizon the forecast targets (the switch latency), seconds.
    pub horizon_s: f64,
    /// Point forecast of λ at `t + horizon`, queries/second.
    pub mean_qps: f64,
    /// Lower bound of the forecast band.
    pub lo_qps: f64,
    /// Upper bound of the band — what the controller fed into Eq. 5.
    pub hi_qps: f64,
    /// λ actually realized at `t + horizon`, filled in by the report
    /// layer after the run (None while the stream is being produced).
    pub realized_qps: Option<f64>,
}

/// One injected fault landing (or an induced failure being detected).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// When the fault fired / was detected.
    pub t: SimTime,
    /// What kind of fault.
    pub kind: FaultKind,
    /// Affected service index, when the fault is attributable to one
    /// (e.g. boot failures, ack losses); `None` for pool-wide faults.
    pub service: Option<usize>,
    /// In-flight queries displaced by the fault (crashes, forced
    /// drains).
    pub queries_displaced: u64,
    /// Of those, queries lost outright instead of re-queued.
    pub queries_dropped: u64,
}

/// One user query's node placement (multi-node runs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Arrival time.
    pub t: SimTime,
    /// Service index.
    pub service: usize,
    /// Executing node's index (0 = the home/control node).
    pub node: usize,
    /// Did the scheduler spill the query off its home node?
    pub spill: bool,
}

/// Fleet-wide utilization snapshot, once per control tick (multi-node
/// runs only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeUtilRecord {
    /// Tick time.
    pub t: SimTime,
    /// Mean serverless-pool utilization across nodes [cpu, io, net].
    pub mean_util: [f64; 3],
    /// The hottest node's peak resource utilization.
    pub max_node_util: f64,
}

/// One tenant's admission decision (multi-tenant runs only). Emitted at
/// setup, one per submitted tenant, before any queries flow.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRecord {
    /// Decision time (setup, so effectively t=0).
    pub t: SimTime,
    /// Tenant service name.
    pub tenant: String,
    /// Whether the vendor admitted the tenant.
    pub admitted: bool,
    /// The pool share the tenant's provisioned peak reserves.
    pub reserved_share: f64,
    /// Overbooking ratio in force at the decision.
    pub ratio: f64,
}

/// Vendor control-tick sample (multi-tenant runs only): what the
/// vendor's reclamation loop saw and did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VendorSampleRecord {
    /// Tick time.
    pub t: SimTime,
    /// Serverless pool utilization [cpu, io, net].
    pub pool_util: [f64; 3],
    /// Containers alive in the pool.
    pub containers: u64,
    /// Whether tenant caps are throttled by reclamation after this tick.
    pub throttled: bool,
}

/// One worker shard's accounting for one epoch of a fleet run (fleet
/// executor only). Spans are emitted per epoch in shard-index order —
/// a deterministic order for a given shard count, but the shard → cell
/// assignment varies with the worker-thread count, which is why the
/// fleet digest covers per-cell traces and not these spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpanRecord {
    /// The epoch boundary the span ends at.
    pub t: SimTime,
    /// Epoch index.
    pub epoch: u64,
    /// Shard (worker slot) index.
    pub shard: usize,
    /// Cells the shard advanced this epoch.
    pub cells: u64,
    /// Simulation events the shard dispatched this epoch.
    pub events: u64,
}

/// Fleet-wide sample at one epoch boundary (fleet executor only): the
/// cross-cell state the epoch exchange computed and fed back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSampleRecord {
    /// The epoch boundary.
    pub t: SimTime,
    /// Epoch index.
    pub epoch: u64,
    /// Mean serverless-pool utilization across cells [cpu, io, net].
    pub mean_util: [f64; 3],
    /// External pressure injected into every cell for the next epoch.
    pub external_pressure: [f64; 3],
    /// Whether fleet-level reclamation throttled service caps.
    pub throttled: bool,
}

/// One completed workflow stage of one query instance (workflow runs
/// only). The `instance` is shared by every stage span of one DAG
/// traversal, so joining on it reconstructs the whole critical path;
/// `latency_s > budget_s` attributes an end-to-end violation to this
/// stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpanRecord {
    /// Stage completion time.
    pub t: SimTime,
    /// Workflow index (order of attachment to the experiment).
    pub workflow: usize,
    /// The instance (root sequence number) this span belongs to.
    pub instance: u64,
    /// Stage index within the DAG.
    pub stage: usize,
    /// Runtime service index the stage executed as.
    pub service: usize,
    /// Platform the stage executed on.
    pub platform: Mode,
    /// Stage latency (submit → complete), seconds.
    pub latency_s: f64,
    /// This stage's slice of the end-to-end budget, seconds.
    pub budget_s: f64,
}

/// The system recovering from an earlier fault.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// When the recovery completed.
    pub t: SimTime,
    /// What kind of recovery.
    pub kind: RecoveryKind,
    /// Affected service index, when attributable to one.
    pub service: Option<usize>,
    /// Seconds from the triggering fault to this recovery.
    pub after_s: f64,
}

/// The event stream's alphabet.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Run header: identifies the scenario the rest of the stream
    /// belongs to.
    RunStarted {
        /// System variant label (e.g. "Amoeba").
        variant: String,
        /// RNG seed.
        seed: u64,
        /// Simulated duration, seconds.
        horizon_s: f64,
        /// The services, in index order.
        services: Vec<ServiceInfo>,
    },
    /// Per-tick controller record.
    Tick(TickRecord),
    /// Switch-protocol step.
    Switch(SwitchRecord),
    /// Monitor heartbeat.
    Heartbeat(HeartbeatRecord),
    /// QoS violation with attribution.
    Violation(ViolationRecord),
    /// Warm serverless breakdown sample.
    WarmSample(WarmSampleRecord),
    /// Proactive-controller forecast (Amoeba-Pro runs only).
    Forecast(ForecastRecord),
    /// An injected fault landed (chaos runs only).
    Fault(FaultRecord),
    /// The system recovered from an earlier fault (chaos runs only).
    Recovery(RecoveryRecord),
    /// A completed workflow stage span (workflow runs only).
    StageSpan(StageSpanRecord),
    /// A query's node placement (multi-node runs only).
    Placement(PlacementRecord),
    /// Fleet utilization snapshot (multi-node runs only).
    NodeUtil(NodeUtilRecord),
    /// A tenant admission decision (multi-tenant runs only).
    Admission(AdmissionRecord),
    /// Vendor reclamation-loop sample (multi-tenant runs only).
    VendorSample(VendorSampleRecord),
    /// One shard's per-epoch accounting (fleet executor only).
    ShardSpan(ShardSpanRecord),
    /// Fleet-wide epoch-boundary sample (fleet executor only).
    FleetSample(FleetSampleRecord),
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong.
    pub message: String,
}

impl DecodeError {
    /// Wrap a message.
    pub fn new(message: String) -> Self {
        DecodeError { message }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn triple(v: [f64; 3]) -> Value {
    Value::Array(vec![v[0].into(), v[1].into(), v[2].into()])
}

fn get_f64(v: &Value, key: &str) -> Result<f64, DecodeError> {
    v[key]
        .as_f64()
        .ok_or_else(|| DecodeError::new(format!("missing number '{key}'")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, DecodeError> {
    v[key]
        .as_u64()
        .ok_or_else(|| DecodeError::new(format!("missing integer '{key}'")))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, DecodeError> {
    v[key]
        .as_str()
        .ok_or_else(|| DecodeError::new(format!("missing string '{key}'")))
}

fn get_time(v: &Value) -> Result<SimTime, DecodeError> {
    Ok(SimTime::from_micros(get_u64(v, "t_us")?))
}

fn get_triple(v: &Value, key: &str) -> Result<[f64; 3], DecodeError> {
    let arr = v[key]
        .as_array()
        .ok_or_else(|| DecodeError::new(format!("missing array '{key}'")))?;
    if arr.len() != 3 {
        return Err(DecodeError::new(format!("'{key}' must have 3 entries")));
    }
    let mut out = [0.0; 3];
    for (i, x) in arr.iter().enumerate() {
        out[i] = x
            .as_f64()
            .ok_or_else(|| DecodeError::new(format!("non-number in '{key}'")))?;
    }
    Ok(out)
}

impl TelemetryEvent {
    /// Encode as one JSON object tree: the form [`TelemetryEvent::from_json`]
    /// decodes. JSON-lines output is written by
    /// [`TelemetryEvent::write_json`], whose bytes equal this tree's
    /// `compact()` rendering; this form is its test oracle.
    pub fn to_json(&self) -> Value {
        match self {
            TelemetryEvent::RunStarted {
                variant,
                seed,
                horizon_s,
                services,
            } => {
                let svc: Vec<Value> = services
                    .iter()
                    .map(|s| {
                        json!({
                            "name": s.name.clone(),
                            "background": s.background,
                            "initial_mode": s.initial_mode.tag(),
                        })
                    })
                    .collect();
                json!({
                    "type": "run_started",
                    "variant": variant.clone(),
                    "seed": *seed,
                    "horizon_s": *horizon_s,
                    "services": svc,
                })
            }
            TelemetryEvent::Tick(r) => json!({
                "type": "tick",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "mode": r.mode.tag(),
                "load_qps": r.load_qps,
                "mu": r.mu,
                "lambda_max": r.lambda_max,
                "pressures": (triple(r.pressures)),
                "weights": (triple(r.weights)),
                "decision": r.decision.tag(),
                "reason": r.reason.tag(),
            }),
            TelemetryEvent::Switch(r) => json!({
                "type": "switch",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "from": r.from.tag(),
                "to": r.to.tag(),
                "phase": r.phase.tag(),
                "prewarm_count": r.prewarm_count,
                "load_qps": r.load_qps,
            }),
            TelemetryEvent::Heartbeat(r) => {
                let lat: Vec<Value> = r.meter_latency_s.iter().map(|l| Value::from(*l)).collect();
                json!({
                    "type": "heartbeat",
                    "t_us": r.t.as_micros(),
                    "meter_latency_s": (Value::Array(lat)),
                    "pressures": (triple(r.pressures)),
                    "weights": (triple(r.weights)),
                })
            }
            TelemetryEvent::Violation(r) => json!({
                "type": "violation",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "platform": r.platform.tag(),
                "latency_s": r.latency_s,
                "target_s": r.target_s,
                "cold_start_s": r.cold_start_s,
                "queue_wait_s": r.queue_wait_s,
                "cause": r.cause.tag(),
            }),
            TelemetryEvent::WarmSample(r) => json!({
                "type": "warm_sample",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "auth_s": r.auth_s,
                "code_load_s": r.code_load_s,
                "result_post_s": r.result_post_s,
                "exec_s": r.exec_s,
            }),
            TelemetryEvent::Forecast(r) => json!({
                "type": "forecast",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "horizon_s": r.horizon_s,
                "mean_qps": r.mean_qps,
                "lo_qps": r.lo_qps,
                "hi_qps": r.hi_qps,
                "realized_qps": (Value::from(r.realized_qps)),
            }),
            TelemetryEvent::Fault(r) => json!({
                "type": "fault",
                "t_us": r.t.as_micros(),
                "kind": r.kind.tag(),
                "service": (Value::from(r.service)),
                "queries_displaced": r.queries_displaced,
                "queries_dropped": r.queries_dropped,
            }),
            TelemetryEvent::Recovery(r) => json!({
                "type": "recovery",
                "t_us": r.t.as_micros(),
                "kind": r.kind.tag(),
                "service": (Value::from(r.service)),
                "after_s": r.after_s,
            }),
            TelemetryEvent::StageSpan(r) => json!({
                "type": "stage_span",
                "t_us": r.t.as_micros(),
                "workflow": r.workflow,
                "instance": r.instance,
                "stage": r.stage,
                "service": r.service,
                "platform": r.platform.tag(),
                "latency_s": r.latency_s,
                "budget_s": r.budget_s,
            }),
            TelemetryEvent::Placement(r) => json!({
                "type": "placement",
                "t_us": r.t.as_micros(),
                "service": r.service,
                "node": r.node,
                "spill": r.spill,
            }),
            TelemetryEvent::NodeUtil(r) => json!({
                "type": "node_util",
                "t_us": r.t.as_micros(),
                "mean_util": (triple(r.mean_util)),
                "max_node_util": r.max_node_util,
            }),
            TelemetryEvent::Admission(r) => json!({
                "type": "admission",
                "t_us": r.t.as_micros(),
                "tenant": (r.tenant.clone()),
                "admitted": r.admitted,
                "reserved_share": r.reserved_share,
                "ratio": r.ratio,
            }),
            TelemetryEvent::VendorSample(r) => json!({
                "type": "vendor_sample",
                "t_us": r.t.as_micros(),
                "pool_util": (triple(r.pool_util)),
                "containers": r.containers,
                "throttled": r.throttled,
            }),
            TelemetryEvent::ShardSpan(r) => json!({
                "type": "shard_span",
                "t_us": r.t.as_micros(),
                "epoch": r.epoch,
                "shard": r.shard,
                "cells": r.cells,
                "events": r.events,
            }),
            TelemetryEvent::FleetSample(r) => json!({
                "type": "fleet_sample",
                "t_us": r.t.as_micros(),
                "epoch": r.epoch,
                "mean_util": (triple(r.mean_util)),
                "external_pressure": (triple(r.external_pressure)),
                "throttled": r.throttled,
            }),
        }
    }

    /// Decode one JSON-lines object.
    pub fn from_json(v: &Value) -> Result<Self, DecodeError> {
        match get_str(v, "type")? {
            "run_started" => {
                let mut services = Vec::new();
                let arr = v["services"]
                    .as_array()
                    .ok_or_else(|| DecodeError::new("missing 'services'".into()))?;
                for s in arr {
                    services.push(ServiceInfo {
                        name: get_str(s, "name")?.to_string(),
                        background: s["background"]
                            .as_bool()
                            .ok_or_else(|| DecodeError::new("missing 'background'".into()))?,
                        initial_mode: Mode::from_tag(get_str(s, "initial_mode")?)?,
                    });
                }
                Ok(TelemetryEvent::RunStarted {
                    variant: get_str(v, "variant")?.to_string(),
                    seed: get_u64(v, "seed")?,
                    horizon_s: get_f64(v, "horizon_s")?,
                    services,
                })
            }
            "tick" => Ok(TelemetryEvent::Tick(TickRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                mode: Mode::from_tag(get_str(v, "mode")?)?,
                load_qps: get_f64(v, "load_qps")?,
                mu: get_f64(v, "mu")?,
                lambda_max: get_f64(v, "lambda_max")?,
                pressures: get_triple(v, "pressures")?,
                weights: get_triple(v, "weights")?,
                decision: TraceDecision::from_tag(get_str(v, "decision")?)?,
                reason: TickReason::from_tag(get_str(v, "reason")?)?,
            })),
            "switch" => Ok(TelemetryEvent::Switch(SwitchRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                from: Mode::from_tag(get_str(v, "from")?)?,
                to: Mode::from_tag(get_str(v, "to")?)?,
                phase: SwitchPhase::from_tag(get_str(v, "phase")?)?,
                prewarm_count: get_u64(v, "prewarm_count")? as u32,
                load_qps: get_f64(v, "load_qps")?,
            })),
            "heartbeat" => {
                let arr = v["meter_latency_s"]
                    .as_array()
                    .ok_or_else(|| DecodeError::new("missing 'meter_latency_s'".into()))?;
                if arr.len() != 3 {
                    return Err(DecodeError::new("'meter_latency_s' must have 3".into()));
                }
                let mut lat = [None; 3];
                for (i, x) in arr.iter().enumerate() {
                    lat[i] = x.as_f64();
                }
                Ok(TelemetryEvent::Heartbeat(HeartbeatRecord {
                    t: get_time(v)?,
                    meter_latency_s: lat,
                    pressures: get_triple(v, "pressures")?,
                    weights: get_triple(v, "weights")?,
                }))
            }
            "violation" => Ok(TelemetryEvent::Violation(ViolationRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                platform: Mode::from_tag(get_str(v, "platform")?)?,
                latency_s: get_f64(v, "latency_s")?,
                target_s: get_f64(v, "target_s")?,
                cold_start_s: get_f64(v, "cold_start_s")?,
                queue_wait_s: get_f64(v, "queue_wait_s")?,
                cause: ViolationCause::from_tag(get_str(v, "cause")?)?,
            })),
            "warm_sample" => Ok(TelemetryEvent::WarmSample(WarmSampleRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                auth_s: get_f64(v, "auth_s")?,
                code_load_s: get_f64(v, "code_load_s")?,
                result_post_s: get_f64(v, "result_post_s")?,
                exec_s: get_f64(v, "exec_s")?,
            })),
            "forecast" => Ok(TelemetryEvent::Forecast(ForecastRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                horizon_s: get_f64(v, "horizon_s")?,
                mean_qps: get_f64(v, "mean_qps")?,
                lo_qps: get_f64(v, "lo_qps")?,
                hi_qps: get_f64(v, "hi_qps")?,
                realized_qps: v["realized_qps"].as_f64(),
            })),
            "fault" => Ok(TelemetryEvent::Fault(FaultRecord {
                t: get_time(v)?,
                kind: FaultKind::from_tag(get_str(v, "kind")?)?,
                service: v["service"].as_u64().map(|s| s as usize),
                queries_displaced: get_u64(v, "queries_displaced")?,
                queries_dropped: get_u64(v, "queries_dropped")?,
            })),
            "recovery" => Ok(TelemetryEvent::Recovery(RecoveryRecord {
                t: get_time(v)?,
                kind: RecoveryKind::from_tag(get_str(v, "kind")?)?,
                service: v["service"].as_u64().map(|s| s as usize),
                after_s: get_f64(v, "after_s")?,
            })),
            "stage_span" => Ok(TelemetryEvent::StageSpan(StageSpanRecord {
                t: get_time(v)?,
                workflow: get_u64(v, "workflow")? as usize,
                instance: get_u64(v, "instance")?,
                stage: get_u64(v, "stage")? as usize,
                service: get_u64(v, "service")? as usize,
                platform: Mode::from_tag(get_str(v, "platform")?)?,
                latency_s: get_f64(v, "latency_s")?,
                budget_s: get_f64(v, "budget_s")?,
            })),
            "placement" => Ok(TelemetryEvent::Placement(PlacementRecord {
                t: get_time(v)?,
                service: get_u64(v, "service")? as usize,
                node: get_u64(v, "node")? as usize,
                spill: v["spill"]
                    .as_bool()
                    .ok_or_else(|| DecodeError::new("missing 'spill'".into()))?,
            })),
            "node_util" => Ok(TelemetryEvent::NodeUtil(NodeUtilRecord {
                t: get_time(v)?,
                mean_util: get_triple(v, "mean_util")?,
                max_node_util: get_f64(v, "max_node_util")?,
            })),
            "admission" => Ok(TelemetryEvent::Admission(AdmissionRecord {
                t: get_time(v)?,
                tenant: get_str(v, "tenant")?.to_string(),
                admitted: v["admitted"]
                    .as_bool()
                    .ok_or_else(|| DecodeError::new("missing 'admitted'".into()))?,
                reserved_share: get_f64(v, "reserved_share")?,
                ratio: get_f64(v, "ratio")?,
            })),
            "vendor_sample" => Ok(TelemetryEvent::VendorSample(VendorSampleRecord {
                t: get_time(v)?,
                pool_util: get_triple(v, "pool_util")?,
                containers: get_u64(v, "containers")?,
                throttled: v["throttled"]
                    .as_bool()
                    .ok_or_else(|| DecodeError::new("missing 'throttled'".into()))?,
            })),
            "shard_span" => Ok(TelemetryEvent::ShardSpan(ShardSpanRecord {
                t: get_time(v)?,
                epoch: get_u64(v, "epoch")?,
                shard: get_u64(v, "shard")? as usize,
                cells: get_u64(v, "cells")?,
                events: get_u64(v, "events")?,
            })),
            "fleet_sample" => Ok(TelemetryEvent::FleetSample(FleetSampleRecord {
                t: get_time(v)?,
                epoch: get_u64(v, "epoch")?,
                mean_util: get_triple(v, "mean_util")?,
                external_pressure: get_triple(v, "external_pressure")?,
                throttled: v["throttled"]
                    .as_bool()
                    .ok_or_else(|| DecodeError::new("missing 'throttled'".into()))?,
            })),
            other => Err(DecodeError::new(format!("unknown event type '{other}'"))),
        }
    }

    /// The event's timestamp (run headers read as t=0).
    pub fn time(&self) -> SimTime {
        match self {
            TelemetryEvent::RunStarted { .. } => SimTime::ZERO,
            TelemetryEvent::Tick(r) => r.t,
            TelemetryEvent::Switch(r) => r.t,
            TelemetryEvent::Heartbeat(r) => r.t,
            TelemetryEvent::Violation(r) => r.t,
            TelemetryEvent::WarmSample(r) => r.t,
            TelemetryEvent::Forecast(r) => r.t,
            TelemetryEvent::Fault(r) => r.t,
            TelemetryEvent::Recovery(r) => r.t,
            TelemetryEvent::StageSpan(r) => r.t,
            TelemetryEvent::Placement(r) => r.t,
            TelemetryEvent::NodeUtil(r) => r.t,
            TelemetryEvent::Admission(r) => r.t,
            TelemetryEvent::VendorSample(r) => r.t,
            TelemetryEvent::ShardSpan(r) => r.t,
            TelemetryEvent::FleetSample(r) => r.t,
        }
    }
}
