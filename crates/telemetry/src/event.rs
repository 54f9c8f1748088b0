//! The telemetry event vocabulary and its JSON-lines encoding.
//!
//! Every event is flat, owns its data, and round-trips through one JSON
//! object with a `"type"` discriminator — see DESIGN.md §"Telemetry
//! event schema". This module declares each record and each closed
//! vocabulary exactly once; the codec, the streaming encoder and the
//! `Trace` accessors are generated from these declarations by the
//! macros in `encode.rs`.

use amoeba_sim::SimTime;

use crate::encode::{schema, vocabulary};

vocabulary! {
    /// Deployment mode, mirrored from `amoeba-core` so the trace layer does
    /// not depend on the runtime it instruments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        /// Dedicated VM group.
        Iaas = "iaas",
        /// Shared serverless pool.
        Serverless = "serverless",
    }

    /// The controller's verdict, as traced.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceDecision {
        /// Keep the current mode.
        Stay = "stay",
        /// Begin the switch to serverless.
        SwitchToServerless = "switch_to_serverless",
        /// Begin the switch to IaaS.
        SwitchToIaas = "switch_to_iaas",
    }

    /// Why the controller decided what it decided at one tick.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TickReason {
        /// A switch is already in flight; the controller was not consulted.
        InTransition = "in_transition",
        /// `min_dwell` since the last switch has not elapsed.
        DwellPending = "dwell_pending",
        /// IaaS-resident, `V_u < down_margin · λ(μ)` and the impact check
        /// passed: switch down.
        LoadBelowDownMargin = "load_below_down_margin",
        /// IaaS-resident, load too high for the pool: stay.
        LoadAboveDownMargin = "load_above_down_margin",
        /// IaaS-resident, load admissible but the §III impact check vetoed
        /// the move.
        ImpactVetoed = "impact_vetoed",
        /// Serverless-resident, `V_u > up_margin · λ(μ)`: switch up.
        LoadAboveUpMargin = "load_above_up_margin",
        /// Serverless-resident, load admissible: stay.
        LoadBelowUpMargin = "load_below_up_margin",
    }

    /// One step of the §V switch protocol.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SwitchPhase {
        /// The controller committed to a switch; the prepare signal `S_pw`
        /// (prewarm containers / boot VMs) was issued.
        Requested = "requested",
        /// The target side acknowledged readiness.
        Ack = "ack",
        /// The router flipped: new queries go to the target side.
        Flip = "flip",
        /// The shutdown signal `S_sd` was sent to the old side.
        ReleaseIssued = "release_issued",
        /// The old side's VM group finished draining in-flight queries.
        Drained = "drained",
        /// The transition was aborted before the ack.
        Aborted = "aborted",
    }

    /// What pushed a query over its QoS target.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ViolationCause {
        /// The query paid a container cold start.
        ColdStart = "cold_start",
        /// The query waited in the platform queue.
        Queueing = "queueing",
        /// Neither: the execution itself was slowed by co-tenant contention.
        Contention = "contention",
    }

    /// The class of an injected (or injector-induced) fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// A serverless container died; in-flight work was displaced.
        ContainerCrash = "container_crash",
        /// A VM boot failed and the group re-booted from scratch.
        VmBootFailure = "vm_boot_failure",
        /// A VM boot straggled past its nominal boot time.
        VmSlowBoot = "vm_slow_boot",
        /// A prewarm ack was lost between platform and engine.
        AckDropped = "ack_dropped",
        /// The engine's ack deadline expired for an in-flight switch.
        AckTimeout = "ack_timeout",
        /// An IaaS drain overran its deadline and was forced.
        DrainTimeout = "drain_timeout",
        /// A meter blackout window began: observations discarded.
        MeterOutage = "meter_outage",
        /// One meter latency sample was corrupted by a large factor.
        MeterOutlier = "meter_outlier",
        /// A transient co-tenant pressure spike hit the shared pool.
        PressureSpike = "pressure_spike",
    }

    /// How the system got back on its feet after a fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecoveryKind {
        /// A crash-displaced query was re-queued and completed.
        RequeuedQueryCompleted = "requeued_query_completed",
        /// A VM group finished booting after at least one failed attempt.
        VmBootSucceeded = "vm_boot_succeeded",
        /// A prewarm ack landed after at least one deadline retry.
        AckReceived = "ack_received",
        /// An un-ackable switch was rolled back; the old platform kept
        /// serving throughout.
        SwitchRolledBack = "switch_rolled_back",
        /// An overdue IaaS drain was forced; stragglers were re-queued on
        /// the serverless side.
        DrainForced = "drain_forced",
    }
}

impl ViolationCause {
    /// Attribution rule: cold start present → [`ViolationCause::ColdStart`];
    /// else queueing present → [`ViolationCause::Queueing`]; else the
    /// slowdown happened inside the execution → [`ViolationCause::Contention`].
    pub fn attribute(cold_start_s: f64, queue_wait_s: f64) -> Self {
        if cold_start_s > 0.0 {
            ViolationCause::ColdStart
        } else if queue_wait_s > 0.0 {
            ViolationCause::Queueing
        } else {
            ViolationCause::Contention
        }
    }
}

schema! {
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

    /// The event stream's alphabet.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TelemetryEvent {
        /// Run header: identifies the scenario the rest of the stream
        /// belongs to.
        RunStarted = "run_started" {
            /// System variant label (e.g. "Amoeba").
            variant: String,
            /// RNG seed.
            seed: u64,
            /// Simulated duration, seconds.
            horizon_s: f64,
            /// The services, in index order.
            services: Vec<ServiceInfo>,
        }

        /// Per-tick controller record.
        Tick = "tick", Trace::ticks;
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

        /// Switch-protocol step.
        Switch = "switch", Trace::switch_events;
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

        /// Monitor heartbeat.
        Heartbeat = "heartbeat", Trace::heartbeats;
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

        /// QoS violation with attribution.
        Violation = "violation", Trace::violations;
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

        /// Warm serverless breakdown sample.
        WarmSample = "warm_sample", Trace::warm_samples;
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

        /// Proactive-controller forecast (Amoeba-Pro runs only).
        Forecast = "forecast", Trace::forecasts;
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

        /// An injected fault landed (chaos runs only).
        Fault = "fault", Trace::faults;
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

        /// The system recovered from an earlier fault (chaos runs only).
        Recovery = "recovery", Trace::recoveries;
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

        /// A completed workflow stage span (workflow runs only).
        StageSpan = "stage_span", Trace::stage_spans;
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

        /// A query's node placement (multi-node runs only).
        Placement = "placement", Trace::placements;
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

        /// Fleet utilization snapshot (multi-node runs only).
        NodeUtil = "node_util", Trace::node_utils;
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

        /// A tenant admission decision (multi-tenant runs only).
        Admission = "admission";
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

        /// Vendor reclamation-loop sample (multi-tenant runs only).
        VendorSample = "vendor_sample";
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

        /// One shard's per-epoch accounting (fleet executor only).
        ShardSpan = "shard_span", Trace::shard_spans;
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

        /// Fleet-wide epoch-boundary sample (fleet executor only).
        FleetSample = "fleet_sample", Trace::fleet_samples;
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
    }
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
