#![warn(missing_docs)]
//! Structured telemetry for the Amoeba control loop.
//!
//! The simulation's control plane makes one QoS-critical decision per
//! service per control tick, and executes a multi-stage protocol every
//! time it switches a service between IaaS and serverless deployment.
//! This crate records that activity, and the platform, fault, workflow,
//! multi-node, tenancy and fleet activity around it, as an append-only
//! stream of typed [`TelemetryEvent`]s: a [`TelemetryEvent::RunStarted`]
//! header, then 15 record kinds — [`TickRecord`], [`SwitchRecord`],
//! [`HeartbeatRecord`], [`ViolationRecord`], [`WarmSampleRecord`],
//! [`ForecastRecord`], [`FaultRecord`], [`RecoveryRecord`],
//! [`StageSpanRecord`], [`PlacementRecord`], [`NodeUtilRecord`],
//! [`AdmissionRecord`], [`VendorSampleRecord`], [`ShardSpanRecord`] and
//! [`FleetSampleRecord`]. Switch steps reassemble into [`SwitchSpan`]s.
//!
//! Each record and each closed vocabulary ([`Mode`], [`TickReason`], …)
//! is declared once, in the `event` module. The structs, the JSON codec
//! ([`TelemetryEvent::to_json`] / [`TelemetryEvent::from_json`]), the
//! streaming encoder [`TelemetryEvent::write_json`] and the typed
//! [`Trace`] iterators are all generated from that declaration, so a
//! field is added, renamed or reordered in one place. The line format is
//! documented in `DESIGN.md` ("Telemetry event schema").
//!
//! Producers write through the [`TelemetrySink`] trait. The default
//! [`NoopSink`] reports `enabled() == false`, and instrumented code
//! guards event construction behind that check, so the disabled path
//! costs one branch and never allocates. [`MemorySink`] collects into a
//! [`Trace`], which offers typed iterators, [`Trace::switch_spans`],
//! [`Trace::summary`] and a JSON-lines serialisation
//! ([`Trace::to_jsonl`] / [`Trace::from_jsonl`]). Lines are written by
//! [`TelemetryEvent::write_json`] straight into a byte buffer;
//! [`TelemetryEvent::to_json`] is the tree form the decoder reads and
//! the encoder's test oracle.

mod encode;
pub mod event;
pub mod sink;
pub mod trace;

pub use event::{
    AdmissionRecord, DecodeError, FaultKind, FaultRecord, FleetSampleRecord, ForecastRecord,
    HeartbeatRecord, Mode, NodeUtilRecord, PlacementRecord, RecoveryKind, RecoveryRecord,
    ServiceInfo, ShardSpanRecord, StageSpanRecord, SwitchPhase, SwitchRecord, TelemetryEvent,
    TickReason, TickRecord, TraceDecision, VendorSampleRecord, ViolationCause, ViolationRecord,
    WarmSampleRecord,
};
pub use sink::{MemorySink, NoopSink, TelemetrySink};
pub use trace::{ServiceSummary, SwitchSpan, Trace, TraceSummary};
