//! The streaming JSON-lines encoder.
//!
//! [`TelemetryEvent::write_json`] appends an event's compact JSON object
//! straight to a caller's byte buffer: no [`Value`](amoeba_json::Value)
//! tree, and no `String` per key or per number. Its bytes are exactly
//! those of `event.to_json().compact()`: the same key order, and the
//! same number and string rules, because both go through
//! `amoeba_json`'s `push_*` helpers. [`TelemetryEvent::to_json`] stays
//! as the tree form that [`TelemetryEvent::from_json`] decodes, and it
//! is the oracle this encoder is tested against.

use amoeba_json::{push_escaped, push_f64, push_u64};
use amoeba_sim::SimTime;

use crate::event::TelemetryEvent;

/// One JSON object being written, field by field, in call order.
struct Obj<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl<'a> Obj<'a> {
    /// Open an object: `{`.
    fn new(out: &'a mut Vec<u8>) -> Self {
        out.push(b'{');
        Obj { out, first: true }
    }

    /// Open an event object: `{"type":"<kind>"`.
    fn event(out: &'a mut Vec<u8>, kind: &str) -> Self {
        Obj::new(out).tag("type", kind)
    }

    /// Write `"key":` (after a comma unless it is the first field) and
    /// hand back the buffer for the value.
    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.out
    }

    fn time(self, t: SimTime) -> Self {
        self.u64("t_us", t.as_micros())
    }

    fn u64(mut self, key: &str, n: u64) -> Self {
        push_u64(self.key(key), n);
        self
    }

    fn usize(self, key: &str, n: usize) -> Self {
        self.u64(key, n as u64)
    }

    fn opt_usize(mut self, key: &str, n: Option<usize>) -> Self {
        match n {
            Some(n) => push_u64(self.key(key), n as u64),
            None => self.key(key).extend_from_slice(b"null"),
        }
        self
    }

    fn f64(mut self, key: &str, x: f64) -> Self {
        push_f64(self.key(key), x);
        self
    }

    /// `None`, like a non-finite value, is written as `null`.
    fn opt_f64(self, key: &str, x: Option<f64>) -> Self {
        self.f64(key, x.unwrap_or(f64::NAN))
    }

    fn triple(mut self, key: &str, v: [f64; 3]) -> Self {
        push_floats(self.key(key), v.map(Some));
        self
    }

    fn bool(mut self, key: &str, b: bool) -> Self {
        let text: &[u8] = if b { b"true" } else { b"false" };
        self.key(key).extend_from_slice(text);
        self
    }

    /// A user-supplied string, escaped.
    fn str(mut self, key: &str, s: &str) -> Self {
        push_escaped(self.key(key), s);
        self
    }

    /// A vocabulary tag: a fixed lower-case identifier, which needs no
    /// escaping.
    fn tag(mut self, key: &str, tag: &str) -> Self {
        let out = self.key(key);
        out.push(b'"');
        out.extend_from_slice(tag.as_bytes());
        out.push(b'"');
        self
    }

    fn close(self) {
        self.out.push(b'}');
    }
}

/// `[a,b,c]`, with `None` (and any non-finite value) as `null`.
fn push_floats(out: &mut Vec<u8>, items: [Option<f64>; 3]) {
    out.push(b'[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_f64(out, x.unwrap_or(f64::NAN));
    }
    out.push(b']');
}

impl TelemetryEvent {
    /// Append this event as one compact JSON object (no newline) to
    /// `out`. The bytes equal `self.to_json().compact()`; this is the
    /// form [`Trace::to_jsonl`](crate::Trace::to_jsonl) and digesting
    /// sinks write, into a buffer they reuse across events.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            TelemetryEvent::RunStarted {
                variant,
                seed,
                horizon_s,
                services,
            } => {
                let mut obj = Obj::event(out, "run_started")
                    .str("variant", variant)
                    .u64("seed", *seed)
                    .f64("horizon_s", *horizon_s);
                let list = obj.key("services");
                list.push(b'[');
                for (i, s) in services.iter().enumerate() {
                    if i > 0 {
                        list.push(b',');
                    }
                    Obj::new(list)
                        .str("name", &s.name)
                        .bool("background", s.background)
                        .tag("initial_mode", s.initial_mode.tag())
                        .close();
                }
                list.push(b']');
                obj.close();
            }
            TelemetryEvent::Tick(r) => Obj::event(out, "tick")
                .time(r.t)
                .usize("service", r.service)
                .tag("mode", r.mode.tag())
                .f64("load_qps", r.load_qps)
                .f64("mu", r.mu)
                .f64("lambda_max", r.lambda_max)
                .triple("pressures", r.pressures)
                .triple("weights", r.weights)
                .tag("decision", r.decision.tag())
                .tag("reason", r.reason.tag())
                .close(),
            TelemetryEvent::Switch(r) => Obj::event(out, "switch")
                .time(r.t)
                .usize("service", r.service)
                .tag("from", r.from.tag())
                .tag("to", r.to.tag())
                .tag("phase", r.phase.tag())
                .u64("prewarm_count", u64::from(r.prewarm_count))
                .f64("load_qps", r.load_qps)
                .close(),
            TelemetryEvent::Heartbeat(r) => {
                let mut obj = Obj::event(out, "heartbeat").time(r.t);
                push_floats(obj.key("meter_latency_s"), r.meter_latency_s);
                obj.triple("pressures", r.pressures)
                    .triple("weights", r.weights)
                    .close();
            }
            TelemetryEvent::Violation(r) => Obj::event(out, "violation")
                .time(r.t)
                .usize("service", r.service)
                .tag("platform", r.platform.tag())
                .f64("latency_s", r.latency_s)
                .f64("target_s", r.target_s)
                .f64("cold_start_s", r.cold_start_s)
                .f64("queue_wait_s", r.queue_wait_s)
                .tag("cause", r.cause.tag())
                .close(),
            TelemetryEvent::WarmSample(r) => Obj::event(out, "warm_sample")
                .time(r.t)
                .usize("service", r.service)
                .f64("auth_s", r.auth_s)
                .f64("code_load_s", r.code_load_s)
                .f64("result_post_s", r.result_post_s)
                .f64("exec_s", r.exec_s)
                .close(),
            TelemetryEvent::Forecast(r) => Obj::event(out, "forecast")
                .time(r.t)
                .usize("service", r.service)
                .f64("horizon_s", r.horizon_s)
                .f64("mean_qps", r.mean_qps)
                .f64("lo_qps", r.lo_qps)
                .f64("hi_qps", r.hi_qps)
                .opt_f64("realized_qps", r.realized_qps)
                .close(),
            TelemetryEvent::Fault(r) => Obj::event(out, "fault")
                .time(r.t)
                .tag("kind", r.kind.tag())
                .opt_usize("service", r.service)
                .u64("queries_displaced", r.queries_displaced)
                .u64("queries_dropped", r.queries_dropped)
                .close(),
            TelemetryEvent::Recovery(r) => Obj::event(out, "recovery")
                .time(r.t)
                .tag("kind", r.kind.tag())
                .opt_usize("service", r.service)
                .f64("after_s", r.after_s)
                .close(),
            TelemetryEvent::StageSpan(r) => Obj::event(out, "stage_span")
                .time(r.t)
                .usize("workflow", r.workflow)
                .u64("instance", r.instance)
                .usize("stage", r.stage)
                .usize("service", r.service)
                .tag("platform", r.platform.tag())
                .f64("latency_s", r.latency_s)
                .f64("budget_s", r.budget_s)
                .close(),
            TelemetryEvent::Placement(r) => Obj::event(out, "placement")
                .time(r.t)
                .usize("service", r.service)
                .usize("node", r.node)
                .bool("spill", r.spill)
                .close(),
            TelemetryEvent::NodeUtil(r) => Obj::event(out, "node_util")
                .time(r.t)
                .triple("mean_util", r.mean_util)
                .f64("max_node_util", r.max_node_util)
                .close(),
            TelemetryEvent::Admission(r) => Obj::event(out, "admission")
                .time(r.t)
                .str("tenant", &r.tenant)
                .bool("admitted", r.admitted)
                .f64("reserved_share", r.reserved_share)
                .f64("ratio", r.ratio)
                .close(),
            TelemetryEvent::VendorSample(r) => Obj::event(out, "vendor_sample")
                .time(r.t)
                .triple("pool_util", r.pool_util)
                .u64("containers", r.containers)
                .bool("throttled", r.throttled)
                .close(),
            TelemetryEvent::ShardSpan(r) => Obj::event(out, "shard_span")
                .time(r.t)
                .u64("epoch", r.epoch)
                .usize("shard", r.shard)
                .u64("cells", r.cells)
                .u64("events", r.events)
                .close(),
            TelemetryEvent::FleetSample(r) => Obj::event(out, "fleet_sample")
                .time(r.t)
                .u64("epoch", r.epoch)
                .triple("mean_util", r.mean_util)
                .triple("external_pressure", r.external_pressure)
                .bool("throttled", r.throttled)
                .close(),
        }
    }
}
