//! The streaming encoder against its oracle: for randomized events of
//! every kind, `write_json` must produce exactly the bytes of
//! `to_json().compact()`.
//!
//! The generators lean on the values most likely to expose a divergence:
//! NaN, ±∞, -0.0, integral floats either side of 1e15, subnormals,
//! `u64::MAX`, `None` options, and names containing quotes,
//! backslashes, control characters and multi-byte UTF-8.

use std::cell::Cell;

use amoeba_sim::SimTime;
use amoeba_telemetry::*;
use proptest::prelude::*;

/// Every event kind, in `TelemetryEvent` declaration order.
const KINDS: usize = 16;

thread_local! {
    /// Set by the decode property: NaN and ±∞ encode as `null`, which
    /// the decoder rejects for required fields, so that property draws
    /// finite floats only.
    static FINITE_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// A [`float_draw`], redrawn while non-finite under [`FINITE_ONLY`].
fn float(rng: &mut TestRng) -> f64 {
    loop {
        let x = float_draw(rng);
        if x.is_finite() || !FINITE_ONLY.get() {
            return x;
        }
    }
}

/// Floats that stress the number rule, mixed with ordinary draws.
fn float_draw(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 17] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e15 - 1.0,
        1e15,
        1e15 + 2.0,
        -1e15,
        999_999_999_999_999.5,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::EPSILON,
    ];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        // Arbitrary bit patterns: subnormals, huge and tiny exponents.
        1 => f64::from_bits(rng.next_u64()),
        // Integral values of every magnitude up to 2^63.
        2 => (rng.next_u64() >> rng.below(64)) as f64 * if rng.below(2) == 0 { 1.0 } else { -1.0 },
        _ => rng.unit_f64() * 10f64.powi(rng.below(12) as i32 - 6),
    }
}

fn opt_float(rng: &mut TestRng) -> Option<f64> {
    (rng.below(3) != 0).then(|| float(rng))
}

fn triple(rng: &mut TestRng) -> [f64; 3] {
    [float(rng), float(rng), float(rng)]
}

/// Integers, often at the top of their range.
fn int(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => u64::MAX - rng.below(3),
        1 => rng.below(10),
        _ => rng.next_u64() >> rng.below(64),
    }
}

fn index(rng: &mut TestRng) -> usize {
    match rng.below(3) {
        0 => usize::MAX,
        _ => rng.below(1 << 20) as usize,
    }
}

fn opt_index(rng: &mut TestRng) -> Option<usize> {
    (rng.below(3) != 0).then(|| index(rng))
}

fn time(rng: &mut TestRng) -> SimTime {
    SimTime::from_micros(int(rng))
}

fn flag(rng: &mut TestRng) -> bool {
    rng.below(2) == 0
}

/// A name built from awkward pieces: JSON metacharacters, every kind
/// of control character, and one- to four-byte UTF-8.
fn name(rng: &mut TestRng) -> String {
    const PIECES: [&str; 16] = [
        "svc", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "é",
        "名前", "😀", "/", " ",
    ];
    (0..rng.below(8))
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

fn pick<T: Copy>(rng: &mut TestRng, all: &[T]) -> T {
    all[rng.below(all.len() as u64) as usize]
}

fn mode(rng: &mut TestRng) -> Mode {
    pick(rng, &[Mode::Iaas, Mode::Serverless])
}

/// One random event of kind `kind` (an index below [`KINDS`]).
fn event(kind: usize, rng: &mut TestRng) -> TelemetryEvent {
    match kind {
        0 => TelemetryEvent::RunStarted {
            variant: name(rng),
            seed: int(rng),
            horizon_s: float(rng),
            services: (0..rng.below(4))
                .map(|_| ServiceInfo {
                    name: name(rng),
                    background: flag(rng),
                    initial_mode: mode(rng),
                })
                .collect(),
        },
        1 => TelemetryEvent::Tick(TickRecord {
            t: time(rng),
            service: index(rng),
            mode: mode(rng),
            load_qps: float(rng),
            mu: float(rng),
            lambda_max: float(rng),
            pressures: triple(rng),
            weights: triple(rng),
            decision: pick(
                rng,
                &[
                    TraceDecision::Stay,
                    TraceDecision::SwitchToServerless,
                    TraceDecision::SwitchToIaas,
                ],
            ),
            reason: pick(
                rng,
                &[
                    TickReason::InTransition,
                    TickReason::DwellPending,
                    TickReason::LoadBelowDownMargin,
                    TickReason::LoadAboveDownMargin,
                    TickReason::ImpactVetoed,
                    TickReason::LoadAboveUpMargin,
                    TickReason::LoadBelowUpMargin,
                ],
            ),
        }),
        2 => TelemetryEvent::Switch(SwitchRecord {
            t: time(rng),
            service: index(rng),
            from: mode(rng),
            to: mode(rng),
            phase: pick(
                rng,
                &[
                    SwitchPhase::Requested,
                    SwitchPhase::Ack,
                    SwitchPhase::Flip,
                    SwitchPhase::ReleaseIssued,
                    SwitchPhase::Drained,
                    SwitchPhase::Aborted,
                ],
            ),
            prewarm_count: int(rng) as u32,
            load_qps: float(rng),
        }),
        3 => TelemetryEvent::Heartbeat(HeartbeatRecord {
            t: time(rng),
            meter_latency_s: [opt_float(rng), opt_float(rng), opt_float(rng)],
            pressures: triple(rng),
            weights: triple(rng),
        }),
        4 => TelemetryEvent::Violation(ViolationRecord {
            t: time(rng),
            service: index(rng),
            platform: mode(rng),
            latency_s: float(rng),
            target_s: float(rng),
            cold_start_s: float(rng),
            queue_wait_s: float(rng),
            cause: pick(
                rng,
                &[
                    ViolationCause::ColdStart,
                    ViolationCause::Queueing,
                    ViolationCause::Contention,
                ],
            ),
        }),
        5 => TelemetryEvent::WarmSample(WarmSampleRecord {
            t: time(rng),
            service: index(rng),
            auth_s: float(rng),
            code_load_s: float(rng),
            result_post_s: float(rng),
            exec_s: float(rng),
        }),
        6 => TelemetryEvent::Forecast(ForecastRecord {
            t: time(rng),
            service: index(rng),
            horizon_s: float(rng),
            mean_qps: float(rng),
            lo_qps: float(rng),
            hi_qps: float(rng),
            realized_qps: opt_float(rng),
        }),
        7 => TelemetryEvent::Fault(FaultRecord {
            t: time(rng),
            kind: pick(
                rng,
                &[
                    FaultKind::ContainerCrash,
                    FaultKind::VmBootFailure,
                    FaultKind::VmSlowBoot,
                    FaultKind::AckDropped,
                    FaultKind::AckTimeout,
                    FaultKind::DrainTimeout,
                    FaultKind::MeterOutage,
                    FaultKind::MeterOutlier,
                    FaultKind::PressureSpike,
                ],
            ),
            service: opt_index(rng),
            queries_displaced: int(rng),
            queries_dropped: int(rng),
        }),
        8 => TelemetryEvent::Recovery(RecoveryRecord {
            t: time(rng),
            kind: pick(
                rng,
                &[
                    RecoveryKind::RequeuedQueryCompleted,
                    RecoveryKind::VmBootSucceeded,
                    RecoveryKind::AckReceived,
                    RecoveryKind::SwitchRolledBack,
                    RecoveryKind::DrainForced,
                ],
            ),
            service: opt_index(rng),
            after_s: float(rng),
        }),
        9 => TelemetryEvent::StageSpan(StageSpanRecord {
            t: time(rng),
            workflow: index(rng),
            instance: int(rng),
            stage: index(rng),
            service: index(rng),
            platform: mode(rng),
            latency_s: float(rng),
            budget_s: float(rng),
        }),
        10 => TelemetryEvent::Placement(PlacementRecord {
            t: time(rng),
            service: index(rng),
            node: index(rng),
            spill: flag(rng),
        }),
        11 => TelemetryEvent::NodeUtil(NodeUtilRecord {
            t: time(rng),
            mean_util: triple(rng),
            max_node_util: float(rng),
        }),
        12 => TelemetryEvent::Admission(AdmissionRecord {
            t: time(rng),
            tenant: name(rng),
            admitted: flag(rng),
            reserved_share: float(rng),
            ratio: float(rng),
        }),
        13 => TelemetryEvent::VendorSample(VendorSampleRecord {
            t: time(rng),
            pool_util: triple(rng),
            containers: int(rng),
            throttled: flag(rng),
        }),
        14 => TelemetryEvent::ShardSpan(ShardSpanRecord {
            t: time(rng),
            epoch: int(rng),
            shard: index(rng),
            cells: int(rng),
            events: int(rng),
        }),
        _ => TelemetryEvent::FleetSample(FleetSampleRecord {
            t: time(rng),
            epoch: int(rng),
            mean_util: triple(rng),
            external_pressure: triple(rng),
            throttled: flag(rng),
        }),
    }
}

fn encoded(e: &TelemetryEvent) -> String {
    // Appends: whatever the buffer already holds stays in front.
    let mut out = b"kept".to_vec();
    e.write_json(&mut out);
    assert_eq!(&out[..4], b"kept", "encoder overwrote the buffer");
    String::from_utf8(out.split_off(4)).expect("encoder wrote invalid UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each case draws one event of every kind.
    #[test]
    fn write_json_equals_the_value_printer(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case("events", seed);
        for kind in 0..KINDS {
            let e = event(kind, &mut rng);
            prop_assert_eq!(encoded(&e), e.to_json().compact(), "{:?}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each case draws one event of every kind, with finite floats, and
    /// requires the decoder to give back equal events and the same bytes.
    #[test]
    fn from_jsonl_inverts_to_jsonl(seed in 0u64..u64::MAX) {
        FINITE_ONLY.set(true);
        let mut rng = TestRng::for_case("decode", seed);
        let trace = Trace::from_events((0..KINDS).map(|k| event(k, &mut rng)).collect());
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back.events(), trace.events());
        prop_assert_eq!(back.to_jsonl(), text);
    }
}

/// `to_jsonl` is the encoder, one event per line.
#[test]
fn to_jsonl_is_encoded_lines() {
    let mut rng = TestRng::for_case("jsonl", 0);
    let events: Vec<_> = (0..KINDS).map(|k| event(k, &mut rng)).collect();
    let expected: String = events
        .iter()
        .map(|e| e.to_json().compact() + "\n")
        .collect();
    assert_eq!(Trace::from_events(events).to_jsonl(), expected);
}

/// An integer field narrower than `u64` decodes only when the value
/// fits: `prewarm_count` is a `u32`, so 2^32 + 5 is an error, not 5.
#[test]
fn out_of_range_integers_do_not_decode() {
    let line = |n: u64| {
        format!(
            "{{\"type\":\"switch\",\"t_us\":0,\"service\":0,\"from\":\"iaas\",\"to\":\"serverless\",\
             \"phase\":\"requested\",\"prewarm_count\":{n},\"load_qps\":1.0}}"
        )
    };
    let err = Trace::from_jsonl(&line(4_294_967_301)).unwrap_err();
    assert!(err.message.contains("prewarm_count"), "{err}");
    let max = Trace::from_jsonl(&line(u64::from(u32::MAX))).unwrap();
    assert_eq!(max.switch_events().next().unwrap().prewarm_count, u32::MAX);
}
