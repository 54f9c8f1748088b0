//! Workflow-DAG integration tests: the fan-in join semantics, the
//! single-stage lowering guarantee, per-stage conservation under
//! container crashes, and a golden-trace gate for the DAG runtime
//! (`GOLDEN_BLESS=1 cargo test --test workflow_dag` regenerates the
//! fixtures after an intentional behaviour change).

use amoeba::chaos::FaultPlan;
use amoeba::core::{Experiment, ServiceSetup, SystemVariant, WorkflowSetup};
use amoeba::sim::SimDuration;
use amoeba::telemetry::Trace;
use amoeba::workload::{
    benchmarks, DemandVector, DiurnalPattern, LoadTrace, MicroserviceSpec, WorkflowSpec,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SEED: u64 = 42;

/// A small diamond DAG — `fetch → (scale ‖ stamp) → pack` — sized so
/// tests and fixtures stay fast while still exercising fan-out and
/// fan-in.
fn diamond(e2e_target_s: f64, peak_qps: f64) -> WorkflowSpec {
    let mut wf = WorkflowSpec::builder("pipe", e2e_target_s, peak_qps);
    let fetch = wf.stage(
        "fetch",
        DemandVector {
            cpu_s: 0.008,
            mem_mb: 96.0,
            io_mb: 0.0,
            net_mb: 10.0,
        },
    );
    let scale = wf.stage(
        "scale",
        DemandVector {
            cpu_s: 0.040,
            mem_mb: 128.0,
            io_mb: 8.0,
            net_mb: 0.5,
        },
    );
    let stamp = wf.stage(
        "stamp",
        DemandVector {
            cpu_s: 0.010,
            mem_mb: 96.0,
            io_mb: 16.0,
            net_mb: 0.5,
        },
    );
    let pack = wf.stage(
        "pack",
        DemandVector {
            cpu_s: 0.015,
            mem_mb: 96.0,
            io_mb: 4.0,
            net_mb: 6.0,
        },
    );
    wf.edge(fetch, scale)
        .edge(fetch, stamp)
        .edge(scale, pack)
        .edge(stamp, pack);
    wf.build().expect("valid diamond")
}

/// One low-peak background service, so the DAG contends with something.
fn background(day_s: f64) -> Vec<ServiceSetup> {
    let mut spec = benchmarks::dd();
    spec.peak_qps *= 0.05;
    spec.name = "bg_dd".into();
    vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps, day_s),
        spec,
        background: true,
    }]
}

fn dag_experiment(variant: SystemVariant, day_s: f64, plan: Option<FaultPlan>) -> Experiment {
    let mut b = Experiment::builder(variant, SimDuration::from_secs_f64(day_s), SEED)
        .services(background(day_s))
        .workflow(WorkflowSetup {
            spec: diamond(0.9, 10.0),
            trace: LoadTrace::new(DiurnalPattern::didi(), 10.0, day_s),
        });
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    b.build()
}

// ---- fan-in join semantics -------------------------------------------

#[test]
fn fan_in_joins_on_the_slowest_branch() {
    // For every instance, both branches start exactly when `fetch`
    // completes, and `pack` starts exactly when the *slower* branch
    // completes — the join waits for the full fan-in, never a prefix.
    let day_s = 90.0;
    let (run, trace) = dag_experiment(SystemVariant::Nameko, day_s, None).run_traced();
    let wf = &run.workflows[0];
    assert!(wf.completed > 100, "too few instances to be meaningful");

    // stage index → (submit, complete), keyed by instance.
    let mut spans: BTreeMap<u64, BTreeMap<usize, (f64, f64)>> = BTreeMap::new();
    for s in trace.stage_spans() {
        let end = s.t.as_secs_f64();
        spans
            .entry(s.instance)
            .or_default()
            .insert(s.stage, (end - s.latency_s, end));
    }
    let mut joined = 0usize;
    for (instance, stages) in &spans {
        if stages.len() < 4 {
            continue; // instance still in flight at the horizon
        }
        let eps = 1e-6;
        let fetch_end = stages[&0].1;
        for branch in [1usize, 2] {
            assert!(
                (stages[&branch].0 - fetch_end).abs() < eps,
                "instance {instance}: branch {branch} started at {} but fetch ended {fetch_end}",
                stages[&branch].0,
            );
        }
        let slowest = stages[&1].1.max(stages[&2].1);
        assert!(
            (stages[&3].0 - slowest).abs() < eps,
            "instance {instance}: pack started at {} but the slowest branch ended {slowest}",
            stages[&3].0,
        );
        joined += 1;
    }
    assert!(joined > 100, "only {joined} complete instances in trace");
}

// ---- single-stage lowering -------------------------------------------

#[test]
fn single_stage_dag_lowers_to_the_plain_service_path_byte_identically() {
    // A one-stage DAG must take the legacy arrival/completion path: the
    // full telemetry stream matches a plain foreground service with the
    // same lowered spec, byte for byte.
    let day_s = 90.0;
    let demand = DemandVector {
        cpu_s: 0.050,
        mem_mb: 128.0,
        io_mb: 5.0,
        net_mb: 2.0,
    };
    let (target, peak) = (0.5, 20.0);
    let mut wf = WorkflowSpec::builder("solo", target, peak);
    wf.stage("only", demand);
    let spec = wf.build().expect("single stage is a valid DAG");

    let as_workflow = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(day_s),
        SEED,
    )
    .services(background(day_s))
    .workflow(WorkflowSetup {
        spec,
        trace: LoadTrace::new(DiurnalPattern::didi(), peak, day_s),
    })
    .build();
    let as_service = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(day_s),
        SEED,
    )
    .services({
        let mut setups = background(day_s);
        setups.push(ServiceSetup {
            trace: LoadTrace::new(DiurnalPattern::didi(), peak, day_s),
            spec: MicroserviceSpec {
                name: "solo".into(),
                demand,
                qos_target_s: target,
                qos_percentile: 0.95,
                peak_qps: peak,
                container_mem_mb: 256.0,
            },
            background: false,
        });
        setups
    })
    .build();

    let (wf_run, wf_trace) = as_workflow.run_traced();
    let (svc_run, svc_trace) = as_service.run_traced();
    assert!(
        wf_run.workflows.is_empty(),
        "a single-stage DAG must not grow instance tracking"
    );
    assert_eq!(
        wf_trace.to_jsonl(),
        svc_trace.to_jsonl(),
        "single-stage DAG and plain service traces diverge"
    );
    for (a, b) in wf_run.services.iter().zip(&svc_run.services) {
        assert_eq!(a.completed, b.completed, "{}", a.name);
    }
}

// ---- stage-aware fault conservation ----------------------------------

#[test]
fn stage_crashes_preserve_per_stage_and_instance_conservation() {
    // Container crashes mid-DAG either re-queue the displaced stage
    // query (original submit time, so its latency still spans the gap)
    // or drop it; in both cases every counter must balance — per stage
    // service and per workflow instance.
    let plans = [
        (
            "always requeue",
            FaultPlan {
                container_crash_rate_per_hour: 600.0,
                crash_drop_prob: 0.0,
                ..FaultPlan::default()
            },
            false,
        ),
        (
            "half dropped",
            FaultPlan {
                container_crash_rate_per_hour: 600.0,
                crash_drop_prob: 0.5,
                ..FaultPlan::default()
            },
            true,
        ),
    ];
    for (label, plan, expect_failures) in plans {
        // All-serverless maximises the crash surface: every stage runs
        // in containers the whole day.
        let (run, trace) = dag_experiment(SystemVariant::OpenWhisk, 150.0, Some(plan)).run_traced();
        assert!(
            trace.faults().count() > 0,
            "'{label}' scheduled no faults — nothing exercised"
        );
        for s in &run.services {
            assert_eq!(
                s.submitted,
                s.completed + s.failed,
                "'{label}': conservation broke for {}",
                s.name
            );
        }
        let wf = &run.workflows[0];
        assert_eq!(
            wf.submitted,
            wf.completed + wf.failed,
            "'{label}': instance conservation broke"
        );
        if expect_failures {
            assert!(
                wf.failed > 0,
                "'{label}': dropping crashes must surface as failed instances"
            );
        } else {
            assert_eq!(wf.failed, 0, "'{label}' must not lose instances");
            assert_eq!(wf.submitted, wf.completed, "'{label}'");
        }
    }
}

// ---- golden-trace gate ------------------------------------------------

fn fixture_path(suffix: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("workflow_amoeba_{suffix}.jsonl"))
}

fn check_golden(suffix: &str, plan: Option<FaultPlan>) {
    let (_, trace) = dag_experiment(SystemVariant::Amoeba, 90.0, plan).run_traced();
    let got = trace.to_jsonl();
    let path = fixture_path(suffix);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_BLESS=1",
            path.display()
        )
    });
    // The fixture is also a decoder corpus: it must decode and
    // re-encode to the same bytes.
    let decoded = Trace::from_jsonl(&want)
        .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
    assert!(
        decoded.to_jsonl() == want,
        "{} does not re-encode byte for byte",
        path.display()
    );
    if got != want {
        let divergence = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| i + 1)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
        panic!(
            "workflow trace ({suffix}) diverges from {} at line {divergence}",
            path.display()
        );
    }
}

#[test]
fn golden_workflow_amoeba_clean() {
    check_golden("clean", None);
}

#[test]
fn golden_workflow_amoeba_faults() {
    check_golden("faults", Some(FaultPlan::mixed()));
}
