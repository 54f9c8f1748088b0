//! Tests of the benchmark itself: its metric names, its checks, and a
//! tiny-horizon run of every workload.

use amoeba_perfbench::{run, Options, Scale, Totals, Workload, END_TO_END, PER_LAYER};

fn names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0)
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for name in names() {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "bad metric name {name:?}"
        );
        assert!(seen.insert(name), "duplicate metric name {name}");
    }
}

/// `BENCHMARK.json` must declare exactly the metrics the program prints,
/// with the same units.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = amoeba_json::parse(&text).expect("BENCHMARK.json parses");
    for (key, printed) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(&str, &str)> = doc
            .get(key)
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").as_str().expect("a name");
                (name, m.get("unit").as_str().expect("a unit"))
            })
            .collect();
        assert_eq!(declared, printed, "{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| w.get("name").as_str().expect("a name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_runs_at_a_tiny_horizon_and_passes_its_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let measured = run(&tiny(workload, trace))
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(measured.metrics.len(), expected);
            for (name, _, value) in &measured.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            }
            assert!(measured.attempted >= 2);
        }
    }
}

#[test]
fn agreement_check_fails_on_a_perturbed_total() {
    let result = Workload::PaperWeek.experiment(7, Scale::Tiny).run();
    let totals = Totals::of(&result.services).expect("a conserving run");
    assert!(totals.submitted > 0);
    totals
        .agree(&totals, "itself")
        .expect("a run agrees with itself");
    let perturbed = [
        Totals {
            submitted: totals.submitted + 1,
            ..totals
        },
        Totals {
            completed: totals.completed - 1,
            ..totals
        },
        Totals {
            failed: totals.failed + 1,
            ..totals
        },
        Totals {
            violations: totals.violations + 1,
            ..totals
        },
        Totals {
            core_seconds: f64::from_bits(totals.core_seconds.to_bits() + 1),
            ..totals
        },
        Totals {
            switches: totals.switches + 1,
            ..totals
        },
    ];
    for p in perturbed {
        assert!(totals.agree(&p, "perturbed").is_err(), "{p:?} passed");
    }
}

#[test]
fn conservation_check_fails_on_a_lost_query() {
    let mut result = Workload::PaperWeek.experiment(7, Scale::Tiny).run();
    result.services[0].submitted += 1;
    assert!(Totals::of(&result.services).is_err());
}
