//! §VII-B evaluation: Fig. 10 (latency CDFs), Fig. 11 (resource usage),
//! Fig. 12 (switch timeline), Fig. 13 (usage timeline).

use crate::par_map;
use crate::report::{row, Report};
use crate::scenarios::{foregrounds, run_cell, DEFAULT_DAY_S, DEFAULT_SEED};
use amoeba_core::{DeployMode, RunResult, SystemVariant};
use amoeba_json::json;
use amoeba_metrics::Cdf;
use amoeba_sim::{SimDuration, SimTime};

/// Run the (benchmark × variant) grid in parallel.
fn run_grid(variants: &[SystemVariant], day_s: f64, seed: u64) -> Vec<(String, Vec<RunResult>)> {
    par_map(foregrounds(), |b| {
        let name = b.name.clone();
        let runs: Vec<RunResult> = variants
            .iter()
            .map(|&v| run_cell(v, b.clone(), day_s, seed))
            .collect();
        (name, runs)
    })
}

/// Fig. 10: cumulative distribution of latencies normalised to the QoS
/// target, for Amoeba vs Nameko vs OpenWhisk. The paper's reading: the
/// 95 %-ile is under 1.0 for Nameko and Amoeba; OpenWhisk violates for
/// the contention-heavy benchmarks; Amoeba's curve tracks OpenWhisk at
/// short latencies and Nameko in the tail.
pub fn fig10(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "fig10",
        "CDF of latencies normalised to QoS targets (Amoeba / Nameko / OpenWhisk)",
    );
    let variants = [
        SystemVariant::Amoeba,
        SystemVariant::Nameko,
        SystemVariant::OpenWhisk,
    ];
    let grid = run_grid(&variants, day_s, seed);
    let w = [12, 12, 14, 10];
    let mut out = Vec::new();
    for (name, mut runs) in grid {
        r.line(format!("-- {name} --"));
        r.line(row(
            &[
                "system".into(),
                "p95/target".into(),
                "violations%".into(),
                "queries".into(),
            ],
            &w,
        ));
        let mut per_variant = Vec::new();
        for (v, run) in variants.iter().zip(runs.iter_mut()) {
            let target = run.services[0].qos_target_s;
            let fg = &mut run.services[0];
            let p95 = fg.qos_latency().unwrap_or(0.0);
            let viol = fg.violation_ratio();
            r.line(row(
                &[
                    v.label().into(),
                    format!("{:.3}", p95 / target),
                    format!("{:.2}", viol * 100.0),
                    format!("{}", fg.completed),
                ],
                &w,
            ));
            let samples = fg.latency.sorted_seconds();
            let cdf = Cdf::normalized(&samples, target);
            let pts: Vec<_> = cdf
                .downsample(25)
                .iter()
                .map(|p| json!({"x": p.x, "p": p.p}))
                .collect();
            per_variant.push(json!({
                "system": v.label(),
                "p95_over_target": p95 / target,
                "violation_ratio": viol,
                "cdf": pts,
            }));
        }
        out.push(json!({"benchmark": name, "systems": per_variant}));
    }
    r.json = json!(out);
    r
}

/// Fig. 11: resource usage of Amoeba normalised to Nameko (paper: CPU
/// −29.1 % … −72.9 %, memory −30.2 % … −84.9 %).
pub fn fig11(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "fig11",
        "Normalised resource usage of the benchmarks with Amoeba vs Nameko",
    );
    let variants = [SystemVariant::Amoeba, SystemVariant::Nameko];
    let grid = run_grid(&variants, day_s, seed);
    let w = [12, 10, 10, 12, 12];
    r.line(row(
        &[
            "Name".into(),
            "CPU".into(),
            "Memory".into(),
            "CPU saved".into(),
            "Mem saved".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    for (name, runs) in grid {
        let amoeba = &runs[0].services[0].usage;
        let nameko = &runs[1].services[0].usage;
        let cpu = amoeba.cpu_relative_to(nameko);
        let mem = amoeba.mem_relative_to(nameko);
        r.line(row(
            &[
                name.clone(),
                format!("{cpu:.3}"),
                format!("{mem:.3}"),
                format!("{:.1}%", (1.0 - cpu) * 100.0),
                format!("{:.1}%", (1.0 - mem) * 100.0),
            ],
            &w,
        ));
        out.push(json!({"name": name, "cpu_ratio": cpu, "mem_ratio": mem}));
    }
    r.json = json!(out);
    r
}

fn mode_char(m: f64) -> char {
    if m >= 0.5 {
        's' // serverless
    } else {
        'I' // IaaS
    }
}

/// Fig. 12: the deploy-mode switch timeline of `float` and `dd` — load
/// curve, active mode, and the switch points with the load at which each
/// switch happened (the paper's black/blue stars). The up- and
/// down-switch loads are not identical.
pub fn fig12(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new("fig12", "Timeline of the deploy mode switch with Amoeba");
    let mut out = Vec::new();
    for name in ["float", "dd"] {
        let spec = amoeba_workload::benchmarks::benchmark_by_name(name).unwrap();
        let run = run_cell(SystemVariant::Amoeba, spec, day_s, seed);
        let fg = &run.services[0];
        r.line(format!("-- {name} --"));
        let step = SimDuration::from_secs_f64(day_s / 48.0);
        let grid = fg
            .load_timeline
            .resample(SimTime::ZERO, SimTime::from_secs_f64(day_s), step);
        let modes = fg
            .mode_timeline
            .resample(SimTime::ZERO, SimTime::from_secs_f64(day_s), step);
        let peak = grid.iter().map(|&(_, v)| v).fold(0.0, f64::max).max(1.0);
        for ((t, load), (_, m)) in grid.iter().zip(&modes) {
            let bar = "#".repeat((load / peak * 30.0).round() as usize);
            r.line(format!(
                "t={:>7.0}s [{}] load={:>6.1} {}",
                t.as_secs_f64(),
                mode_char(*m),
                load,
                bar
            ));
        }
        let mut switches = Vec::new();
        for (t, mode, load) in &fg.switch_history {
            let dir = match mode {
                DeployMode::Serverless => "-> serverless",
                DeployMode::Iaas => "-> IaaS",
            };
            r.line(format!(
                "  * switch at t={:.1}s {} (load {:.1} qps)",
                t.as_secs_f64(),
                dir,
                load
            ));
            switches.push(json!({
                "t_s": t.as_secs_f64(),
                "to": format!("{mode:?}"),
                "load_qps": load,
            }));
        }
        out.push(json!({"benchmark": name, "switches": switches}));
    }
    r.json = json!(out);
    r
}

/// Fig. 13: the resource-usage timeline of `float` and `dd` with Amoeba
/// (the paper's two patterns: step changes for tight-QoS services,
/// smooth tracking otherwise).
pub fn fig13(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new("fig13", "Timeline of resource usage variation with Amoeba");
    let mut out = Vec::new();
    for name in ["float", "dd"] {
        let spec = amoeba_workload::benchmarks::benchmark_by_name(name).unwrap();
        let run = run_cell(SystemVariant::Amoeba, spec, day_s, seed);
        let fg = &run.services[0];
        r.line(format!("-- {name} --"));
        let step = SimDuration::from_secs_f64(day_s / 48.0);
        let cores = fg
            .cores_timeline
            .resample(SimTime::ZERO, SimTime::from_secs_f64(day_s), step);
        let mem = fg
            .mem_timeline
            .resample(SimTime::ZERO, SimTime::from_secs_f64(day_s), step);
        let mut series = Vec::new();
        for ((t, c), (_, m)) in cores.iter().zip(&mem) {
            r.line(format!(
                "t={:>7.0}s cores={:>6.1} mem={:>8.0}MB {}",
                t.as_secs_f64(),
                c,
                m,
                "#".repeat((*c).min(40.0).round() as usize)
            ));
            series.push(json!({"t_s": t.as_secs_f64(), "cores": c, "mem_mb": m}));
        }
        out.push(json!({"benchmark": name, "series": series}));
    }
    r.json = json!(out);
    r
}

/// All evaluation reports at default scale.
pub fn all() -> Vec<Report> {
    vec![
        fig10(DEFAULT_DAY_S, DEFAULT_SEED),
        fig11(DEFAULT_DAY_S, DEFAULT_SEED),
        fig12(DEFAULT_DAY_S, DEFAULT_SEED),
        fig13(DEFAULT_DAY_S, DEFAULT_SEED),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_DAY: f64 = 300.0;

    #[test]
    fn fig10_qos_shape_holds() {
        let r = fig10(TEST_DAY, 7);
        let mut openwhisk_violations = 0usize;
        for bench in r.json.as_array().unwrap() {
            for sys in bench["systems"].as_array().unwrap() {
                let label = sys["system"].as_str().unwrap();
                let p95 = sys["p95_over_target"].as_f64().unwrap();
                match label {
                    "Nameko" => assert!(p95 <= 1.0, "{bench}"),
                    "Amoeba" => assert!(p95 <= 1.05, "Amoeba p95/target {p95} in {bench}"),
                    "OpenWhisk" if p95 > 1.0 => {
                        openwhisk_violations += 1;
                    }
                    _ => {}
                }
            }
        }
        // Paper: OpenWhisk violates QoS for several benchmarks (matmul,
        // dd, cloud_stor there).
        assert!(
            openwhisk_violations >= 2,
            "violations {openwhisk_violations}"
        );
    }

    #[test]
    fn fig11_amoeba_saves_resources() {
        let r = fig11(TEST_DAY, 7);
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 5);
        let mut saved_any = 0;
        for row in rows {
            let cpu = row["cpu_ratio"].as_f64().unwrap();
            let mem = row["mem_ratio"].as_f64().unwrap();
            assert!(cpu < 1.05, "{row}");
            assert!(mem < 1.05, "{row}");
            if cpu < 0.9 && mem < 0.9 {
                saved_any += 1;
            }
        }
        assert!(saved_any >= 3, "at least most benchmarks save >10%: {r:?}");
    }

    #[test]
    fn fig12_switch_loads_differ() {
        let r = fig12(TEST_DAY, 7);
        for bench in r.json.as_array().unwrap() {
            let switches = bench["switches"].as_array().unwrap();
            assert!(
                !switches.is_empty(),
                "{} must switch at least once",
                bench["benchmark"]
            );
            // Where both directions occur, the switch loads differ (the
            // Fig. 12 observation).
            let to_sl: Vec<f64> = switches
                .iter()
                .filter(|s| s["to"] == "Serverless")
                .map(|s| s["load_qps"].as_f64().unwrap())
                .collect();
            let to_iaas: Vec<f64> = switches
                .iter()
                .filter(|s| s["to"] == "Iaas")
                .map(|s| s["load_qps"].as_f64().unwrap())
                .collect();
            if !to_sl.is_empty() && !to_iaas.is_empty() {
                assert!(
                    (to_sl[0] - to_iaas[0]).abs() > 1.0,
                    "switch loads identical: {switches:?}"
                );
            }
        }
    }
}
