//! §VII-C/D/E ablation experiments: Fig. 14 (Amoeba-NoM usage), Fig. 15
//! (discriminant error), Fig. 16 (Amoeba-NoP QoS violation), and the
//! meter overhead accounting — plus model ablations for the design
//! choices called out in DESIGN.md.

use crate::par_map;
use crate::report::{row, Report};
use crate::scenarios::{
    foregrounds, run_cell, run_cell_traced, standard_scenario, DEFAULT_DAY_S, DEFAULT_SEED,
};
use crate::steady::max_steady_qps;
use amoeba_core::controller::ServiceModel;
use amoeba_core::{ControllerConfig, DeploymentController, SystemVariant};
use amoeba_json::json;
use amoeba_meters::LatencySurface;
use amoeba_platform::ServerlessConfig;
use amoeba_telemetry::{Mode, SwitchPhase, Trace, ViolationCause};
use amoeba_workload::MicroserviceSpec;

/// Fig. 14: resource usage of Amoeba vs Amoeba-NoM, both normalised to
/// Nameko (paper: NoM costs up to 1.77× CPU and 2.38× memory relative
/// to Amoeba because it switches to serverless late).
pub fn fig14(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "fig14",
        "Resource usage of Amoeba and Amoeba-NoM normalised to Nameko",
    );
    let w = [12, 11, 11, 11, 11, 9, 9];
    r.line(row(
        &[
            "Name".into(),
            "A cpu".into(),
            "NoM cpu".into(),
            "A mem".into(),
            "NoM mem".into(),
            "cpu x".into(),
            "mem x".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    let results = par_map(foregrounds(), |b| {
        let nameko = run_cell(SystemVariant::Nameko, b.clone(), day_s, seed);
        let amoeba = run_cell_traced(SystemVariant::Amoeba, b.clone(), day_s, seed);
        let nom = run_cell_traced(SystemVariant::AmoebaNoM, b.clone(), day_s, seed);
        (b.name, nameko, amoeba, nom)
    });
    for (name, nameko, (amoeba, amoeba_trace), (nom, nom_trace)) in results {
        let base = &nameko.services[0].usage;
        let a_cpu = amoeba.services[0].usage.cpu_relative_to(base);
        let n_cpu = nom.services[0].usage.cpu_relative_to(base);
        let a_mem = amoeba.services[0].usage.mem_relative_to(base);
        let n_mem = nom.services[0].usage.mem_relative_to(base);
        // The mechanism behind the usage gap (§VII-C): NoM's pessimistic
        // accumulation lowers λ(μ), so its switch *to serverless* fires
        // at a lower load — later on the descending shoulder of the day.
        // Read off the telemetry stream: the load the controller saw at
        // each `Requested` step toward serverless.
        let down_load = |trace: &Trace| {
            let loads: Vec<f64> = trace
                .switch_events()
                .filter(|e| {
                    e.service == 0 && e.phase == SwitchPhase::Requested && e.to == Mode::Serverless
                })
                .map(|e| e.load_qps)
                .collect();
            if loads.is_empty() {
                f64::NAN
            } else {
                loads.iter().sum::<f64>() / loads.len() as f64
            }
        };
        let a_down = down_load(&amoeba_trace);
        let n_down = down_load(&nom_trace);
        r.line(row(
            &[
                name.clone(),
                format!("{a_cpu:.3}"),
                format!("{n_cpu:.3}"),
                format!("{a_mem:.3}"),
                format!("{n_mem:.3}"),
                format!("{:.2}", n_cpu / a_cpu.max(1e-9)),
                format!("{:.2}", n_mem / a_mem.max(1e-9)),
            ],
            &w,
        ));
        r.line(format!(
            "    mean switch-down load: Amoeba {a_down:.1} qps vs NoM {n_down:.1} qps"
        ));
        out.push(json!({
            "name": name,
            "amoeba_cpu": a_cpu, "nom_cpu": n_cpu,
            "amoeba_mem": a_mem, "nom_mem": n_mem,
            "amoeba_down_load": if a_down.is_nan() { amoeba_json::Value::Null } else { json!(a_down) },
            "nom_down_load": if n_down.is_nan() { amoeba_json::Value::Null } else { json!(n_down) },
        }));
    }
    r.json = json!(out);
    r
}

/// Build a controller model for `spec` from the analytic surfaces — the
/// same construction the runtime uses.
fn model_for(spec: &MicroserviceSpec, cfg: &ServerlessConfig) -> ServiceModel {
    let phases = [
        spec.demand.cpu_s,
        spec.demand.io_mb / cfg.per_flow_io_mbps,
        spec.demand.net_mb / cfg.per_flow_net_mbps,
    ];
    let overhead = cfg.auth_s
        + cfg.code_load_base_s
        + cfg.code_load_s_per_mb * spec.demand.mem_mb
        + cfg.result_post_s;
    let l0 = phases.iter().sum::<f64>() + overhead;
    let n_max = cfg.tenant_container_cap.min(cfg.memory_container_cap());
    let loads = vec![
        0.5,
        spec.peak_qps * 0.25,
        spec.peak_qps * 0.5,
        spec.peak_qps,
        spec.peak_qps * 1.25,
    ];
    let pressures = vec![0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
    let surfaces: [LatencySurface; 3] = [0, 1, 2].map(|res| {
        LatencySurface::analytic(
            phases,
            overhead,
            res,
            cfg.slowdown_kappa[res],
            n_max,
            spec.qos_percentile,
            loads.clone(),
            pressures.clone(),
        )
    });
    let base = phases.iter().sum::<f64>().max(1e-3);
    let caps = [cfg.node.cores, cfg.node.disk_bw_mbps, cfg.node.nic_bw_mbps];
    let rates = [
        spec.demand.cpu_s / base,
        spec.demand.io_mb / base,
        spec.demand.net_mb / base,
    ];
    let util_per_qps = [0, 1, 2].map(|r| l0 * rates[r] / caps[r]);
    ServiceModel {
        spec: spec.clone(),
        l0_s: l0,
        surfaces,
        util_per_qps,
        n_max,
    }
}

/// Fig. 15: average error of the discriminant function λ(μ) against the
/// real switch point found by enumeration, with Amoeba's calibrated
/// weights vs Amoeba-NoM's pessimistic accumulation (paper: max error
/// 25.8 % → 8.3 %, min 9.1 % → 2.8 %).
pub fn fig15(seed: u64) -> Report {
    let mut r = Report::new(
        "fig15",
        "Average error of the discriminant function λ(μ): Amoeba vs Amoeba-NoM",
    );
    let cfg = ServerlessConfig::default();
    let w = [12, 12, 12, 12, 12];
    r.line(row(
        &[
            "Name".into(),
            "λ_real".into(),
            "λ Amoeba".into(),
            "λ NoM".into(),
            "err A/NoM".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    let results = par_map(foregrounds(), |b| {
        // Background contention: the standard §VII-A trio at a
        // flat mid-day level.
        let scenario = standard_scenario(b.clone(), DEFAULT_DAY_S);
        let background: Vec<(MicroserviceSpec, f64)> = scenario[1..]
            .iter()
            .map(|s| (s.spec.clone(), s.spec.peak_qps * 0.7))
            .collect();
        // λ_real by enumeration on the actual platform.
        let lambda_real = max_steady_qps(
            &b,
            SystemVariant::OpenWhisk,
            cfg,
            &background,
            b.peak_qps * 0.05,
            b.peak_qps,
            seed,
        );
        // Pressures, weights and observed service times under
        // the *same* flat background the enumeration used —
        // what the monitor would report in that steady state.
        let (observed, pressures, weights_amoeba) =
            crate::steady::steady_probe(&b, 2.0, cfg, &background, seed);
        // Predicted switch points, self-consistently including
        // the candidate's own pressure contribution.
        let mut ctl = DeploymentController::new(ControllerConfig::default());
        ctl.register(model_for(&b, &cfg));
        // Calibrate the gain from the platform's real service
        // time at this pressure (the runtime does this
        // continuously from live/shadow queries).
        if observed > 0.0 {
            for _ in 0..50 {
                ctl.observe_service_time(0, observed, pressures, weights_amoeba);
            }
        }
        let lambda_amoeba = ctl.admissible_load(0, pressures, weights_amoeba);
        // NoM: uniform weights, no gain calibration.
        let mut ctl_nom = DeploymentController::new(ControllerConfig::default());
        ctl_nom.register(model_for(&b, &cfg));
        let lambda_nom = ctl_nom.admissible_load(0, pressures, [1.0; 3]);
        (b.name, lambda_real, lambda_amoeba, lambda_nom)
    });
    for (name, real, amoeba, nom) in results {
        let err = |pred: f64| {
            if real > 0.0 {
                (pred - real).abs() / real
            } else {
                0.0
            }
        };
        let (ea, en) = (err(amoeba), err(nom));
        r.line(row(
            &[
                name.clone(),
                format!("{real:.1}"),
                format!("{amoeba:.1}"),
                format!("{nom:.1}"),
                format!("{:.1}%/{:.1}%", ea * 100.0, en * 100.0),
            ],
            &w,
        ));
        out.push(json!({
            "name": name, "lambda_real": real,
            "lambda_amoeba": amoeba, "lambda_nom": nom,
            "err_amoeba": ea, "err_nom": en,
        }));
    }
    r.json = json!(out);
    r
}

/// Fig. 16: QoS violation ratio with Amoeba-NoP (paper: 29.9–69.1 % of
/// queries violate because cold starts exceed the QoS targets), with
/// Amoeba alongside for contrast.
pub fn fig16(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new("fig16", "QoS violation of the benchmarks with Amoeba-NoP");
    let w = [12, 12, 12, 13, 13, 10, 10];
    r.line(row(
        &[
            "Name".into(),
            "NoP viol%".into(),
            "Amoeba%".into(),
            "NoP sl-viol%".into(),
            "A sl-viol%".into(),
            "switches".into(),
            "cold%".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    let results = par_map(foregrounds(), |b| {
        let nop = run_cell_traced(SystemVariant::AmoebaNoP, b.clone(), day_s, seed);
        let amoeba = run_cell(SystemVariant::Amoeba, b.clone(), day_s, seed);
        (b.name, nop, amoeba)
    });
    for (name, (nop, nop_trace), amoeba) in results {
        let v_nop = nop.services[0].violation_ratio();
        let v_amoeba = amoeba.services[0].violation_ratio();
        let sl_nop = nop.services[0].serverless_violation_ratio();
        let sl_amoeba = amoeba.services[0].serverless_violation_ratio();
        let switches = nop.services[0].switch_history.len();
        // The paper's causal claim — NoP violates *because of cold
        // starts* — read directly off the trace's attribution.
        let nop_viols = nop_trace.violations().filter(|v| v.service == 0).count();
        let nop_cold = nop_trace
            .violations()
            .filter(|v| v.service == 0 && v.cause == ViolationCause::ColdStart)
            .count();
        let cold_share = if nop_viols > 0 {
            nop_cold as f64 / nop_viols as f64
        } else {
            0.0
        };
        r.line(row(
            &[
                name.clone(),
                format!("{:.1}", v_nop * 100.0),
                format!("{:.1}", v_amoeba * 100.0),
                format!("{:.2}", sl_nop * 100.0),
                format!("{:.2}", sl_amoeba * 100.0),
                format!("{switches}"),
                format!("{:.0}", cold_share * 100.0),
            ],
            &w,
        ));
        out.push(json!({
            "name": name,
            "nop_violation": v_nop,
            "amoeba_violation": v_amoeba,
            "nop_serverless_violation": sl_nop,
            "amoeba_serverless_violation": sl_amoeba,
            "switches": switches,
            "nop_cold_start_share": cold_share,
        }));
    }
    r.json = json!(out);
    r
}

/// §VII-E: the CPU overhead of the contention meters (paper: 1.1 % /
/// 0.5 % / 0.6 %; total ≤ 1.1 % when scheduled round-trip).
pub fn overhead(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new("overhead", "Overhead of Amoeba's contention meters");
    let spec = amoeba_workload::benchmarks::float();
    let with = run_cell(SystemVariant::Amoeba, spec, day_s, seed);
    r.line(format!(
        "measured meter CPU overhead: {:.2}% of the node",
        with.meter_cpu_overhead * 100.0
    ));
    use amoeba_meters::{cpu_meter, io_meter, meter_overhead_fraction, net_meter};
    let cores = ServerlessConfig::default().node.cores;
    let per = [
        ("CPU-Memory", meter_overhead_fraction(&cpu_meter(), cores)),
        ("IO", meter_overhead_fraction(&io_meter(), cores)),
        ("Network", meter_overhead_fraction(&net_meter(), cores)),
    ];
    for (name, f) in per {
        r.line(format!("  {name} meter: {:.2}%", f * 100.0));
    }
    r.json = json!({
        "measured_total": with.meter_cpu_overhead,
        "per_meter": per.iter().map(|(n, f)| json!({"meter": n, "fraction": f})).collect::<Vec<_>>(),
    });
    r
}

/// Design ablation: alternative contention-response curvatures κ and
/// their effect on the predicted switch point — documents how sensitive
/// the controller is to the slowdown-model choice called out in
/// DESIGN.md.
pub fn ablation_slowdown() -> Report {
    let mut r = Report::new(
        "ablation-slowdown",
        "Sensitivity of λ(μ) to the contention-response curvature κ",
    );
    let spec = amoeba_workload::benchmarks::dd();
    let w = [10, 14, 14];
    r.line(row(
        &["kappa".into(), "λ @ P=0.3".into(), "λ @ P=0.6".into()],
        &w,
    ));
    let mut out = Vec::new();
    for kappa in [0.5, 1.0, 1.8, 3.0] {
        let cfg = ServerlessConfig {
            slowdown_kappa: [kappa; 3],
            ..Default::default()
        };
        let mut ctl = DeploymentController::new(ControllerConfig::default());
        ctl.register(model_for(&spec, &cfg));
        let weights = [1.0 / 3.0; 3];
        let l_low = ctl.lambda_max(0, [0.0, 0.3, 0.0], weights);
        let l_high = ctl.lambda_max(0, [0.0, 0.6, 0.0], weights);
        r.line(row(
            &[
                format!("{kappa:.1}"),
                format!("{l_low:.1}"),
                format!("{l_high:.1}"),
            ],
            &w,
        ));
        out.push(json!({"kappa": kappa, "lambda_p03": l_low, "lambda_p06": l_high}));
    }
    r.json = json!(out);
    r
}

/// All ablation reports at default scale.
pub fn all() -> Vec<Report> {
    vec![
        fig14(DEFAULT_DAY_S, DEFAULT_SEED),
        fig15(DEFAULT_SEED),
        fig16(DEFAULT_DAY_S, DEFAULT_SEED),
        overhead(DEFAULT_DAY_S, DEFAULT_SEED),
        ablation_slowdown(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_nom_is_not_cheaper_in_aggregate() {
        // On the compressed day the *usage* magnitude of NoM's
        // late-switching shrinks with the compression factor (the paper's
        // 1.77×/2.38× needs the multi-hour shoulders of a real day);
        // what must survive compression is that NoM never beats Amoeba
        // beyond the shadow-traffic noise floor. The threshold mechanism
        // itself (λ_NoM < λ_Amoeba under multi-resource pressure) is
        // pinned deterministically in
        // `controller::tests::nom_weights_are_pessimistic` and measured
        // against enumeration in fig15.
        let r = fig14(300.0, 9);
        let mut total_a = 0.0;
        let mut total_n = 0.0;
        for row in r.json.as_array().unwrap() {
            let a = row["amoeba_cpu"].as_f64().unwrap();
            let n = row["nom_cpu"].as_f64().unwrap();
            assert!(n >= a * 0.93, "NoM materially cheaper than Amoeba: {row}");
            total_a += a;
            total_n += n;
        }
        assert!(
            total_n >= total_a * 0.95,
            "NoM cheaper in aggregate: {total_n} vs {total_a}"
        );
    }

    #[test]
    fn fig16_nop_violates_more() {
        let r = fig16(300.0, 9);
        let mut worse = 0;
        for row in r.json.as_array().unwrap() {
            // The cold-start damage concentrates in the serverless-
            // executed slice, which is where the paper's Fig. 16 effect
            // lives.
            let nop = row["nop_serverless_violation"].as_f64().unwrap();
            let amo = row["amoeba_serverless_violation"].as_f64().unwrap();
            if row["switches"].as_u64().unwrap() > 0 && nop > amo * 1.2 + 0.002 {
                worse += 1;
            }
        }
        assert!(
            worse >= 4,
            "NoP must violate more wherever it switches: {}",
            r.render()
        );
    }

    #[test]
    fn ablation_slowdown_monotone() {
        let r = ablation_slowdown();
        let rows = r.json.as_array().unwrap();
        // Higher κ ⇒ lower admissible load at the same pressure.
        for w in rows.windows(2) {
            let a = w[0]["lambda_p06"].as_f64().unwrap();
            let b = w[1]["lambda_p06"].as_f64().unwrap();
            assert!(b <= a + 1e-9, "{rows:?}");
        }
    }
}
