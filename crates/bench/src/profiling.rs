//! §IV-B profiling artefacts: Fig. 8 meter curves and Fig. 9 latency
//! surfaces.

use crate::par_map;
use crate::report::{row, Report};
use amoeba_core::profiler::profile_meter_empirical;
use amoeba_json::json;
use amoeba_meters::{cpu_meter, io_meter, net_meter, LatencySurface, ProfileCurve};
use amoeba_platform::ServerlessConfig;
use amoeba_workload::benchmarks;

const RESOURCES: [&str; 3] = ["CPU", "IO", "Network"];

fn meter_curve_analytic(cfg: &ServerlessConfig, resource: usize) -> ProfileCurve {
    let m = [cpu_meter(), io_meter(), net_meter()][resource].clone();
    let phases = [
        m.demand.cpu_s,
        m.demand.io_mb / cfg.per_flow_io_mbps,
        m.demand.net_mb / cfg.per_flow_net_mbps,
    ];
    let overhead = cfg.auth_s
        + cfg.code_load_base_s
        + cfg.code_load_s_per_mb * m.demand.mem_mb
        + cfg.result_post_s;
    ProfileCurve::analytic(
        phases,
        resource,
        overhead,
        cfg.slowdown_kappa[resource],
        cfg.max_utilization,
        40,
    )
}

/// Fig. 8: the latency-vs-pressure curve of each contention meter,
/// analytic (closed form) with empirical platform measurements alongside.
pub fn fig8(seed: u64) -> Report {
    let mut r = Report::new(
        "fig8",
        "Latency variation of the CPU/IO/Network contention meters with pressure",
    );
    let cfg = ServerlessConfig {
        exec_jitter_sigma: 0.0,
        // Profiling needs the filler to hold near-saturation pressure,
        // where stretched executions demand hundreds of concurrent
        // containers — lift the tenancy and memory caps for the sweep.
        tenant_container_cap: 2000,
        pool_memory_mb: 512.0 * 1024.0,
        ..Default::default()
    };
    let sweep = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
    let mut out = Vec::new();
    let results = par_map(0..3, |res| {
        let analytic = meter_curve_analytic(&cfg, res);
        let measured = profile_meter_empirical(&cfg, res, &sweep, 12, seed);
        (res, analytic, measured)
    });
    let w = [10, 12, 14];
    for (res, analytic, measured) in results {
        r.line(format!("-- {} meter --", RESOURCES[res]));
        r.line(row(
            &["pressure".into(), "model ms".into(), "measured ms".into()],
            &w,
        ));
        let mut series = Vec::new();
        for &u in &sweep {
            let a = analytic.latency_at(u);
            let m = measured.latency_at(u);
            r.line(row(
                &[
                    format!("{u:.2}"),
                    format!("{:.2}", a * 1000.0),
                    format!("{:.2}", m * 1000.0),
                ],
                &w,
            ));
            series.push(json!({"pressure": u, "model_s": a, "measured_s": m}));
        }
        out.push(json!({"resource": RESOURCES[res], "points": series}));
    }
    r.json = json!(out);
    r
}

/// Fig. 9: the latency surfaces of an example microservice (the paper
/// shows one service's sensitivity to each meter; `cloud_stor` touches
/// all three resources, so its three surfaces differ visibly).
pub fn fig9() -> Report {
    let mut r = Report::new(
        "fig9",
        "Latency surfaces of cloud_stor: p95 (s) over load x pressure",
    );
    let spec = benchmarks::cloud_stor();
    let cfg = ServerlessConfig::default();
    let phases = [
        spec.demand.cpu_s,
        spec.demand.io_mb / cfg.per_flow_io_mbps,
        spec.demand.net_mb / cfg.per_flow_net_mbps,
    ];
    let overhead = cfg.auth_s
        + cfg.code_load_base_s
        + cfg.code_load_s_per_mb * spec.demand.mem_mb
        + cfg.result_post_s;
    let loads = vec![1.0, 5.0, 10.0, 20.0, 35.0, 50.0];
    let pressures = vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9];
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // fixed [cpu, io, net] axes
    for res in 0..3 {
        let surface = LatencySurface::analytic(
            phases,
            overhead,
            res,
            cfg.slowdown_kappa[res],
            cfg.tenant_container_cap.min(cfg.memory_container_cap()),
            spec.qos_percentile,
            loads.clone(),
            pressures.clone(),
        );
        r.line(format!("-- sensitivity to {} --", RESOURCES[res]));
        let header: Vec<String> = std::iter::once("load\\P".to_string())
            .chain(pressures.iter().map(|p| format!("{p:.1}")))
            .collect();
        let widths = vec![8; header.len()];
        r.line(row(&header, &widths));
        for (i, &load) in loads.iter().enumerate() {
            let cells: Vec<String> = std::iter::once(format!("{load:.0}"))
                .chain(surface.values()[i].iter().map(|v| format!("{v:.3}")))
                .collect();
            r.line(row(&cells, &widths));
        }
        out.push(json!({
            "resource": RESOURCES[res],
            "loads": loads,
            "pressures": pressures,
            "p95": surface.values(),
        }));
    }
    r.json = json!(out);
    r
}

/// All profiling reports.
pub fn all(seed: u64) -> Vec<Report> {
    vec![fig8(seed), fig9()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_curves_are_monotone_and_close_to_model() {
        let r = fig8(3);
        for meter in r.json.as_array().unwrap() {
            let pts = meter["points"].as_array().unwrap();
            let mut prev = 0.0;
            for p in pts {
                let u = p["pressure"].as_f64().unwrap();
                let model = p["model_s"].as_f64().unwrap();
                assert!(model >= prev);
                prev = model;
                let measured = p["measured_s"].as_f64().unwrap();
                let rel = (measured - model).abs() / model;
                // Near saturation the sample-at-start approximation and
                // ramp effects widen the gap; the controller only ever
                // *inverts* the measured curve, so monotone agreement in
                // the operating band is what matters.
                let tol = if u <= 0.75 { 0.35 } else { 0.55 };
                assert!(rel < tol, "u={u}: model {model} vs measured {measured}");
            }
        }
    }

    #[test]
    fn fig9_surfaces_grow_with_pressure() {
        let r = fig9();
        for surf in r.json.as_array().unwrap() {
            let grid = surf["p95"].as_array().unwrap();
            for row in grid {
                let vals: Vec<f64> = row
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
                for w in vals.windows(2) {
                    assert!(w[1] >= w[0] - 1e-9);
                }
            }
        }
    }
}
