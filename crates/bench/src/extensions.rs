//! Extension experiments beyond the paper's figures: maintainer-side
//! billing, the vendor-level multi-tenant view, and ablations of design
//! choices DESIGN.md calls out (prewarm sizing, percentile estimator).

use crate::par_map;
use crate::report::{row, Report};
use crate::scenarios::{
    foregrounds, run_cell, run_cell_traced, standard_scenario, DEFAULT_DAY_S, DEFAULT_SEED,
};
use amoeba_core::{Experiment, ServiceSetup, SystemVariant};
use amoeba_json::json;
use amoeba_metrics::{CostModel, LogHistogram};
use amoeba_sim::SimDuration;
use amoeba_workload::{DiurnalPattern, LoadTrace};

/// Maintainer-side billing: what each deployment strategy costs under a
/// public-cloud price card (IaaS rent vs Lambda-style per-invocation).
/// The paper argues the hybrid is cost-effective for diurnal services
/// (§I); this prices the actual runs.
pub fn cost(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "cost",
        "Maintainer cost per diurnal day: Amoeba vs pure IaaS vs pure serverless",
    );
    let model = CostModel::default();
    let w = [12, 12, 12, 12, 10];
    r.line(row(
        &[
            "Name".into(),
            "Amoeba".into(),
            "Nameko".into(),
            "OpenWhisk".into(),
            "saved".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    let results = par_map(foregrounds(), |b| {
        let amoeba = run_cell(SystemVariant::Amoeba, b.clone(), day_s, seed);
        let nameko = run_cell(SystemVariant::Nameko, b.clone(), day_s, seed);
        let ow = run_cell(SystemVariant::OpenWhisk, b.clone(), day_s, seed);
        (b.name, amoeba, nameko, ow)
    });
    for (name, amoeba, nameko, ow) in results {
        // Scale the compressed day's bill to a real 24h day so the
        // numbers read like a daily cloud bill.
        let scale = 86_400.0 / day_s;
        let c_amoeba = model.cost(&amoeba.services[0].billable) * scale;
        let c_nameko = model.cost(&nameko.services[0].billable) * scale;
        let c_ow = model.cost(&ow.services[0].billable) * scale;
        let saved = 1.0 - c_amoeba / c_nameko.max(1e-12);
        r.line(row(
            &[
                name.clone(),
                format!("${c_amoeba:.2}"),
                format!("${c_nameko:.2}"),
                format!("${c_ow:.2}"),
                format!("{:.1}%", saved * 100.0),
            ],
            &w,
        ));
        out.push(json!({
            "name": name,
            "amoeba": c_amoeba, "nameko": c_nameko, "openwhisk": c_ow,
        }));
    }
    r.json = json!(out);
    r
}

/// The vendor-level view the paper's design targets (§III: "Amoeba is a
/// system designed for Cloud vendors"): *all five* benchmarks managed
/// concurrently on one shared pool, each with its own diurnal trace,
/// switching independently while the §III impact check protects
/// co-tenants.
pub fn multi_tenant(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "multi-tenant",
        "All five benchmarks under one Amoeba deployment (shared pool)",
    );
    let build = |variant| {
        let services: Vec<ServiceSetup> = foregrounds()
            .into_iter()
            .map(|spec| ServiceSetup {
                trace: LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps * 0.6, day_s),
                spec,
                background: false,
            })
            .collect();
        Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
            .services(services)
            .build()
            .run()
    };
    let (mut amoeba, nameko) = std::thread::scope(|s| {
        let a = s.spawn(|| build(SystemVariant::Amoeba));
        let n = s.spawn(|| build(SystemVariant::Nameko));
        (a.join().expect("run"), n.join().expect("run"))
    });
    let w = [12, 10, 12, 10, 10, 10];
    r.line(row(
        &[
            "Name".into(),
            "QoS".into(),
            "p95/target".into(),
            "switches".into(),
            "cpu".into(),
            "mem".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    let mut all_met = true;
    for i in 0..amoeba.services.len() {
        let base = nameko.services[i].usage;
        let fg = &mut amoeba.services[i];
        let p95 = fg.qos_latency().unwrap_or(0.0);
        let met = fg.qos_met();
        all_met &= met;
        let cpu = fg.usage.cpu_relative_to(&base);
        let mem = fg.usage.mem_relative_to(&base);
        r.line(row(
            &[
                fg.name.clone(),
                if met { "MET".into() } else { "VIOLATED".into() },
                format!("{:.3}", p95 / fg.qos_target_s),
                format!("{}", fg.switch_history.len()),
                format!("{cpu:.3}"),
                format!("{mem:.3}"),
            ],
            &w,
        ));
        out.push(json!({
            "name": fg.name,
            "qos_met": met,
            "p95_over_target": p95 / fg.qos_target_s,
            "switches": fg.switch_history.len(),
            "cpu_ratio": cpu,
            "mem_ratio": mem,
        }));
    }
    r.line(format!(
        "mean pool pressure (cpu/io/net): {:.2}/{:.2}/{:.2}; all QoS met: {all_met}",
        amoeba.mean_pressures[0], amoeba.mean_pressures[1], amoeba.mean_pressures[2]
    ));
    r.json = json!(out);
    r
}

/// §V-A's prewarm tradeoff: "too many prewarmed containers result in
/// expensive costs ... fewer ones result in potential QoS violation".
/// Sweeps a multiplier on the Eq. 7 count.
pub fn ablation_prewarm(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "ablation-prewarm",
        "Prewarm sizing: Eq. 7 multiplier vs violations and cost",
    );
    let w = [10, 14, 14, 12];
    r.line(row(
        &[
            "factor".into(),
            "sl-viol%".into(),
            "cold starts".into(),
            "cpu vs 1.0".into(),
        ],
        &w,
    ));
    let spec = amoeba_workload::benchmarks::float();
    let runs = par_map([0.25, 0.5, 1.0, 2.0, 4.0], |factor| {
        let exp = Experiment::builder(
            SystemVariant::Amoeba,
            SimDuration::from_secs_f64(day_s),
            seed,
        )
        .services(standard_scenario(spec.clone(), day_s))
        .prewarm_factor(factor)
        .build();
        (factor, exp.run())
    });
    let base_cpu = runs
        .iter()
        .find(|(f, _)| (*f - 1.0).abs() < 1e-9)
        .map(|(_, r)| r.services[0].usage.core_seconds)
        .unwrap_or(1.0);
    let mut out = Vec::new();
    for (factor, run) in &runs {
        let fg = &run.services[0];
        let viol = fg.serverless_violation_ratio();
        r.line(row(
            &[
                format!("{factor:.2}"),
                format!("{:.2}", viol * 100.0),
                format!("{}", run.cold_starts),
                format!("{:.3}", fg.usage.core_seconds / base_cpu),
            ],
            &w,
        ));
        out.push(json!({
            "factor": factor,
            "serverless_violation": viol,
            "cold_starts": run.cold_starts,
            "cpu_vs_eq7": fg.usage.core_seconds / base_cpu,
        }));
    }
    r.json = json!(out);
    r
}

/// Percentile-estimator ablation: the exact sorted recorder vs the
/// constant-memory log-bucketed histogram, on real run data — the
/// accuracy/state tradeoff DESIGN.md notes for long-horizon deployments.
pub fn ablation_percentile(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "ablation-percentile",
        "Exact vs log-histogram percentile estimation on run latencies",
    );
    let mut run = run_cell(
        SystemVariant::Amoeba,
        amoeba_workload::benchmarks::matmul(),
        day_s,
        seed,
    );
    let samples = run.services[0].latency.sorted_seconds();
    let mut hist = LogHistogram::for_latency_seconds();
    for &s in &samples {
        hist.record(s);
    }
    let w = [8, 12, 14, 10];
    r.line(row(
        &[
            "q".into(),
            "exact s".into(),
            "histogram s".into(),
            "err%".into(),
        ],
        &w,
    ));
    let n = samples.len();
    let mut out = Vec::new();
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact = samples[rank - 1];
        let est = hist.quantile(q).unwrap_or(0.0);
        let err = (est - exact).abs() / exact.max(1e-12);
        r.line(row(
            &[
                format!("{q}"),
                format!("{exact:.6}"),
                format!("{est:.6}"),
                format!("{:.2}", err * 100.0),
            ],
            &w,
        ));
        out.push(json!({"q": q, "exact": exact, "histogram": est, "err": err}));
    }
    r.line(format!(
        "samples: {n}; recorder state: {} B, histogram state: ~8.8 KB fixed",
        n * 8
    ));
    r.json = json!(out);
    r
}

/// A compressed work week: five diurnal weekdays followed by two quiet
/// weekend days (55 % / 45 % of weekday traffic). Amoeba should spend
/// visibly more of the weekend on the serverless platform.
pub fn week(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "week",
        "Amoeba across a compressed 7-day week (quiet weekend)",
    );
    let spec = amoeba_workload::benchmarks::float();
    let weekly = [1.0, 1.0, 1.0, 1.0, 1.0, 0.55, 0.45];
    let services = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps, day_s)
            .with_weekly_scale(weekly),
        spec,
        background: false,
    }];
    let horizon = SimDuration::from_secs_f64(day_s * 7.0);
    let run = Experiment::builder(SystemVariant::Amoeba, horizon, seed)
        .services(services)
        .build()
        .run();
    let fg = &run.services[0];
    let w = [8, 10, 14, 12];
    r.line(row(
        &[
            "day".into(),
            "scale".into(),
            "serverless %".into(),
            "mean cores".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // day indexes three parallel series
    for day in 0..7 {
        let from = amoeba_sim::SimTime::from_secs_f64(day as f64 * day_s);
        let to = amoeba_sim::SimTime::from_secs_f64((day + 1) as f64 * day_s);
        let sl_share = fg.mode_timeline.mean_step(from, to);
        let cores = fg.cores_timeline.mean_step(from, to);
        r.line(row(
            &[
                format!("{day}"),
                format!("{:.2}", weekly[day]),
                format!("{:.1}", sl_share * 100.0),
                format!("{cores:.1}"),
            ],
            &w,
        ));
        out.push(json!({
            "day": day,
            "scale": weekly[day],
            "serverless_share": sl_share,
            "mean_cores": cores,
        }));
    }
    r.line(format!(
        "switches over the week: {}",
        fg.switch_history.len()
    ));
    r.json = json!(out);
    r
}

/// How the placement ablation picks a node for a new query.
#[derive(Clone, Copy)]
enum Policy {
    /// Cycle through the nodes (OpenWhisk's default hashing is close to
    /// this for a uniform key mix).
    RoundRobin,
    /// The node with the lowest maximum utilisation across
    /// [cpu, io, net] — contention-aware placement.
    LeastLoaded,
    /// The first node holding a warm idle container for the service,
    /// falling back to least-loaded.
    WarmAffinity,
}

/// The node `policy` sends a new query of `service` to.
fn place(
    policy: Policy,
    nodes: &[amoeba_platform::ServerlessPlatform],
    rr_next: &mut usize,
    service: amoeba_platform::ServiceId,
) -> usize {
    let least_loaded = || {
        let mut best = 0;
        let mut best_u = f64::MAX;
        for (i, node) in nodes.iter().enumerate() {
            let u = node.utilization();
            let m = u[0].max(u[1]).max(u[2]);
            if m < best_u {
                best_u = m;
                best = i;
            }
        }
        best
    };
    match policy {
        Policy::RoundRobin => {
            let n = *rr_next;
            *rr_next = (n + 1) % nodes.len();
            n
        }
        Policy::LeastLoaded => least_loaded(),
        Policy::WarmAffinity => nodes
            .iter()
            .position(|node| node.container_count(service) > node.busy_count(service))
            .unwrap_or_else(least_loaded),
    }
}

/// Placement-policy ablation on four standalone serverless nodes: the
/// same mixed workload under round-robin, least-loaded and
/// warm-affinity placement. Contention is per node, so placement moves
/// both the tail latency and the cold-start count.
pub fn ablation_placement(seed: u64) -> Report {
    use amoeba_platform::{
        Driver, Effect, Query, QueryId, ServerlessConfig, ServerlessPlatform, ServiceId, Step,
    };
    use amoeba_sim::{SimRng, SimTime};
    let mut r = Report::new(
        "ablation-placement",
        "Multi-node placement policies: p95 latency and cold starts (4 nodes)",
    );
    let w = [14, 12, 12, 12];
    r.line(row(
        &[
            "policy".into(),
            "p95 dd s".into(),
            "p95 float".into(),
            "cold".into(),
        ],
        &w,
    ));
    let mut out = Vec::new();
    for (name, policy) in [
        ("round-robin", Policy::RoundRobin),
        ("least-loaded", Policy::LeastLoaded),
        ("warm-affinity", Policy::WarmAffinity),
    ] {
        // Every node hosts both services, under the same ids.
        let mut nodes: Vec<ServerlessPlatform> = (0..4)
            .map(|_| ServerlessPlatform::new(ServerlessConfig::default()))
            .collect();
        let (mut dd, mut fl) = (ServiceId(0), ServiceId(0));
        for node in &mut nodes {
            dd = node.register(amoeba_workload::benchmarks::dd());
            fl = node.register(amoeba_workload::benchmarks::float());
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let mut rr_next = 0;
        let mut rec_dd = amoeba_metrics::LatencyRecorder::new();
        let mut rec_fl = amoeba_metrics::LatencyRecorder::new();
        // 120s of mixed steady traffic: dd at 30 qps, float at 60 qps.
        let mut arrivals: Vec<(SimTime, (ServiceId, u64))> = Vec::new();
        let push_stream = |sid, qps: f64, base: u64, arrivals: &mut Vec<_>| {
            let gap_us = (1e6 / qps) as u64;
            let mut t = 0u64;
            let mut id = base;
            while t < 120_000_000 {
                arrivals.push((SimTime::from_micros(t), (sid, id)));
                id += 1;
                t += gap_us;
            }
        };
        push_stream(dd, 30.0, 0, &mut arrivals);
        push_stream(fl, 60.0, 1 << 32, &mut arrivals);
        arrivals.sort_by_key(|&(t, (_, id))| (t, id));
        let driver = Driver::new(|_, effect| match effect {
            // Skip the warmup third of the run.
            Effect::Completed(o) if o.query.submitted >= SimTime::from_secs(40) => {
                if o.query.service == dd {
                    rec_dd.record(o.latency());
                } else {
                    rec_fl.record(o.latency());
                }
            }
            _ => {}
        });
        driver.run(arrivals, |now, step| match step {
            Step::Arrival((service, id)) => {
                let node = place(policy, &nodes, &mut rr_next, service);
                let query = Query {
                    id: QueryId(id),
                    service,
                    submitted: now,
                };
                (node, nodes[node].submit(query, now, &mut rng))
            }
            Step::Event(node, event) => (node, nodes[node].handle(event, now, &mut rng)),
        });
        let p95_dd = rec_dd
            .quantile(0.95)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let p95_fl = rec_fl
            .quantile(0.95)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let cold: u64 = nodes.iter().map(|n| n.cold_start_count()).sum();
        r.line(row(
            &[
                name.into(),
                format!("{p95_dd:.3}"),
                format!("{p95_fl:.3}"),
                format!("{cold}"),
            ],
            &w,
        ));
        out.push(json!({
            "policy": name, "p95_dd": p95_dd, "p95_float": p95_fl, "cold_starts": cold,
        }));
    }
    r.json = json!(out);
    r
}

/// One traced Amoeba run summarised from the telemetry stream alone —
/// switch count, time-in-mode, and violation attribution all come from
/// [`amoeba_telemetry::Trace::summary`], nothing from the `RunResult`.
pub fn trace_summary(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new("trace", "Telemetry trace summary of one Amoeba run");
    let spec = amoeba_workload::benchmarks::float();
    let (_run, trace) = run_cell_traced(SystemVariant::Amoeba, spec, day_s, seed);
    let summary = trace.summary();
    for line in summary.to_string().lines() {
        r.line(line.to_string());
    }
    let services: Vec<_> = summary
        .services
        .iter()
        .map(|(name, s)| {
            json!({
                "name": name.clone(),
                "switches": s.switches,
                "aborted": s.aborted,
                "time_in_iaas_s": s.time_in_iaas.as_secs_f64(),
                "time_in_serverless_s": s.time_in_serverless.as_secs_f64(),
                "violations_cold_start": s.violations_cold_start,
                "violations_queueing": s.violations_queueing,
                "violations_contention": s.violations_contention,
            })
        })
        .collect();
    r.json = json!({
        "events": trace.len(),
        "ticks": summary.ticks,
        "heartbeats": summary.heartbeats,
        "switches": summary.switches,
        "aborted_switches": summary.aborted_switches,
        "services": services,
    });
    r
}

/// All extension reports at default scale.
pub fn all() -> Vec<Report> {
    vec![
        cost(DEFAULT_DAY_S, DEFAULT_SEED),
        multi_tenant(DEFAULT_DAY_S, DEFAULT_SEED),
        ablation_prewarm(DEFAULT_DAY_S, DEFAULT_SEED),
        ablation_percentile(DEFAULT_DAY_S, DEFAULT_SEED),
        week(DEFAULT_DAY_S, DEFAULT_SEED),
        ablation_placement(DEFAULT_SEED),
        trace_summary(DEFAULT_DAY_S, DEFAULT_SEED),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_matches_paper_economics() {
        let r = cost(240.0, 5);
        for row in r.json.as_array().unwrap() {
            let amoeba = row["amoeba"].as_f64().unwrap();
            let nameko = row["nameko"].as_f64().unwrap();
            let ow = row["openwhisk"].as_f64().unwrap();
            // The hybrid never costs more than always-on IaaS...
            assert!(amoeba <= nameko * 1.02, "{row}");
            // ...and pure serverless is the cheapest bill (it just breaks
            // QoS at peak, which the bill does not show — that is the
            // whole point of the paper's QoS-aware switching).
            assert!(ow <= amoeba * 1.02, "{row}");
        }
    }

    #[test]
    fn multi_tenant_meets_qos_and_switches() {
        let r = multi_tenant(300.0, 5);
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 5);
        let mut switched = 0;
        for row in rows {
            assert_eq!(row["qos_met"], true, "{row}");
            if row["switches"].as_u64().unwrap() > 0 {
                switched += 1;
            }
        }
        assert!(switched >= 3, "most tenants should switch: {rows:?}");
    }

    #[test]
    fn prewarm_sweep_shows_the_tradeoff() {
        let r = ablation_prewarm(300.0, 5);
        let rows = r.json.as_array().unwrap();
        let viol = |i: usize| rows[i]["serverless_violation"].as_f64().unwrap();
        let colds = |i: usize| rows[i]["cold_starts"].as_u64().unwrap();
        // Starving the prewarm (0.25x) must cause more cold starts than
        // the Eq. 7 sizing (index 2), and not fewer violations.
        assert!(colds(0) >= colds(2), "{rows:?}");
        assert!(viol(0) >= viol(2) * 0.9, "{rows:?}");
        // Over-prewarming (4x) must not reduce violations much further
        // but must not be cheaper than Eq. 7.
        let cpu4 = rows[4]["cpu_vs_eq7"].as_f64().unwrap();
        assert!(cpu4 >= 0.99, "over-prewarming can't be cheaper: {rows:?}");
    }

    #[test]
    fn placement_policies_differ_meaningfully() {
        let r = ablation_placement(5);
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        // Warm affinity minimises cold starts.
        let cold = |i: usize| rows[i]["cold_starts"].as_u64().unwrap();
        assert!(
            cold(2) <= cold(0) && cold(2) <= cold(1),
            "warm-affinity should cold-start least: {rows:?}"
        );
        // Everything completes with finite percentiles.
        for row in rows {
            assert!(row["p95_dd"].as_f64().unwrap() > 0.0);
            assert!(row["p95_float"].as_f64().unwrap() > 0.0);
        }
        // Exact seed-5 values: a flipped event/arrival tie rule or a
        // reordered schedule changes them.
        let pinned: [(&str, u64, u64, u64); 3] = [
            ("round-robin", 112, 0x3fcdbe33acd5b680, 0x3fc09e6687f455a8),
            ("least-loaded", 132, 0x3fcd8da3c21187e8, 0x3fc0b69552e2fbe3),
            ("warm-affinity", 48, 0x3fe382795703f2d4, 0x3fc1790752da9867),
        ];
        for (row, (policy, cold, dd, fl)) in rows.iter().zip(pinned) {
            assert_eq!(row["policy"].as_str(), Some(policy));
            assert_eq!(row["cold_starts"].as_u64(), Some(cold), "{row}");
            assert_eq!(row["p95_dd"].as_f64().unwrap().to_bits(), dd, "{row}");
            assert_eq!(row["p95_float"].as_f64().unwrap().to_bits(), fl, "{row}");
        }
    }

    #[test]
    fn week_spends_more_weekend_time_serverless() {
        let r = week(300.0, 5);
        let rows = r.json.as_array().unwrap();
        let weekday_sl: f64 = (0..5)
            .map(|d| rows[d]["serverless_share"].as_f64().unwrap())
            .sum::<f64>()
            / 5.0;
        let weekend_sl: f64 = (5..7)
            .map(|d| rows[d]["serverless_share"].as_f64().unwrap())
            .sum::<f64>()
            / 2.0;
        assert!(
            weekend_sl > weekday_sl,
            "weekend serverless share {weekend_sl} vs weekday {weekday_sl}"
        );
        // And the weekend allocation is correspondingly cheaper.
        let weekday_cores: f64 = (0..5)
            .map(|d| rows[d]["mean_cores"].as_f64().unwrap())
            .sum::<f64>()
            / 5.0;
        let weekend_cores: f64 = (5..7)
            .map(|d| rows[d]["mean_cores"].as_f64().unwrap())
            .sum::<f64>()
            / 2.0;
        assert!(
            weekend_cores < weekday_cores,
            "{weekend_cores} vs {weekday_cores}"
        );
    }

    #[test]
    fn histogram_percentiles_match_exact_within_precision() {
        let r = ablation_percentile(240.0, 5);
        for row in r.json.as_array().unwrap() {
            let err = row["err"].as_f64().unwrap();
            assert!(err < 0.05, "histogram error {err} too large: {row}");
        }
    }
}
