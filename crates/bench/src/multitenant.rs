//! The `multitenant` extension report (beyond the paper): populate the
//! shared serverless pool with a fleet of tenant services whose own
//! diurnal load *generates* the contention signal Amoeba's meters read,
//! and sweep the vendor's overbooking ratio. Each admitted tenant runs
//! its own Amoeba controller (per-tenant IaaS↔serverless switching);
//! the static baseline pins every tenant on dedicated IaaS capacity
//! (Nameko). At the calibrated ratio, per-tenant Amoeba must hold the
//! number of tenants in QoS violation at or below the static baseline
//! while costing the vendor less in allocated resources; across the
//! ratio sweep the report tracks the herding/oscillation signal — the
//! fraction of switch requests that fire in lock-step with another
//! tenant's.

use crate::par_map;
use crate::report::{row, Report};
use amoeba_core::{Experiment, RunResult, SystemVariant};
use amoeba_json::json;
use amoeba_sim::SimDuration;
use amoeba_telemetry::{SwitchPhase, Trace};
use amoeba_tenancy::{FleetBuilder, TenancySetup};

/// Overbooking ratios swept by the full report: reserved-share sum
/// allowed up to `ratio` × pool capacity.
pub const RATIOS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// The ratio the acceptance bar is asserted at: high enough that
/// overbooking pays (more tenants admitted than dedicated capacity
/// could hold), low enough that the emergent contention stays inside
/// what per-tenant switching can absorb.
pub const CALIBRATED_RATIO: f64 = 1.5;

/// Tenant fleet size for the full report.
pub const FLEET: usize = 16;

/// Two switch requests closer than this (by *different* tenants) count
/// as a co-flip — the herding signal. Kept below the control period so
/// only same-tick lock-step flips are counted, not adjacent ticks.
const HERDING_WINDOW_S: f64 = 2.0;

/// Control-phase jitter used by the "Amoeba+jit" rows: each tenant's
/// decision fires at its own offset, drawn once per run from `[0,
/// 0.5 × control period)` out of the tenant's RNG stream. All tenants
/// still decide once per period; only the *phase* is decorrelated.
pub const JITTER_FRAC: f64 = 0.5;

/// One cell: a tenant fleet built from `seed`, admitted at `ratio`,
/// driven through a full day with endogenous pressure on. `jitter` is
/// the control-phase jitter fraction (0.0 = the default synchronous
/// control tick, byte-identical to the pre-jitter runtime).
pub fn multitenant_cell(
    variant: SystemVariant,
    ratio: f64,
    tenants: usize,
    day_s: f64,
    seed: u64,
    jitter: f64,
) -> (RunResult, Trace) {
    let fleet = FleetBuilder::new(seed).tenants(tenants).build();
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .tenancy(TenancySetup::new(fleet, ratio))
        .control_jitter(jitter)
        .build()
        .run_traced()
}

/// Fraction of switch `Requested` steps fired within the herding
/// window (2 s) of another service's request, plus the raw request
/// count: the synchrony half of the herding/oscillation story.
pub fn co_flip_fraction(trace: &Trace) -> (f64, usize) {
    let reqs: Vec<(usize, f64)> = trace
        .switch_events()
        .filter(|e| e.phase == SwitchPhase::Requested)
        .map(|e| (e.service, e.t.as_secs_f64()))
        .collect();
    if reqs.is_empty() {
        return (0.0, 0);
    }
    let co = reqs
        .iter()
        .filter(|&&(svc, t)| {
            reqs.iter()
                .any(|&(s2, t2)| s2 != svc && (t2 - t).abs() <= HERDING_WINDOW_S)
        })
        .count();
    (co as f64 / reqs.len() as f64, reqs.len())
}

/// Multi-tenant overbooking sweep: admission, aggregate QoS, herding
/// and the vendor's books for per-tenant Amoeba vs the static
/// dedicated-capacity baseline at each overbooking ratio.
pub fn multitenant(day_s: f64, seed: u64, tenants: usize, ratios: &[f64]) -> Report {
    let mut r = Report::new(
        "multitenant",
        "Multi-tenant overbooking: per-tenant Amoeba vs static allocation",
    );

    // The static baseline never switches, so its variant is Nameko:
    // every admitted tenant holds dedicated IaaS capacity all day.
    // "Amoeba+jit" is Amoeba with per-tenant control-phase jitter —
    // the de-herding knob, measured by the same herd column.
    let variants = [
        (SystemVariant::Amoeba, "Amoeba", 0.0),
        (SystemVariant::Amoeba, "Amoeba+jit", JITTER_FRAC),
        (SystemVariant::Nameko, "static", 0.0),
    ];
    let jobs: Vec<(f64, SystemVariant, &str, f64)> = ratios
        .iter()
        .flat_map(|&q| variants.iter().map(move |&(v, l, j)| (q, v, l, j)))
        .collect();
    let runs: Vec<(RunResult, Trace)> = par_map(&jobs, |&(q, v, _, j)| {
        multitenant_cell(v, q, tenants, day_s, seed, j)
    });

    r.line(format!(
        "{tenants}-tenant fleet (seed {seed}) on one shared pool, \
         {day_s:.0} s day, endogenous pressure; \
         admission reserves Σ shares ≤ ratio:",
    ));
    let cw = [6, 8, 8, 6, 7, 6, 8, 9, 9, 9];
    r.line(row(
        &[
            "ratio".into(),
            "system".into(),
            "adm/rej".into(),
            "viol".into(),
            "viol_q".into(),
            "herd".into(),
            "sw/ten".into(),
            "revenue".into(),
            "cost".into(),
            "profit".into(),
        ],
        &cw,
    ));

    let mut cells = Vec::new();
    for ((q, _, label, jitter), (run, trace)) in jobs.iter().zip(&runs) {
        let tn = run
            .tenancy
            .as_ref()
            .expect("tenancy summary present on every cell");
        let (herd, flips) = co_flip_fraction(trace);
        let per_tenant = flips as f64 / tn.admitted.max(1) as f64;
        r.line(row(
            &[
                format!("{q:.1}"),
                (*label).into(),
                format!("{}/{}", tn.admitted, tn.rejected),
                tn.tenants_in_violation.to_string(),
                tn.violation_queries.to_string(),
                format!("{herd:.2}"),
                format!("{per_tenant:.1}"),
                format!("{:.4}", tn.ledger.revenue()),
                format!("{:.4}", tn.ledger.vendor_cost),
                format!("{:.4}", tn.ledger.profit()),
            ],
            &cw,
        ));
        cells.push(json!({
            "ratio": *q,
            "system": *label,
            "jitter": *jitter,
            "admitted": (tn.admitted as u64),
            "rejected": (tn.rejected as u64),
            "reserved_total": tn.reserved_total,
            "tenants_in_violation": (tn.tenants_in_violation as u64),
            "violation_queries": tn.violation_queries,
            "herding": herd,
            "switches": (flips as u64),
            "reclamations": tn.reclamations,
            "revenue": tn.ledger.revenue(),
            "vendor_cost": tn.ledger.vendor_cost,
            "credits": tn.ledger.credits(),
            "profit": tn.ledger.profit(),
        }));
    }
    r.line("");
    r.line(
        "viol = admitted tenants missing their QoS percentile; herd = \
         fraction of switch requests within 2 s of another tenant's \
         (lock-step herding); Amoeba+jit spreads each tenant's control \
         phase over half a period to break that lock-step; cost = \
         vendor's allocated-resource cost at list price; profit = \
         revenue - cost - SLO credits",
    );
    r.json = json!({
        "tenants": (tenants as u64),
        "seed": seed,
        "day_s": day_s,
        "calibrated_ratio": CALIBRATED_RATIO,
        "cells": cells,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::DEFAULT_SEED;

    /// Shorter than the report default so the suite stays fast; one
    /// full diurnal cycle still fits.
    const TEST_DAY_S: f64 = 240.0;

    #[test]
    fn report_meets_the_acceptance_bar() {
        let r = multitenant(TEST_DAY_S, DEFAULT_SEED, FLEET, &RATIOS);
        let cells = r.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), RATIOS.len() * 3);
        let get = |ratio: f64, system: &str| {
            cells
                .iter()
                .find(|c| c["ratio"].as_f64() == Some(ratio) && c["system"] == system)
                .unwrap_or_else(|| panic!("missing cell {ratio}/{system}"))
        };
        // The herding signal is measured across the whole sweep, for
        // both the synchronous and the jittered controller.
        for &q in &RATIOS {
            assert!(get(q, "Amoeba")["herding"].as_f64().is_some());
            assert!(get(q, "Amoeba+jit")["herding"].as_f64().is_some());
        }
        // Phase jitter must not unleash herding: summed over the
        // sweep, the jittered controller co-flips no more than the
        // synchronous one (it exists to break lock-step).
        let herd_sum = |system: &str| -> f64 {
            RATIOS
                .iter()
                .map(|&q| get(q, system)["herding"].as_f64().unwrap())
                .sum()
        };
        assert!(
            herd_sum("Amoeba+jit") <= herd_sum("Amoeba") + 1e-9,
            "jitter increased herding: {} vs {}",
            herd_sum("Amoeba+jit"),
            herd_sum("Amoeba")
        );
        // Overbooking must actually overbook: the top ratio admits more
        // tenants than the no-overbooking baseline.
        assert!(
            get(RATIOS[RATIOS.len() - 1], "Amoeba")["admitted"].as_u64()
                > get(RATIOS[0], "Amoeba")["admitted"].as_u64(),
            "ratio sweep never changed admission"
        );
        // The acceptance bar, at the calibrated ratio: per-tenant
        // Amoeba keeps no more tenants in violation than the static
        // dedicated-capacity baseline, at lower vendor cost.
        let a = get(CALIBRATED_RATIO, "Amoeba");
        let s = get(CALIBRATED_RATIO, "static");
        assert!(
            a["tenants_in_violation"].as_u64() <= s["tenants_in_violation"].as_u64(),
            "QoS bar: {a} vs {s}"
        );
        assert!(
            a["vendor_cost"].as_f64() < s["vendor_cost"].as_f64(),
            "cost bar: {a} vs {s}"
        );
    }

    #[test]
    fn cells_are_deterministic() {
        let (a, ta) = multitenant_cell(SystemVariant::Amoeba, 2.0, 6, 120.0, 7, 0.0);
        let (b, tb) = multitenant_cell(SystemVariant::Amoeba, 2.0, 6, 120.0, 7, 0.0);
        assert_eq!(a.tenancy, b.tenancy);
        assert_eq!(co_flip_fraction(&ta), co_flip_fraction(&tb));
        for (x, y) in a.services.iter().zip(&b.services) {
            assert_eq!(x.completed, y.completed, "{}", x.name);
        }
    }

    /// The jittered controller is deterministic too, and its arrival
    /// streams are identical to the synchronous run's: jitter offsets
    /// are drawn *after* every per-service arrival fork, so turning
    /// jitter on changes decision phases without touching the load.
    #[test]
    fn jittered_cells_are_deterministic_with_unchanged_load() {
        let (a, ta) = multitenant_cell(SystemVariant::Amoeba, 2.0, 6, 120.0, 7, JITTER_FRAC);
        let (b, tb) = multitenant_cell(SystemVariant::Amoeba, 2.0, 6, 120.0, 7, JITTER_FRAC);
        assert_eq!(a.tenancy, b.tenancy);
        assert_eq!(co_flip_fraction(&ta), co_flip_fraction(&tb));
        let (sync, _) = multitenant_cell(SystemVariant::Amoeba, 2.0, 6, 120.0, 7, 0.0);
        for (x, y) in a.services.iter().zip(&sync.services) {
            assert_eq!(x.submitted, y.submitted, "{}: jitter changed load", x.name);
        }
    }
}
