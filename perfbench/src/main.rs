//! `amoeba-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload, prints each metric by name with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 without that line if a check fails, 2 on a bad
//! command line.

use std::process::ExitCode;

use amoeba_perfbench::{run, Options, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: amoeba-perfbench --workload <paper_week|fleet_week|edge_mix> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    let measured = match run(&opts) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("check failed: {msg}");
            return ExitCode::from(1);
        }
    };
    if let Some((name, _, v)) = measured.metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("check failed: {name} is {v}");
        return ExitCode::from(1);
    }
    for note in &measured.notes {
        println!("{note}");
    }
    let mut json = Vec::new();
    for (name, unit, value) in &measured.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        measured.attempted,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
