//! `flbench` — one FL-round benchmark over the MixNN workspace.
//!
//! ```text
//! flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable context lines, then one JSON result line. Exits
//! 0 when every round passed its checks, 1 when any failed, 2 on bad
//! arguments or a failed set-up.

use flbench::runner::{self, Options};
use flbench::workloads::NAMES;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: flbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let trace_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-seed{seed}.json"))
    });
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
        perturb_aggregate: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("flbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match runner::run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for (name, value, unit) in &report.metrics {
                println!("  {name} = {value} {unit}");
            }
            println!("{}", report.json_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("flbench: {e}");
            ExitCode::from(2)
        }
    }
}
