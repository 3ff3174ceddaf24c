//! End-to-end benchmark of the dpm workspace.
//!
//! ```text
//! dpm-perfbench --workload <design_space|fleet_racks|fleet_mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process: set-up, correctness checks, then
//! the measured phase, and prints one JSON result line as the last line
//! of standard output (`--trace 0`: end-to-end metrics; `--trace 1`:
//! per-layer metrics, with the recorded spans written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`). Diagnostics go to
//! standard error. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod clock;
mod design;
mod fleet;
mod report;
mod spans;
mod stats;

use std::process::ExitCode;

use report::{render, Outcome};
use spans::Tracer;

/// Errors end the run without a result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// A boxed error from a message.
pub fn fail<T>(message: impl Into<String>) -> Res<T> {
    Err(message.into().into())
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return fail(format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = value.parse()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return fail(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return fail(format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return fail("--workload is required");
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return fail(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), read from
/// the process's own status file.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse()?;
            return Ok(kb / 1024.0);
        }
    }
    fail("no VmHWM line in /proc/self/status")
}

fn run(args: &Args) -> Res<(Outcome, Tracer)> {
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "design_space" => design::run(args, &mut tracer)?,
        "fleet_racks" => fleet::run(fleet::Kind::Racks, args, &mut tracer)?,
        "fleet_mixed" => fleet::run(fleet::Kind::Mixed, args, &mut tracer)?,
        other => {
            return fail(format!(
                "unknown workload {other} (design_space, fleet_racks, fleet_mixed)"
            ))
        }
    };
    Ok((outcome, tracer))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, tracer) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("dpm-perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("dpm-perfbench: check failed: {problem}");
    }
    if tracer.enabled() {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!(
                "dpm-perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("dpm-perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    match render(&outcome, metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dpm-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
