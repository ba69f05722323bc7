//! End-to-end and per-layer benchmark of the detector's user-facing
//! paths: a one-shot `pncheck`-style scan, an editor talking to a
//! `pncheckd` over `delta`, and a multi-tenant `pncheckd` serving
//! inline `analyze` requests. Every workload runs in this one process
//! against the public API of `pnew-detector` (the daemon is a real
//! `Server` listening on loopback TCP).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_cold|edit_loop|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all.
//! `--trace 1` is a separate run that replays the workload's requests
//! in-process with spans around each call into a detector layer and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Any
//! output mismatch makes `correct` false and the exit code 1.
//! `perfbench/METRICS.md` defines every metric.

mod client;
mod edit_loop;
mod gen;
mod layers;
mod scan_cold;
mod serve;
mod span;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One measured value and its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run reports: the ops it attempted, those that
/// failed a correctness check, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked op; `ok == false` also counts it as failed
    /// and names the mismatch on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: mismatch: {}", what());
        }
    }
}

/// Command-line settings shared by every workload.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated trees and cache dirs; removed
    /// when the run ends.
    pub work: PathBuf,
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let seed = seed.unwrap_or(1);
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((workload, Args { seed, seconds, trace: trace.unwrap_or(false), work }))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "scan_cold" => scan_cold::run(&args),
        "edit_loop" => edit_loop::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other:?} (scan_cold|edit_loop|serve)")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: {workload}: no op was attempted");
        return ExitCode::from(2);
    }
    let correct = outcome.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        // Metric names and units are identifiers from this crate: no
        // character in them needs JSON escaping.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
