//! Repository benchmark: closed-loop exploration sessions driven through the
//! public API, compute-only, over four workloads.
//!
//! ```text
//! sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sessionbench --self-test
//! ```
//!
//! Prints every metric by name with its unit, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 naming
//! the check when a correctness check fails. See `README.md`.

mod bench;
mod metrics;
mod selftest;
mod session;
mod spans;
mod stats;
mod workload;

use bench::{Options, Report};
use metrics::unit_of;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::Workload;

/// Rounds every run makes, however short `--seconds` is: the per-iteration
/// minimum needs at least two sessions per corpus. More would stretch a
/// traced run of `async-vefull-deer` (eight sessions a round) past
/// `--seconds`.
const MIN_ROUNDS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return selftest::run();
    }
    let (w, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            eprintln!(
                "usage: sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&w, &opts);
    print_report(&report);
    match &report.failed_check {
        None => ExitCode::SUCCESS,
        Some((name, detail)) => {
            eprintln!("sessionbench: correctness check `{name}` failed: {detail}");
            ExitCode::from(1)
        }
    }
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let w = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok((
        w,
        Options {
            seed,
            seconds,
            traced,
            min_rounds: MIN_ROUNDS,
            fault_plan: None,
        },
    ))
}

/// The human-readable lines, then the JSON result as the last line.
fn print_report(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value) in &report.metrics {
        println!(
            "{:<18} {name:<34} {value:>14.6} {}",
            report.workload,
            unit_of(name)
        );
    }
    println!("{}", render_json(report));
}

fn render_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed_check.is_none(),
        report.attempted.max(1),
        report.failed
    )
}
