//! `--self-test`: the benchmark's own checks, run at tiny size.
//!
//! * Smoke: every workload, untraced and traced, passes its correctness
//!   checks and emits exactly the catalogue's metrics, and `BENCHMARK.json`
//!   declares exactly the catalogue, unit for unit.
//! * Failure counting: a `FaultPlan` with permanent `Training` faults must
//!   raise the failed ratio above 0 and trip the `failed_ratio` check.

use crate::bench::{self, Options, Report};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;
use std::process::ExitCode;
use ve_sched::{FaultPlan, FaultRule, FaultSite};

pub fn run() -> ExitCode {
    let mut problems = Vec::new();
    let opts = |traced, fault_plan| Options {
        seed: 7,
        seconds: 0.0,
        traced,
        min_rounds: 2,
        fault_plan,
    };

    for w in WORKLOADS {
        for (traced, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = bench::run(&w.tiny(), &opts(traced, None));
            if let Some((check, detail)) = &report.failed_check {
                problems.push(format!(
                    "{} trace={traced}: check `{check}` failed: {detail}",
                    w.name
                ));
            }
            let emitted: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            if sorted(emitted.clone()) != sorted(expected) {
                problems.push(format!("{} trace={traced}: emitted {emitted:?}", w.name));
            }
            println!(
                "smoke {:<18} trace={} ok: {} metrics",
                w.name,
                u8::from(traced),
                emitted.len()
            );
        }
    }

    let plan = FaultPlan::new(11).with_rule(FaultSite::Training, FaultRule::permanent(1.0));
    let w = WORKLOADS[1].tiny();
    let report: Report = bench::run(&w, &opts(false, Some(plan)));
    let tripped = matches!(report.failed_check, Some(("failed_ratio", _)));
    if report.failed == 0 || !tripped {
        problems.push(format!(
            "permanent training faults on {}: failed {}/{}, check {:?}",
            w.name, report.failed, report.attempted, report.failed_check
        ));
    } else {
        println!(
            "fault    {:<18} failed_ratio {}/{} tripped `failed_ratio`",
            w.name, report.failed, report.attempted
        );
    }

    problems.extend(declared_catalogue_problems());

    for p in &problems {
        eprintln!("self-test: {p}");
    }
    if problems.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn sorted(mut v: Vec<&str>) -> Vec<&str> {
    v.sort_unstable();
    v
}

/// `BENCHMARK.json` (next to this package) must declare each catalogue
/// metric once, in the right section, with the catalogue's unit.
fn declared_catalogue_problems() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return vec![format!("cannot read {path}")];
    };
    let section = |key: &str| -> String {
        let start = json.find(&format!("\"{key}\"")).unwrap_or(json.len());
        let rest = &json[start..];
        let open = rest.find('[').unwrap_or(0);
        let close = rest.find(']').unwrap_or(rest.len());
        rest[open..close].to_string()
    };
    let mut problems = Vec::new();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = section(key);
        let entries = declared.matches("\"name\"").count();
        if entries != catalogue.len() {
            problems.push(format!(
                "BENCHMARK.json {key} declares {entries} metrics, the catalogue has {}",
                catalogue.len()
            ));
        }
        for (name, unit) in catalogue {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            if !declared.contains(&entry) {
                problems.push(format!("BENCHMARK.json {key} lacks {entry}"));
            }
        }
    }
    problems
}
